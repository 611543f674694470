"""Reverse engineering the logical-to-physical row address mapping.

RowHammer adjacency is physical, but the memory controller only sees
logical row addresses, and vendors remap the two.  The paper (§3.1,
following Orosa et al. MICRO'21) reverse-engineers the mapping before
hammering.  The technique: hammer one row hard, single-sided, and observe
*which logical rows* collect bitflips — those are its physical neighbours.
Repeating for a set of probe rows yields adjacency constraints that pin
down the mapping scheme.

The fit enumerates the family of mappings real devices use (an XOR
swizzle of low address bits gated by one control bit, including the
identity) and keeps the candidates consistent with every observation.
The search space is tiny (a few thousand candidates), the observations
are cheap, and the procedure is self-validating: if no candidate (or more
than one) survives, it raises instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from repro.bender.host import HostInterface
from repro.core.hammer import HammerProbe
from repro.core.patterns import ROWSTRIPE0, DataPattern
from repro.core.rowdata import byte_fill_bits, count_flips
from repro.dram.address import DramAddress, RowAddressMapper
from repro.dram.geometry import Geometry
from repro.errors import ExperimentError


@dataclass(frozen=True)
class AdjacencyObservation:
    """One probe: hammering ``aggressor`` flipped rows in ``victims``."""

    aggressor: int
    victims: Tuple[int, ...]


def observe_adjacency(host: HostInterface, channel: int, pseudo_channel: int,
                      bank: int, aggressor_row: int,
                      window: int = 8,
                      hammer_count: int = 200_000,
                      pattern: DataPattern = ROWSTRIPE0
                      ) -> AdjacencyObservation:
    """Hammer one row single-sided; report which logical rows flipped.

    The window of logical rows around the aggressor is initialized with
    the victim byte, the aggressor with the aggressor byte; after
    hammering, every window row is read back and rows with flips are the
    aggressor's physical neighbours (as logical addresses).  Fill,
    hammering and read-back are one test program
    (:class:`~repro.core.hammer.HammerProbe`).
    """
    geometry = host.device.geometry
    rows = range(max(0, aggressor_row - window),
                 min(geometry.rows - 1, aggressor_row + window) + 1)
    victims = [row for row in rows if row != aggressor_row]
    probe = HammerProbe(
        host, DramAddress(channel, pseudo_channel, bank, aggressor_row),
        [(row, pattern.aggressor_byte if row == aggressor_row
          else pattern.victim_byte) for row in rows],
        [aggressor_row], victims)
    execution = probe.run(hammer_count)
    expected = byte_fill_bits(pattern.victim_byte, geometry.row_bytes)
    return AdjacencyObservation(
        aggressor=aggressor_row,
        victims=tuple(row for row, read_bits in zip(victims,
                                                    execution.row_reads)
                      if count_flips(read_bits, expected) > 0))


def _candidate_mappers(geometry: Geometry,
                       max_swizzle_bits: int = 8) -> List[RowAddressMapper]:
    """The mapping family to search: identity + single-control XOR swizzles."""
    candidates = [RowAddressMapper.identity(geometry)]
    control_bits = []
    bit = 1
    while bit < geometry.rows:
        control_bits.append(bit)
        bit <<= 1
    swizzle_limit = min(1 << max_swizzle_bits, geometry.rows)
    for control_bit in control_bits:
        for swizzle_mask in range(1, swizzle_limit):
            if swizzle_mask & control_bit:
                continue
            candidates.append(RowAddressMapper(
                geometry, control_bit=control_bit,
                swizzle_mask=swizzle_mask))
    return candidates


def _consistent(mapper: RowAddressMapper,
                observation: AdjacencyObservation,
                rows: int) -> bool:
    """Whether a candidate mapping explains one observation.

    Every flipped row must be a physical +-1 neighbour of the aggressor.
    Zero-victim observations are treated as uninformative rather than
    contradictory: a probe can legitimately come back empty when both
    neighbours are unusually robust (e.g. in the protected last
    subarray), and subarray-edge aggressors flip only one side.
    :func:`reverse_engineer_mapping` separately requires that enough
    probes were informative.
    """
    observed = set(observation.victims)
    if not observed:
        return True
    neighbors: Set[int] = set(mapper.physical_neighbors(
        observation.aggressor))
    return observed.issubset(neighbors)


def reverse_engineer_mapping(host: HostInterface, channel: int = 0,
                             pseudo_channel: int = 0, bank: int = 0,
                             probe_rows: Sequence[int] = (),
                             window: int = 8,
                             hammer_count: int = 200_000
                             ) -> RowAddressMapper:
    """Discover the row mapping from RowHammer adjacency observations.

    Args:
        host: testing-station interface.
        channel / pseudo_channel / bank: where to probe (the scheme is
            uniform across banks, as on real devices).
        probe_rows: aggressors to hammer; defaults to a spread designed
            to exercise every low address bit in both states.
        window: logical rows scanned around each aggressor.
        hammer_count: single-sided hammers per probe (must be far above
            the worst-case HC_first so both victims flip reliably).

    Raises:
        ExperimentError: if no candidate — or more than one — explains
            every observation (ambiguity means more probes are needed).
    """
    geometry = host.device.geometry
    if not probe_rows:
        # A candidate with control bit b is only exercised by probes
        # whose address has bit b set; and because XOR swizzles are
        # involutions, probes right at a block start can coincidentally
        # match the identity's neighbourhoods.  A dense run of probes
        # *inside* each power-of-two block (plus the row just below it)
        # refutes every wrong candidate, even when a subarray boundary
        # hides one victim side.
        rows = set(range(16, 32))
        bit = 1
        while bit < geometry.rows:
            for candidate in range(bit - 1, bit + 10):
                if 1 <= candidate < geometry.rows - 1:
                    rows.add(candidate)
            # Masks with high bits shift whole 16/32/...-row groups;
            # their adjacency differs from the truth only at group
            # boundaries inside the bit's block, so probe the boundary
            # pairs at every multiple of 16 there (masks are < 256, so
            # one 256-row stretch per control bit suffices).
            stretch_end = min(2 * bit, bit + 256, geometry.rows)
            for boundary in range(bit + 16, stretch_end + 1, 16):
                for candidate in (boundary - 1, boundary):
                    if 1 <= candidate < geometry.rows - 1:
                        rows.add(candidate)
            bit <<= 1
        probe_rows = sorted(rows)
    observations = [
        observe_adjacency(host, channel, pseudo_channel, bank, row,
                          window=window, hammer_count=hammer_count)
        for row in probe_rows
    ]
    informative = sum(1 for observation in observations
                      if observation.victims)
    if informative < max(4, len(observations) // 2):
        raise ExperimentError(
            f"only {informative}/{len(observations)} probes produced "
            "bitflips; raise hammer_count or pick more vulnerable rows")

    survivors = [
        mapper for mapper in _candidate_mappers(geometry)
        if all(_consistent(mapper, observation, geometry.rows)
               for observation in observations)
    ]
    if not survivors:
        raise ExperimentError(
            "no candidate mapping explains the adjacency observations; "
            "the device uses a scheme outside the searched family")
    if len(survivors) > 1:
        # Several candidates can survive while still being *adjacency
        # equivalent* — e.g. a whole-block XOR shift whose only
        # distinguishing rows sit on subarray boundaries, where the
        # single-sided probe is blind.  RowHammer methodology consumes
        # only adjacency (which logical rows to hammer around a victim),
        # so equivalence on that relation is full success; genuine
        # disagreement means more probes are needed.
        reference = survivors[0]
        sample = list(range(1, geometry.rows - 1,
                            max(1, geometry.rows // 4096)))
        for other in survivors[1:]:
            if any(sorted(reference.physical_neighbors(row)) !=
                   sorted(other.physical_neighbors(row))
                   for row in sample):
                raise ExperimentError(
                    f"{len(survivors)} adjacency-inequivalent mappings "
                    "explain the observations; add probe rows to "
                    "disambiguate")
    return survivors[0]
