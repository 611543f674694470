"""Single- and double-sided RowHammer primitives.

The paper's main access pattern is **double-sided** RowHammer (§3.1):
alternate activations of the two rows physically adjacent to a victim.
One *hammer* is one pair of activations (one per aggressor).  The paper
also uses **single-sided** hammering — repeatedly activating one row — to
reverse-engineer subarray boundaries (footnote 3).

Both primitives are built from the same ingredients:

1. *Prepare*: write the data pattern into the victim, the aggressors, and
   the surrounding rows (V±[2:8], Table 1), addressing *physical*
   neighbourhoods through the reverse-engineered row mapping.
2. *Hammer*: a test program that loops ACT/PRE over the aggressor(s).
3. *Readback*: read the victim row(s) and count flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence


from repro.bender.host import HostInterface
from repro.bender.program import Program, ProgramBuilder
from repro.core.patterns import DataPattern
from repro.core.rowdata import FlipReport, byte_fill_bits, flip_report
from repro.dram.address import DramAddress, RowAddressMapper
from repro.errors import ExperimentError
from repro.obs import get_metrics, get_tracer
from repro.verify.program import VerifyContext

#: Physical radius of rows initialized around the victim (Table 1 uses
#: V±[2:8] around the aggressors at V±1).
NEIGHBORHOOD_RADIUS = 8

#: Interned full-row fill payloads, keyed by (fill byte, row bytes).
#: Reusing the identical bytes object keeps program-cache keys cheap
#: (CPython caches a bytes object's hash after the first computation).
_FILL_ROWS: Dict[tuple, bytes] = {}


def _fill_row(fill: int, row_bytes: int) -> bytes:
    key = (fill, row_bytes)
    cached = _FILL_ROWS.get(key)
    if cached is None:
        cached = _FILL_ROWS[key] = bytes([fill]) * row_bytes
    return cached


@dataclass(frozen=True)
class HammerOutcome:
    """Result of hammering and reading back one victim row."""

    victim: DramAddress
    pattern: DataPattern
    hammer_count: int
    report: FlipReport
    duration_s: float

    @property
    def flips(self) -> int:
        return self.report.flips

    @property
    def ber(self) -> float:
        return self.report.ber


def physical_neighborhood(mapper: RowAddressMapper, victim_row: int,
                          total_rows: int,
                          radius: int = NEIGHBORHOOD_RADIUS
                          ) -> Dict[int, int]:
    """Map physical offset -> logical row for the victim's surroundings.

    Offsets whose physical rows fall outside the bank are omitted (the
    paper's first/last rows simply have a truncated neighbourhood).
    """
    physical_victim = mapper.logical_to_physical(victim_row)
    neighborhood: Dict[int, int] = {}
    for offset in range(-radius, radius + 1):
        physical = physical_victim + offset
        if 0 <= physical < total_rows:
            neighborhood[offset] = mapper.physical_to_logical(physical)
    return neighborhood


def prepare_neighborhood(host: HostInterface, mapper: RowAddressMapper,
                         victim: DramAddress, pattern: DataPattern,
                         radius: int = NEIGHBORHOOD_RADIUS) -> Dict[int, int]:
    """Write the data pattern into the victim's physical neighbourhood.

    Returns the physical-offset -> logical-row map used, so callers can
    find the aggressors (offsets ±1) without re-deriving it.
    """
    geometry = host.device.geometry
    neighborhood = physical_neighborhood(
        mapper, victim.row, geometry.rows, radius)
    # One program for the whole neighbourhood: same ACT/WRROW/PRE
    # stream as per-row write_row calls, but the shape caches once per
    # (pattern, truncation) and the fast path batches the triads.
    items = [(logical_row,
              _fill_row(pattern.byte_for_offset(offset), geometry.row_bytes))
             for offset, logical_row in sorted(neighborhood.items())]
    host.write_rows(victim.channel, victim.pseudo_channel, victim.bank,
                    items)
    return neighborhood


def build_hammer_program(victim: DramAddress, aggressor_rows: Sequence[int],
                         hammer_count: int) -> Program:
    """LOOP hammer_count { ACT/PRE each aggressor } as a test program."""
    if hammer_count < 0:
        raise ExperimentError(f"hammer_count must be >= 0, got {hammer_count}")
    if not aggressor_rows:
        raise ExperimentError("need at least one aggressor row")
    builder = ProgramBuilder()
    if hammer_count > 0:
        with builder.loop(hammer_count):
            for row in aggressor_rows:
                builder.act(victim.channel, victim.pseudo_channel,
                            victim.bank, row)
                builder.pre(victim.channel, victim.pseudo_channel,
                            victim.bank)
    return builder.build()


def hammer_checks(host: HostInterface, victim: DramAddress,
                  aggressor_rows: Sequence[int], hammer_count: int,
                  **overrides) -> VerifyContext:
    """The static checks a hammer payload declares before it runs.

    DRAM protocol and timing against the host's parameters and — the
    property dynamic execution cannot check — that every declared
    aggressor row is activated exactly ``hammer_count`` times, so BER
    and HC_first are attributed to the hammer count the experiment
    records.  ``overrides`` go to :meth:`VerifyContext.for_host`.
    """
    expected = {(victim.channel, victim.pseudo_channel, victim.bank, row):
                hammer_count for row in aggressor_rows}
    return VerifyContext.for_host(host, expected_hammers=expected,
                                  **overrides)


def _run_hammer(host: HostInterface, victim: DramAddress,
                aggressor_rows: Sequence[int], hammer_count: int):
    """Run :func:`build_hammer_program` through the host's shape cache.

    The shape is keyed by the bank and the number of aggressors; the
    rows and the hammer count are its row and count bindings, and the
    declared per-aggressor count is the count binding itself, so a
    verdict at the largest count carries to every smaller one.  Count 0
    builds an empty program, its own row-free shape.
    """
    key = ("hammer", victim.channel, victim.pseudo_channel, victim.bank,
           len(aggressor_rows))
    if hammer_count:
        rows, count = tuple(aggressor_rows), hammer_count
    else:
        key, rows, count = key + (0,), (), None
    return host.cached_run(
        key, rows,
        lambda: build_hammer_program(victim, aggressor_rows, hammer_count),
        lambda: hammer_checks(host, victim, aggressor_rows, hammer_count),
        count)


class DoubleSidedHammer:
    """The paper's primary access pattern (§3.1)."""

    def __init__(self, host: HostInterface, mapper: RowAddressMapper) -> None:
        self._host = host
        self._mapper = mapper

    def aggressors_of(self, victim: DramAddress) -> List[int]:
        """Logical rows physically adjacent to the victim."""
        return list(self._mapper.physical_neighbors(victim.row))

    def run(self, victim: DramAddress, pattern: DataPattern,
            hammer_count: int, prepare: bool = True) -> HammerOutcome:
        """Prepare, hammer ``hammer_count`` pairs, read back the victim.

        Args:
            victim: the victim row (logical address).
            pattern: Table 1 data pattern for the neighbourhood fill.
            hammer_count: activation pairs (one ACT per aggressor each).
            prepare: skip the data-fill step when False (caller already
                initialized the neighbourhood — used by search loops that
                restore state themselves).
        """
        host = self._host
        geometry = host.device.geometry
        tracer = get_tracer()
        metrics = get_metrics()
        if prepare:
            with tracer.span("prepare"):
                prepare_neighborhood(host, self._mapper, victim, pattern)
        aggressors = self.aggressors_of(victim)
        if len(aggressors) < 2:
            raise ExperimentError(
                f"victim {victim} has {len(aggressors)} physical "
                "neighbour(s); double-sided hammering needs two")
        with tracer.span("hammer", hammers=hammer_count):
            # Through the engine: the program *shape* (everything but
            # the aggressor rows and the hammer count) is assembled and
            # verified once, then re-instantiated per victim and count
            # by patching the ACT rows and the loop count.
            execution = _run_hammer(host, victim, aggressors, hammer_count)
        duration_s = host.device.timing.seconds(execution.duration_cycles)

        with tracer.span("readback"):
            read_bits = host.read_row(victim)
            expected = byte_fill_bits(pattern.victim_byte, geometry.row_bytes)
            report = flip_report(read_bits, expected)
        metrics.counter("hammer.double_sided").inc()
        metrics.counter("hammer.pairs").inc(hammer_count)
        metrics.counter("bitflips.observed").inc(report.flips)
        return HammerOutcome(victim=victim, pattern=pattern,
                             hammer_count=hammer_count,
                             report=report,
                             duration_s=duration_s)


class SingleSidedHammer:
    """Repeated activation of one aggressor row.

    Used by the subarray reverse engineering (footnote 3): an aggressor at
    a subarray edge induces flips in only one of its two logical-distance
    neighbours.
    """

    def __init__(self, host: HostInterface, mapper: RowAddressMapper) -> None:
        self._host = host
        self._mapper = mapper

    def run(self, aggressor: DramAddress, pattern: DataPattern,
            hammer_count: int,
            prepare: bool = True) -> Dict[int, FlipReport]:
        """Hammer one aggressor; read back both potential victims.

        Returns a dict keyed by physical offset (-1 and/or +1) with the
        flip report of each existing neighbour row.
        """
        host = self._host
        geometry = host.device.geometry
        mapper = self._mapper
        if prepare:
            # Around a single-sided aggressor, the "victims" are at ±1;
            # fill them with the victim byte and everything else per the
            # same convention, centered on the aggressor.
            physical_aggressor = mapper.logical_to_physical(aggressor.row)
            for offset in range(-NEIGHBORHOOD_RADIUS,
                                NEIGHBORHOOD_RADIUS + 1):
                physical = physical_aggressor + offset
                if not 0 <= physical < geometry.rows:
                    continue
                logical = mapper.physical_to_logical(physical)
                if offset == 0:
                    fill = pattern.aggressor_byte
                elif abs(offset) == 1:
                    fill = pattern.victim_byte
                else:
                    fill = pattern.surround_byte
                host.write_row(aggressor.with_row(logical),
                               bytes([fill]) * geometry.row_bytes)

        with get_tracer().span("hammer", hammers=hammer_count,
                               single_sided=True):
            _run_hammer(host, aggressor, [aggressor.row], hammer_count)

        expected = byte_fill_bits(pattern.victim_byte, geometry.row_bytes)
        physical_aggressor = mapper.logical_to_physical(aggressor.row)
        reports: Dict[int, FlipReport] = {}
        for offset in (-1, +1):
            physical = physical_aggressor + offset
            if not 0 <= physical < geometry.rows:
                continue
            logical = mapper.physical_to_logical(physical)
            read_bits = host.read_row(aggressor.with_row(logical))
            reports[offset] = flip_report(read_bits, expected)
        metrics = get_metrics()
        metrics.counter("hammer.single_sided").inc()
        metrics.counter("hammer.pairs").inc(hammer_count)
        metrics.counter("bitflips.observed").inc(
            sum(report.flips for report in reports.values()))
        return reports
