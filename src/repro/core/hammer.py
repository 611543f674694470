"""Single- and double-sided RowHammer primitives.

The paper's main access pattern is **double-sided** RowHammer (§3.1):
alternate activations of the two rows physically adjacent to a victim.
One *hammer* is one pair of activations (one per aggressor).  The paper
also uses **single-sided** hammering — repeatedly activating one row — to
reverse-engineer subarray boundaries (footnote 3).

Every hammer test runs as one test program, as DRAM Bender runs the
paper's (:func:`build_probe_program`):

1. *Prepare*: write the data pattern into the victim, the aggressors, and
   the surrounding rows (V±[2:8], Table 1), addressing *physical*
   neighbourhoods through the reverse-engineered row mapping;
2. *Hammer*: loop ACT/PRE over the aggressor(s) — optionally holding
   each aggressor open for extra cycles (RowPress), or split into
   REF-bounded bursts with an optional decoy activation, as a memory
   controller that keeps refreshing issues them (refresh-on BER,
   TRRespass; :class:`RefreshBursts`);
3. *Readback*: read the victim row(s), whose flips the host counts.

The neighbourhood's rows and payloads are bound once per victim and
pattern (:class:`HammerProbe`), so an HC_first search probing one
victim at many hammer counts reruns the same program shape with only
the loop count changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bender.host import HostInterface
from repro.bender.interpreter import ExecutionResult
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


@dataclass(frozen=True)
class RefreshBursts:
    """A hammer section under live refresh: ``hammers``-hammer bursts,
    each followed by one ACT/PRE of ``decoy_row`` (if any) and one REF,
    then the hammers left over, without a REF (:func:`build_probe_program`).
    """

    hammers: int
    decoy_row: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hammers < 1:
            raise ExperimentError(
                f"a burst needs at least one hammer, got {self.hammers}")


def refresh_bursts(timing, sides: int, spare_acts: int = 0,
                   decoy_row: Optional[int] = None) -> RefreshBursts:
    """The bursts that fit one tREFI: as many hammers of ``sides``
    ACT/PREs as leave room for the REF's tRFC and ``spare_acts`` more
    ACT/PREs (at least one hammer)."""
    cycles = timing.refi_cycles - timing.rfc_cycles - \
        spare_acts * timing.rc_cycles
    return RefreshBursts(max(1, cycles // (sides * timing.rc_cycles)),
                         decoy_row)


def build_probe_program(site: DramAddress,
                        writes: Sequence[Tuple[int, bytes]],
                        aggressor_rows: Sequence[int], hammer_count: int,
                        reads: Sequence[int], open_cycles: int = 0,
                        bursts: Optional[RefreshBursts] = None) -> Program:
    """One hammer test on ``site``'s bank as a single test program.

    ACT/WRROW/PRE per (logical row, payload) of ``writes``, then the
    hammer section, then ACT/RDROW/PRE per row of ``reads``, in order.
    The section is ``LOOP hammer_count { ACT, WAIT open_cycles, PRE
    each aggressor }`` (no WAIT at 0 cycles, no loop at count 0); with
    ``bursts``, those hammers are issued as ``LOOP hammer_count //
    bursts.hammers { LOOP bursts.hammers {...}; ACT/PRE decoy; REF }``
    and a ``LOOP`` over the remainder (none when it is 0).
    """
    if hammer_count < 0:
        raise ExperimentError(f"hammer_count must be >= 0, got {hammer_count}")
    if open_cycles < 0:
        raise ExperimentError(f"open_cycles must be >= 0, got {open_cycles}")
    if not aggressor_rows:
        raise ExperimentError("need at least one aggressor row")
    channel, pseudo_channel, bank = (site.channel, site.pseudo_channel,
                                     site.bank)
    builder = ProgramBuilder()

    def hammer(count: int) -> None:
        if count > 0:
            with builder.loop(count):
                for row in aggressor_rows:
                    builder.act(channel, pseudo_channel, bank, row)
                    if open_cycles:
                        builder.wait(open_cycles)
                    builder.pre(channel, pseudo_channel, bank)

    for row, data in writes:
        builder.act(channel, pseudo_channel, bank, row)
        builder.wr_row(channel, pseudo_channel, bank, data)
        builder.pre(channel, pseudo_channel, bank)
    if bursts is None:
        hammer(hammer_count)
    else:
        full, remainder = divmod(hammer_count, bursts.hammers)
        with builder.loop(full):
            hammer(bursts.hammers)
            if bursts.decoy_row is not None:
                builder.act(channel, pseudo_channel, bank, bursts.decoy_row)
                builder.pre(channel, pseudo_channel, bank)
            builder.ref(channel, pseudo_channel)
        hammer(remainder)
    for row in reads:
        builder.act(channel, pseudo_channel, bank, row)
        builder.rd_row(channel, pseudo_channel, bank)
        builder.pre(channel, pseudo_channel, bank)
    return builder.build()


def build_hammer_program(victim: DramAddress, aggressor_rows: Sequence[int],
                         hammer_count: int, open_cycles: int = 0) -> Program:
    """LOOP hammer_count { ACT, WAIT open_cycles, PRE each aggressor } as
    a test program."""
    return build_probe_program(victim, (), aggressor_rows, hammer_count, (),
                               open_cycles)


def hammer_checks(host: HostInterface, victim: DramAddress,
                  aggressor_rows: Sequence[int], hammer_count: int,
                  accesses: int = 0, decoy: Optional[Tuple[int, int]] = None,
                  **overrides) -> VerifyContext:
    """The static checks a hammer payload declares before it runs.

    DRAM protocol and timing against the host's parameters and — the
    property dynamic execution cannot check — that every declared
    aggressor row is activated exactly ``hammer_count`` times by the
    hammering plus ``accesses`` times outside it (its row writes and
    reads), so BER and HC_first are attributed to the hammer count the
    experiment records.  ``decoy`` declares one more row as (row,
    activations), exactly too.  ``overrides`` go to
    :meth:`VerifyContext.for_host`.
    """
    bank = (victim.channel, victim.pseudo_channel, victim.bank)
    expected = {bank + (row,): hammer_count + accesses
                for row in aggressor_rows}
    if decoy is not None:
        row, activations = decoy
        expected[bank + (row,)] = activations
    return VerifyContext.for_host(host, expected_hammers=expected,
                                  **overrides)


class HammerProbe:
    """One hammer test bound to its rows: the neighbourhood fill, the
    hammer section and the rows read back, on ``site``'s bank.

    The payloads, the row binding and the shape key are computed once;
    :meth:`run` issues :func:`build_probe_program` at any hammer count
    through the host's shape cache.  One ACT[/WAIT]/PRE loop is the
    shape's count binding, so one shape serves every count (see
    :mod:`repro.engine.cache`); a section of REF-bounded ``bursts`` is
    count-free, one shape per count.  ``fills`` lists (logical row, fill
    byte) in write order; every aggressor must be among them, written
    once.  ``overrides`` go to :func:`hammer_checks`.
    """

    def __init__(self, host: HostInterface, site: DramAddress,
                 fills: Sequence[Tuple[int, int]],
                 aggressor_rows: Sequence[int],
                 read_rows: Sequence[int], open_cycles: int = 0,
                 bursts: Optional[RefreshBursts] = None,
                 **overrides) -> None:
        row_bytes = host.device.geometry.row_bytes
        self._host = host
        self._site = site
        self._writes = tuple((row, _fill_row(fill, row_bytes))
                             for row, fill in fills)
        self._aggressors = tuple(aggressor_rows)
        self._reads = tuple(read_rows)
        self._open_cycles = open_cycles
        self._bursts = bursts
        self._overrides = overrides
        decoys = (() if bursts is None or bursts.decoy_row is None
                  else (bursts.decoy_row,))
        # The row binding: distinct ACT rows in first-ACT order.
        self._rows = tuple(dict.fromkeys(
            [row for row, _ in fills] + list(aggressor_rows) + list(decoys)
            + list(read_rows)))
        slot = {row: index for index, row in enumerate(self._rows)}
        self._key = ("hammer", site.channel, site.pseudo_channel, site.bank,
                     tuple(fill for _, fill in fills),
                     tuple(slot[row] for row in aggressor_rows),
                     tuple(slot[row] for row in read_rows), open_cycles,
                     None if bursts is None else
                     (bursts.hammers, tuple(slot[row] for row in decoys)))

    def run(self, hammer_count: int) -> ExecutionResult:
        """Write, hammer ``hammer_count`` times, read back: one program.

        The result's ``row_reads`` are the read rows in order and its
        ``loop_cycles`` the hammer section's duration.  Count 0 builds
        the program without its loop, its own count-free shape.
        """
        if hammer_count < 0:
            raise ExperimentError(
                f"hammer_count must be >= 0, got {hammer_count}")
        host = self._host
        site, writes = self._site, self._writes
        aggressors, reads = self._aggressors, self._reads
        open_cycles, bursts = self._open_cycles, self._bursts
        decoy = None
        if bursts is not None and bursts.decoy_row is not None:
            decoy = (bursts.decoy_row, hammer_count // bursts.hammers)
        key, count = self._key, hammer_count
        if bursts is not None or not hammer_count:
            key, count = key + (hammer_count,), None
        return host.cached_run(
            key, self._rows,
            lambda: build_probe_program(site, writes, aggressors,
                                        hammer_count, reads, open_cycles,
                                        bursts),
            lambda: hammer_checks(host, site, aggressors, hammer_count,
                                  accesses=1, decoy=decoy,
                                  **self._overrides),
            count)


class DoubleSidedHammer:
    """The paper's primary access pattern (§3.1)."""

    def __init__(self, host: HostInterface, mapper: RowAddressMapper) -> None:
        self._host = host
        self._mapper = mapper

    def aggressors_of(self, victim: DramAddress) -> List[int]:
        """Logical rows physically adjacent to the victim."""
        return list(self._mapper.physical_neighbors(victim.row))

    def bind(self, victim: DramAddress, pattern: DataPattern,
             open_cycles: int = 0, bursts: Optional[RefreshBursts] = None,
             **overrides) -> Callable[[int], HammerOutcome]:
        """The victim's hammer test under ``pattern``, bound once.

        Returns a function that runs the test at a hammer count: it
        fills the victim's physical neighbourhood with the pattern,
        hammers ``hammer_count`` pairs (one ACT per aggressor each, held
        open ``open_cycles`` more, in REF-bounded ``bursts`` if given)
        and reads the victim back, as one program (:class:`HammerProbe`,
        which takes ``overrides``).  An HC_first search binds once and
        probes many counts.
        """
        host = self._host
        geometry = host.device.geometry
        timing = host.device.timing
        with get_tracer().span("prepare"):
            aggressors = self.aggressors_of(victim)
            if len(aggressors) < 2:
                raise ExperimentError(
                    f"victim {victim} has {len(aggressors)} physical "
                    "neighbour(s); double-sided hammering needs two")
            neighborhood = physical_neighborhood(self._mapper, victim.row,
                                                 geometry.rows)
            probe = HammerProbe(
                host, victim,
                [(row, pattern.byte_for_offset(offset))
                 for offset, row in sorted(neighborhood.items())],
                aggressors, [victim.row], open_cycles, bursts, **overrides)
            expected = byte_fill_bits(pattern.victim_byte,
                                      geometry.row_bytes)

        def run(hammer_count: int) -> HammerOutcome:
            tracer = get_tracer()
            with tracer.span("hammer", hammers=hammer_count):
                execution = probe.run(hammer_count)
            with tracer.span("readback"):
                report = flip_report(execution.row_reads[0], expected)
            metrics = get_metrics()
            metrics.counter("hammer.double_sided").inc()
            metrics.counter("hammer.pairs").inc(hammer_count)
            metrics.counter("bitflips.observed").inc(report.flips)
            return HammerOutcome(
                victim=victim, pattern=pattern, hammer_count=hammer_count,
                report=report,
                duration_s=timing.seconds(execution.loop_cycles))

        return run

    def run(self, victim: DramAddress, pattern: DataPattern,
            hammer_count: int) -> HammerOutcome:
        """Prepare, hammer ``hammer_count`` pairs, read back the victim
        (:meth:`bind`, run once).

        Args:
            victim: the victim row (logical address).
            pattern: Table 1 data pattern for the neighbourhood fill.
            hammer_count: activation pairs (one ACT per aggressor each).
        """
        return self.bind(victim, pattern)(hammer_count)


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
            hammer_count: int) -> Dict[int, FlipReport]:
        """Hammer one aggressor; read back both potential victims.

        Returns a dict keyed by physical offset (-1 and/or +1) with the
        flip report of each existing neighbour row.
        """
        host = self._host
        geometry = host.device.geometry
        neighborhood = physical_neighborhood(self._mapper, aggressor.row,
                                             geometry.rows)
        # Around a single-sided aggressor, the "victims" are at ±1;
        # fill them with the victim byte and everything else per the
        # same convention, centered on the aggressor.
        fills = [(row, pattern.aggressor_byte if offset == 0
                  else pattern.victim_byte if abs(offset) == 1
                  else pattern.surround_byte)
                 for offset, row in sorted(neighborhood.items())]
        victims = [offset for offset in (-1, +1) if offset in neighborhood]
        probe = HammerProbe(host, aggressor, fills, [aggressor.row],
                            [neighborhood[offset] for offset in victims])
        with get_tracer().span("hammer", hammers=hammer_count,
                               single_sided=True):
            execution = probe.run(hammer_count)

        expected = byte_fill_bits(pattern.victim_byte, geometry.row_bytes)
        reports = {offset: flip_report(read_bits, expected)
                   for offset, read_bits in zip(victims,
                                                execution.row_reads)}
        metrics = get_metrics()
        metrics.counter("hammer.single_sided").inc()
        metrics.counter("hammer.pairs").inc(hammer_count)
        metrics.counter("bitflips.observed").inc(
            sum(report.flips for report in reports.values()))
        return reports
