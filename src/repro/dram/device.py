"""Top-level DRAM device model.

:class:`Device` is the only object the testing infrastructure talks
to.  It owns the command clock (in interface cycles), enforces timing,
maps logical to physical row addresses, dispatches to banks, drives the
refresh machinery, and hosts the hidden TRR engines.  The defaults
describe the paper's HBM2 stack; other families are built from a
:class:`~repro.dram.profiles.DeviceProfile`.

Commands are *scheduled*: each issuing method waits (advances the clock)
until the earliest cycle at which the command is legal, mirroring how the
paper's DRAM Bender programs are compiled against timing parameters.  A
command occupies one command-bus cycle.

The device also exposes a **bulk activation** entry point used by the
interpreter's loop fast path.  Its semantics are defined to match an
unrolled sequence of ACT/PRE iterations exactly for loops whose activated
rows do not flip themselves (the normal case: an activated row's charge is
restored on every iteration); see :meth:`Device.bulk_activations`.

The engine's analytic paths repeat command streams through one
mechanism, the :class:`Schedule`: the cycle offsets, RowPress factors,
exit timing state, clock advance and command counts of one stream,
recorded while it is stepped through the per-command methods
(:meth:`Device._record`) under its entry timing signature.
:meth:`Device.apply_stream` memoizes a one-bank stream's schedule by
row-free stream shape and replays it, rows bound, whenever the
signature recurs (:meth:`Device._replay`): hammer iterations
(:meth:`Device.apply_hammer_steps`), batched row writes
(:meth:`Device.apply_row_writes`), and the two streams of a hammer test
around its bulk-applied loop (the neighbourhood writes with the warm-up
iterations, then the trailing iteration with the read-back).

A replay runs the bank physics in one loop, the bank's replay kernel
(:meth:`~repro.dram.bank.Bank.replay`), which bulk-applied loops share.  A
stream that writes every row before it senses it and reads nothing
depends on no earlier row state but the ledger entries it adds to, so
it is a burst applied once: while its restores are provably below the
flip guards it is applied in closed form (:class:`QuietStream`), built
once per (schedule, rows) and kept in a small LRU.  A REF-bounded
burst's schedule, measured by :meth:`Device.measure_burst`, yields the
same closed form, which :meth:`Device.apply_bursts` repeats between
events (TRR fires, REFs that reach a live row), and through whole fire
cycles when the TRR sampler vouches for their picks
(:meth:`Device.bursts_until_event`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.dram.bank import Bank, BankKey, DeviceEnvironment
from repro.dram.calibration import CalibrationProfile, default_profile
from repro.dram.cellmodel import GroundTruthProvider
from repro.dram.channel import Channel
from repro.dram.commands import (
    Activate,
    Command,
    Precharge,
    PrechargeAll,
    Read,
    Refresh,
    Write,
)
from repro.dram.disturb import SIDE_DIRECT
from repro.dram.geometry import Geometry
from repro.dram.modereg import ModeRegisters
from repro.dram.subarrays import SubarrayLayout
from repro.dram.timing import TimingChecker, TimingParameters
from repro.dram.trr import TrrConfig
from repro.dram.address import RowAddressMapper
from repro.errors import CommandError


#: Closed forms of self-contained streams a device keeps, by (stream
#: shape, rows): a hammer test's neighbourhood fill recurs for every
#: count an HC_first search probes and every pattern of a victim, and
#: each form holds a few ledger plans, so a handful covers the reuse.
QUIET_STREAMS = 8


class Device:
    """A simulated DRAM device behind a memory-controller interface.

    ``profile`` is the hidden *calibration* ground truth
    (:class:`~repro.dram.calibration.CalibrationProfile`);
    ``profile_name`` records which family-level
    :class:`~repro.dram.profiles.DeviceProfile` the device was built
    from (``None`` for hand-assembled devices) so the engine can thread
    device identity into cache digests and fingerprints.
    """

    def __init__(self, geometry: Optional[Geometry] = None,
                 timing: Optional[TimingParameters] = None,
                 profile: Optional[CalibrationProfile] = None,
                 seed: int = 0,
                 mapper: Optional[RowAddressMapper] = None,
                 trr_config: Optional[TrrConfig] = None,
                 subarray_layout: Optional[SubarrayLayout] = None,
                 temperature_c: float = 85.0,
                 profile_name: Optional[str] = None) -> None:
        self.geometry = geometry or Geometry()
        self.timing = timing or TimingParameters()
        self.profile = profile or default_profile()
        self.profile_name = profile_name
        self.seed = seed
        self.mapper = mapper or RowAddressMapper(self.geometry)
        self.subarray_layout = (subarray_layout or
                                SubarrayLayout.paper_default(self.geometry.rows))
        if self.subarray_layout.total_rows != self.geometry.rows:
            raise CommandError(
                f"subarray layout covers {self.subarray_layout.total_rows} "
                f"rows, geometry has {self.geometry.rows}")
        self.trr_config = (trr_config if trr_config is not None
                           else TrrConfig())

        self._environment = DeviceEnvironment(
            temperature_c, self.profile.nominal_wordline_voltage_v)
        self._truth = GroundTruthProvider(
            self.geometry, self.profile, self.subarray_layout, seed)
        self._channels = [
            Channel(index, self.geometry, self.profile, self.subarray_layout,
                    self._truth, self.timing, self._environment,
                    self.trr_config, seed=seed)
            for index in range(self.geometry.channels)
        ]
        self._timing_checker = TimingChecker(self.timing)
        self.now = 0
        self.command_counts: Dict[str, int] = {}
        #: Memoized schedules, keyed by row-free stream shape: a hammer
        #: iteration's steps (rows named by slot) or a write batch's
        #: (bank key, length).  See :meth:`apply_hammer_steps`.
        self._schedules: Dict[tuple, Schedule] = {}
        #: :class:`QuietStream` closed forms by (shape, rows), the most
        #: recently used last; at most :data:`QUIET_STREAMS`.
        self._quiet_streams: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: While a stream is recorded, its row commands in issue order
        #: as (kind, key, physical row, absolute cycle or value); see
        #: :class:`Schedule`.
        self._trace: Optional[List[tuple]] = None

    # ------------------------------------------------------------------
    # Environment / introspection
    # ------------------------------------------------------------------
    @property
    def temperature_c(self) -> float:
        return self._environment.temperature_c

    def set_temperature(self, celsius: float) -> None:
        """Set the ambient chip temperature (the PID loop calls this)."""
        self._environment.temperature_c = celsius

    @property
    def wordline_voltage_v(self) -> float:
        return self._environment.wordline_voltage_v

    def set_wordline_voltage(self, volts: float) -> None:
        """Set the wordline (VPP) rail voltage.

        Rejected below the profile's operational minimum (real
        reduced-voltage studies hit access failures there).
        """
        # Validate eagerly so a bad rail setting fails at the knob, not
        # at the first read.
        self.profile.voltage_threshold_scale(volts)
        self._environment.wordline_voltage_v = volts

    def channel(self, index: int) -> Channel:
        self.geometry.check_channel(index)
        return self._channels[index]

    def mode_registers(self, channel: int) -> ModeRegisters:
        return self.channel(channel).mode_registers

    def set_ecc_enabled(self, enabled: bool,
                        channel: Optional[int] = None) -> None:
        """Convenience MR write: toggle on-die ECC (per channel or all)."""
        targets = ([channel] if channel is not None
                   else range(self.geometry.channels))
        for index in targets:
            self.mode_registers(index).set_ecc_enabled(enabled)

    def bank(self, channel: int, pseudo_channel: int, bank: int) -> Bank:
        return self.channel(channel).bank(pseudo_channel, bank)

    def _count(self, mnemonic: str, amount: int = 1) -> None:
        self.command_counts[mnemonic] = (
            self.command_counts.get(mnemonic, 0) + amount)

    # ------------------------------------------------------------------
    # Command interface (logical row addressing)
    # ------------------------------------------------------------------
    def activate(self, channel: int, pseudo_channel: int, bank: int,
                 row: int) -> int:
        """Issue ACT at the earliest legal cycle; returns that cycle."""
        key: BankKey = (channel, pseudo_channel, bank)
        cycle = self._timing_checker.earliest_activate(key, self.now)
        self._timing_checker.record_activate(key, cycle)
        target = self.bank(channel, pseudo_channel, bank)
        physical = self.mapper.logical_to_physical(row)
        target.activate(physical, cycle)
        pc_state = self.channel(channel).pseudo_channels[pseudo_channel]
        pc_state.trr.observe_activation(key, physical)
        if self._trace is not None:
            self._trace.append(("act", key, physical, cycle))
        self.now = cycle + 1
        self._count("ACT")
        return cycle

    def precharge(self, channel: int, pseudo_channel: int, bank: int) -> int:
        key: BankKey = (channel, pseudo_channel, bank)
        cycle = self._timing_checker.earliest_precharge(key, self.now)
        self._timing_checker.record_precharge(key, cycle)
        closed = self.bank(channel, pseudo_channel, bank).precharge(cycle)
        if closed is not None:
            self._route_cross_channel(key, *closed)
            if self._trace is not None:
                self._trace.append(("pre", key) + closed)
        self.now = cycle + 1
        self._count("PRE")
        return cycle

    def _cross_channel(self, key: BankKey,
                       dose: float) -> List[Tuple[BankKey, float]]:
        """(bank, direct dose) of each leak of an activation ``dose`` on
        bank ``key`` to the same row of the vertically adjacent channels
        (future work 3's hypothesis)."""
        coupling = self.profile.cross_channel_coupling
        if coupling <= 0.0:
            return []
        step = self.geometry.channels_per_die
        return [((neighbor, key[1], key[2]), coupling * dose)
                for neighbor in (key[0] - step, key[0] + step)
                if 0 <= neighbor < self.geometry.channels]

    def _route_cross_channel(self, key: BankKey, physical_row: int,
                             dose: float) -> None:
        if self.profile.cross_channel_coupling <= 0.0:
            return  # uncoupled (the default): no list per PRE
        for neighbor, amount in self._cross_channel(key, dose):
            self.bank(*neighbor).disturbance.add_direct(physical_row, amount)

    def precharge_all(self, channel: int, pseudo_channel: int) -> int:
        cycle = self.now
        for bank_index in range(self.geometry.banks):
            existing = self.channel(channel).existing_bank(
                pseudo_channel, bank_index)
            if existing is None or not existing.is_open:
                continue
            key: BankKey = (channel, pseudo_channel, bank_index)
            cycle = max(cycle,
                        self._timing_checker.earliest_precharge(key, cycle))
            self._timing_checker.record_precharge(key, cycle)
            closed = existing.precharge(cycle)
            if closed is not None:
                self._route_cross_channel(key, *closed)
        self.now = cycle + 1
        self._count("PREA")
        return cycle

    def read(self, channel: int, pseudo_channel: int, bank: int,
             column: int) -> bytes:
        key: BankKey = (channel, pseudo_channel, bank)
        cycle = self._timing_checker.earliest_rdwr(key, self.now)
        self._timing_checker.record_rdwr(key, cycle, is_write=False)
        data = self.bank(channel, pseudo_channel, bank).read_column(
            column, cycle, self.mode_registers(channel).ecc_enabled)
        self.now = cycle + 1
        self._count("RD")
        return data

    def write(self, channel: int, pseudo_channel: int, bank: int,
              column: int, data: bytes) -> int:
        key: BankKey = (channel, pseudo_channel, bank)
        cycle = self._timing_checker.earliest_rdwr(key, self.now)
        self._timing_checker.record_rdwr(key, cycle, is_write=True)
        self.bank(channel, pseudo_channel, bank).write_column(
            column, data, cycle)
        self.now = cycle + 1
        self._count("WR")
        return cycle

    def refresh(self, channel: int, pseudo_channel: int) -> int:
        """Periodic REF: refresh the next row group in every bank, and
        give the hidden TRR engine its firing opportunity."""
        pc = (channel, pseudo_channel)
        chan = self.channel(channel)
        for bank_obj in chan.touched_banks(pseudo_channel):
            if bank_obj.is_open:
                raise CommandError(
                    f"REF to {pc} with bank {bank_obj.key} open")
        cycle = self._timing_checker.earliest_refresh(pc, self.now)
        self._timing_checker.record_refresh(pc, cycle)

        pc_state = chan.pseudo_channels[pseudo_channel]
        start, end = pc_state.next_refresh_range(self.geometry.rows)
        for bank_obj in chan.touched_banks(pseudo_channel):
            bank_obj.refresh_rows(start, end, cycle)

        for bank_key, victim in pc_state.trr.on_refresh():
            victim_bank = chan.existing_bank(bank_key[1], bank_key[2])
            if victim_bank is not None:
                victim_bank.trr_refresh(victim, cycle)
        if self._trace is not None:
            self._trace.append(("ref", pc, None, cycle))

        # The HBM2 standard's *documented* TRR mode (§2 footnote 1): the
        # controller flags an aggressor via mode registers, and every
        # REF preventively refreshes its neighbours.
        if chan.mode_registers.documented_trr_mode:
            target_bank, target_row = \
                chan.mode_registers.documented_trr_target
            flagged = chan.existing_bank(pseudo_channel, target_bank)
            if flagged is not None and target_row < self.geometry.rows:
                physical = self.mapper.logical_to_physical(target_row)
                flagged.trr_refresh(physical - 1, cycle)
                flagged.trr_refresh(physical + 1, cycle)

        self.now = cycle + self.timing.rfc_cycles
        self._count("REF")
        return cycle

    def wait(self, cycles: int) -> None:
        """Advance the command clock without issuing anything."""
        if cycles < 0:
            raise CommandError(f"cannot wait a negative time: {cycles}")
        self.now += cycles

    # ------------------------------------------------------------------
    # Wide (batched) row access — infrastructure convenience equivalent
    # to `columns` back-to-back RD/WR commands.
    # ------------------------------------------------------------------
    def read_open_row(self, channel: int, pseudo_channel: int,
                      bank: int) -> np.ndarray:
        """All row bits of the open row (models 32 pipelined RDs)."""
        key: BankKey = (channel, pseudo_channel, bank)
        cycle = self._timing_checker.earliest_rdwr(key, self.now)
        self._timing_checker.record_rdwr(key, cycle, is_write=False)
        bits = self.bank(channel, pseudo_channel, bank).read_open_row_bits(
            cycle, self.mode_registers(channel).ecc_enabled)
        if self._trace is not None:
            self._trace.append(("rd", key, None, cycle))
        self.now = cycle + self.geometry.columns * self.timing.ccd_cycles
        self._count("RD", self.geometry.columns)
        return bits

    def write_open_row(self, channel: int, pseudo_channel: int, bank: int,
                       bits: np.ndarray,
                       parity: Optional[np.ndarray] = None) -> None:
        """Store all row bits of the open row (models 32 pipelined WRs).

        ``parity`` lets a caller that already holds the payload's ECC
        parity words (the interpreter's payload-lowering cache) skip
        the re-encode; it must equal ``encode_words(bits & 1)``.
        """
        key: BankKey = (channel, pseudo_channel, bank)
        cycle = self._timing_checker.earliest_rdwr(key, self.now)
        self._timing_checker.record_rdwr(key, cycle, is_write=True)
        self.bank(channel, pseudo_channel, bank).write_open_row_bits(
            bits, cycle, parity=parity)
        self.now = cycle + self.geometry.columns * self.timing.ccd_cycles
        self._count("WR", self.geometry.columns)

    def apply_row_write(self, channel: int, pseudo_channel: int, bank: int,
                        row: int, bits: np.ndarray,
                        parity: np.ndarray) -> None:
        """Analytic ACT / WRROW / PRE: fill one row with a known payload.

        The execution engine's fast path uses this for summarized
        full-row writes.  Cycle- and state-identical to issuing the
        three commands through :meth:`activate` /
        :meth:`write_open_row` / :meth:`precharge`: the same timing
        checker records, clock advances, TRR observation, command
        counts, RowPress open-time factor and cross-channel routing —
        only the row sense is skipped, which
        :meth:`~repro.dram.bank.Bank.store_full_row` proves is
        unobservable under a full-row overwrite.
        """
        key: BankKey = (channel, pseudo_channel, bank)
        target = self.bank(channel, pseudo_channel, bank)
        physical = self.mapper.logical_to_physical(row)

        act_cycle = self._timing_checker.earliest_activate(key, self.now)
        self._timing_checker.record_activate(key, act_cycle)
        pc_state = self.channel(channel).pseudo_channels[pseudo_channel]
        pc_state.trr.observe_activation(key, physical)
        self.now = act_cycle + 1
        self._count("ACT")

        wr_cycle = self._timing_checker.earliest_rdwr(key, self.now)
        self._timing_checker.record_rdwr(key, wr_cycle, is_write=True)
        target.store_full_row(physical, bits, parity, act_cycle)
        self.now = wr_cycle + self.geometry.columns * self.timing.ccd_cycles
        self._count("WR", self.geometry.columns)

        pre_cycle = self._timing_checker.earliest_precharge(key, self.now)
        self._timing_checker.record_precharge(key, pre_cycle)
        factor = self.profile.rowpress_amplification(
            pre_cycle - act_cycle, self.timing.ras_cycles)
        target.note_closed_activation(physical, factor)
        self._route_cross_channel(key, physical, factor)
        if self._trace is not None:
            self._trace += (("wr", key, physical, act_cycle),
                            ("pre", key, physical, factor))
        self.now = pre_cycle + 1
        self._count("PRE")

    def apply_row_writes(self, channel: int, pseudo_channel: int,
                         bank: int,
                         writes: Sequence[Tuple[int, np.ndarray,
                                                np.ndarray]]) -> None:
        """Analytic batch of full-row writes to one bank.

        ``writes`` is a sequence of ``(logical row, bits, parity)``, each
        ``(bits, parity)`` a lowered payload the written row adopts
        (:meth:`~repro.dram.bank.Bank.store_full_row`); cycle- and
        state-identical to one :meth:`apply_row_write` per entry, in
        order.  One :meth:`apply_stream` under (bank key, batch length),
        its rows named by their position in the batch.
        """
        key: BankKey = (channel, pseudo_channel, bank)
        self.apply_stream(
            (key, len(writes)),
            tuple(("wr",) + key + (index,) for index in range(len(writes))),
            [write[0] for write in writes],
            [write[1:] for write in writes])

    def apply_hammer_steps(self, steps: tuple, rows: Sequence[int]) -> None:
        """Analytic single hammer iteration: ACT/PRE/Wait steps.

        ``steps`` is a tuple of ``("act", ch, pc, bank, slot)``,
        ``("pre", ch, pc, bank)`` and ``("wait", cycles)`` tuples — one
        loop iteration, as :class:`~repro.verify.effects.HammerOp`
        holds it — and ``rows[slot]`` is the logical row of an ACT.
        One :meth:`apply_stream` under ``steps``.
        """
        self.apply_stream(steps, steps, rows)

    def apply_stream(self, shape, steps: tuple, rows: Sequence[int],
                     payloads: Sequence[tuple] = ()
                     ) -> Tuple[List[np.ndarray], Tuple[int, ...]]:
        """Analytic command stream of row writes, hammer steps and row
        reads; returns the reads' bits and the stream's marks.

        ``steps`` holds :meth:`apply_hammer_steps`' ``act``, ``pre`` and
        ``wait`` steps plus ``("wr", ch, pc, bank, slot)`` — ACT / WRROW
        / PRE of ``rows[slot]`` with the lowered payload
        ``payloads[slot]`` as (bits, parity), applied as
        :meth:`apply_row_write` — ``("rd", ch, pc, bank, slot)`` — ACT /
        RDROW / PRE of ``rows[slot]`` — and ``("mark",)``, which issues
        nothing and returns the clock's offset from the stream's entry
        at that point.  Cycle- and state-identical to issuing the
        commands one by one, and the first execution does exactly that,
        recording its :class:`Schedule` under ``shape`` (any hashable
        that determines ``steps``).  A later stream of that shape,
        whatever its rows, replays the recording when it enters with
        the same signature: scheduling is a pure function of the
        clamped-relative entry state (per key, and the interleaving
        across keys is fixed by step order), so the cycles and open
        times are provably identical, and only the bank physics — row
        restore or store, row read, TRR observation, neighbour
        disturbance, cross-channel routing — re-executes, on the bound
        rows, in step order, with the same float operations.
        """
        schedule = self._schedules.get(shape)
        if schedule is not None and \
                self._signature(schedule.banks) == schedule.signature:
            return self._replay(shape, schedule, rows, payloads), \
                schedule.marks

        entry = self.now
        reads: List[np.ndarray] = []
        marks: List[int] = []

        def run() -> None:
            for step in steps:
                kind = step[0]
                if kind == "act":
                    self.activate(step[1], step[2], step[3], rows[step[4]])
                elif kind == "pre":
                    self.precharge(step[1], step[2], step[3])
                elif kind == "wr":
                    self.apply_row_write(step[1], step[2], step[3],
                                         rows[step[4]], *payloads[step[4]])
                elif kind == "rd":
                    self.activate(step[1], step[2], step[3], rows[step[4]])
                    reads.append(self.read_open_row(step[1], step[2],
                                                    step[3]))
                    self.precharge(step[1], step[2], step[3])
                elif kind == "wait":
                    self.wait(step[1])
                else:
                    marks.append(self.now - entry)

        banks = tuple(dict.fromkeys(step[1:4] for step in steps
                                    if step[0] not in ("wait", "mark")))
        used = {step[4] for step in steps if step[0] in _ROW_STEPS}
        slots = {(step[1:4], self.mapper.logical_to_physical(rows[step[4]])):
                 step[4] for step in steps if step[0] in _ROW_STEPS}
        schedule = self._record(banks, (), run, slots)
        # Only a one-bank stream replays (through that bank's kernel).
        # Two slots on one row would name one row by two slots; a bank
        # open at entry closes a row whose open time, and so RowPress
        # factor, the signature does not hold.
        if len(banks) == 1 and len(slots) == len(used) and \
                not schedule.signature[0][3]:
            written: set = set()
            contained = True
            for kind, _, slot, _ in schedule.events:
                contained &= kind != "rd" and (kind != "act"
                                               or slot in written)
                if kind == "wr":
                    written.add(slot)
            self._schedules[shape] = schedule._replace(
                marks=tuple(marks), slots=tuple(dict.fromkeys(
                    step[4] for step in steps if step[0] in _ROW_STEPS)),
                self_contained=contained)
        return reads, tuple(marks)

    # ------------------------------------------------------------------
    # Schedule record and replay
    # ------------------------------------------------------------------
    def _signature(self, banks: Sequence[BankKey],
                   pcs: Sequence[Tuple[int, int]] = ()) -> tuple:
        """Entry signature of a stream on ``banks`` that also refreshes
        ``pcs``: equal signatures schedule the stream identically (see
        :meth:`~repro.dram.timing.TimingChecker.replay_signature`)."""
        checker = self._timing_checker
        now = self.now
        return (tuple([checker.replay_signature(key, now) for key in banks])
                + tuple([checker.pc_signature(pc, now) for pc in pcs]))

    def _record(self, banks: Tuple[BankKey, ...],
                pcs: Tuple[Tuple[int, int], ...], run: Callable[[], None],
                slots: Optional[Dict[Tuple[BankKey, int], int]] = None
                ) -> "Schedule":
        """Run a command stream through the per-command methods and
        record its :class:`Schedule`.

        ``run`` issues the stream; it may hammer only ``banks`` and
        refresh only ``pcs``.  ``slots`` maps (bank key, physical row)
        to the row slot the schedule's events name; without it they
        name physical rows.  A stream recorded inside another one
        (hammer iterations inside a burst) also lands in the outer
        stream's events.
        """
        signature = self._signature(banks, pcs)
        entry = self.now
        before = dict(self.command_counts)
        outer, self._trace = self._trace, []
        try:
            run()
        finally:
            trace, self._trace = self._trace, outer
        if outer is not None:
            outer += trace
        checker = self._timing_checker
        return Schedule(
            signature=signature, banks=banks, pcs=pcs,
            events=tuple(
                (kind, key,
                 slots.get((key, row)) if slots and row is not None else row,
                 value - entry if kind in _TIMED else value)
                for kind, key, row, value in trace),
            exits=tuple(checker.capture_offsets(key, entry) for key in banks),
            advance=self.now - entry,
            counts=tuple((name, count - before.get(name, 0))
                         for name, count in self.command_counts.items()
                         if count != before.get(name, 0)))

    def _replay(self, shape, schedule: "Schedule", rows: Sequence[int],
                payloads: Sequence[tuple] = ()) -> List[np.ndarray]:
        """Install a memoized one-bank :class:`Schedule` with ``rows``
        bound; returns the bits of its row reads, in order.

        ``rows[slot]`` is the logical row of the events naming ``slot``
        (``payloads[slot]`` its lowered (bits, parity), for a write),
        mapped to its physical row once per call.  The bank physics
        runs in one :meth:`~repro.dram.bank.Bank.replay` over the
        events, at the recorded cycles and RowPress factors; the
        checker exit state, the clock and the command counts are
        installed from the recording.  The pseudo channel's TRR sampler
        takes the ACTs in one ``observe_run``, exactly as it would one
        at a time (no REF interleaves), and the cross-channel leaks go
        after the kernel, to banks of other channels that nothing
        touches in between.

        A self-contained stream (:attr:`Schedule.self_contained`)
        replayed with no recording open is applied in closed form
        instead (:class:`QuietStream`), when its restores are provably
        quiet at this call's temperature.
        """
        entry = self.now
        key = schedule.banks[0]
        bank_obj = self.bank(*key)
        form = None
        if schedule.self_contained and self._trace is None:
            form = self._quiet_stream(shape, schedule, rows)
            if form.quiet(schedule.advance):
                form.apply(bank_obj, payloads, entry)
                self._install(schedule, key, form.acts, entry)
                return []
        if form is not None:
            physical = form.physical
        else:
            mapper = self.mapper
            physical = {slot: mapper.logical_to_physical(rows[slot])
                        for slot in schedule.slots}
        events = schedule.events
        reads = bank_obj.replay(
            events, physical, entry, payloads,
            self._channels[key[0]].mode_registers.ecc_enabled)
        if self.profile.cross_channel_coupling > 0.0:
            for kind, _, slot, value in events:
                if kind == "pre":
                    self._route_cross_channel(key, physical[slot], value)
        self._install(schedule, key, [(key, physical[slot])
                                      for kind, _, slot, _ in events
                                      if kind in _OPENS], entry)
        if self._trace is not None:
            self._trace += [
                (kind, key, None if slot is None else physical[slot],
                 entry + value if kind in _TIMED else value)
                for kind, _, slot, value in events]
        return reads

    def _quiet_stream(self, shape, schedule: "Schedule",
                      rows: Sequence[int]) -> "QuietStream":
        """The :class:`QuietStream` of a self-contained ``schedule``
        with ``rows`` bound, from the device's LRU of the last
        :data:`QUIET_STREAMS` (shape, rows) or built."""
        memo = self._quiet_streams
        memo_key = (shape, tuple(rows))
        cached = memo.get(memo_key)
        if cached is not None and cached[0] is schedule:
            memo.move_to_end(memo_key)
            return cached[1]
        mapper = self.mapper
        physical = {slot: mapper.logical_to_physical(rows[slot])
                    for slot in schedule.slots}
        bound = []
        stamps: Dict[int, int] = {}
        factors: Dict[int, float] = {}
        stores: Dict[int, int] = {}
        acts = []
        opened = since = None
        for kind, key, slot, value in schedule.events:
            row = physical[slot]
            bound.append((kind, key, row, value))
            if kind == "pre":
                factors[row] = value
                opened = None
                continue
            stamps[row] = since = value
            opened = row
            acts.append((key, row))
            if kind == "wr":
                stores[row] = slot
        plans = []
        for key, key_ops in self._ledger_ops(bound).items():
            bank_obj = self.bank(*key)
            plan = bank_obj.disturbance.burst_plan(key_ops)
            plans.append((bank_obj, plan, max(plan.doses, default=None)))
        form = QuietStream(
            physical=physical, plans=tuple(plans),
            stores=tuple(stores.items()),
            stamp_rows=np.fromiter(stamps, dtype=np.intp),
            stamp_offsets=np.fromiter(stamps.values(), dtype=np.int64),
            factors=factors, acts=tuple(acts), opened=opened, since=since)
        memo[memo_key] = (schedule, form)
        if len(memo) > QUIET_STREAMS:
            memo.popitem(last=False)
        return form

    def _install(self, schedule: "Schedule", key: BankKey,
                 acts: Sequence[Tuple[BankKey, int]], entry: int) -> None:
        """The rest of a one-bank replay from ``entry``: the ACTs to the
        TRR sampler, then the checker exit state, the clock and the
        command counts from the recording."""
        self._pc_state(key[:2]).trr.observe_run(acts, 1)
        self._timing_checker.restore_offsets(key, entry, schedule.exits[0])
        self.now = entry + schedule.advance
        counts = self.command_counts
        for name, count in schedule.counts:
            counts[name] = counts.get(name, 0) + count

    # ------------------------------------------------------------------
    # Generic dispatch for Command objects
    # ------------------------------------------------------------------
    def execute(self, command: Command):
        """Execute one :mod:`repro.dram.commands` object."""
        if isinstance(command, Activate):
            return self.activate(command.channel, command.pseudo_channel,
                                 command.bank, command.row)
        if isinstance(command, Precharge):
            return self.precharge(command.channel, command.pseudo_channel,
                                  command.bank)
        if isinstance(command, PrechargeAll):
            return self.precharge_all(command.channel, command.pseudo_channel)
        if isinstance(command, Read):
            return self.read(command.channel, command.pseudo_channel,
                             command.bank, command.column)
        if isinstance(command, Write):
            return self.write(command.channel, command.pseudo_channel,
                              command.bank, command.column, command.data)
        if isinstance(command, Refresh):
            return self.refresh(command.channel, command.pseudo_channel)
        raise CommandError(f"unknown command: {command!r}")

    # ------------------------------------------------------------------
    # Bulk activation fast path (interpreter loops)
    # ------------------------------------------------------------------
    def bulk_activations(self,
                         body: Iterable[Tuple[int, int, int, int]],
                         iterations: int,
                         total_cycles: int) -> None:
        """Apply ``iterations`` repetitions of an ACT/PRE loop body.

        Args:
            body: ACT targets, in body order, as (channel, pseudo_channel,
                bank, logical row) tuples; each is activated (and
                precharged) once per iteration.
            iterations: number of repetitions to apply.
            total_cycles: command-bus cycles the repetitions take
                (:func:`repro.bender.interpreter.run_loop` measures one
                steady-state iteration and multiplies).

        Semantics: identical to the unrolled loop for every row *not*
        activated inside the body.  Rows activated in the body have their
        charge restored every iteration; their small intra-iteration
        residual disturbance (at most one iteration's worth) is dropped,
        which cannot flip any cell because thresholds exceed it by orders
        of magnitude.
        """
        if iterations < 0:
            raise CommandError("iterations must be >= 0")
        if iterations == 0:
            return
        start_cycle = self.now
        end_cycle = start_cycle + total_cycles
        mapper = self.mapper
        physical_body: List[Tuple[BankKey, int]] = []
        doses: List[float] = []
        lanes: Dict[BankKey, Tuple[Bank, List[int], List[float]]] = {}
        for channel, pseudo_channel, bank_index, row in body:
            key: BankKey = (channel, pseudo_channel, bank_index)
            physical = mapper.logical_to_physical(row)
            lane = lanes.get(key)
            if lane is None:
                lane = lanes[key] = (self.bank(*key), [], [])
            # Each body ACT's per-iteration dose carries the RowPress
            # amplification the warm-up iterations measured for that
            # row (steady-state loops hold every row open for the same
            # duration each iteration).
            dose = iterations * lane[0].last_open_factor(physical)
            lane[1].append(physical)
            lane[2].append(dose)
            physical_body.append((key, physical))
            doses.append(dose)

        # Per bank, one kernel run: the body rows' opening restores
        # (materializing any pre-loop pending state, exactly as their
        # first in-loop ACT would), their adds to the victims the body
        # does not activate, and the closing restores — activated rows
        # end the loop freshly restored.  A kernel touches its own bank
        # alone, so the banks run one after another.
        activated: Dict[BankKey, frozenset] = {}
        for key, (bank_obj, rows, lane_doses) in lanes.items():
            activated[key] = active = frozenset(rows)
            bank_obj.replay(
                [("sense", key, index, 0) for index in range(len(rows))]
                + [("bulk", key, index, (dose, active))
                   for index, dose in enumerate(lane_doses)]
                + [("restore", key, rows.index(row), total_cycles)
                   for row in active],
                rows, start_cycle)
        if self.profile.cross_channel_coupling > 0.0:
            for (key, physical), dose in zip(physical_body, doses):
                for neighbor, amount in self._cross_channel(key, dose):
                    # A body row of the neighbour bank ends restored,
                    # which wipes the leak.
                    if physical not in activated.get(neighbor, ()):
                        self.bank(*neighbor).disturbance.add_direct(
                            physical, amount)
        trace = self._trace
        if trace is not None:
            trace += [("bulk", key, physical, (dose, activated[key]))
                      for (key, physical), dose in zip(physical_body, doses)]
            trace += [("restore", key, row, end_cycle)
                      for key, rows in activated.items() for row in rows]

        # TRR samplers see the full ACT stream in bulk form, grouped by
        # pseudo channel in body order: equivalent to per-ACT
        # observation of ``iterations`` repetitions for every sampler
        # strategy (no REF can occur inside the loop — refresh is held
        # off while hammering).
        events_per_pc: Dict[Tuple[int, int],
                            List[Tuple[BankKey, int]]] = {}
        for key, physical in physical_body:
            events_per_pc.setdefault(key[:2], []).append((key, physical))
        for pc, events in events_per_pc.items():
            self._pc_state(pc).trr.observe_run(events, iterations)

        # A steady-state loop translates its timing horizon by exactly
        # the skipped duration; shift the affected banks' constraints so
        # commands issued after the loop schedule as the unrolled
        # execution would have.
        self._timing_checker.shift_state(lanes.keys(), total_cycles)
        self.now = end_cycle
        self._count("ACT", iterations * len(physical_body))
        self._count("PRE", iterations * len(physical_body))

    # ------------------------------------------------------------------
    # REF-bounded bursts in closed form (the engine's BurstOp path)
    # ------------------------------------------------------------------
    def _pc_state(self, pc: Tuple[int, int]):
        return self._channels[pc[0]].pseudo_channels[pc[1]]

    def _ledger_ops(self, events: Iterable[tuple]
                    ) -> Dict[BankKey, List[Tuple[int, Optional[int],
                                                  float]]]:
        """The disturbance-ledger ops the events of a :class:`Schedule`
        on physical rows make, per bank key in first-touch order, each
        bank's in command order as (row, side, amount) (side None: a
        reset).

        The addends come from the functions that make them when the
        stream is stepped: a PRE's from
        :meth:`~repro.dram.disturb.DisturbanceTracker.contributions`, a
        bulk-applied ACT's from :meth:`~repro.dram.disturb.
        DisturbanceTracker.bulk_contributions`, and both leak through
        :meth:`_cross_channel`.  ACTs and a bulk loop's closing
        restores reset their row.  A REF whose range holds no live row
        makes none.
        """
        ops: Dict[BankKey, List[Tuple[int, Optional[int], float]]] = {}
        coupled = self.profile.cross_channel_coupling > 0.0
        for kind, key, row, value in events:
            if kind not in ("act", "wr", "restore", "pre", "bulk"):
                continue
            key_ops = ops.get(key)
            if key_ops is None:
                key_ops = ops[key] = []
            if kind in ("act", "wr", "restore"):
                key_ops.append((row, None, 0.0))
                continue
            tracker = self.bank(*key).disturbance
            if kind == "pre":
                dose = value
                key_ops += tracker.contributions(row, value)
            else:
                dose, activated = value
                key_ops += tracker.bulk_contributions(row, dose, activated)
            if coupled:
                for neighbor, amount in self._cross_channel(key, dose):
                    ops.setdefault(neighbor, []).append(
                        (row, SIDE_DIRECT, amount))
        return ops

    def measure_burst(self, body: "BurstBody", step: Callable[[], None]
                      ) -> Optional["SteadyBurst"]:
        """Step one burst and measure it for :meth:`apply_bursts`.

        ``step`` runs one burst through the per-iteration path, which
        records its :class:`Schedule`.  The measurement is kept only
        when the burst was *clean* — no TRR fire, no REF range holding
        a live row, no bank created — since then every row it resets is
        an ACT's restore, and the schedule's ledger ops
        (:meth:`_ledger_ops`) are exactly what any later burst with the
        same entry signature does to the ledgers.  Otherwise None.
        """
        fires = False
        pointers = {}
        live: Dict[Tuple[int, int], set] = {}
        for pc, refs in body.refs_per_pc():
            state = self._pc_state(pc)
            until_fire = state.trr.refs_until_fire()
            fires |= until_fire is not None and until_fire <= refs
            pointers[pc] = state.refresh_pointer
            live[pc] = set()
            for bank_obj in self._channels[pc[0]].touched_banks(pc[1]):
                live[pc] |= bank_obj.live_rows()
        banks = sum(len(chan.banks()) for chan in self._channels)
        schedule = self._record(body.banks, body.ref_pcs, step)
        if fires or banks != sum(len(chan.banks())
                                 for chan in self._channels):
            return None

        ops = self._ledger_ops(schedule.events)
        rows = self.geometry.rows
        touched: Dict[Tuple[int, int], frozenset] = {}
        for key, key_ops in ops.items():
            touched[key[:2]] = touched.get(key[:2], frozenset()) | {
                row for row, _, _ in key_ops}
        for pc, refs in body.refs_per_pc():
            state = self._pc_state(pc)
            hit = state.refs_until_refresh_of(
                live[pc] | touched.get(pc, frozenset()), rows,
                pointer=pointers[pc])
            if hit is not None and hit <= refs:
                return None

        plans = []
        quiet = True
        for key, key_ops in ops.items():
            bank_obj = self.bank(*key)
            plan = bank_obj.disturbance.burst_plan(key_ops)
            plans.append((bank_obj, plan))
            for dose in plan.doses:
                quiet &= bank_obj.quiet_restore(dose, schedule.advance)
        acts = []
        for pc, runs in body.acts_per_pc():
            if len(runs) == 1:
                events, multiplier = runs[0]
            else:
                events, multiplier = tuple(
                    event for run, iterations in runs
                    for event in run * iterations), 1
            acts.append((pc, tuple((key, self.mapper.logical_to_physical(
                row)) for key, row in events), multiplier))
        return SteadyBurst(schedule=schedule, acts=tuple(acts),
                           ops=tuple((key, tuple(key_ops))
                                     for key, key_ops in ops.items()),
                           plans=tuple(plans), touched=touched, quiet=quiet)

    def _live_rows(self, pc: Tuple[int, int], extra: Iterable[int]
                   ) -> set:
        """Rows of ``pc``'s banks a REF would act on, plus ``extra``."""
        live = set(extra)
        for bank_obj in self._channels[pc[0]].touched_banks(pc[1]):
            live |= bank_obj.live_rows()
        return live

    def bursts_until_event(self, body: "BurstBody",
                           steady: Optional["SteadyBurst"],
                           limit: int
                           ) -> Tuple[int, str, Optional["FireCycle"]]:
        """How many of the next ``limit`` bursts :meth:`apply_bursts`
        may apply, and, when fewer, why the next one must be stepped;
        third, the fire cycles the run is made of, if any.

        The causes: ``documented-trr`` (the documented TRR mode refreshes
        the flagged rows on every REF), ``warmup`` (no measurement yet,
        or the entry signature differs from the measured one),
        ``guard`` (some row the burst activates is not provably below
        its bank's flip guards when re-activated), ``trr-fire`` (a REF
        of the next burst fires the TRR engine) and ``refresh-hit`` (a
        REF of the next burst refreshes a live row).  Fire timing is
        the REF counter's alone.

        Fire cycles: when the body's one REF closes it and the TRR
        engine has just fired, the run goes on through the fires —
        whole cycles of ``refresh_period`` bursts, each closed by a
        firing REF — when :meth:`_fire_cycles` vouches for them, and
        ends on the last one's REF with nothing to step.  When it
        cannot, the fire is stepped under the refusal's cause:
        ``fire-picks`` (the sampler's picks show no short period) or
        ``fire-guard`` (a fire's victim restore is not provably below
        its bank's flip guards).
        """
        for pc in body.ref_pcs:
            if self._channels[pc[0]].mode_registers.documented_trr_mode:
                return 0, "documented-trr", None
        if steady is None or self._signature(
                body.banks, body.ref_pcs) != steady.schedule.signature:
            return 0, "warmup", None
        if not steady.quiet:
            return 0, "guard", None
        bursts, cause = limit, ""
        rows = self.geometry.rows
        for pc, offsets in steady.refs:
            state = self._pc_state(pc)
            per_burst = len(offsets)
            until_fire = state.trr.refs_until_fire()
            if until_fire is not None and \
                    (until_fire - 1) // per_burst < bursts:
                bursts, cause = (until_fire - 1) // per_burst, "trr-fire"
            until_hit = state.refs_until_refresh_of(
                self._live_rows(pc, steady.touched.get(pc, ())), rows)
            if until_hit is not None and \
                    (until_hit - 1) // per_burst < bursts:
                bursts, cause = (until_hit - 1) // per_burst, "refresh-hit"
        if cause == "trr-fire" and body.final_ref:
            cycle, refusal = self._fire_cycles(steady, limit)
            if cycle is not None:
                return cycle.bursts, "", cycle
            cause = refusal or cause
        return bursts, cause, None

    def _fire_cycles(self, steady: "SteadyBurst", limit: int
                     ) -> Tuple[Optional["FireCycle"], str]:
        """The fire cycles of the next ``limit`` bursts of a body whose
        one REF closes it, or (None, the refusal cause or "" when the
        run simply holds no whole period of cycles).

        A run of ``k`` cycles qualifies when four things hold:

        * the TRR engine has just fired, so each cycle is
          ``refresh_period`` bursts whose last REF fires;
        * the sampler vouches for the picks of the ``k`` fires, a
          period of them repeating (:meth:`~repro.dram.trr.TrrEngine.
          fire_cycle`);
        * no REF of the run reaches a live row, a row the bursts touch
          or a fire's victim;
        * every row a period of cycles resets — the bursts' ACTs and
          the fires' victim restores — is provably below its bank's
          flip guards whenever it is restored, counting what its ledger
          holds on entry (:meth:`~repro.dram.bank.Bank.
          quiet_restore_of`).

        Then the run is one closed form: the steady burst repeated, the
        victim restores joining its ledger ops as resets after each
        firing REF (:meth:`_cycle_plans`).
        """
        pc = steady.refs[0][0]
        state = self._pc_state(pc)
        period = state.trr.config.refresh_period
        if state.trr.ref_counter or limit < period:
            return None, ""
        events, multiplier = next(
            ((events, multiplier) for owner, events, multiplier
             in steady.acts if owner == pc), ((), 0))
        iterations = multiplier * period
        victims, covered = state.trr.fire_cycle(events, iterations,
                                                limit // period)
        if not victims:
            return None, "fire-picks"
        restores = tuple(tuple(self._restorable(one)) for one in victims)
        until_hit = state.refs_until_refresh_of(
            self._live_rows(pc, steady.touched.get(pc, ())).union(
                row for one in restores for _, row in one),
            self.geometry.rows)
        fires = min(covered, limit // period)
        if until_hit is not None:
            fires = min(fires, (until_hit - 1) // period)
        fires -= fires % len(victims)
        if not fires:
            return None, ""
        plans = steady.cycles.get(restores)
        if plans is None:
            plans = steady.cycles[restores] = self._cycle_plans(
                steady, restores, period)
        until = self.now + len(victims) * period * steady.schedule.advance
        for bank_obj, plan in plans:
            for (row, _), dose in zip(plan.resets, plan.doses):
                if not bank_obj.quiet_restore_of(row, dose, until):
                    return None, "fire-guard"
        return FireCycle(pc=pc, fires=fires, period=period,
                         victims=victims, restores=restores, plans=plans,
                         events=events, iterations=iterations), ""

    def _restorable(self, victims: Iterable[Tuple[BankKey, int]]
                    ) -> Iterable[Tuple[Bank, int]]:
        """The (bank, row) of each victim a fire restores: one inside an
        existing bank (:meth:`refresh` skips the others)."""
        for key, row in victims:
            bank_obj = self._channels[key[0]].existing_bank(key[1], key[2])
            if bank_obj is not None and 0 <= row < self.geometry.rows:
                yield bank_obj, row

    @staticmethod
    def _cycle_plans(steady: "SteadyBurst", restores: tuple,
                     period: int) -> Tuple[tuple, ...]:
        """(bank, :class:`~repro.dram.disturb.BurstPlan`) per ledger of
        one period of fire cycles: per cycle, the steady burst's ledger
        ops ``period`` times, then a reset per victim the closing fire
        restores."""
        ops: Dict[Bank, List[tuple]] = {}
        banks = {bank_obj.key: bank_obj for bank_obj, _ in steady.plans}
        for fire in restores:
            for key, key_ops in steady.ops:
                ops.setdefault(banks[key], []).extend(key_ops * period)
            for bank_obj, row in fire:
                ops.setdefault(bank_obj, []).append((row, None, 0.0))
        return tuple((bank_obj, bank_obj.disturbance.burst_plan(bank_ops))
                     for bank_obj, bank_ops in ops.items())

    def apply_bursts(self, steady: "SteadyBurst", bursts: int,
                     up_to_ref: bool = False,
                     cycle: Optional["FireCycle"] = None) -> None:
        """Apply ``bursts`` repetitions of a measured steady burst.

        With ``up_to_ref`` (for a body whose one REF is its last op),
        also apply the next burst up to that REF, leaving the clock at
        the cycle the REF is to issue: the caller then issues it
        through :meth:`refresh`, event and all.  With ``cycle`` the
        bursts are the fire cycles :meth:`bursts_until_event` vouched
        for, fires and all.

        The caller has :meth:`bursts_until_event` vouch for the run.
        State-identical to stepping the bursts: the entry signature
        matches the measured one, so every burst schedules at the
        recorded offsets and the clock, the timing checker and the
        restore and ACT stamps move by whole periods; the REF pointers,
        REF and TRR counters and command counts advance arithmetically;
        no REF range holds a live row, so each REF only restamps its
        range, one slice per wrap of the pointer; and no re-activation
        materializes anything, so every ledger gets the schedule's
        ledger ops repeated in command order.  Without fires,
        non-firing REFs do not touch the sampler, so it takes the run's
        ACTs in one exact ``observe_run``.  With them, the sampler
        skips whole periods of fires it vouched for, each victim
        restore materializes nothing either, and joins the ledger ops
        as a reset after its fire's REF, and each victim's retention
        clock is stamped at the last fire that restores it (or the
        burst's last ACT of it, if later).
        """
        applied = bursts + up_to_ref
        if applied <= 0:
            return
        schedule = steady.schedule
        entry = self.now
        period = schedule.advance
        last = entry + (applied - 1) * period
        rows = self.geometry.rows
        for pc, offsets in steady.refs:
            state = self._pc_state(pc)
            segments = state.advance_refresh(bursts * len(offsets), rows)
            cycles = ((entry + period * np.arange(bursts))[:, None]
                      + np.asarray(offsets)).ravel()
            for bank_obj in self._channels[pc[0]].touched_banks(pc[1]):
                bank_obj.refresh_runs(segments, cycles, state.rows_per_ref)
            if cycle is None:
                state.trr.advance_refs(bursts * len(offsets))
        for pc, events, multiplier in steady.acts:
            if cycle is None or pc != cycle.pc:
                self._pc_state(pc).trr.observe_run(events,
                                                   multiplier * applied)
        restored: Dict[Tuple[Bank, int], int] = {}
        for (key, restores), offsets in zip(steady.restores,
                                            schedule.exits):
            bank_obj = self.bank(*key)
            for row, offset in restores:
                restored[bank_obj, row] = last + offset
            # The bank's latest ACT, as the checker's exit state holds it.
            bank_obj.note_open_since(last + offsets[3])
        plans, times = steady.plans, applied
        if cycle is not None:
            self._pc_state(cycle.pc).trr.skip_fire_cycles(
                cycle.events, cycle.iterations, cycle.fires, cycle.victims)
            # Fire f (from 1) closes burst f * period; each phase's last
            # fire is in the run's final period of cycles.
            ref_offset = steady.refs[0][1][0]
            base = cycle.fires - len(cycle.restores)
            for phase, fire in enumerate(cycle.restores):
                fired = (entry + ((base + phase + 1) * cycle.period - 1)
                         * period + ref_offset)
                for target in fire:
                    restored[target] = max(restored.get(target, fired),
                                           fired)
            plans, times = cycle.plans, cycle.fires // len(cycle.restores)
        for (bank_obj, row), stamp in restored.items():
            bank_obj.mark_restored(row, stamp)
        for bank_obj, plan in plans:
            bank_obj.disturbance.repeat_burst(plan, times)
        # The unissued REF leaves its pseudo channel's REF horizon where
        # the last full burst put it.
        self._timing_checker.shift_state(
            schedule.banks, applied * period, pcs=schedule.pcs,
            refresh_delta=bursts * period)
        self.now = (last + steady.refs[0][1][0] if up_to_ref
                    else entry + bursts * period)
        for name, count in schedule.counts:
            # The REF left to the caller is counted when it issues.
            total = count * applied - (1 if up_to_ref and name == "REF"
                                       else 0)
            if total:
                self._count(name, total)


#: :meth:`Device.apply_stream` steps that name a row slot.
_ROW_STEPS = ("act", "wr", "rd")

#: Event kinds whose value is a cycle (offset, in a :class:`Schedule`).
_TIMED = ("act", "wr", "rd", "restore", "ref")

#: Event kinds that issue an ACT.
_OPENS = ("act", "wr")


class Schedule(NamedTuple):
    """One command stream's schedule, as :meth:`Device._record` records
    it: everything needed to repeat the stream from another entry with
    the same signature, except the rows.

    ``events`` are the stream's row commands in issue order, as
    ``(kind, key, row, value)``:

    * ``act`` — ACT on bank ``key``; value: its cycle offset;
    * ``wr`` — an analytic ACT + full-row write; value: its cycle offset;
    * ``rd`` — a full-row read of bank ``key``'s open row (row None);
      value: its cycle offset;
    * ``pre`` — the PRE closing ``row``; value: its RowPress factor;
    * ``bulk`` — one ACT of a bulk-applied loop body; value: (its dose,
      the body's rows on that bank);
    * ``restore`` — a bulk-applied loop's closing restore of ``row``;
      value: its cycle offset;
    * ``ref`` — REF on pseudo channel ``key`` (row None); value: its
      cycle offset.

    ``row`` is the slot of the replaying call's rows a memoized
    schedule binds, or the physical row itself (a burst's schedule).
    """

    #: Entry signature over ``banks`` then ``pcs``.
    signature: tuple
    #: The banks the stream hammers, in first-use order.
    banks: Tuple[BankKey, ...]
    #: The pseudo channels it refreshes.
    pcs: Tuple[Tuple[int, int], ...]
    events: Tuple[tuple, ...]
    #: Per bank, the checker's exit state relative to the entry
    #: (:meth:`~repro.dram.timing.TimingChecker.capture_offsets`).
    exits: tuple
    #: Clock advance over the stream.
    advance: int
    #: Command-count increments.
    counts: Tuple[Tuple[str, int], ...]
    #: Clock offsets of the stream's marks (:meth:`Device.apply_stream`).
    marks: Tuple[int, ...] = ()
    #: The row slots a memoized stream's events name, in first-use order.
    slots: Tuple[int, ...] = ()
    #: A memoized stream reads nothing and writes every row it
    #: activates earlier in the stream: its effect on the bank depends
    #: on no row state from before it, but for the ledger entries its
    #: adds land on (see :class:`QuietStream`).
    self_contained: bool = False


class QuietStream(NamedTuple):
    """A self-contained stream with its rows bound, in closed form.

    Every restore the stream makes is of a row it wrote earlier, with
    at most the stream's own addends on its ledger entry, at most the
    stream's advance after the write.  When that dose and age are below
    the bank's flip guards (:meth:`quiet`, re-checked on every apply,
    since the retention guard moves with the temperature), no restore
    materializes anything, and the stream is a burst applied once: each
    ledger gets the :class:`~repro.dram.disturb.BurstPlan` of the
    stream's ledger ops (:meth:`Device._ledger_ops`), and the bank gets
    its payloads, each row's last restore stamp and RowPress factor and
    the latest ACT's open stamp (:meth:`apply`).
    """

    #: Physical row per slot.
    physical: Dict[int, int]
    #: (bank, :class:`~repro.dram.disturb.BurstPlan`, the largest dose
    #: of a row it resets or None) per ledger the stream touches.
    plans: tuple
    #: (physical row, slot) of each written row.
    stores: Tuple[Tuple[int, int], ...]
    #: Rows the stream restores, and each one's last restore offset.
    stamp_rows: np.ndarray
    stamp_offsets: np.ndarray
    #: Each closed row's last RowPress factor.
    factors: Dict[int, float]
    #: The stream's ACTs, as the TRR sampler observes them.
    acts: Tuple[Tuple[BankKey, int], ...]
    #: The row open at the stream's end (None: the bank is closed).
    opened: Optional[int]
    #: Offset of the stream's latest ACT.
    since: Optional[int]

    def quiet(self, advance: int) -> bool:
        """Whether every restore provably materializes nothing."""
        return all(dose is None or bank_obj.quiet_restore(dose, advance)
                   for bank_obj, _, dose in self.plans)

    def apply(self, bank_obj: Bank, payloads: Sequence[tuple],
              entry: int) -> None:
        """Apply the stream's ledger and bank effects from ``entry``
        (the caller has checked :meth:`quiet`)."""
        for owner, plan, _ in self.plans:
            owner.disturbance.repeat_burst(plan, 1)
        bank_obj.install_stream(self.stores, payloads, self.stamp_rows,
                                entry + self.stamp_offsets, self.factors,
                                self.opened, None if self.since is None
                                else entry + self.since)


@dataclass(frozen=True)
class BurstBody:
    """One REF-bounded burst iteration, rows bound.

    ``hammers`` holds each hammer op of the body as (iterations, ACT
    targets as (bank key, logical row) in step order); ``banks`` every
    bank a hammer step touches; ``refs`` the pseudo channel of each
    REF, in body order.
    """

    hammers: Tuple[Tuple[int, Tuple[Tuple[BankKey, int], ...]], ...]
    banks: Tuple[BankKey, ...]
    refs: Tuple[Tuple[int, int], ...]
    #: The body's only REF is its last op.
    final_ref: bool

    @property
    def ref_pcs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(dict.fromkeys(self.refs))

    def refs_per_pc(self) -> List[Tuple[Tuple[int, int], int]]:
        return [(pc, self.refs.count(pc)) for pc in self.ref_pcs]

    def acts_per_pc(self):
        """Per pseudo channel, its ACT runs as (targets, iterations)."""
        runs: Dict[Tuple[int, int], list] = {}
        for iterations, acts in self.hammers:
            per_pc: Dict[Tuple[int, int], list] = {}
            for key, row in acts:
                per_pc.setdefault(key[:2], []).append((key, row))
            for pc, targets in per_pc.items():
                runs.setdefault(pc, []).append((tuple(targets), iterations))
        return list(runs.items())


@dataclass(frozen=True)
class SteadyBurst:
    """A burst measured by :meth:`Device.measure_burst`: its
    :class:`Schedule`, plus what the schedule does not hold."""

    schedule: Schedule
    #: Per pseudo channel, (ACT events, iterations per burst) for the
    #: TRR sampler's ``observe_run``.
    acts: tuple
    #: Per bank key, the schedule's ledger ops as (row, side, amount)
    #: (see :meth:`Device._ledger_ops`).
    ops: tuple
    #: (bank, its ledger's :class:`~repro.dram.disturb.BurstPlan`) per
    #: disturbance ledger the schedule's ledger ops touch.
    plans: tuple
    #: Per pseudo channel, the rows those ops touch.
    touched: Dict[Tuple[int, int], frozenset]
    #: Every re-activation provably materializes nothing.
    quiet: bool
    #: Fire-cycle plans (:meth:`Device._cycle_plans`) by the victim
    #: restores of one period of fires, built when first needed.
    cycles: Dict[tuple, tuple] = field(default_factory=dict,
                                       compare=False, repr=False)

    @cached_property
    def refs(self) -> Tuple[Tuple[Tuple[int, int], Tuple[int, ...]], ...]:
        """Per refreshed pseudo channel, its REFs' cycle offsets."""
        events = self.schedule.events
        return tuple((pc, tuple(value for kind, key, _, value in events
                                if kind == "ref" and key == pc))
                     for pc in self.schedule.pcs)

    @cached_property
    def restores(self) -> Tuple[Tuple[BankKey, Tuple[Tuple[int, int], ...]],
                                ...]:
        """Per hammered bank, (row, offset of its last restore) of each
        row the burst restores."""
        last: Dict[Tuple[BankKey, int], int] = {}
        for kind, key, row, value in self.schedule.events:
            if kind in ("act", "restore"):
                last[key, row] = value
        return tuple((key, tuple((row, offset)
                                 for (owner, row), offset in last.items()
                                 if owner == key))
                     for key in self.schedule.banks)


class FireCycle(NamedTuple):
    """A run of fire cycles :meth:`Device.bursts_until_event` vouched
    for: ``fires`` fires, a whole number of periods of the sampler's
    picks, each closing ``period`` steady bursts."""

    #: The pseudo channel whose REFs fire.
    pc: Tuple[int, int]
    fires: int
    #: Bursts per fire (the TRR engine's ``refresh_period``).
    period: int
    #: Per fire of one period of picks, its (bank key, row) victims.
    victims: tuple
    #: The same, as the (bank, row) restores the fires make.
    restores: tuple
    #: (bank, :class:`~repro.dram.disturb.BurstPlan`) per ledger of one
    #: period of cycles.
    plans: tuple
    #: The ACT events and repetitions the sampler observes per fire.
    events: tuple
    iterations: int

    @property
    def bursts(self) -> int:
        return self.fires * self.period
