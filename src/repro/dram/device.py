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
One level up, :meth:`Device.apply_bursts` applies runs of identical
REF-bounded bursts between events (TRR fires, REFs that reach a live
row) in closed form, from a burst :meth:`Device.measure_burst` measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

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
from repro.dram.geometry import Geometry
from repro.dram.modereg import ModeRegisters
from repro.dram.subarrays import SubarrayLayout
from repro.dram.timing import TimingChecker, TimingParameters
from repro.dram.trr import TrrConfig
from repro.dram.address import RowAddressMapper
from repro.errors import CommandError


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
        #: Memoized batch-write schedules, keyed by (bank key, batch
        #: length) and guarded by the checker's entry replay signature;
        #: see :meth:`apply_row_writes`.
        self._write_replay: Dict[Tuple[BankKey, int], tuple] = {}
        #: Memoized hammer-iteration schedules, keyed by the resolved
        #: step tuple and guarded the same way; see
        #: :meth:`apply_hammer_steps`.
        self._hammer_replay: Dict[tuple, tuple] = {}

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

    def now_seconds(self) -> float:
        """Current in-DRAM time in seconds."""
        return self.timing.seconds(self.now)

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
        self.now = cycle + 1
        self._count("ACT")
        return cycle

    def precharge(self, channel: int, pseudo_channel: int, bank: int) -> int:
        key: BankKey = (channel, pseudo_channel, bank)
        cycle = self._timing_checker.earliest_precharge(key, self.now)
        self._timing_checker.record_precharge(key, cycle)
        closed = self.bank(channel, pseudo_channel, bank).precharge(cycle)
        if closed is not None:
            self._route_cross_channel(channel, pseudo_channel, bank,
                                      closed[0], closed[1])
        self.now = cycle + 1
        self._count("PRE")
        return cycle

    def _route_cross_channel(self, channel: int, pseudo_channel: int,
                             bank: int, physical_row: int,
                             dose: float) -> None:
        """Leak a fraction of an activation dose to the same row of the
        vertically adjacent channels (future work 3's hypothesis)."""
        coupling = self.profile.cross_channel_coupling
        if coupling <= 0.0:
            return
        step = self.geometry.channels_per_die
        for neighbor_channel in (channel - step, channel + step):
            if not 0 <= neighbor_channel < self.geometry.channels:
                continue
            victim_bank = self.bank(neighbor_channel, pseudo_channel, bank)
            victim_bank.disturbance.add_direct(physical_row,
                                               coupling * dose)

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
                self._route_cross_channel(channel, pseudo_channel,
                                          bank_index, closed[0], closed[1])
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
                        row: int, bits: np.ndarray, parity: np.ndarray,
                        tag: Optional[bytes] = None) -> None:
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
        target.store_full_row(physical, bits, parity, act_cycle, tag=tag)
        self.now = wr_cycle + self.geometry.columns * self.timing.ccd_cycles
        self._count("WR", self.geometry.columns)

        pre_cycle = self._timing_checker.earliest_precharge(key, self.now)
        self._timing_checker.record_precharge(key, pre_cycle)
        factor = self.profile.rowpress_amplification(
            pre_cycle - act_cycle, self.timing.ras_cycles)
        target.note_closed_activation(physical, factor)
        self._route_cross_channel(channel, pseudo_channel, bank,
                                  physical, factor)
        self.now = pre_cycle + 1
        self._count("PRE")

    #: Minimum same-bank run length worth the bulk write path below:
    #: the steady-state probe spends a few fully-scheduled triads
    #: before it can start skipping the timing checker.
    BULK_WRITE_THRESHOLD = 8

    def apply_row_writes(self, channel: int, pseudo_channel: int,
                         bank: int,
                         writes: Sequence[Tuple[int, np.ndarray,
                                                np.ndarray,
                                                Optional[bytes]]]
                         ) -> None:
        """Analytic batch of full-row writes to one bank.

        ``writes`` is a sequence of ``(logical row, bits, parity,
        payload tag)``;
        cycle- and state-identical to one :meth:`apply_row_write` per
        entry, in order.  Uniform triads settle into a steady schedule
        exactly like the interpreter's hammer loops, so after a probe
        of fully-scheduled triads shows two consecutive triads with
        identical period *and* intra-triad offsets — proof that no
        absolute horizon (a stale REF window, a cold bank) still
        binds, leaving only relative constraints, which repeat — the
        middle triads skip the timing checker: their cycles are
        arithmetic, the checker state is translated with
        :meth:`~repro.dram.timing.TimingChecker.shift_state`, and the
        last triad runs fully scheduled to re-anchor the trailing
        state.  Row effects (payload store, restore stamp, RowPress
        open-time factor, neighbour disturbance, cross-channel
        routing) are applied per write, in write order, with the same
        float operations as the unrolled sequence.  Every triad — probe,
        bulk, and trailing — observes its ACT on the TRR sampler, so any
        sampler strategy ends exactly where the unrolled sequence would
        (no REF can interleave inside a batch).

        The first batch of each (bank, length) also *records* its
        schedule — per-write ACT offsets and RowPress factors, the
        checker's exit offsets, and the clock advance — under the
        checker's entry :meth:`~repro.dram.timing.TimingChecker.
        replay_signature`.  A later batch whose entry signature
        matches replays the recording without consulting the checker
        at all: scheduling is a pure function of the clamped-relative
        entry state (see ``replay_signature``), so the cycle offsets
        are provably identical, and only the per-row effects — which
        depend on row and payload, never on absolute time — are
        re-executed.
        """
        if len(writes) < self.BULK_WRITE_THRESHOLD:
            for row, bits, parity, tag in writes:
                self.apply_row_write(channel, pseudo_channel, bank,
                                     row, bits, parity, tag=tag)
            return
        key: BankKey = (channel, pseudo_channel, bank)
        checker = self._timing_checker
        count = len(writes)
        entry_now = self.now
        signature = checker.replay_signature(key, entry_now)
        memo_key = (key, count)
        memo = self._write_replay.get(memo_key)
        if memo is not None and memo[0] == signature:
            self._replay_row_writes(channel, pseudo_channel, bank,
                                    writes, memo)
            return
        target = self.bank(channel, pseudo_channel, bank)
        pc_state = self.channel(channel).pseudo_channels[pseudo_channel]
        mapper = self.mapper
        wr_advance = self.geometry.columns * self.timing.ccd_cycles
        acts: List[int] = []
        factors: List[float] = []

        def one_triad(row: int, bits: np.ndarray, parity: np.ndarray,
                      tag: Optional[bytes]
                      ) -> Tuple[int, int, int, float]:
            physical = mapper.logical_to_physical(row)
            act_cycle = checker.earliest_activate(key, self.now)
            checker.record_activate(key, act_cycle)
            pc_state.trr.observe_activation(key, physical)
            self.now = act_cycle + 1
            self._count("ACT")
            wr_cycle = checker.earliest_rdwr(key, self.now)
            checker.record_rdwr(key, wr_cycle, is_write=True)
            target.store_full_row(physical, bits, parity, act_cycle,
                                  tag=tag)
            self.now = wr_cycle + wr_advance
            self._count("WR", self.geometry.columns)
            pre_cycle = checker.earliest_precharge(key, self.now)
            checker.record_precharge(key, pre_cycle)
            factor = self.profile.rowpress_amplification(
                pre_cycle - act_cycle, self.timing.ras_cycles)
            target.note_closed_activation(physical, factor)
            self._route_cross_channel(channel, pseudo_channel, bank,
                                      physical, factor)
            self.now = pre_cycle + 1
            self._count("PRE")
            acts.append(act_cycle)
            factors.append(factor)
            return act_cycle, wr_cycle, pre_cycle, factor

        # Probe: schedule triads for real until two consecutive ones
        # have the same shape (ACT period, WR and PRE offsets).
        index = 0
        shapes = []   # (period, wr - act, pre - act)
        last_act = None
        steady = None
        while index < count - 1:
            act_cycle, wr_cycle, pre_cycle, factor = one_triad(
                *writes[index])
            index += 1
            if last_act is not None:
                shapes.append((act_cycle - last_act, wr_cycle - act_cycle,
                               pre_cycle - act_cycle))
            last_act = act_cycle
            if len(shapes) >= 2 and shapes[-1] == shapes[-2]:
                steady = (shapes[-1][0], factor)
                break

        if steady is not None and index < count - 1:
            period, factor = steady
            bulk = count - 1 - index
            for offset in range(bulk):
                row, bits, parity, tag = writes[index + offset]
                physical = mapper.logical_to_physical(row)
                act_cycle = last_act + period * (offset + 1)
                pc_state.trr.observe_activation(key, physical)
                target.store_full_row(physical, bits, parity, act_cycle,
                                      tag=tag)
                target.note_closed_activation(physical, factor)
                self._route_cross_channel(channel, pseudo_channel, bank,
                                          physical, factor)
                acts.append(act_cycle)
                factors.append(factor)
            checker.shift_state((key,), bulk * period)
            self.now += bulk * period
            self._count("ACT", bulk)
            self._count("WR", bulk * self.geometry.columns)
            self._count("PRE", bulk)
            index += bulk

        while index < count:
            one_triad(*writes[index])
            index += 1

        self._write_replay[memo_key] = (
            signature,
            tuple(act - entry_now for act in acts),
            tuple(factors),
            checker.capture_offsets(key, entry_now),
            self.now - entry_now,
        )

    def _replay_row_writes(self, channel: int, pseudo_channel: int,
                           bank: int,
                           writes: Sequence[Tuple[int, np.ndarray,
                                                  np.ndarray,
                                                  Optional[bytes]]],
                           memo: tuple) -> None:
        """Replay a memoized batch-write schedule (see above).

        Applies the per-row effects in write order with the recorded
        ACT cycles and RowPress factors, installs the recorded checker
        exit state, advances the clock, and feeds the batch's ACT
        sequence to the TRR sampler in bulk form — exactly equivalent
        to per-ACT observation for every sampler strategy, since no
        REF can interleave inside a batch.
        """
        _, act_offsets, factors, exit_offsets, advance = memo
        key: BankKey = (channel, pseudo_channel, bank)
        target = self.bank(channel, pseudo_channel, bank)
        mapper = self.mapper
        entry_now = self.now
        act_events: List[Tuple[BankKey, int]] = []
        for (row, bits, parity, tag), act_offset, factor in zip(
                writes, act_offsets, factors):
            physical = mapper.logical_to_physical(row)
            act_events.append((key, physical))
            target.store_full_row(physical, bits, parity,
                                  entry_now + act_offset, tag=tag)
            target.note_closed_activation(physical, factor)
            self._route_cross_channel(channel, pseudo_channel, bank,
                                      physical, factor)
        pc_state = self.channel(channel).pseudo_channels[pseudo_channel]
        pc_state.trr.observe_run(act_events, 1)
        self._timing_checker.restore_offsets(key, entry_now, exit_offsets)
        self.now = entry_now + advance
        count = len(writes)
        self._count("ACT", count)
        self._count("WR", count * self.geometry.columns)
        self._count("PRE", count)

    def apply_hammer_steps(self, steps: tuple) -> None:
        """Analytic single hammer iteration: resolved ACT/PRE/Wait steps.

        ``steps`` is a tuple of ``("act", ch, pc, bank, logical_row)``,
        ``("pre", ch, pc, bank)`` and ``("wait", cycles)`` tuples —
        one unrolled loop iteration with row slots already bound.
        Cycle- and state-identical to issuing each step through
        :meth:`activate` / :meth:`precharge` / :meth:`wait`, and the
        first execution does exactly that, while recording each step's
        cycle offset and RowPress factor under the involved banks'
        entry :meth:`~repro.dram.timing.TimingChecker.
        replay_signature` tuple.  A later iteration entering with the
        same signatures replays the recording: scheduling is a pure
        function of the clamped-relative entry state (per key, and
        the interleaving across keys is fixed by step order), so the
        cycles and open times are provably identical, and only the
        bank physics — row restore, TRR observation, neighbour
        disturbance, cross-channel routing — re-executes, in step
        order, with the same float operations.
        """
        checker = self._timing_checker
        entry_now = self.now
        keys: List[BankKey] = []
        for step in steps:
            if step[0] != "wait":
                key = (step[1], step[2], step[3])
                if key not in keys:
                    keys.append(key)
        signature = tuple(checker.replay_signature(key, entry_now)
                          for key in keys)
        memo = self._hammer_replay.get(steps)
        if memo is not None and memo[0] == signature:
            _, events, exit_offsets, advance, n_act, n_pre = memo
            banks = {key: self.bank(*key) for key in keys}
            trrs = {key: self.channel(key[0]).pseudo_channels[key[1]].trr
                    for key in keys}
            for event in events:
                if event[0] == "act":
                    _, key, physical, offset = event
                    banks[key].replay_activate(physical,
                                               entry_now + offset)
                    trrs[key].observe_activation(key, physical)
                else:
                    _, key, physical, factor = event
                    banks[key].replay_precharge(physical, factor)
                    self._route_cross_channel(key[0], key[1], key[2],
                                              physical, factor)
            for key, offsets in zip(keys, exit_offsets):
                checker.restore_offsets(key, entry_now, offsets)
            self.now = entry_now + advance
            if n_act:
                self._count("ACT", n_act)
            if n_pre:
                self._count("PRE", n_pre)
            return

        events_out: List[tuple] = []
        n_act = n_pre = 0
        for step in steps:
            tag = step[0]
            if tag == "act":
                key = (step[1], step[2], step[3])
                physical = self.mapper.logical_to_physical(step[4])
                cycle = self.activate(step[1], step[2], step[3], step[4])
                events_out.append(("act", key, physical,
                                   cycle - entry_now))
                n_act += 1
            elif tag == "pre":
                key = (step[1], step[2], step[3])
                target = self.bank(*key)
                physical = target.open_physical_row
                self.precharge(step[1], step[2], step[3])
                if physical is not None:
                    events_out.append(("pre", key, physical,
                                       target.last_open_factor(physical)))
                n_pre += 1
            else:
                self.wait(step[1])
        self._hammer_replay[steps] = (
            signature,
            tuple(events_out),
            tuple(checker.capture_offsets(key, entry_now)
                  for key in keys),
            self.now - entry_now,
            n_act,
            n_pre,
        )

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

        physical_body: List[Tuple[BankKey, int]] = []
        activated_per_bank: Dict[BankKey, set] = {}
        for channel, pseudo_channel, bank_index, row in body:
            key: BankKey = (channel, pseudo_channel, bank_index)
            physical = self.mapper.logical_to_physical(row)
            physical_body.append((key, physical))
            activated_per_bank.setdefault(key, set()).add(physical)

        # Materialize any pre-loop pending state on the activated rows,
        # exactly as their first in-loop ACT would.
        for key, physical in physical_body:
            self.bank(*key).restore_row(physical, start_cycle)

        # Accumulate disturbance on non-activated victims.  Each body
        # ACT's per-iteration dose carries the RowPress amplification the
        # warm-up iterations measured for that row (steady-state loops
        # hold every row open for the same duration each iteration).
        for key, physical in physical_body:
            bank_obj = self.bank(*key)
            activated = activated_per_bank[key]
            dose = iterations * bank_obj.last_open_factor(physical)
            for victim, side, amount in \
                    bank_obj.disturbance.contributions(physical, dose):
                if victim in activated:
                    continue
                bank_obj.disturbance.add(victim, side, amount)
            self._route_cross_channel(key[0], key[1], key[2], physical,
                                      dose)

        # Activated rows end the loop freshly restored.
        for key, activated in activated_per_bank.items():
            bank_obj = self.bank(*key)
            for physical in activated:
                bank_obj.mark_restored(physical, end_cycle)

        # TRR samplers see the full ACT stream in bulk form, grouped by
        # pseudo channel in body order: equivalent to per-ACT
        # observation of ``iterations`` repetitions for every sampler
        # strategy (no REF can occur inside the loop — refresh is held
        # off while hammering).
        events_per_pc: Dict[Tuple[int, int],
                            List[Tuple[BankKey, int]]] = {}
        for key, physical in physical_body:
            events_per_pc.setdefault((key[0], key[1]), []).append(
                (key, physical))
        for (chan_index, pc_index), events in events_per_pc.items():
            pc_state = self.channel(chan_index).pseudo_channels[pc_index]
            pc_state.trr.observe_run(events, iterations)

        # A steady-state loop translates its timing horizon by exactly
        # the skipped duration; shift the affected banks' constraints so
        # commands issued after the loop schedule as the unrolled
        # execution would have.
        self._timing_checker.shift_state(activated_per_bank.keys(),
                                         total_cycles)
        self.now = end_cycle
        self._count("ACT", iterations * len(physical_body))
        self._count("PRE", iterations * len(physical_body))

    # ------------------------------------------------------------------
    # REF-bounded bursts in closed form (the engine's BurstOp path)
    # ------------------------------------------------------------------
    def _burst_signature(self, body: "BurstBody") -> tuple:
        checker = self._timing_checker
        now = self.now
        return (tuple(checker.replay_signature(key, now)
                      for key in body.banks),
                tuple(checker.pc_signature(pc, now)
                      for pc in body.ref_pcs))

    def _pc_state(self, pc: Tuple[int, int]):
        return self._channels[pc[0]].pseudo_channels[pc[1]]

    def measure_burst(self, body: "BurstBody",
                      step: Callable[[], Sequence[Tuple[int, int]]]
                      ) -> Optional["SteadyBurst"]:
        """Step one burst and measure it for :meth:`apply_bursts`.

        ``step`` runs one burst through the per-iteration path and
        returns, for each of its REFs in body order, the clock when it
        was issued and the cycle it issued at.  While it runs, every
        bank's disturbance ledger journals its adds and resets.  The
        measurement is kept only when the burst was *clean* — no TRR
        fire, no REF range holding a live row, no bank created — since
        then every reset it journaled is an ACT's restore, and the
        journal is exactly what any later burst with the same entry
        signature does to the ledgers.  Otherwise None.
        """
        signature = self._burst_signature(body)
        entry = self.now
        counts = dict(self.command_counts)
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
        banks = [bank_obj for chan in self._channels
                 for bank_obj in chan.banks()]
        journal: List[tuple] = []
        for bank_obj in banks:
            bank_obj.disturbance.journal = journal
        try:
            ref_stamps = step()
        finally:
            for bank_obj in banks:
                bank_obj.disturbance.journal = None
        if fires or len(banks) != sum(len(chan.banks())
                                      for chan in self._channels):
            return None

        owners = {bank_obj.disturbance: bank_obj for bank_obj in banks}
        ops: Dict[object, List[tuple]] = {}
        for tracker, row, side, amount in journal:
            ops.setdefault(tracker, []).append((row, side, amount))
        rows = self.geometry.rows
        touched: Dict[Tuple[int, int], frozenset] = {}
        for tracker, tracker_ops in ops.items():
            pc = owners[tracker].key[:2]
            touched[pc] = touched.get(pc, frozenset()) | {
                row for row, _, _ in tracker_ops}
        for pc, refs in body.refs_per_pc():
            state = self._pc_state(pc)
            hit = state.refs_until_refresh_of(
                live[pc] | touched.get(pc, frozenset()), rows,
                pointer=pointers[pc])
            if hit is not None and hit <= refs:
                return None

        period = self.now - entry
        plans = []
        restores = []
        quiet = True
        for tracker, tracker_ops in ops.items():
            bank_obj = owners[tracker]
            plan = tracker.burst_plan(tracker_ops)
            plans.append((tracker, plan))
            for (row, _), dose in zip(plan.resets, plan.doses):
                restores.append((bank_obj, row,
                                 bank_obj.last_restore_cycle(row) - entry))
                quiet &= bank_obj.quiet_restore(dose, period)
        refs = []
        for pc, _ in body.refs_per_pc():
            refs.append((pc, tuple(cycle - entry for ref_pc, (_, cycle) in
                                   zip(body.refs, ref_stamps)
                                   if ref_pc == pc)))
        counts = tuple((name, value - counts.get(name, 0))
                       for name, value in self.command_counts.items()
                       if value != counts.get(name, 0))
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
        return SteadyBurst(
            body=body, signature=signature, period=period, counts=counts,
            ref_issue=(ref_stamps[0][0] - entry if body.final_ref
                       else None),
            refs=tuple(refs), acts=tuple(acts), plans=tuple(plans),
            restores=tuple(restores),
            opens=tuple((self.bank(*key), self.bank(*key).open_since - entry)
                        for key in body.banks),
            touched=touched, quiet=quiet)

    def bursts_until_event(self, body: "BurstBody",
                           steady: Optional["SteadyBurst"],
                           limit: int) -> Tuple[int, str]:
        """How many of the next ``limit`` bursts :meth:`apply_bursts`
        may apply, and, when fewer, why the next one must be stepped.

        The causes: ``documented-trr`` (the documented TRR mode refreshes
        the flagged rows on every REF), ``warmup`` (no measurement yet,
        or the entry signature differs from the measured one),
        ``guard`` (some row the burst activates is not provably below
        its bank's flip guards when re-activated), ``trr-fire`` (a REF
        of the next burst fires the TRR engine) and ``refresh-hit`` (a
        REF of the next burst refreshes a live row).  Fire timing is
        the REF counter's alone, so no sampler is consulted.
        """
        for pc in body.ref_pcs:
            if self._channels[pc[0]].mode_registers.documented_trr_mode:
                return 0, "documented-trr"
        if steady is None or \
                self._burst_signature(body) != steady.signature:
            return 0, "warmup"
        if not steady.quiet:
            return 0, "guard"
        bursts, cause = limit, ""
        rows = self.geometry.rows
        for pc, offsets in steady.refs:
            state = self._pc_state(pc)
            per_burst = len(offsets)
            until_fire = state.trr.refs_until_fire()
            if until_fire is not None and \
                    (until_fire - 1) // per_burst < bursts:
                bursts, cause = (until_fire - 1) // per_burst, "trr-fire"
            live = set(steady.touched.get(pc, ()))
            for bank_obj in self._channels[pc[0]].touched_banks(pc[1]):
                live |= bank_obj.live_rows()
            until_hit = state.refs_until_refresh_of(live, rows)
            if until_hit is not None and \
                    (until_hit - 1) // per_burst < bursts:
                bursts, cause = (until_hit - 1) // per_burst, "refresh-hit"
        return bursts, cause

    def apply_bursts(self, steady: "SteadyBurst", bursts: int,
                     up_to_ref: bool = False) -> None:
        """Apply ``bursts`` repetitions of a measured steady burst.

        With ``up_to_ref`` (for a body whose one REF is its last op),
        also apply the next burst up to that REF, leaving the clock
        where the REF is to issue: the caller then issues it through
        :meth:`refresh`, event and all.

        The caller has :meth:`bursts_until_event` vouch for the run.
        State-identical to stepping the bursts: the entry signature
        matches the measured one, so every burst schedules at the same
        offsets and the clock, the timing checker and the restore and
        ACT stamps move by whole periods; the REF pointers, REF and TRR
        counters and command counts advance arithmetically; no REF
        range holds a live row, so each REF only restamps its range;
        no TRR fires, and non-firing REFs do not touch the sampler, so
        it takes the run's ACTs in one exact ``observe_run``; and no
        re-activation materializes anything, so every ledger gets the
        measured burst's adds repeated in command order.
        """
        applied = bursts + up_to_ref
        if applied <= 0:
            return
        entry = self.now
        period = steady.period
        last = entry + (applied - 1) * period
        rows = self.geometry.rows
        for pc, offsets in steady.refs:
            state = self._pc_state(pc)
            ranges = state.advance_refresh(bursts * len(offsets), rows)
            cycles = [entry + burst * period + offset
                      for burst in range(bursts) for offset in offsets]
            for bank_obj in self._channels[pc[0]].touched_banks(pc[1]):
                bank_obj.refresh_runs(ranges, cycles)
            state.trr.advance_refs(bursts * len(offsets))
        for pc, events, multiplier in steady.acts:
            self._pc_state(pc).trr.observe_run(events,
                                               multiplier * applied)
        for bank_obj, row, offset in steady.restores:
            bank_obj.mark_restored(row, last + offset)
        for tracker, plan in steady.plans:
            tracker.repeat_burst(plan, applied)
        for bank_obj, offset in steady.opens:
            bank_obj.note_open_since(last + offset)
        # The unissued REF leaves its pseudo channel's REF horizon where
        # the last full burst put it.
        self._timing_checker.shift_state(
            steady.body.banks, applied * period, pcs=steady.body.ref_pcs,
            refresh_delta=bursts * period)
        self.now = (last + steady.ref_issue if up_to_ref
                    else entry + bursts * period)
        for name, count in steady.counts:
            # The REF left to the caller is counted when it issues.
            total = count * applied - (1 if up_to_ref and name == "REF"
                                       else 0)
            if total:
                self._count(name, total)


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
    """A burst measured by :meth:`Device.measure_burst`."""

    body: BurstBody
    #: Entry signature the measured burst scheduled from.
    signature: tuple
    period: int
    #: Command-count increments of one burst.
    counts: Tuple[Tuple[str, int], ...]
    #: Clock offset at which a ``final_ref`` body's REF issues.
    ref_issue: Optional[int]
    #: Per refreshed pseudo channel, its REF cycles' offsets.
    refs: Tuple[Tuple[Tuple[int, int], Tuple[int, ...]], ...]
    #: Per pseudo channel, (ACT events, iterations per burst) for the
    #: TRR sampler's ``observe_run``.
    acts: tuple
    #: (ledger, its :class:`~repro.dram.disturb.BurstPlan`) per
    #: disturbance ledger the burst touches.
    plans: tuple
    #: (bank, row, offset) of each row the burst restores, offset of
    #: its last restore.
    restores: tuple
    #: (bank, offset) of each hammered bank's last ACT.
    opens: tuple
    #: Per pseudo channel, the rows the burst's ledger ops touch.
    touched: Dict[Tuple[int, int], frozenset]
    #: Every re-activation provably materializes nothing.
    quiet: bool
