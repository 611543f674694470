"""HBM2 command timing parameters and per-bank timing enforcement.

The paper's infrastructure controls command timing at the 1.66 ns
granularity of the 600 MHz HBM2 interface clock.  The interpreter in
:mod:`repro.bender.interpreter` schedules commands at the earliest cycle
the constraints allow, so simulated experiment durations are meaningful —
in particular, 256K double-sided hammers land at ≈24.7 ms, under the 27 ms
retention-interference budget the paper enforces (§3.1).

All parameters are stored in nanoseconds and converted once to integer
cycle counts for the interface frequency in use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.errors import ConfigurationError, TimingViolationError
from repro.units import cycles_for_time


@dataclass(frozen=True)
class TimingParameters:
    """Minimum-delay constraints, in nanoseconds.

    Values follow JESD235 HBM2 grade timings (rounded); they can be
    overridden per experiment (e.g. the paper's infrastructure can issue
    commands faster than nominal to probe guardbands).

    Attributes:
        frequency_hz: interface clock frequency (600 MHz in the paper).
        t_rcd: ACT -> RD/WR delay (row to column).
        t_ras: ACT -> PRE minimum row-open time.
        t_rp: PRE -> ACT delay (precharge).
        t_rrd: ACT -> ACT delay to *different* banks.
        t_faw: rolling window in which at most four ACTs may issue to one
            pseudo channel.  The nominal value sits inside 3 x tRRD at the
            paper's clock, so it never delays JEDEC-paced streams; it
            exists so overridden (guardband-probing) parameters and the
            static verifier share one constraint definition.
        t_ccd: RD/WR -> RD/WR column-to-column delay.
        t_wr: write recovery (last WR data -> PRE).
        t_rfc: REF -> next command delay (refresh cycle time).
        t_refi: nominal interval between periodic REFs (3.9 us).
        t_refw: refresh window in which every row is refreshed (32 ms).
    """

    frequency_hz: float = 600e6
    t_rcd: float = 14.0
    t_ras: float = 33.0
    t_rp: float = 15.0
    t_rrd: float = 4.0
    t_faw: float = 14.0
    t_ccd: float = 3.3
    t_wr: float = 15.0
    t_rfc: float = 260.0
    t_refi: float = 3900.0
    t_refw: float = 32_000_000.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError(
                f"frequency_hz must be positive, got {self.frequency_hz}")
        for name in ("t_rcd", "t_ras", "t_rp", "t_rrd", "t_faw", "t_ccd",
                     "t_wr", "t_rfc", "t_refi", "t_refw"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")

    # ------------------------------------------------------------------
    # Cycle conversions (cached per instance via properties)
    # ------------------------------------------------------------------
    def cycles(self, nanoseconds: float) -> int:
        """Whole interface cycles covering ``nanoseconds``."""
        return cycles_for_time(nanoseconds * 1e-9, self.frequency_hz)

    @property
    def clock_period_ns(self) -> float:
        return 1e9 / self.frequency_hz

    @property
    def rcd_cycles(self) -> int:
        return self.cycles(self.t_rcd)

    @property
    def ras_cycles(self) -> int:
        return self.cycles(self.t_ras)

    @property
    def rp_cycles(self) -> int:
        return self.cycles(self.t_rp)

    @property
    def rrd_cycles(self) -> int:
        return self.cycles(self.t_rrd)

    @property
    def faw_cycles(self) -> int:
        return self.cycles(self.t_faw)

    @property
    def ccd_cycles(self) -> int:
        return self.cycles(self.t_ccd)

    @property
    def wr_cycles(self) -> int:
        return self.cycles(self.t_wr)

    @property
    def rfc_cycles(self) -> int:
        return self.cycles(self.t_rfc)

    @property
    def refi_cycles(self) -> int:
        return self.cycles(self.t_refi)

    @property
    def refw_cycles(self) -> int:
        return self.cycles(self.t_refw)

    @property
    def rc_cycles(self) -> int:
        """ACT -> ACT same bank: tRAS + tRP (the hammer period)."""
        return self.ras_cycles + self.rp_cycles

    def constraints(self) -> "ConstraintTable":
        """The integer-cycle constraint table for this parameter set.

        The single source of timing truth: the runtime
        :class:`TimingChecker` and the static verifier in
        :mod:`repro.verify.program` both consume this table, so the two
        cannot disagree about what "legal" means.
        """
        return ConstraintTable(
            act_to_act_same_bank=self.rc_cycles,
            act_to_act_same_pc=self.rrd_cycles,
            four_act_window=self.faw_cycles,
            act_to_pre=self.ras_cycles,
            pre_to_act=self.rp_cycles,
            act_to_rdwr=self.rcd_cycles,
            rdwr_to_rdwr=self.ccd_cycles,
            write_to_pre=self.wr_cycles,
            ref_to_any=self.rfc_cycles,
            refresh_interval=self.refi_cycles,
            refresh_window=self.refw_cycles,
        )

    def seconds(self, cycles: int) -> float:
        """Wall-clock seconds for a cycle count at this frequency."""
        return cycles / self.frequency_hz


@dataclass(frozen=True)
class ConstraintTable:
    """Minimum-delay constraints in integer interface cycles.

    Field names describe the command pair each constraint separates; the
    canonical JEDEC names (used in diagnostics) live in
    :data:`CONSTRAINT_NAMES`.
    """

    #: tRC: ACT -> ACT, same bank.
    act_to_act_same_bank: int
    #: tRRD: ACT -> ACT, different banks of one pseudo channel.
    act_to_act_same_pc: int
    #: tFAW: window that at most four ACTs per pseudo channel may share.
    four_act_window: int
    #: tRAS: ACT -> PRE, same bank.
    act_to_pre: int
    #: tRP: PRE -> ACT, same bank.
    pre_to_act: int
    #: tRCD: ACT -> RD/WR, same bank.
    act_to_rdwr: int
    #: tCCD: RD/WR -> RD/WR, same bank.
    rdwr_to_rdwr: int
    #: tWR: WR -> PRE, same bank.
    write_to_pre: int
    #: tRFC: REF -> any command, same pseudo channel.
    ref_to_any: int
    #: tREFI: nominal REF cadence (advisory; not a hard delay).
    refresh_interval: int
    #: tREFW: window within which every row must be refreshed.
    refresh_window: int


#: JEDEC name of each :class:`ConstraintTable` field, for diagnostics.
CONSTRAINT_NAMES = {
    "act_to_act_same_bank": "tRC",
    "act_to_act_same_pc": "tRRD",
    "four_act_window": "tFAW",
    "act_to_pre": "tRAS",
    "pre_to_act": "tRP",
    "act_to_rdwr": "tRCD",
    "rdwr_to_rdwr": "tCCD",
    "write_to_pre": "tWR",
    "ref_to_any": "tRFC",
    "refresh_interval": "tREFI",
    "refresh_window": "tREFW",
}


class BankTimingState:
    """Earliest-legal-cycle bookkeeping for one bank."""

    __slots__ = ("next_act", "next_pre", "next_rdwr", "act_cycle", "is_open")

    def __init__(self) -> None:
        self.next_act = 0
        self.next_pre = 0
        self.next_rdwr = 0
        self.act_cycle = -1
        self.is_open = False


class TimingChecker:
    """Validates and schedules commands against timing constraints.

    Used in two modes:

    * *scheduling* (``earliest_cycle``): the interpreter asks when a
      command may legally issue and advances its clock to that cycle.
    * *checking* (``record``): the device records the issue and raises
      :class:`~repro.errors.TimingViolationError` on violations, which
      only happens if the interpreter (or a hand-written driver) is buggy.
    """

    def __init__(self, timing: TimingParameters) -> None:
        self._timing = timing
        self._constraints = timing.constraints()
        self._banks: Dict[Tuple[int, int, int], BankTimingState] = {}
        self._pc_next_act: Dict[Tuple[int, int], int] = {}
        self._pc_next_any: Dict[Tuple[int, int], int] = {}
        # Last three ACT cycles per pseudo channel: the fourth ACT of any
        # rolling window may not issue before the first + tFAW.
        self._pc_act_history: Dict[Tuple[int, int], Deque[int]] = {}

    @property
    def constraints(self) -> ConstraintTable:
        """The constraint table this checker enforces."""
        return self._constraints

    def _bank(self, key: Tuple[int, int, int]) -> BankTimingState:
        state = self._banks.get(key)
        if state is None:
            state = BankTimingState()
            self._banks[key] = state
        return state

    # -- scheduling ----------------------------------------------------
    def earliest_activate(self, key: Tuple[int, int, int], now: int) -> int:
        bank = self._bank(key)
        pc = key[:2]
        earliest = max(now, bank.next_act,
                       self._pc_next_act.get(pc, 0),
                       self._pc_next_any.get(pc, 0))
        history = self._pc_act_history.get(pc)
        if history is not None and len(history) == 3:
            earliest = max(earliest,
                           history[0] + self._constraints.four_act_window)
        return earliest

    def earliest_precharge(self, key: Tuple[int, int, int], now: int) -> int:
        bank = self._bank(key)
        return max(now, bank.next_pre, self._pc_next_any.get(key[:2], 0))

    def earliest_rdwr(self, key: Tuple[int, int, int], now: int) -> int:
        bank = self._bank(key)
        return max(now, bank.next_rdwr, self._pc_next_any.get(key[:2], 0))

    def earliest_refresh(self, pc: Tuple[int, int], now: int) -> int:
        # REF requires all banks in the pseudo channel precharged; callers
        # ensure that, we only enforce the channel-level gap here.
        return max(now, self._pc_next_any.get(pc, 0))

    # -- recording -----------------------------------------------------
    def record_activate(self, key: Tuple[int, int, int], cycle: int) -> None:
        table = self._constraints
        bank = self._bank(key)
        legal = self.earliest_activate(key, cycle)
        if cycle < legal:
            raise TimingViolationError(
                f"ACT to bank {key} at cycle {cycle}, earliest legal {legal}")
        bank.act_cycle = cycle
        bank.is_open = True
        bank.next_pre = cycle + table.act_to_pre
        bank.next_rdwr = cycle + table.act_to_rdwr
        bank.next_act = cycle + table.act_to_act_same_bank
        pc = key[:2]
        self._pc_next_act[pc] = cycle + table.act_to_act_same_pc
        history = self._pc_act_history.get(pc)
        if history is None:
            history = deque(maxlen=3)
            self._pc_act_history[pc] = history
        history.append(cycle)

    def record_precharge(self, key: Tuple[int, int, int], cycle: int) -> None:
        table = self._constraints
        bank = self._bank(key)
        legal = self.earliest_precharge(key, cycle)
        if cycle < legal:
            raise TimingViolationError(
                f"PRE to bank {key} at cycle {cycle}, earliest legal {legal}")
        bank.is_open = False
        bank.next_act = max(bank.next_act, cycle + table.pre_to_act)

    def record_rdwr(self, key: Tuple[int, int, int], cycle: int,
                    is_write: bool) -> None:
        table = self._constraints
        bank = self._bank(key)
        legal = self.earliest_rdwr(key, cycle)
        if cycle < legal:
            raise TimingViolationError(
                f"RD/WR to bank {key} at cycle {cycle}, earliest legal {legal}")
        bank.next_rdwr = cycle + table.rdwr_to_rdwr
        if is_write:
            bank.next_pre = max(bank.next_pre, cycle + table.write_to_pre)

    def record_refresh(self, pc: Tuple[int, int], cycle: int) -> None:
        table = self._constraints
        legal = self.earliest_refresh(pc, cycle)
        if cycle < legal:
            raise TimingViolationError(
                f"REF to pc {pc} at cycle {cycle}, earliest legal {legal}")
        self._pc_next_any[pc] = cycle + table.ref_to_any

    # -- schedule replay ----------------------------------------------
    # A command stream to one bank is scheduled purely from the *clamped
    # relative* state below: every earliest_* rule is a max() of ``now``
    # and absolute horizons, and ``now`` only moves forward, so a horizon
    # at or behind ``now`` can never bind again — its exact value is
    # irrelevant.  Two moments with equal signatures therefore schedule
    # any identical future same-bank stream identically, cycle offset for
    # cycle offset.  The device's one replay mechanism rests on this: a
    # :class:`~repro.dram.device.Schedule` is recorded under its entry
    # signature together with each bank's exit state
    # (``capture_offsets``); a replay installs that state
    # (``restore_offsets``) without consulting the checker, and a run of
    # REF-bounded bursts translates it whole periods ahead
    # (``shift_state``).

    def replay_signature(self, key: Tuple[int, int, int],
                         now: int) -> Tuple:
        """Clamped-relative scheduling state of ``key``'s bank at ``now``."""
        bank = self._bank(key)
        return (
            max(bank.next_act - now, 0),
            max(bank.next_pre - now, 0),
            max(bank.next_rdwr - now, 0),
            bank.is_open,
        ) + self.pc_signature(key[:2], now)

    def pc_signature(self, pc: Tuple[int, int], now: int) -> Tuple:
        """The pseudo-channel part of :meth:`replay_signature` (alone:
        for a pseudo channel a stream only refreshes)."""
        history = self._pc_act_history.get(pc) or ()
        window = self._constraints.four_act_window
        return (
            max(self._pc_next_act.get(pc, 0) - now, 0),
            max(self._pc_next_any.get(pc, 0) - now, 0),
            tuple([max(stamp + window - now, 0) for stamp in history]),
        )

    def capture_offsets(self, key: Tuple[int, int, int],
                        origin: int) -> Tuple:
        """Exit state of ``key``'s bank, relative to ``origin``.

        Everything a same-bank stream writes: the bank horizons, the
        pseudo channel's ACT horizon and ACT history.  ``_pc_next_any``
        is excluded — only REF writes it, and the replayed streams issue
        none.
        """
        bank = self._bank(key)
        pc = key[:2]
        history = self._pc_act_history.get(pc) or ()
        return (
            bank.next_act - origin,
            bank.next_pre - origin,
            bank.next_rdwr - origin,
            bank.act_cycle - origin if bank.act_cycle >= 0 else None,
            bank.is_open,
            self._pc_next_act.get(pc, 0) - origin,
            tuple(stamp - origin for stamp in history),
        )

    def restore_offsets(self, key: Tuple[int, int, int], origin: int,
                        offsets: Tuple) -> None:
        """Install exit state captured by :meth:`capture_offsets`,
        re-anchored at ``origin``."""
        next_act, next_pre, next_rdwr, act_cycle, is_open, pc_act, \
            history = offsets
        bank = self._bank(key)
        bank.next_act = origin + next_act
        bank.next_pre = origin + next_pre
        bank.next_rdwr = origin + next_rdwr
        if act_cycle is not None:
            bank.act_cycle = origin + act_cycle
        bank.is_open = is_open
        pc = key[:2]
        self._pc_next_act[pc] = origin + pc_act
        self._pc_act_history[pc] = deque(
            [origin + stamp for stamp in history], maxlen=3)

    def shift_state(self, keys, delta: int, pcs=(),
                    refresh_delta: Optional[int] = None) -> None:
        """Translate the timing state of ``keys`` banks ``delta`` cycles
        into the future.

        Used by the bulk-loop fast path: a steady-state loop's constraint
        horizon advances by exactly the loop period every iteration, so
        skipping N iterations shifts every pending constraint by N
        periods.  Pseudo-channel-level constraints of the affected banks
        shift along, and so do those of the extra ``pcs`` (pseudo
        channels a skipped REF-bounded burst only refreshes).  The REF
        horizons move by ``refresh_delta`` when given: a skipped stretch
        that ends just before a REF has one REF fewer than periods.
        """
        if refresh_delta is None:
            refresh_delta = delta
        if min(delta, refresh_delta) < 0:
            raise TimingViolationError(
                f"cannot shift timing state backwards ({delta})")
        pcs = set(pcs)
        for key in keys:
            bank = self._bank(key)
            bank.next_act += delta
            bank.next_pre += delta
            bank.next_rdwr += delta
            if bank.act_cycle >= 0:
                bank.act_cycle += delta
            pcs.add(key[:2])
        for pc in pcs:
            if pc in self._pc_next_act:
                self._pc_next_act[pc] += delta
            if pc in self._pc_next_any:
                self._pc_next_any[pc] += refresh_delta
            history = self._pc_act_history.get(pc)
            if history:
                self._pc_act_history[pc] = deque(
                    [stamp + delta for stamp in history], maxlen=3)
