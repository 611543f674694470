"""Static verification of DRAM Bender test programs.

An abstract interpreter walks a :class:`~repro.bender.program.Program`
*without executing it*: per-bank state (closed/open row, last-ACT/PRE
cycle stamps), per-pseudo-channel state (tRRD/tRFC horizons, the rolling
four-ACT tFAW window, REF cadence) and a command-bus cursor are tracked
symbolically.  ``Loop`` bodies are unrolled symbolically: small loops run
in full, large loops run until two consecutive iterations leave the same
*relative* state (all timing stamps expressed against the cursor), after
which the remaining iterations are applied arithmetically — the same
steady-state argument the runtime interpreter's bulk fast path uses.

Timing truth comes from :meth:`repro.dram.timing.TimingParameters.
constraints`, the exact table the runtime :class:`~repro.dram.timing.
TimingChecker` enforces, so static and dynamic checks cannot disagree.

Two timing policies:

* ``assume_scheduler=True`` (default): commands issue at their earliest
  legal cycle, as the interpreter schedules them.  No timing violation
  is possible; the verifier checks protocol legality, refresh
  starvation, hammer counts and TRR exposure, and computes the exact
  scheduled duration.
* ``assume_scheduler=False`` (strict, "as written"): each command
  occupies exactly one bus cycle after the previous (plus explicit
  WAITs).  A command whose cursor lands before its earliest legal cycle
  is a :data:`~repro.verify.diagnostics.TIMING_VIOLATION` naming the
  binding JEDEC constraint; analysis then recovers at the legal cycle.
  This is the mode for hand-authored programs that encode timing in
  explicit WAITs.

Verification analyzes one program against a fresh window: the clock
starts at 0 and the refresh window opens at program start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bender import isa
from repro.dram.timing import TimingParameters
from repro.errors import VerificationError
from repro.verify.diagnostics import (
    ANALYSIS_TRUNCATED,
    HAMMER_COUNT_MISMATCH,
    KIND_SEVERITIES,
    PROTOCOL_VIOLATION,
    REFRESH_STARVATION,
    TIMING_VIOLATION,
    TRR_WINDOW_WARNING,
    Diagnostic,
    VerificationReport,
)

BankKey = Tuple[int, int, int]
PcKey = Tuple[int, int]
RowKey = Tuple[int, int, int, int]

#: Loops whose dynamic instruction count is at most this run in full.
FULL_UNROLL_LIMIT = 2048
#: Iterations probed for a steady state before giving up on extrapolation.
STEADY_PROBE_LIMIT = 8
#: Abstract steps before analysis truncates (a pathological-input guard;
#: every shipped program reaches steady state within two iterations).
DEFAULT_STEP_BUDGET = 500_000


@dataclass(frozen=True)
class VerifyContext:
    """Everything the verifier may assume about a program.

    Attributes:
        timing: parameter set the program will run against.
        expected_hammers: declared ACT count per (channel, pseudo
            channel, bank, logical row); every listed row's counted ACTs
            must match exactly.
        assume_scheduler: scheduled (default) vs strict timing policy,
            see the module docstring.
        allow_retention_decay: suppress
            :data:`~repro.verify.diagnostics.REFRESH_STARVATION` for
            programs that deliberately exceed tREFW (RowPress at large
            aggressor-on times, the cross-channel differential pair).
        assume_trr_escaped: the experiment interprets its results as if
            on-die TRR cannot interfere; warn when the REF cadence gives
            the device's N-REF sampler firing opportunities anyway.
        trr_period_refs: the sampler period — the paper's HBM2 chip
            fires every 17th REF (Sec. 5); :meth:`for_host` reads the
            active device's TRR policy so other families check against
            their own cadence.
        columns: columns per row, for the bus time of RDROW/WRROW.
    """

    timing: TimingParameters = field(default_factory=TimingParameters)
    expected_hammers: Optional[Mapping[RowKey, int]] = None
    assume_scheduler: bool = True
    allow_retention_decay: bool = False
    assume_trr_escaped: bool = False
    trr_period_refs: int = 17
    columns: int = 32
    step_budget: int = DEFAULT_STEP_BUDGET

    @classmethod
    def for_host(cls, host, **overrides) -> "VerifyContext":
        """Context for programs that will execute on ``host``: its timing
        table and geometry, plus experiment-specific overrides.

        This is how every driver declares the checks its program must
        pass.  The engine verifies once per program *shape*, at cache
        insert; the verdict transfers to every row substitution because
        nothing in a context built here depends on a row value — the
        verifier tracks rows only for open/closed identity and the
        ``expected_hammers`` row keys, both of which the cache's
        canonical row renaming preserves.
        """
        overrides.setdefault("trr_period_refs",
                             host.device.trr_config.refresh_period)
        return cls(timing=host.device.timing,
                   columns=host.device.geometry.columns, **overrides)


class _BankState:
    __slots__ = ("is_open", "open_row", "next_act", "next_pre", "next_rdwr",
                 "next_pre_name", "next_rdwr_name")

    def __init__(self) -> None:
        self.is_open = False
        self.open_row = -1
        self.next_act = 0
        self.next_pre = 0
        self.next_rdwr = 0
        # JEDEC name of the constraint that set each horizon, so strict
        # mode can name what a too-early command actually violates.
        self.next_pre_name = "tRAS"
        self.next_rdwr_name = "tRCD"


class _PcState:
    __slots__ = ("next_act", "next_any", "act_history", "window_start",
                 "max_ref_gap", "acted")

    def __init__(self) -> None:
        self.next_act = 0
        self.next_any = 0
        self.act_history: List[int] = []
        self.window_start = 0
        self.max_ref_gap = 0
        self.acted = False


class _Truncated(Exception):
    """Internal unwind when the step budget is exhausted."""


class _Machine:
    """The abstract interpreter proper."""

    def __init__(self, context: VerifyContext, report: VerificationReport,
                 check_timing: bool = True) -> None:
        self._context = context
        self._report = report
        self._check_timing = check_timing
        self._table = context.timing.constraints() if check_timing else None
        self._scheduled = context.assume_scheduler
        self.now = 0
        self._banks: Dict[BankKey, _BankState] = {}
        self._pcs: Dict[PcKey, _PcState] = {}
        self._steps = 0
        self._seen: set = set()

    # -- bookkeeping ---------------------------------------------------
    def _bank(self, key: BankKey) -> _BankState:
        state = self._banks.get(key)
        if state is None:
            state = _BankState()
            self._banks[key] = state
        return state

    def _pc(self, key: PcKey) -> _PcState:
        state = self._pcs.get(key)
        if state is None:
            state = _PcState()
            self._pcs[key] = state
        return state

    def _emit(self, kind: str, message: str, location: str,
              constraint: Optional[str] = None) -> None:
        dedupe = (kind, location, constraint)
        if dedupe in self._seen:
            return
        self._seen.add(dedupe)
        self._report.diagnostics.append(Diagnostic(
            kind=kind, severity=KIND_SEVERITIES[kind], message=message,
            location=location, constraint=constraint))

    def _budget(self, location: str) -> None:
        self._steps += 1
        if self._steps > self._context.step_budget:
            self._emit(ANALYSIS_TRUNCATED,
                       f"step budget ({self._context.step_budget}) "
                       "exhausted; the rest of the program was not "
                       "analyzed", location)
            raise _Truncated

    # -- command issue -------------------------------------------------
    def _issue(self, bounds: List[Tuple[str, int]], mnemonic: str,
               location: str) -> int:
        """Pick the issue cycle under the timing policy; returns it."""
        if not self._check_timing:
            cycle = self.now
            self.now = cycle + 1
            return cycle
        legal = self.now
        for _, bound in bounds:
            if bound > legal:
                legal = bound
        if self._scheduled or legal <= self.now:
            return legal
        name, bound = max(bounds, key=lambda item: item[1])
        self._emit(TIMING_VIOLATION,
                   f"{mnemonic} at cycle {self.now}, earliest legal "
                   f"{bound} ({name} not satisfied)",
                   location, constraint=name)
        return legal  # recover at the legal cycle and keep analyzing

    # -- instruction semantics ----------------------------------------
    def run_sequence(self, instructions, path: str) -> None:
        for index, instruction in enumerate(instructions):
            location = f"{path}[{index}]"
            if isinstance(instruction, isa.Loop):
                self._run_loop(instruction, location)
            else:
                self._step(instruction, location)

    def _step(self, instruction, location: str) -> None:
        self._budget(location)
        table = self._table
        if isinstance(instruction, isa.Act):
            key = (instruction.channel, instruction.pseudo_channel,
                   instruction.bank)
            bank = self._bank(key)
            pc = self._pc(key[:2])
            bounds: List[Tuple[str, int]] = []
            if table is not None:
                bounds = [("tRC", bank.next_act),
                          ("tRRD", pc.next_act),
                          ("tRFC", pc.next_any)]
                if len(pc.act_history) == 3:
                    bounds.append(("tFAW", pc.act_history[0]
                                   + table.four_act_window))
            if bank.is_open:
                self._emit(PROTOCOL_VIOLATION,
                           f"ACT to bank {key} while row {bank.open_row} "
                           "is open (missing PRE)", location)
            cycle = self._issue(bounds, "ACT", location)
            bank.is_open = True
            bank.open_row = instruction.row
            if table is not None:
                bank.next_pre = cycle + table.act_to_pre
                bank.next_pre_name = "tRAS"
                bank.next_rdwr = cycle + table.act_to_rdwr
                bank.next_rdwr_name = "tRCD"
                bank.next_act = cycle + table.act_to_act_same_bank
                pc.next_act = cycle + table.act_to_act_same_pc
                pc.act_history.append(cycle)
                if len(pc.act_history) > 3:
                    pc.act_history.pop(0)
            pc.acted = True
            self.now = cycle + 1
        elif isinstance(instruction, isa.Pre):
            key = (instruction.channel, instruction.pseudo_channel,
                   instruction.bank)
            bank = self._bank(key)
            pc = self._pc(key[:2])
            bounds = []
            if table is not None:
                bounds = [(bank.next_pre_name, bank.next_pre),
                          ("tRFC", pc.next_any)]
            cycle = self._issue(bounds, "PRE", location)
            bank.is_open = False
            if table is not None:
                bank.next_act = max(bank.next_act,
                                    cycle + table.pre_to_act)
            self.now = cycle + 1
        elif isinstance(instruction, isa.PreA):
            pc_key = (instruction.channel, instruction.pseudo_channel)
            pc = self._pc(pc_key)
            cycle = self.now
            if table is not None:
                # Mirror the device: close open banks in index order,
                # max-merging their earliest-precharge cycles.
                legal = cycle
                binding = None
                open_banks = sorted(
                    key for key, bank in self._banks.items()
                    if key[:2] == pc_key and bank.is_open)
                for key in open_banks:
                    bank = self._banks[key]
                    for name, bound in ((bank.next_pre_name, bank.next_pre),
                                        ("tRFC", pc.next_any)):
                        if bound > legal:
                            legal, binding = bound, name
                if legal > cycle:
                    if not self._scheduled:
                        self._emit(TIMING_VIOLATION,
                                   f"PREA at cycle {cycle}, earliest "
                                   f"legal {legal} ({binding} not "
                                   "satisfied)",
                                   location, constraint=binding)
                    cycle = legal
                for key in open_banks:
                    bank = self._banks[key]
                    bank.is_open = False
                    bank.next_act = max(bank.next_act,
                                        cycle + table.pre_to_act)
            else:
                for key, bank in self._banks.items():
                    if key[:2] == pc_key:
                        bank.is_open = False
            self.now = cycle + 1
        elif isinstance(instruction, (isa.Rd, isa.Wr, isa.RdRow, isa.WrRow)):
            key = (instruction.channel, instruction.pseudo_channel,
                   instruction.bank)
            bank = self._bank(key)
            pc = self._pc(key[:2])
            mnemonic = isa.mnemonic(instruction)
            bounds = []
            if table is not None:
                bounds = [(bank.next_rdwr_name, bank.next_rdwr),
                          ("tRFC", pc.next_any)]
            if not bank.is_open:
                self._emit(PROTOCOL_VIOLATION,
                           f"{mnemonic} to bank {key} with no open row",
                           location)
            cycle = self._issue(bounds, mnemonic, location)
            is_write = isinstance(instruction, (isa.Wr, isa.WrRow))
            if table is not None:
                bank.next_rdwr = cycle + table.rdwr_to_rdwr
                bank.next_rdwr_name = "tCCD"
                if is_write:
                    write_recovery = cycle + table.write_to_pre
                    if write_recovery > bank.next_pre:
                        bank.next_pre = write_recovery
                        bank.next_pre_name = "tWR"
            if isinstance(instruction, (isa.RdRow, isa.WrRow)):
                burst = (self._context.columns * table.rdwr_to_rdwr
                         if table is not None else 1)
                self.now = cycle + burst
            else:
                self.now = cycle + 1
        elif isinstance(instruction, isa.Ref):
            pc_key = (instruction.channel, instruction.pseudo_channel)
            pc = self._pc(pc_key)
            open_banks = [key for key, bank in self._banks.items()
                          if key[:2] == pc_key and bank.is_open]
            if open_banks:
                self._emit(PROTOCOL_VIOLATION,
                           f"REF to pseudo channel {pc_key} with bank(s) "
                           f"{sorted(open_banks)} open", location)
            bounds = []
            if table is not None:
                bounds = [("tRFC", pc.next_any)]
            cycle = self._issue(bounds, "REF", location)
            gap = cycle - pc.window_start
            if gap > pc.max_ref_gap:
                pc.max_ref_gap = gap
            pc.window_start = cycle
            if table is not None:
                pc.next_any = cycle + table.ref_to_any
                self.now = cycle + table.ref_to_any
            else:
                self.now = cycle + 1
        elif isinstance(instruction, isa.Wait):
            self.now += instruction.cycles
        else:
            self._emit(PROTOCOL_VIOLATION,
                       f"unknown instruction {instruction!r}", location)

    # -- symbolic loop unrolling ---------------------------------------
    def _run_loop(self, loop: isa.Loop, location: str) -> None:
        if loop.count <= 0:
            return
        body_path = f"{location}.body"
        if loop.count * isa.instruction_count(loop.body) <= FULL_UNROLL_LIMIT:
            for _ in range(loop.count):
                self.run_sequence(loop.body, body_path)
            return

        touched_banks, touched_pcs, refed_pcs = _touched_by(loop.body)
        self.run_sequence(loop.body, body_path)
        iterations = 1
        previous = self._snapshot(touched_banks, touched_pcs, refed_pcs)
        previous_now = self.now
        probes = 0
        while iterations < loop.count:
            self.run_sequence(loop.body, body_path)
            iterations += 1
            state = self._snapshot(touched_banks, touched_pcs, refed_pcs)
            if state == previous:
                # Steady state: every remaining iteration repeats this
                # one, translated by the measured period.
                period = self.now - previous_now
                self._shift((loop.count - iterations) * period,
                            touched_banks, touched_pcs, refed_pcs)
                return
            previous, previous_now = state, self.now
            probes += 1
            if probes >= STEADY_PROBE_LIMIT:
                # No steady state (irregular body): unroll the rest
                # under the step budget.
                while iterations < loop.count:
                    self.run_sequence(loop.body, body_path)
                    iterations += 1
                return

    def _snapshot(self, banks, pcs, refed_pcs):
        """Cursor-relative state of everything the loop body touches.

        Expired horizons clamp to the cursor (they can never bind
        again: the cursor is monotonic in both policies), so two
        behaviorally identical iterations compare equal even when their
        long-expired stamps differ.
        """
        now = self.now
        faw = self._table.four_act_window if self._table else 0
        bank_states = []
        for key in banks:
            bank = self._banks.get(key)
            if bank is None:
                bank_states.append(None)
            else:
                bank_states.append((
                    bank.is_open, bank.open_row,
                    max(bank.next_act - now, 0),
                    max(bank.next_pre - now, 0), bank.next_pre_name,
                    max(bank.next_rdwr - now, 0), bank.next_rdwr_name))
        pc_states = []
        for key in pcs:
            pc = self._pcs.get(key)
            if pc is None:
                pc_states.append(None)
            else:
                pc_states.append((
                    max(pc.next_act - now, 0),
                    max(pc.next_any - now, 0),
                    tuple(max(stamp - now, -faw)
                          for stamp in pc.act_history),
                    # REF cadence repeats only for pcs the body REFs;
                    # elsewhere the gap legitimately grows and must not
                    # block steady-state detection.
                    now - pc.window_start if key in refed_pcs else None,
                    pc.acted))
        return tuple(bank_states), tuple(pc_states)

    def _shift(self, delta: int, banks, pcs, refed_pcs) -> None:
        """Translate the touched state ``delta`` cycles into the future
        (the loop's constraint horizon advances by exactly the period
        each iteration, as the runtime bulk fast path relies on)."""
        if delta <= 0:
            return
        self.now += delta
        for key in banks:
            bank = self._banks.get(key)
            if bank is None:
                continue
            bank.next_act += delta
            bank.next_pre += delta
            bank.next_rdwr += delta
        for key in pcs:
            pc = self._pcs.get(key)
            if pc is None:
                continue
            pc.next_act += delta
            pc.next_any += delta
            pc.act_history = [stamp + delta for stamp in pc.act_history]
            if key in refed_pcs:
                # The last REF of the skipped region lands exactly one
                # period pattern before the cursor, as in iteration 2.
                pc.window_start += delta

    # -- finalization --------------------------------------------------
    def finalize_starvation(self) -> None:
        if self._table is None or self._context.allow_retention_decay:
            return
        window = self._table.refresh_window
        period_ns = self._context.timing.clock_period_ns
        for key, pc in sorted(self._pcs.items()):
            if not pc.acted:
                continue
            gap = max(pc.max_ref_gap, self.now - pc.window_start)
            if gap > window:
                self._emit(
                    REFRESH_STARVATION,
                    f"pseudo channel {key} goes {gap * period_ns / 1e6:.1f}"
                    f" ms without REF (tREFW is "
                    f"{window * period_ns / 1e6:.1f} ms); retention decay "
                    "can contaminate the measurement (pass "
                    "allow_retention_decay for deliberate-decay "
                    "experiments)", f"pseudo_channel{key}")


def _touched_by(instructions):
    """Static (banks, pcs, REF-target pcs) footprint of a body."""
    banks, pcs, refed = set(), set(), set()
    _collect_touched(instructions, banks, pcs, refed)
    return sorted(banks), sorted(pcs), refed


def _collect_touched(instructions, banks, pcs, refed) -> None:
    for instruction in instructions:
        if isinstance(instruction, isa.Loop):
            _collect_touched(instruction.body, banks, pcs, refed)
        elif isinstance(instruction, isa.Ref):
            pcs.add((instruction.channel, instruction.pseudo_channel))
            refed.add((instruction.channel, instruction.pseudo_channel))
        elif isinstance(instruction, (isa.PreA,)):
            pcs.add((instruction.channel, instruction.pseudo_channel))
        elif not isinstance(instruction, isa.Wait):
            banks.add((instruction.channel, instruction.pseudo_channel,
                       instruction.bank))
            pcs.add((instruction.channel, instruction.pseudo_channel))


def _count_commands(instructions, multiplier, acts, refs) -> None:
    """Exact dynamic ACT count per row / REF count per pc (loops are
    multiplied arithmetically — counts do not depend on timing)."""
    for instruction in instructions:
        if isinstance(instruction, isa.Loop):
            if instruction.count > 0:
                _count_commands(instruction.body,
                                multiplier * instruction.count, acts, refs)
        elif isinstance(instruction, isa.Act):
            key = (instruction.channel, instruction.pseudo_channel,
                   instruction.bank, instruction.row)
            acts[key] = acts.get(key, 0) + multiplier
        elif isinstance(instruction, isa.Ref):
            key = (instruction.channel, instruction.pseudo_channel)
            refs[key] = refs.get(key, 0) + multiplier


def count_activations(program) -> Dict[RowKey, int]:
    """Exact ACT count per (channel, pseudo channel, bank, row).

    Loop bodies are multiplied arithmetically, so this is exact for any
    program, however large its dynamic length.
    """
    acts: Dict[RowKey, int] = {}
    refs: Dict[PcKey, int] = {}
    _count_commands(program.instructions, 1, acts, refs)
    return acts


def verify_program(program, context: Optional[VerifyContext] = None
                   ) -> VerificationReport:
    """Statically verify a test program; returns all diagnostics.

    Args:
        program: a :class:`~repro.bender.program.Program` (anything with
            an ``instructions`` tuple works).
        context: assumptions to verify against (default:
            ``VerifyContext()`` — nominal timing, scheduled policy).
    """
    context = context or VerifyContext()
    report = VerificationReport()
    machine = _Machine(context, report, check_timing=True)
    try:
        machine.run_sequence(program.instructions, "instructions")
    except _Truncated:
        pass
    else:
        machine.finalize_starvation()
        report.duration_cycles = machine.now

    acts: Dict[RowKey, int] = {}
    refs: Dict[PcKey, int] = {}
    _count_commands(program.instructions, 1, acts, refs)
    if context.expected_hammers:
        for key, expected in sorted(context.expected_hammers.items()):
            actual = acts.get(key, 0)
            if actual != expected:
                channel, pseudo_channel, bank, row = key
                report.diagnostics.append(Diagnostic(
                    kind=HAMMER_COUNT_MISMATCH,
                    severity=KIND_SEVERITIES[HAMMER_COUNT_MISMATCH],
                    message=f"aggressor ch{channel} pc{pseudo_channel} "
                            f"ba{bank} row{row} is activated {actual} "
                            f"time(s), but the experiment declares "
                            f"{expected}",
                    location=f"row{row}"))
    if context.assume_trr_escaped:
        for key, count in sorted(refs.items()):
            if count >= context.trr_period_refs:
                report.diagnostics.append(Diagnostic(
                    kind=TRR_WINDOW_WARNING,
                    severity=KIND_SEVERITIES[TRR_WINDOW_WARNING],
                    message=f"pseudo channel {key} receives {count} REFs "
                            f"but the experiment assumes TRR is escaped; "
                            f"the {context.trr_period_refs}-REF sampler "
                            "(paper Sec. 5) gets "
                            f"{count // context.trr_period_refs} firing "
                            "opportunit(ies)",
                    location=f"pseudo_channel{key}"))
    return report


def verify_protocol(program) -> VerificationReport:
    """Timing-free protocol pass (bank open/close discipline only).

    Cheap enough to run on every :meth:`ProgramBuilder.build`: no
    timing table, no starvation accounting, no context needed.
    """
    report = VerificationReport()
    machine = _Machine(VerifyContext(), report, check_timing=False)
    try:
        machine.run_sequence(program.instructions, "instructions")
    except _Truncated:
        pass
    return report


def assert_verified(program, context: Optional[VerifyContext] = None,
                    what: str = "test program") -> VerificationReport:
    """Verify and raise :class:`~repro.errors.VerificationError` if any
    violation was found (warnings pass).  Returns the report."""
    return raise_on_violations(verify_program(program, context), what)


def raise_on_violations(report: VerificationReport,
                        what: str = "test program") -> VerificationReport:
    """Raise :class:`~repro.errors.VerificationError` naming ``what`` if
    ``report`` holds a violation (warnings pass).  Returns the report."""
    violations = report.violations
    if violations:
        summary = "; ".join(diagnostic.render()
                            for diagnostic in violations[:3])
        if len(violations) > 3:
            summary += f"; ... {len(violations) - 3} more"
        raise VerificationError(
            f"{what} failed static verification: {summary}",
            diagnostics=violations)
    return report
