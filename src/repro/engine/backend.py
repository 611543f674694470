"""The execution backend: compile-once / execute-many program handles.

The engine narrows every way of running a Bender program down to one
two-call protocol::

    handle = backend.compile(program, checks)  # verify + summarize
    result = backend.execute(handle, rows)     # apply the bound effects

:class:`FastPathBackend` is the station's one production backend.
``compile`` verifies the program once, against the checks its driver
declares, canonicalizes it into a row-free template, lowers its
row-write payloads (a WRROW's ``np.unpackbits`` expansion and its ECC
parity words are pure functions of the payload bytes, memoized on the
interpreter — see :meth:`~repro.bender.interpreter.Interpreter.
enable_payload_cache`), and runs the effect-summary analysis
(:func:`repro.verify.summarize_program`) on the template, from that
one verification report.  ``execute`` applies a summarized program's
effect ops directly against the device — the same ACT counts, timing
stamps, TRR observations, disturbance doses and command counts the
interpreter would produce, without walking the command stream.  Programs whose effects cannot be proven
(:class:`~repro.verify.Unsummarizable`) and stations the fast path must
step aside for (an installed transport, tracing) run the instantiated
program on the host's interpreter instead.

Loops are split, not unrolled.  A hammer op runs through the
interpreter's own loop policy (:func:`~repro.bender.interpreter.
run_loop`).  A burst op — REF-bounded hammer bursts, TRRespass rounds —
is split one level up:

* **warm-up**: bursts are stepped singly through the per-iteration path
  while :meth:`~repro.dram.device.Device.measure_burst` records the
  schedule of one that holds no event;
* **closed-form windows**: from the first burst entry whose timing
  ``replay_signature`` equals the measured entry's, each run of bursts
  up to the next event is applied at once by
  :meth:`~repro.dram.device.Device.apply_bursts`;
* **events**: a TRR fire or a REF whose range holds a live row runs
  through :meth:`~repro.dram.device.Device.refresh`, the per-iteration
  path.  When that REF is the body's only one and its last op, the ops
  before it in its burst repeat the steady burst and join the closed
  form; otherwise the whole burst is stepped.  Every burst is stepped
  when a re-activated row is not provably below its flip guards,
  documented-TRR mode is on, or the body holds more than hammer, idle
  and REF ops;
* **trailing**: nothing extra — a window may end at the last burst.

Exactness: equal entry signatures mean the same schedule, so every
disturbance addend repeats and is added in command order; non-firing
REFs leave the TRR sampler alone, so one ``observe_run`` covers a
window (the :class:`~repro.dram.trr.TrrSampler` contract); and fires
are found from the REF counter alone, the same for every sampler.

The oracle is the station without any engine services
(``REPRO_FASTPATH=0``): every program is then built, verified and
interpreted per call.  The subprocess fan-out lives in
:class:`repro.engine.pool.PoolBackend`, which schedules whole
:class:`~repro.engine.plan.WorkItem`\\ s onto worker processes that
each run a session of their own.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bender import isa
from repro.bender.interpreter import ExecutionResult, run_loop
from repro.bender.program import Program
from repro.dram.device import BurstBody
from repro.engine.cache import (
    RowBinding,
    SlotBanks,
    canonicalize,
    shape_digest,
    substitute,
)
from repro.errors import EngineError
from repro.obs import get_metrics
# Called through the module so the benchmark ledger sees every pass.
import repro.verify.program as verifier
from repro.verify import VerifyContext
from repro.verify.effects import (
    BurstOp,
    EffectSummary,
    HammerOp,
    IdleOp,
    RefreshOp,
    RowReadOp,
    RowWriteOp,
    Unsummarizable,
    summarize_program,
)


@dataclass(frozen=True)
class CompiledProgram:
    """A backend handle: one verified, lowered program shape.

    ``template`` carries slot ordinals in place of ACT rows;
    ``source_binding`` is the row binding of the program it was
    compiled from (the instance that was verified at cache insert).
    ``summary`` / ``unsummarizable`` are the effect analysis of the
    template (exactly one is set): because the template's ACT rows
    *are* slot ordinals, a summary's row operands index any concrete
    binding — the same renaming rule row substitution uses — so one
    analysis serves every execution of the shape.
    """

    template: Program
    slot_banks: SlotBanks
    source_binding: RowBinding
    digest: str
    summary: Optional[EffectSummary] = None
    unsummarizable: Optional[Unsummarizable] = None

    @property
    def slots(self) -> int:
        return len(self.slot_banks)


def _wrrow_payloads(program: Program) -> Tuple[bytes, ...]:
    payloads: List[bytes] = []

    def walk(instructions) -> None:
        for instruction in instructions:
            if isinstance(instruction, isa.Loop):
                walk(instruction.body)
            elif isinstance(instruction, isa.WrRow):
                payloads.append(instruction.data)

    walk(program.instructions)
    return tuple(payloads)


class FastPathBackend:
    """The station's backend: the analytic (effect-summary) fast path.

    ``execute`` dispatches on the handle's effect analysis:

    * summary present and the station is fast-path capable — apply the
      effect ops directly (``engine.fastpath.hits``);
    * no summary (``Unsummarizable`` shape) — interpreted execution
      (``engine.fastpath.fallbacks``);
    * station not capable right now — a transport is installed (fault
      injection must see every program) or tracing is on — interpreted
      execution (``engine.fastpath.bypasses``), since interpreted
      behaviour is the one being observed.

    Equivalence contract: for every summarized program, the applied
    effect is cycle- and state-identical to interpreted execution.
    Ops reuse the device's own command methods (ACT/PRE/REF/RDROW at
    the same clock stamps), hammer loops run through the interpreter's
    own loop policy (:func:`~repro.bender.interpreter.run_loop`),
    burst ops step their events and apply the runs between them in
    closed form (module docstring), and full-row writes go through
    :meth:`~repro.dram.device.Device.apply_row_write`.  The CI oracle
    job holds the gate: refresh-off and refresh-on sweep fingerprints
    must be byte-identical with ``REPRO_FASTPATH=1`` and ``0``.
    """

    #: Bound on memoized instantiations (cleared wholesale when full; a
    #: sweep's working set is far smaller, the bound is a backstop).
    MAX_INSTANTIATIONS = 4096

    def __init__(self, host) -> None:
        # The host owns the engine services installed on it (its
        # program cache holds this backend), so the way back is weak:
        # a strong one would make every station a reference cycle that
        # only the cyclic collector frees, piling up dead stations'
        # device state between collections.  Callers keep the host.
        self._host_ref = weakref.ref(host)
        host.interpreter.enable_payload_cache()
        # Programs are immutable, so an instantiation — a template with
        # one concrete row binding patched in — can be reused verbatim
        # whenever the same rows are interpreted again, skipping the
        # substitution walk.
        self._instantiations: dict = {}

    @property
    def _host(self):
        host = self._host_ref()
        if host is None:
            raise EngineError(
                "the backend's HostInterface is gone: the backend holds "
                "its host weakly, so keep a reference to the host for "
                "as long as the backend (or a ProgramCache over it) runs")
        return host

    @property
    def timing(self):
        return self._host.device.timing

    def device_identity(self) -> str:
        """The executing device's family identity for cache digests.

        Mirrors :meth:`repro.dram.profiles.DeviceProfile.identity` —
        profile name (empty for hand-assembled devices), geometry, and
        TRR policy — so programs verified against one family never
        alias another's cache entries, even with identical timing.
        """
        device = self._host.device
        return (f"{device.profile_name or ''}|{device.geometry!r}"
                f"|{device.trr_config!r}")

    def compile(self, program: Program,
                checks: Optional[VerifyContext] = None,
                what: str = "program") -> CompiledProgram:
        """Verify ``program`` once, then canonicalize, lower and
        summarize it into a handle.

        Violations of the declared ``checks`` raise
        :class:`~repro.errors.VerificationError` naming ``what``;
        without checks the engine default context applies.  Either
        report feeds the summary unchanged: verdicts are row-agnostic,
        and a clean report under declared checks carries the default
        one's truncation and TRR-window facts.
        """
        host = self._host
        context = checks if checks is not None else \
            VerifyContext.for_host(host, allow_retention_decay=True)
        report = verifier.verify_program(program, context)
        if checks is not None:
            verifier.raise_on_violations(report, what)
        template, binding, slot_banks = canonicalize(program)
        for payload in _wrrow_payloads(template):
            host.interpreter.lower_payload(payload)
        outcome = summarize_program(template, context, report=report)
        summarized = isinstance(outcome, EffectSummary)
        return CompiledProgram(
            template=template, slot_banks=slot_banks,
            source_binding=binding,
            digest=shape_digest(template, self.timing,
                                self.device_identity()),
            summary=outcome if summarized else None,
            unsummarizable=None if summarized else outcome)

    def execute(self, handle: CompiledProgram,
                binding: RowBinding = ()) -> ExecutionResult:
        """Run ``handle`` with ``binding`` patched into its row slots."""
        if handle.summary is None:
            get_metrics().counter("engine.fastpath.fallbacks").inc()
            return self._interpret(handle, binding)
        if not self._fast_path_capable():
            get_metrics().counter("engine.fastpath.bypasses").inc()
            return self._interpret(handle, binding)
        get_metrics().counter("engine.fastpath.hits").inc()
        return self._apply(handle, tuple(binding))

    def _interpret(self, handle: CompiledProgram,
                   binding: RowBinding) -> ExecutionResult:
        """Instantiate the handle and run it on the station's host."""
        binding = tuple(binding)
        key = (handle.digest, binding)
        program = self._instantiations.get(key)
        if program is None:
            program = substitute(handle.template, handle.slot_banks,
                                 binding)
            if len(self._instantiations) >= self.MAX_INSTANTIATIONS:
                self._instantiations.clear()
            self._instantiations[key] = program
        return self._host.run(program)

    def _fast_path_capable(self) -> bool:
        host = self._host
        return (host.transport is None and
                not host.interpreter.trace_enabled)

    # -- effect application -------------------------------------------
    def _apply(self, handle: CompiledProgram,
               rows: RowBinding) -> ExecutionResult:
        if len(rows) != handle.slots:
            raise EngineError(
                f"program shape {handle.digest[:12]} has {handle.slots} "
                f"row slot(s), got a binding of {len(rows)}")
        bound = {bank_key + (row,)
                 for bank_key, row in zip(handle.slot_banks, rows)}
        if len(bound) != len(rows):
            raise EngineError(
                f"row binding {rows!r} aliases two slots of the same "
                f"bank in shape {handle.digest[:12]}; the canonical "
                "template guarantees distinct rows per bank")
        # The fast path is still one program execution as far as the
        # command-stream accounting is concerned.
        get_metrics().counter("bender.programs").inc()
        device = self._host.device
        result = ExecutionResult(start_cycle=device.now)
        self._apply_ops(handle.summary.ops, rows, device, result)
        result.end_cycle = device.now
        return result

    def _apply_ops(self, ops, rows: RowBinding, device,
                   result: ExecutionResult) -> None:
        interpreter = self._host.interpreter
        index = 0
        total = len(ops)
        while index < total:
            op = ops[index]
            index += 1
            if isinstance(op, RowWriteOp):
                # Coalesce a run of same-bank writes: the device's
                # batched form replays the batch's memoized schedule.
                bank_key = (op.channel, op.pseudo_channel, op.bank)
                writes = [(rows[op.row],) +
                          interpreter.lower_payload(op.data) +
                          (op.data,)]
                while index < total:
                    peek = ops[index]
                    if not (isinstance(peek, RowWriteOp) and
                            (peek.channel, peek.pseudo_channel,
                             peek.bank) == bank_key):
                        break
                    writes.append((rows[peek.row],) +
                                  interpreter.lower_payload(peek.data) +
                                  (peek.data,))
                    index += 1
                if len(writes) == 1:
                    row, bits, parity, tag = writes[0]
                    device.apply_row_write(op.channel, op.pseudo_channel,
                                           op.bank, row, bits, parity,
                                           tag=tag)
                else:
                    device.apply_row_writes(op.channel, op.pseudo_channel,
                                            op.bank, writes)
            elif isinstance(op, HammerOp):
                self._apply_hammer(op, rows, device)
            elif isinstance(op, RowReadOp):
                device.activate(op.channel, op.pseudo_channel, op.bank,
                                rows[op.row])
                result.row_reads.append(device.read_open_row(
                    op.channel, op.pseudo_channel, op.bank))
                device.precharge(op.channel, op.pseudo_channel, op.bank)
            elif isinstance(op, RefreshOp):
                for _ in range(op.count):
                    device.refresh(op.channel, op.pseudo_channel)
            elif isinstance(op, IdleOp):
                device.wait(op.cycles)
            elif isinstance(op, BurstOp):
                self._apply_burst(op, rows, device, result)
            else:
                raise EngineError(f"unknown effect op: {op!r}")

    def _apply_burst(self, op: BurstOp, rows: RowBinding, device,
                     result: ExecutionResult) -> None:
        """One burst op: closed-form windows between stepped events.

        Bursts are stepped singly through the per-iteration path until
        one, measured while stepped, is followed by an entry with the
        same timing signature; from then on every run of bursts up to
        the next event is applied in closed form
        (:meth:`~repro.dram.device.Device.apply_bursts`) and the event
        is stepped: its REF alone when it closes the body, else its
        whole burst.  Counted per window
        (``engine.fastpath.bursts.collapsed``), per event and per run of
        bursts stepped for any other cause
        (``engine.fastpath.bursts.stepped.<cause>``).
        """
        def step() -> None:
            self._apply_ops(op.ops, rows, device, result)

        metrics = get_metrics()
        body = _burst_body(op.ops, rows)
        steady = None
        last_cause = None
        remaining = op.iterations
        while remaining:
            if body is None:
                bursts, cause = 0, "irregular-body"
            else:
                bursts, cause = device.bursts_until_event(body, steady,
                                                          remaining)
            # An event on the REF that closes the body: the burst's ops
            # before it join the closed form, the REF itself is issued.
            at_ref = cause in EVENT_CAUSES and body.final_ref
            if bursts or at_ref:
                device.apply_bursts(steady, bursts, up_to_ref=at_ref)
                remaining -= bursts
                if bursts:
                    metrics.counter(
                        "engine.fastpath.bursts.collapsed").inc()
                    last_cause = None
                if not remaining:
                    break
            if cause in EVENT_CAUSES or cause != last_cause:
                metrics.counter(
                    f"engine.fastpath.bursts.stepped.{cause}").inc()
                last_cause = cause
            if at_ref:
                device.refresh(*body.refs[0])
            elif cause == "warmup":
                steady = device.measure_burst(body, step)
            else:
                step()
            remaining -= 1

    def _apply_hammer(self, op: HammerOp, rows: RowBinding,
                      device) -> None:
        """One hammer op through the interpreter's loop policy."""
        steps = op.steps

        def run_iteration() -> None:
            device.apply_hammer_steps(steps, rows)

        run_loop(device, op.iterations, run_iteration,
                 ((step[1], step[2], step[3], rows[step[4]])
                  for step in steps if step[0] == "act"))


#: Burst causes that are events on one REF (see
#: :meth:`~repro.dram.device.Device.bursts_until_event`).
EVENT_CAUSES = ("trr-fire", "refresh-hit")


def _burst_body(ops, rows: RowBinding) -> Optional[BurstBody]:
    """The device's static view of one burst iteration, or None when
    the body holds anything but hammer, idle and REF ops."""
    hammers = []
    banks: List = []
    refs: List = []
    for op in ops:
        if isinstance(op, HammerOp):
            acts = tuple((step[1:4], rows[step[4]]) for step in op.steps
                         if step[0] == "act")
            hammers.append((op.iterations, acts))
            for key, _ in acts:
                if op.iterations and key not in banks:
                    banks.append(key)
        elif isinstance(op, RefreshOp):
            refs.extend([(op.channel, op.pseudo_channel)] * op.count)
        elif not isinstance(op, IdleOp):
            return None
    final_ref = len(refs) == 1 and isinstance(ops[-1], RefreshOp)
    return BurstBody(tuple(hammers), tuple(banks), tuple(refs), final_ref)
