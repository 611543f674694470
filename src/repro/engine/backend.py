"""The execution backend: compile-once / execute-many program handles.

The engine narrows every way of running a Bender program down to one
two-call protocol::

    handle = backend.compile(program, checks)  # verify + summarize
    result = backend.execute(handle, rows)     # apply the bound effects

A hammer loop's iteration count may be bound the same way as its rows
(``compile(..., count=N)``, then ``execute(handle, rows, n)`` for any
``n <= N``; see :mod:`repro.engine.cache`).  Such a program is a whole
hammer test: a prefix (the neighbourhood's row writes), the hammer
loop, and a suffix (the victims' row reads).

:class:`FastPathBackend` is the station's one production backend.
``compile`` verifies the program once, against the checks its driver
declares, canonicalizes it into a row-free template, and runs the
effect-summary analysis (:func:`repro.verify.summarize_program`) on
the template, from that one verification report.  Row-write payloads
are applied lowered (a WRROW's ``np.unpackbits`` expansion and its ECC
parity words are pure functions of the payload bytes, memoized on the
interpreter — see :meth:`~repro.bender.interpreter.Interpreter.
lower_payload`); a count-bound handle holds its own.  ``execute``
applies a summarized program's effect ops directly against the device
— the same ACT counts, timing stamps, TRR observations, disturbance
doses and command counts the interpreter would produce, without
walking the command stream.  Programs whose effects cannot be proven
(:class:`~repro.verify.Unsummarizable`) and stations the fast path must
step aside for (an installed transport, tracing) run the instantiated
program on the host's interpreter instead.

Loops are split, not unrolled.  A hammer op runs through the
interpreter's own loop policy (:func:`~repro.bender.interpreter.
run_loop`).  A count-bound handle — every hammer test, whose prefix
and suffix are row writes, row reads and bare ACT/WAIT/PRE groups —
takes that split through the policy's warm-up and trailing hooks, as
one stream per side of the bulk-applied iterations
(:meth:`~repro.dram.device.Device.apply_stream`): the prefix with the
two warm-up iterations, then :meth:`~repro.dram.device.Device.
bulk_activations`, then the trailing iteration with the suffix, each
replayed from the device's one :class:`~repro.dram.device.Schedule`
memo once recorded, with the handle's write payloads lowered at
compile time.  Below the bulk threshold the whole program is one
stream.  The streams are keyed by a digest of their steps, shared by
every fill pattern of a shape.  Either way the result reports the loop's cycles
(``ExecutionResult.loop_cycles``) exactly as the interpreter measures
them.  A burst op — REF-bounded hammer bursts, TRRespass rounds — is
split one level up:

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
  and REF ops.  After a stepped fire of such a body the fires join the
  closed form too: a run of whole *fire cycles* — ``refresh_period``
  bursts, the last REF firing — is one window while the TRR sampler
  vouches for a short period of picks and every victim restore of it
  is provably below the flip guards; otherwise the fire is stepped
  under the refusal's cause (``fire-picks``, ``fire-guard``);
* **trailing**: nothing extra — a window may end at the last burst.

Exactness: equal entry signatures mean the same schedule, so every
disturbance addend repeats and is added in command order; non-firing
REFs leave the TRR sampler alone, so one ``observe_run`` covers a
window (the :class:`~repro.dram.trr.TrrSampler` contract); and fires
are found from the REF counter alone, the same for every sampler.  In
a fire cycle, the sampler's picks repeat by its ``fire_cycle``
contract (its state returns after the period; the probabilistic
sampler's picks are read off its hash), and a victim restore that
materializes nothing is a retention stamp plus a ledger reset, which
joins the burst's ledger ops after its fire's REF.

The oracle is the station without any engine services
(``REPRO_FASTPATH=0``): every program is then built, verified and
interpreted per call.  The subprocess fan-out lives in
:class:`repro.engine.pool.PoolBackend`, which schedules whole
:class:`~repro.engine.plan.WorkItem`\\ s onto worker processes that
each run a session of their own.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.bender.interpreter import ExecutionResult, run_loop
from repro.bender.program import Program
from repro.dram.device import BurstBody
from repro.engine.cache import (
    RowBinding,
    SlotBanks,
    canonicalize,
    check_declared_counts,
    count_loop_index,
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
    loop_op_positions,
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

    ``count`` is set on a count-bound shape (a prefix, one hammer loop
    and a suffix, see :mod:`repro.engine.cache`): the loop count the
    shape was verified and summarized at, which the template keeps.
    Any count binding from 1 to ``count`` executes the handle — the
    loop's :class:`~repro.verify.effects.HammerOp` then runs that many
    iterations — because every count-dependent verdict is monotone in
    the count (the argument is in the cache module's docstring).

    ``loop_ops`` are the positions in ``summary.ops`` of the ops the
    template's top-level loops make (the count loop's, on a
    count-bound shape), whose cycles the result reports.  A summarized
    count-bound shape also holds its :class:`ProbeStream` and
    ``payloads``, per slot the lowered (bits, parity) its writes store
    (None: unwritten).
    """

    template: Program
    slot_banks: SlotBanks
    source_binding: RowBinding
    digest: str
    summary: Optional[EffectSummary] = None
    unsummarizable: Optional[Unsummarizable] = None
    count: Optional[int] = None
    loop_ops: Tuple[int, ...] = ()
    stream: Optional["ProbeStream"] = None
    payloads: tuple = ()

    @property
    def slots(self) -> int:
        return len(self.slot_banks)


#: The stream step that marks a clock offset
#: (:meth:`~repro.dram.device.Device.apply_stream`).
MARK = ("mark",)


@dataclass(frozen=True)
class ProbeStream:
    """A count-bound shape as :meth:`~repro.dram.device.Device.
    apply_stream` steps: the prefix, one loop iteration and the suffix,
    rows named by slot.

    Shapes that differ only in their write payloads — a pattern's
    probes — have equal steps: a backend holds one stream per distinct
    steps, and the device's schedule memo keys them by :attr:`key`.
    """

    prefix: tuple
    body: tuple
    suffix: tuple

    @cached_property
    def key(self) -> str:
        """blake2b over the steps: equal for equal steps, on any
        backend, and cheap to hash once built."""
        text = repr((self.prefix, self.body, self.suffix))
        return hashlib.blake2b(text.encode("ascii"),
                               digest_size=16).hexdigest()

    @cached_property
    def head(self) -> tuple:
        """Prefix and the two warm-up iterations, marking where the
        loop and its second iteration start."""
        return self.prefix + (MARK,) + self.body + (MARK,) + self.body

    @cached_property
    def tail(self) -> tuple:
        """The trailing iteration and the suffix, marking the loop's
        end."""
        return self.body + (MARK,) + self.suffix

    def whole(self, count: int) -> tuple:
        """The program at ``count`` iterations, marking the loop."""
        return (self.prefix + (MARK,) + self.body * count + (MARK,)
                + self.suffix)


def _probe_steps(ops, loop_op: int, slots: int,
                 lower) -> Tuple[Tuple[tuple, tuple, tuple], tuple]:
    """The (prefix, body, suffix) steps of a count-bound summary whose
    loop's op is ``ops[loop_op]``, and per slot the lowered payload its
    writes store (None: unwritten).  The count binding admits no REF
    outside the loop and one payload per written row
    (:func:`~repro.engine.cache.count_loop_index`), so every op there
    is a row write, a row read, a bare ACT[/WAIT]/PRE group or a WAIT.
    """
    written = {}

    def steps(segment) -> tuple:
        out = []
        for op in segment:
            if isinstance(op, RowWriteOp):
                written[op.row] = op.data
                out.append(("wr", op.channel, op.pseudo_channel, op.bank,
                            op.row))
            elif isinstance(op, RowReadOp):
                out.append(("rd", op.channel, op.pseudo_channel, op.bank,
                            op.row))
            elif isinstance(op, HammerOp):
                out.extend(op.steps)  # a bare ACT[/WAIT]/PRE group
            elif isinstance(op, IdleOp):
                out.append(("wait", op.cycles))
            else:
                raise EngineError(
                    f"a count-bound shape holds {op!r} outside its loop")
        return tuple(out)

    prefix = steps(ops[:loop_op])
    suffix = steps(ops[loop_op + 1:])
    return ((prefix, ops[loop_op].steps, suffix),
            tuple(lower(written[slot]) if slot in written else None
                  for slot in range(slots)))


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
        # Programs are immutable, so an instantiation — a template with
        # one concrete row binding patched in — can be reused verbatim
        # whenever the same rows are interpreted again, skipping the
        # substitution walk.
        self._instantiations: dict = {}
        # One ProbeStream per distinct (prefix, body, suffix) steps.
        self._streams: Dict[tuple, ProbeStream] = {}

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
                what: str = "program",
                count: Optional[int] = None) -> CompiledProgram:
        """Verify ``program`` once, then canonicalize, lower and
        summarize it into a handle.

        Violations of the declared ``checks`` raise
        :class:`~repro.errors.VerificationError` naming ``what``;
        without checks the engine default context applies.  Either
        report feeds the summary unchanged: verdicts are row-agnostic,
        and a clean report under declared checks carries the default
        one's truncation and TRR-window facts.  ``count`` makes the
        handle count-bound at that count (:func:`~repro.engine.cache.
        canonicalize`): the program must be a prefix, a hammer loop of
        exactly ``count`` iterations that activates every declared row
        once per iteration (:func:`~repro.engine.cache.
        check_declared_counts`), and a suffix, whose verdicts hold
        under the scheduling policy only, with no REF outside the loop
        and no row written two payloads (:func:`~repro.engine.cache.
        count_loop_index`); the verdict then holds for every smaller
        count.
        """
        host = self._host
        context = checks if checks is not None else \
            VerifyContext.for_host(host, allow_retention_decay=True)
        if count is not None:
            index = count_loop_index(program)
            if context.expected_hammers:
                check_declared_counts(program, context.expected_hammers)
            if (index + 1 < len(program.instructions)
                    and not context.assume_scheduler):
                raise EngineError(
                    f"{what}: a count binding carries a suffix's "
                    "verdicts under the scheduling policy only")
        report = verifier.verify_program(program, context)
        if checks is not None:
            verifier.raise_on_violations(report, what)
        template, binding, slot_banks = canonicalize(program, count)
        outcome = summarize_program(template, context, report=report)
        summarized = isinstance(outcome, EffectSummary)
        loop_ops = (loop_op_positions(template.instructions)
                    if summarized else ())
        stream, payloads = None, ()
        if summarized and count is not None:
            steps, payloads = _probe_steps(outcome.ops, loop_ops[0],
                                           len(slot_banks),
                                           host.interpreter.lower_payload)
            stream = self._streams.setdefault(steps, ProbeStream(*steps))
        return CompiledProgram(
            template=template, slot_banks=slot_banks,
            source_binding=binding,
            digest=shape_digest(template, self.timing,
                                self.device_identity(),
                                counted=count is not None),
            summary=outcome if summarized else None,
            unsummarizable=None if summarized else outcome,
            count=count, loop_ops=loop_ops, stream=stream,
            payloads=payloads)

    def execute(self, handle: CompiledProgram, binding: RowBinding = (),
                count: Optional[int] = None) -> ExecutionResult:
        """Run ``handle`` with ``binding`` patched into its row slots
        and ``count`` into its count slot (None: the handle's own)."""
        if count is not None and not 0 < count <= (handle.count or 0):
            raise EngineError(
                f"count binding {count} outside the 1..{handle.count} "
                f"shape {handle.digest[:12]} was verified for")
        if handle.summary is None:
            get_metrics().counter("engine.fastpath.fallbacks").inc()
            return self._interpret(handle, binding, count)
        if not self._fast_path_capable():
            get_metrics().counter("engine.fastpath.bypasses").inc()
            return self._interpret(handle, binding, count)
        get_metrics().counter("engine.fastpath.hits").inc()
        return self._apply(handle, tuple(binding), count)

    def _interpret(self, handle: CompiledProgram, binding: RowBinding,
                   count: Optional[int] = None) -> ExecutionResult:
        """Instantiate the handle and run it on the station's host."""
        binding = tuple(binding)
        key = (handle.digest, binding, count)
        program = self._instantiations.get(key)
        if program is None:
            program = substitute(handle.template, handle.slot_banks,
                                 binding, count)
            if len(self._instantiations) >= self.MAX_INSTANTIATIONS:
                self._instantiations.clear()
            self._instantiations[key] = program
        return self._host.run(program)

    def _fast_path_capable(self) -> bool:
        host = self._host
        return (host.transport is None and
                not host.interpreter.trace_enabled)

    # -- effect application -------------------------------------------
    def _apply(self, handle: CompiledProgram, rows: RowBinding,
               count: Optional[int] = None) -> ExecutionResult:
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
        if handle.stream is not None:
            self._apply_stream(handle, rows,
                               handle.count if count is None else count,
                               device, result)
        else:
            ops = handle.summary.ops
            start = 0
            for index in handle.loop_ops:
                self._apply_ops(ops[start:index], rows, device, result)
                entry = device.now
                self._apply_ops(ops[index:index + 1], rows, device, result)
                result.loop_cycles += device.now - entry
                start = index + 1
            self._apply_ops(ops[start:], rows, device, result)
        result.end_cycle = device.now
        return result

    def _apply_stream(self, handle: CompiledProgram, rows: RowBinding,
                      count: int, device, result: ExecutionResult) -> None:
        """A count-bound handle's :class:`ProbeStream` at ``count``,
        through the interpreter's loop policy (:func:`~repro.bender.
        interpreter.run_loop`): the prefix joins the warm-up iterations
        and the suffix the trailing one, each side one device stream
        (below the bulk threshold, the whole program is one)."""
        stream = handle.stream
        key = stream.key
        payloads = handle.payloads
        loop: List[int] = []  # the clock at the loop's entry and exit

        def replay(shape, steps) -> List[int]:
            entry = device.now
            reads, marks = device.apply_stream(shape, steps, rows, payloads)
            result.row_reads.extend(reads)
            return [entry + mark for mark in marks]

        def run_iterations(iterations: int) -> None:
            loop[:] = replay((key, iterations), stream.whole(iterations))

        def run_warmups() -> int:
            start, second = replay((key, "head"), stream.head)
            loop.append(start)
            return second

        def run_trailing() -> None:
            loop.append(replay((key, "tail"), stream.tail)[0])

        run_loop(device, count, run_iterations,
                 ((step[1], step[2], step[3], rows[step[4]])
                  for step in stream.body if step[0] == "act"),
                 run_warmups=run_warmups, run_trailing=run_trailing)
        result.loop_cycles = loop[1] - loop[0]

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
                          interpreter.lower_payload(op.data)]
                while index < total:
                    peek = ops[index]
                    if not (isinstance(peek, RowWriteOp) and
                            (peek.channel, peek.pseudo_channel,
                             peek.bank) == bank_key):
                        break
                    writes.append((rows[peek.row],) +
                                  interpreter.lower_payload(peek.data))
                    index += 1
                if len(writes) == 1:
                    device.apply_row_write(op.channel, op.pseudo_channel,
                                           op.bank, *writes[0])
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
        whole burst.  A window may also run through fires, as whole
        fire cycles, and then ends on its last fire with nothing to
        step.  Counted per window (``engine.fastpath.bursts.collapsed``),
        per fire applied in one (``engine.fastpath.bursts.cycle_fires``),
        and per event and per run of bursts stepped for any other cause
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
                bursts, cause, cycle = 0, "irregular-body", None
            else:
                bursts, cause, cycle = device.bursts_until_event(
                    body, steady, remaining)
            # An event on the REF that closes the body: the burst's ops
            # before it join the closed form, the REF itself is issued.
            at_ref = cause in EVENT_CAUSES and body.final_ref
            if bursts or at_ref:
                device.apply_bursts(steady, bursts, up_to_ref=at_ref,
                                    cycle=cycle)
                remaining -= bursts
                if bursts:
                    metrics.counter(
                        "engine.fastpath.bursts.collapsed").inc()
                    last_cause = None
                if cycle is not None:
                    metrics.counter(
                        "engine.fastpath.bursts.cycle_fires").inc(
                            cycle.fires)
                    # The run ended on its last fire: nothing to step.
                    continue
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

    def _apply_hammer(self, op: HammerOp, rows: RowBinding, device) -> None:
        """One hammer op through the interpreter's loop policy."""
        steps = op.steps

        def run_iterations(iterations: int) -> None:
            for _ in range(iterations):
                device.apply_hammer_steps(steps, rows)

        run_loop(device, op.iterations, run_iterations,
                 ((step[1], step[2], step[3], rows[step[4]])
                  for step in steps if step[0] == "act"))


#: Burst causes that are events on one REF (see
#: :meth:`~repro.dram.device.Device.bursts_until_event`): a fire, a
#: fire whose cycle was refused, or a REF reaching a live row.
EVENT_CAUSES = ("trr-fire", "fire-picks", "fire-guard", "refresh-hit")


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
