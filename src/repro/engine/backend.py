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
lower_payload`); a handle holds its own.  ``execute``
applies a summarized program's effect ops directly against the device
— the same ACT counts, timing stamps, TRR observations, disturbance
doses and command counts the interpreter would produce, without
walking the command stream.  Programs whose effects cannot be proven
(:class:`~repro.verify.Unsummarizable`) and stations the fast path must
step aside for (an installed transport, tracing) run the instantiated
program on the host's interpreter instead.

Summarized programs take one effect path.  At ``compile`` the summary
is cut into *segments*: each run of straight-line ops — row writes,
row reads, bare ACT[/WAIT]/PRE groups, idles — and the hammer loops
among them becomes device streams (:meth:`~repro.dram.device.Device.
apply_stream`), and each ``RefreshOp`` and ``BurstOp`` is a segment of
its own, a burst's body cut the same way.  Loops are split, not
unrolled: a hammer loop of at least the bulk threshold (or a count
binding's loop, whatever the count) runs through the interpreter's own
loop policy (:func:`~repro.bender.interpreter.run_loop`), its
straight-line neighbours folded into the policy's warm-up and trailing
hooks: one stream of the ops before the loop with the two warm-up
iterations, then :meth:`~repro.dram.device.Device.bulk_activations`,
then one stream of the trailing iteration with the ops after it, each
replayed from the device's one :class:`~repro.dram.device.Schedule`
memo once recorded.  A shorter loop is steps of the stream it sits
in.  Write payloads are lowered at compile time, per segment and slot,
so a row written two payloads starts a new stream at the second.  The
streams are keyed by a digest of their steps, shared by every fill
pattern of a shape.  Marks in the streams give every top-level loop's
first and last cycle, so the result reports the loops' cycles
(``ExecutionResult.loop_cycles``) exactly as the interpreter measures
them.  A burst op — REF-bounded hammer bursts, TRRespass rounds — is
split one level up:

* **warm-up**: bursts are stepped singly, their body's segments applied
  in turn, while :meth:`~repro.dram.device.Device.measure_burst`
  records the schedule of one that holds no event;
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
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.bender.interpreter import (
    BULK_LOOP_THRESHOLD,
    ExecutionResult,
    run_loop,
)
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

    ``segments`` are a summarized shape's effect cut for application
    (:func:`_segments`): :class:`Stream`, :class:`Refresh` and
    :class:`Burst`, in program order; a count-bound shape is one
    stream, whose loop takes the count binding.
    """

    template: Program
    slot_banks: SlotBanks
    source_binding: RowBinding
    digest: str
    summary: Optional[EffectSummary] = None
    unsummarizable: Optional[Unsummarizable] = None
    count: Optional[int] = None
    segments: tuple = ()

    @property
    def slots(self) -> int:
        return len(self.slot_banks)


#: The stream step that marks a clock offset
#: (:meth:`~repro.dram.device.Device.apply_stream`).
MARK = ("mark",)


@dataclass(frozen=True)
class LoopStream:
    """Straight-line steps around at most one split loop, as
    :meth:`~repro.dram.device.Device.apply_stream` steps: the prefix,
    one loop iteration (empty: no loop) and the suffix, rows named by
    slot.

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
        """The steps at ``count`` iterations, marking the loop."""
        return (self.prefix + (MARK,) + self.body * count + (MARK,)
                + self.suffix)


class Stream(NamedTuple):
    """Device streams: a :class:`LoopStream` run at ``iterations`` (0:
    no loop) with ``payloads``, per slot the lowered (bits, parity)
    its writes store (None: unwritten)."""

    steps: LoopStream
    payloads: tuple
    iterations: int


class Refresh(NamedTuple):
    """A ``RefreshOp``; ``timed``: a top-level loop's."""

    op: RefreshOp
    timed: bool


class Burst(NamedTuple):
    """A ``BurstOp`` with its body's segments (a burst is a loop)."""

    op: BurstOp
    segments: tuple
    timed = True


def _segments(ops, slots: int, lower, streams: dict,
              loops: Tuple[int, ...] = (), counted: Optional[int] = None
              ) -> tuple:
    """Cut effect ops into segments: every :class:`RefreshOp` and
    :class:`BurstOp` (its body cut alike) on its own, everything
    between them into :class:`Stream`\\ s.

    ``loops`` are the positions of the ops top-level loops make, whose
    cycles the streams mark, and ``counted`` the count binding's loop.
    That loop and every hammer loop of at least the bulk threshold is
    split (:func:`~repro.bender.interpreter.run_loop`), one per stream,
    the straight-line ops before it the stream's prefix and those after
    it its suffix; a shorter loop is straight-line steps.  A write of
    a row its stream already writes another payload starts a new
    stream.  ``lower`` lowers a payload and ``streams`` interns the
    :class:`LoopStream`\\ s by steps.
    """
    segments: List = []
    parts: List[list] = [[]]
    body: Optional[tuple] = None
    iterations = 0
    written: Dict[int, bytes] = {}

    def close() -> None:
        nonlocal parts, body, iterations, written
        if body is not None or parts[0]:
            steps = (tuple(parts[0]), body or (),
                     tuple(parts[1]) if body is not None else ())
            segments.append(Stream(
                streams.setdefault(steps, LoopStream(*steps)),
                tuple(lower(written[slot]) if slot in written else None
                      for slot in range(slots)), iterations))
        parts, body, iterations, written = [[]], None, 0, {}

    for index, op in enumerate(ops):
        if isinstance(op, RowWriteOp):
            if written.setdefault(op.row, op.data) != op.data:
                close()
                written[op.row] = op.data
            parts[-1].append(("wr", op.channel, op.pseudo_channel,
                              op.bank, op.row))
        elif isinstance(op, RowReadOp):
            parts[-1].append(("rd", op.channel, op.pseudo_channel,
                              op.bank, op.row))
        elif isinstance(op, IdleOp):
            parts[-1].append(("wait", op.cycles))
        elif isinstance(op, HammerOp) and (
                index == counted or op.iterations >= BULK_LOOP_THRESHOLD):
            if body is not None:
                close()
            body, iterations = op.steps, op.iterations
            parts.append([])
        elif isinstance(op, HammerOp):
            mark = (MARK,) if index in loops else ()
            parts[-1] += mark + op.steps * op.iterations + mark
        elif isinstance(op, RefreshOp):
            close()
            segments.append(Refresh(op, index in loops))
        elif isinstance(op, BurstOp):
            close()
            segments.append(Burst(op, _segments(op.ops, slots, lower,
                                                streams)))
        else:
            raise EngineError(f"unknown effect op: {op!r}")
    close()
    return tuple(segments)


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
    The handle's segments go to the device through two entry points:
    :meth:`~repro.dram.device.Device.apply_stream` for the straight-line
    ops and the hammer iterations the interpreter would step, and
    :meth:`~repro.dram.device.Device.bulk_activations` for the
    iterations its loop policy (:func:`~repro.bender.interpreter.
    run_loop`) applies in bulk; REFs issue through
    :meth:`~repro.dram.device.Device.refresh`, and burst ops step their
    events and apply the runs between them in closed form (module
    docstring).  The CI oracle job holds the gate: refresh-off and
    refresh-on sweep fingerprints must be byte-identical with
    ``REPRO_FASTPATH=1`` and ``0``.
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
        # One LoopStream per distinct (prefix, body, suffix) steps.
        self._streams: Dict[tuple, LoopStream] = {}

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
        segments = ()
        if summarized:
            loops = loop_op_positions(template.instructions)
            segments = _segments(outcome.ops, len(slot_banks),
                                 host.interpreter.lower_payload,
                                 self._streams, loops,
                                 loops[0] if count is not None else None)
        return CompiledProgram(
            template=template, slot_banks=slot_banks,
            source_binding=binding,
            digest=shape_digest(template, self.timing,
                                self.device_identity(),
                                counted=count is not None),
            summary=outcome if summarized else None,
            unsummarizable=None if summarized else outcome,
            count=count, segments=segments)

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
        result.loop_cycles = self._apply_segments(handle.segments, rows,
                                                  count, device, result)
        result.end_cycle = device.now
        return result

    def _apply_segments(self, segments, rows: RowBinding,
                        count: Optional[int], device,
                        result: ExecutionResult) -> int:
        """Apply ``segments`` in order, ``count`` binding their stream's
        loop (None: each stream's own iterations); returns the cycles
        of the top-level loops they make."""
        cycles = 0
        for segment in segments:
            if isinstance(segment, Stream):
                cycles += self._apply_stream(
                    segment, rows,
                    segment.iterations if count is None else count,
                    device, result)
                continue
            entry = device.now
            if isinstance(segment, Burst):
                self._apply_burst(segment, rows, device, result)
            else:
                for _ in range(segment.op.count):
                    device.refresh(segment.op.channel,
                                   segment.op.pseudo_channel)
            if segment.timed:
                cycles += device.now - entry
        return cycles

    def _apply_stream(self, segment: Stream, rows: RowBinding,
                      iterations: int, device,
                      result: ExecutionResult) -> int:
        """One :class:`Stream` at ``iterations``, through the
        interpreter's loop policy (:func:`~repro.bender.interpreter.
        run_loop`): the prefix joins the warm-up iterations and the
        suffix the trailing one, each side one device stream (below the
        bulk threshold, the whole segment is one); returns the cycles
        between the streams' marks."""
        stream = segment.steps
        key = stream.key
        payloads = segment.payloads
        clocks: List[int] = []  # the clock at each mark

        def replay(shape, steps) -> None:
            entry = device.now
            reads, marks = device.apply_stream(shape, steps, rows, payloads)
            result.row_reads.extend(reads)
            clocks.extend(entry + mark for mark in marks)

        def run_iterations(count: int) -> None:
            replay((key, count), stream.whole(count))

        def run_warmups() -> int:
            replay((key, "head"), stream.head)
            return clocks.pop()  # the second iteration's start

        def run_trailing() -> None:
            replay((key, "tail"), stream.tail)

        run_loop(device, iterations, run_iterations,
                 ((step[1], step[2], step[3], rows[step[4]])
                  for step in stream.body if step[0] == "act"),
                 run_warmups=run_warmups, run_trailing=run_trailing)
        return sum(clocks[1::2]) - sum(clocks[0::2])

    def _apply_burst(self, burst: Burst, rows: RowBinding, device,
                     result: ExecutionResult) -> None:
        """One burst op: closed-form windows between stepped events.

        Bursts are stepped singly, each applying the body's segments,
        until one, measured while stepped, is followed by an entry with the
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
            self._apply_segments(burst.segments, rows, None, device, result)

        op = burst.op
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
