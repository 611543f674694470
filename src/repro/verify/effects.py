"""Abstract-effect analysis: *what a verified program does to the chip*.

The program verifier (:mod:`repro.verify.program`) proves that a DRAM
Bender program is safe to run — timing-legal, protocol-clean, honest
about its hammer count.  This module extends that abstract
interpretation into a second analysis product: a typed, serializable
:class:`EffectSummary` describing the program's *effect* on the device —
per-row ACT counts, aggressor rows and the disturbance blast offsets
their victims sit at, pacing class (JEDEC-paced vs throttled), REF
cadence, and full-row WR/RD payload effects.

The summary is the contract behind the execution engine's analytic
fast path (:class:`repro.engine.backend.FastPathBackend`): a program
whose effects are statically known does not need command-by-command
interpretation — the engine can apply the summarized effect ops
directly against the cell ground truth.  Summaries therefore live in
the same lattice as verification verdicts:

* ``EffectSummary`` — the effects are exactly known.  The op list is a
  loop-free *normal form*: every dynamic behaviour of the program is
  one of five primitive effects (:class:`RowWriteOp`,
  :class:`RowReadOp`, :class:`HammerOp`, :class:`RefreshOp`,
  :class:`IdleOp`) or a counted repetition of a sub-sequence
  (:class:`BurstOp`).
* :class:`Unsummarizable` — ``⊤``, the analysis cannot prove the
  effects.  Carries a ``reason`` from a closed taxonomy (below) so
  callers can count, log, and test fallbacks precisely.

``Unsummarizable`` reasons:

====================  ==================================================
``violations``        the program fails static verification (timing,
                      protocol, hammer-count mismatch); an unsafe
                      program has no trustworthy effect.
``truncated``         the abstract interpreter hit its step budget —
                      part of the program was never analyzed.
``trr-window``        the caller assumes TRR is escaped but the REF
                      cadence gives the on-die sampler firing
                      opportunities; the *effect on victims* is then
                      chip-internal state the analysis cannot see.
``column-access``     single-column RD/WR: partial-row data effects
                      depend on prior cell contents the analysis does
                      not model.
``precharge-all``     PREA closes a statically unknown set of banks.
``open-row``          a row is left open across a summary boundary
                      (ACT without a matching PRE).
``irregular-structure``  anything else the effect grammar cannot match
                      (the closed-world catch-all; data-dependent
                      shapes land here).
====================  ==================================================

Row renaming: summaries are *row-polymorphic* exactly like
verification verdicts.  Every effect op names rows by the program's own
ACT operands, so a summary computed on the program cache's canonical
template (rows = slot ordinals 0..n-1) transfers to any concrete row
binding by indexing — the same renaming rule
:func:`repro.engine.cache.substitute` applies to instructions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.bender import isa
from repro.verify.diagnostics import (
    ANALYSIS_TRUNCATED,
    TRR_WINDOW_WARNING,
    VerificationReport,
)
from repro.verify.program import (
    PcKey,
    RowKey,
    VerifyContext,
    count_activations,
    verify_program,
)

__all__ = [
    "BurstOp",
    "EffectOp",
    "EffectSummary",
    "HammerOp",
    "IdleOp",
    "PACING_JEDEC",
    "PACING_THROTTLED",
    "REASON_COLUMN_ACCESS",
    "REASON_IRREGULAR",
    "REASON_OPEN_ROW",
    "REASON_PRECHARGE_ALL",
    "REASON_TRR_WINDOW",
    "REASON_TRUNCATED",
    "REASON_VIOLATIONS",
    "RefreshOp",
    "RowReadOp",
    "RowWriteOp",
    "Unsummarizable",
    "VICTIM_OFFSETS",
    "loop_op_positions",
    "summarize_program",
]

# -- pacing classes ----------------------------------------------------
#: Explicit WAITs never stretch the schedule: the program runs at the
#: JEDEC timing floor (back-to-back hammers, writes, reads).
PACING_JEDEC = "jedec"
#: At least one WAIT extends the scheduled duration beyond the timing
#: floor (RowPress aggressor-on time, the cross-channel idle arm).
PACING_THROTTLED = "throttled"

#: Disturbance blast offsets of the cell model
#: (:mod:`repro.dram.disturb` couples distance-1 and distance-2
#: physical neighbors): the victim set of every aggressor row.
VICTIM_OFFSETS = (-2, -1, 1, 2)

# -- Unsummarizable reason taxonomy ------------------------------------
REASON_VIOLATIONS = "violations"
REASON_TRUNCATED = "truncated"
REASON_TRR_WINDOW = "trr-window"
REASON_COLUMN_ACCESS = "column-access"
REASON_PRECHARGE_ALL = "precharge-all"
REASON_OPEN_ROW = "open-row"
REASON_IRREGULAR = "irregular-structure"


@dataclass(frozen=True)
class Unsummarizable:
    """``⊤`` of the effect lattice: effects cannot be proven.

    Attributes:
        reason: one of the ``REASON_*`` taxonomy slugs.
        detail: human-readable specifics (which instruction, which
            diagnostic) for lint output and fallback logs.
    """

    reason: str
    detail: str = ""

    def render(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        return f"unsummarizable ({self.reason}){suffix}"

    def to_dict(self) -> Dict[str, object]:
        return {"unsummarizable": True, "reason": self.reason,
                "detail": self.detail}


class _NoSummary(Exception):
    """Internal control flow: the effect grammar failed to match."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


# -- effect ops --------------------------------------------------------
@dataclass(frozen=True)
class RowWriteOp:
    """ACT / WRROW / PRE: overwrite one full row with a known payload."""

    channel: int
    pseudo_channel: int
    bank: int
    row: int
    data: bytes

    def to_dict(self) -> Dict[str, object]:
        return {"op": "write", "channel": self.channel,
                "pseudo_channel": self.pseudo_channel, "bank": self.bank,
                "row": self.row, "data": self.data.hex()}


@dataclass(frozen=True)
class RowReadOp:
    """ACT / RDROW / PRE: read one full row back."""

    channel: int
    pseudo_channel: int
    bank: int
    row: int

    def to_dict(self) -> Dict[str, object]:
        return {"op": "read", "channel": self.channel,
                "pseudo_channel": self.pseudo_channel, "bank": self.bank,
                "row": self.row}


#: One step of a hammer body: ``("act", ch, pc, bank, row)``,
#: ``("pre", ch, pc, bank)`` or ``("wait", cycles)``.
HammerStep = Tuple


@dataclass(frozen=True)
class HammerOp:
    """A counted loop whose body is only ACT / PRE / WAIT.

    This is exactly the runtime interpreter's bulk-eligible loop shape
    (:data:`repro.bender.isa.FAST_LOOP_TYPES` minus PREA), covering
    plain hammering, RowPress (WAIT between ACT and PRE), and the
    cross-channel stressed arm.  ``iterations == 1`` also represents a
    bare ACT[/WAIT]/PRE group outside any loop.
    """

    iterations: int
    steps: Tuple[HammerStep, ...]

    def to_dict(self) -> Dict[str, object]:
        return {"op": "hammer", "iterations": self.iterations,
                "steps": [list(step) for step in self.steps]}


@dataclass(frozen=True)
class RefreshOp:
    """``count`` REF commands on one pseudo channel."""

    channel: int
    pseudo_channel: int
    count: int

    def to_dict(self) -> Dict[str, object]:
        return {"op": "refresh", "channel": self.channel,
                "pseudo_channel": self.pseudo_channel, "count": self.count}


@dataclass(frozen=True)
class IdleOp:
    """An explicit WAIT: the bus idles for ``cycles``."""

    cycles: int

    def to_dict(self) -> Dict[str, object]:
        return {"op": "idle", "cycles": self.cycles}


@dataclass(frozen=True)
class BurstOp:
    """``iterations`` repetitions of a summarized sub-sequence.

    The normal form of nested loops (BER-with-refresh full bursts,
    TRRespass REF-synchronized rounds).  Each iteration leaves every
    bank closed — the grammar guarantees sub-ops are self-contained —
    so repetitions compose like top-level ops.
    """

    iterations: int
    ops: Tuple["EffectOp", ...]

    def to_dict(self) -> Dict[str, object]:
        return {"op": "burst", "iterations": self.iterations,
                "ops": [op.to_dict() for op in self.ops]}


EffectOp = Union[RowWriteOp, RowReadOp, HammerOp, RefreshOp, IdleOp,
                 BurstOp]

_OP_TYPES = {"write": RowWriteOp, "read": RowReadOp, "hammer": HammerOp,
             "refresh": RefreshOp, "idle": IdleOp, "burst": BurstOp}


def _op_from_dict(data: Dict[str, object]) -> EffectOp:
    kind = data.get("op")
    if kind == "write":
        return RowWriteOp(data["channel"], data["pseudo_channel"],
                          data["bank"], data["row"],
                          bytes.fromhex(data["data"]))
    if kind == "read":
        return RowReadOp(data["channel"], data["pseudo_channel"],
                         data["bank"], data["row"])
    if kind == "hammer":
        return HammerOp(data["iterations"],
                        tuple(tuple(step) for step in data["steps"]))
    if kind == "refresh":
        return RefreshOp(data["channel"], data["pseudo_channel"],
                         data["count"])
    if kind == "idle":
        return IdleOp(data["cycles"])
    if kind == "burst":
        return BurstOp(data["iterations"],
                       tuple(_op_from_dict(sub) for sub in data["ops"]))
    raise ValueError(f"unknown effect op kind: {kind!r}")


@dataclass(frozen=True)
class EffectSummary:
    """The statically proven effect of one program.

    All collection fields are sorted tuples, so two summaries are equal
    exactly when they describe the same effect — the property the
    mutation corpus tests (a mutated program must change its summary or
    go :class:`Unsummarizable`, never keep a stale one).

    Attributes:
        ops: the program's effect in execution order (loop-free normal
            form, see module docstring).
        act_counts: exact dynamic ACT count per (channel, pseudo
            channel, bank, row) — the same arithmetic
            :func:`~repro.verify.program.count_activations` computes.
        aggressor_rows: rows activated at least twice by hammer-role
            ACTs (ACT/PRE with no data transfer); their victims sit at
            :data:`VICTIM_OFFSETS` physical offsets.
        victim_offsets: the cell model's disturbance blast offsets.
        pacing: :data:`PACING_JEDEC` or :data:`PACING_THROTTLED`,
            derived from the verifier's timing-stamp state (scheduled
            duration with vs without explicit WAITs).
        ref_counts: exact REF count per (channel, pseudo channel).
        ref_interval_cycles: mean scheduled cycles between REFs (None
            without REFs or a scheduled duration) — the REF cadence.
        trr_exposed: some pseudo channel's REF count reaches the TRR
            sampler period, so on-die TRR gets firing opportunities.
        writes: (row key, blake2b-64 payload digest) per fully written
            row (last write wins).
        reads: (row key, count) per fully read row.
        duration_cycles: the verifier's scheduled program duration.
    """

    ops: Tuple[EffectOp, ...]
    act_counts: Tuple[Tuple[RowKey, int], ...]
    aggressor_rows: Tuple[RowKey, ...]
    victim_offsets: Tuple[int, ...]
    pacing: str
    ref_counts: Tuple[Tuple[PcKey, int], ...]
    ref_interval_cycles: Optional[int]
    trr_exposed: bool
    writes: Tuple[Tuple[RowKey, str], ...]
    reads: Tuple[Tuple[RowKey, int], ...]
    duration_cycles: Optional[int]

    @property
    def act_total(self) -> int:
        return sum(count for _, count in self.act_counts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ops": [op.to_dict() for op in self.ops],
            "act_counts": [[list(key), count]
                           for key, count in self.act_counts],
            "aggressor_rows": [list(key) for key in self.aggressor_rows],
            "victim_offsets": list(self.victim_offsets),
            "pacing": self.pacing,
            "ref_counts": [[list(key), count]
                           for key, count in self.ref_counts],
            "ref_interval_cycles": self.ref_interval_cycles,
            "trr_exposed": self.trr_exposed,
            "writes": [[list(key), digest] for key, digest in self.writes],
            "reads": [[list(key), count] for key, count in self.reads],
            "duration_cycles": self.duration_cycles,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EffectSummary":
        return cls(
            ops=tuple(_op_from_dict(op) for op in data["ops"]),
            act_counts=tuple((tuple(key), count)
                             for key, count in data["act_counts"]),
            aggressor_rows=tuple(tuple(key)
                                 for key in data["aggressor_rows"]),
            victim_offsets=tuple(data["victim_offsets"]),
            pacing=data["pacing"],
            ref_counts=tuple((tuple(key), count)
                             for key, count in data["ref_counts"]),
            ref_interval_cycles=data["ref_interval_cycles"],
            trr_exposed=data["trr_exposed"],
            writes=tuple((tuple(key), digest)
                         for key, digest in data["writes"]),
            reads=tuple((tuple(key), count)
                        for key, count in data["reads"]),
            duration_cycles=data["duration_cycles"],
        )

    def render(self) -> str:
        """Human-readable rendering for ``repro lint program --summary``."""
        lines = [f"effect summary: {len(self.ops)} op(s), "
                 f"{self.act_total:,} ACT(s), pacing={self.pacing}"]
        if self.duration_cycles is not None:
            lines.append(f"scheduled duration: "
                         f"{self.duration_cycles:,} cycles")
        if self.aggressor_rows:
            rows = ", ".join(
                f"ch{c} pc{p} ba{b} row{r}"
                for c, p, b, r in self.aggressor_rows[:8])
            if len(self.aggressor_rows) > 8:
                rows += f", ... {len(self.aggressor_rows) - 8} more"
            lines.append(f"aggressors ({len(self.aggressor_rows)}): {rows}"
                         f"  victims at offsets "
                         f"{list(self.victim_offsets)}")
        for key, count in self.act_counts[:8]:
            channel, pseudo_channel, bank, row = key
            lines.append(f"  ACT x{count:,}  ch{channel} "
                         f"pc{pseudo_channel} ba{bank} row{row}")
        if len(self.act_counts) > 8:
            lines.append(f"  ... {len(self.act_counts) - 8} more row(s)")
        if self.ref_counts:
            total = sum(count for _, count in self.ref_counts)
            cadence = ("" if self.ref_interval_cycles is None else
                       f", one per {self.ref_interval_cycles:,} cycles")
            exposed = " [TRR sampler exposed]" if self.trr_exposed else ""
            lines.append(f"REF: {total:,} across {len(self.ref_counts)} "
                         f"pseudo channel(s){cadence}{exposed}")
        if self.writes:
            lines.append(f"row writes: {len(self.writes)} row(s)")
        if self.reads:
            lines.append(f"row reads: {len(self.reads)} row(s)")
        return "\n".join(lines)


# -- the effect grammar ------------------------------------------------
def _same_bank(a, b) -> bool:
    return (a.channel == b.channel and
            a.pseudo_channel == b.pseudo_channel and a.bank == b.bank)


def _match_hammer_body(body, location: str
                       ) -> Optional[Tuple[HammerStep, ...]]:
    """Match a loop body made only of ACT / PRE / WAIT.

    Protocol legality (every ACT eventually precharged, PREs against
    open banks) is already proven by the verifier; here only the
    instruction alphabet matters, mirroring the runtime interpreter's
    bulk-eligibility test.  Returns None when another instruction type
    appears (the caller then recurses structurally).
    """
    steps: List[HammerStep] = []
    saw_act = False
    for instruction in body:
        if isinstance(instruction, isa.Act):
            steps.append(("act", instruction.channel,
                          instruction.pseudo_channel, instruction.bank,
                          instruction.row))
            saw_act = True
        elif isinstance(instruction, isa.Pre):
            steps.append(("pre", instruction.channel,
                          instruction.pseudo_channel, instruction.bank))
        elif isinstance(instruction, isa.Wait):
            steps.append(("wait", instruction.cycles))
        else:
            return None
    if not saw_act:
        return None
    return tuple(steps)


def _scan_sequence(instructions, location: str) -> List[EffectOp]:
    """Translate an instruction sequence into effect ops.

    Raises :class:`_NoSummary` when the grammar cannot match; the
    public entry point converts that into :class:`Unsummarizable`.
    """
    ops: List[EffectOp] = []
    index = 0
    total = len(instructions)
    while index < total:
        instruction = instructions[index]
        here = f"{location}[{index}]"
        if isinstance(instruction, isa.Wait):
            ops.append(IdleOp(instruction.cycles))
            index += 1
        elif isinstance(instruction, isa.Ref):
            ops.append(RefreshOp(instruction.channel,
                                 instruction.pseudo_channel, 1))
            index += 1
        elif isinstance(instruction, isa.Loop):
            if instruction.count > 0:
                ops.append(_scan_loop(instruction, here))
            index += 1
        elif isinstance(instruction, isa.Act):
            op, consumed = _scan_row_group(instructions, index, here)
            ops.append(op)
            index += consumed
        elif isinstance(instruction, (isa.Rd, isa.Wr)):
            raise _NoSummary(
                REASON_COLUMN_ACCESS,
                f"{here}: single-column {isa.mnemonic(instruction)} has "
                "data effects the analysis cannot prove")
        elif isinstance(instruction, isa.PreA):
            raise _NoSummary(
                REASON_PRECHARGE_ALL,
                f"{here}: PREA closes a statically unknown bank set")
        else:
            raise _NoSummary(
                REASON_IRREGULAR,
                f"{here}: {isa.mnemonic(instruction)} does not start any "
                "effect pattern")
    return ops


def _scan_loop(loop: isa.Loop, location: str) -> EffectOp:
    body = loop.body
    if all(isinstance(b, isa.Ref) for b in body) and body:
        first = body[0]
        if all(b.channel == first.channel and
               b.pseudo_channel == first.pseudo_channel for b in body):
            return RefreshOp(first.channel, first.pseudo_channel,
                             loop.count * len(body))
    steps = _match_hammer_body(body, location)
    if steps is not None:
        return HammerOp(loop.count, steps)
    return BurstOp(loop.count,
                   tuple(_scan_sequence(body, f"{location}.body")))


def _scan_row_group(instructions, index: int, location: str
                    ) -> Tuple[EffectOp, int]:
    """Match the group starting at an ACT: row write, row read, or a
    bare ACT[/WAIT]/PRE hammer pair."""
    act = instructions[index]
    nxt = instructions[index + 1] if index + 1 < len(instructions) else None
    if isinstance(nxt, (isa.WrRow, isa.RdRow)):
        if not _same_bank(act, nxt):
            raise _NoSummary(
                REASON_IRREGULAR,
                f"{location}: {isa.mnemonic(nxt)} targets a different bank "
                "than its ACT")
        after = (instructions[index + 2]
                 if index + 2 < len(instructions) else None)
        if not (isinstance(after, isa.Pre) and _same_bank(act, after)):
            if isinstance(after, (isa.Rd, isa.Wr)):
                raise _NoSummary(
                    REASON_COLUMN_ACCESS,
                    f"{location}: single-column {isa.mnemonic(after)} on "
                    "the open row has data effects the analysis cannot "
                    "prove")
            if isinstance(after, isa.PreA):
                raise _NoSummary(
                    REASON_PRECHARGE_ALL,
                    f"{location}: PREA closes a statically unknown bank "
                    "set")
            raise _NoSummary(
                REASON_OPEN_ROW,
                f"{location}: row access is not closed by a PRE on the "
                "same bank")
        if isinstance(nxt, isa.WrRow):
            return (RowWriteOp(act.channel, act.pseudo_channel, act.bank,
                               act.row, bytes(nxt.data)), 3)
        return (RowReadOp(act.channel, act.pseudo_channel, act.bank,
                          act.row), 3)
    steps: List[HammerStep] = [("act", act.channel, act.pseudo_channel,
                                act.bank, act.row)]
    consumed = 1
    if isinstance(nxt, isa.Wait):
        steps.append(("wait", nxt.cycles))
        consumed = 2
        nxt = (instructions[index + consumed]
               if index + consumed < len(instructions) else None)
    if not (isinstance(nxt, isa.Pre) and _same_bank(act, nxt)):
        if isinstance(nxt, (isa.Rd, isa.Wr)):
            raise _NoSummary(
                REASON_COLUMN_ACCESS,
                f"{location}: single-column {isa.mnemonic(nxt)} on the "
                "open row has data effects the analysis cannot prove")
        if isinstance(nxt, isa.PreA):
            raise _NoSummary(
                REASON_PRECHARGE_ALL,
                f"{location}: PREA closes a statically unknown bank set")
        raise _NoSummary(
            REASON_OPEN_ROW,
            f"{location}: ACT is not closed by a PRE on the same bank")
    steps.append(("pre", act.channel, act.pseudo_channel, act.bank))
    return (HammerOp(1, tuple(steps)), consumed + 1)


# -- aggregation -------------------------------------------------------
def _collect_effects(ops, multiplier, hammer_acts, writes, reads) -> None:
    for op in ops:
        if isinstance(op, BurstOp):
            _collect_effects(op.ops, multiplier * op.iterations,
                             hammer_acts, writes, reads)
        elif isinstance(op, HammerOp):
            for step in op.steps:
                if step[0] == "act":
                    key = (step[1], step[2], step[3], step[4])
                    hammer_acts[key] = (hammer_acts.get(key, 0) +
                                        multiplier * op.iterations)
        elif isinstance(op, RowWriteOp):
            key = (op.channel, op.pseudo_channel, op.bank, op.row)
            writes[key] = hashlib.blake2b(op.data,
                                          digest_size=8).hexdigest()
        elif isinstance(op, RowReadOp):
            key = (op.channel, op.pseudo_channel, op.bank, op.row)
            reads[key] = reads.get(key, 0) + multiplier


def _strip_waits(instructions) -> Tuple:
    stripped = []
    for instruction in instructions:
        if isinstance(instruction, isa.Wait):
            continue
        if isinstance(instruction, isa.Loop):
            stripped.append(isa.Loop(instruction.count,
                                     _strip_waits(instruction.body)))
        else:
            stripped.append(instruction)
    return tuple(stripped)


class _Stripped:
    """A wait-free view of a program, for the pacing probe."""

    def __init__(self, instructions) -> None:
        self.instructions = _strip_waits(instructions)


def _classify_pacing(program, context: VerifyContext,
                     duration: Optional[int]) -> str:
    """JEDEC-paced vs throttled, from the verifier's timing stamps.

    A program is throttled exactly when removing its explicit WAITs
    shortens the scheduled duration — i.e. some WAIT is the binding
    constraint somewhere, stretching row-open time (RowPress) or bus
    idle time (the cross-channel idle arm) beyond the JEDEC floor.
    """
    if duration is None:
        return PACING_THROTTLED
    if not any(isinstance(i, isa.Wait) for i in _flatten(program)):
        return PACING_JEDEC
    probe = replace(context, expected_hammers=None,
                    assume_trr_escaped=False, allow_retention_decay=True)
    stripped = verify_program(_Stripped(program.instructions), probe)
    if stripped.duration_cycles is None:
        return PACING_THROTTLED
    return (PACING_JEDEC if stripped.duration_cycles == duration
            else PACING_THROTTLED)


def _flatten(program):
    stack = list(reversed(program.instructions))
    while stack:
        instruction = stack.pop()
        if isinstance(instruction, isa.Loop):
            stack.extend(reversed(instruction.body))
        else:
            yield instruction


# -- entry point -------------------------------------------------------
def summarize_program(program, context: Optional[VerifyContext] = None,
                      report: Optional[VerificationReport] = None
                      ) -> Union[EffectSummary, Unsummarizable]:
    """Infer the abstract effect of ``program``.

    Args:
        program: a :class:`~repro.bender.program.Program` (anything
            with an ``instructions`` tuple).
        context: verification assumptions (default ``VerifyContext()``).
            ``assume_trr_escaped=True`` makes TRR-window warnings block
            summarization (reason ``trr-window``).
        report: an existing :func:`verify_program` report under
            ``context`` for this program or any row binding of it
            (verdicts are row-agnostic), to avoid verifying twice.

    Returns:
        :class:`EffectSummary` when every effect is statically proven,
        else :class:`Unsummarizable` with a taxonomy reason.
    """
    context = context or VerifyContext()
    if report is None:
        report = verify_program(program, context)
    if report.violations:
        first = report.violations[0]
        return Unsummarizable(REASON_VIOLATIONS, first.render())
    for diagnostic in report.diagnostics:
        if diagnostic.kind == ANALYSIS_TRUNCATED:
            return Unsummarizable(REASON_TRUNCATED, diagnostic.render())
        if diagnostic.kind == TRR_WINDOW_WARNING:
            return Unsummarizable(REASON_TRR_WINDOW, diagnostic.render())
    try:
        ops = tuple(_scan_sequence(program.instructions, "instructions"))
    except _NoSummary as exc:
        return Unsummarizable(exc.reason, exc.detail)

    act_counts = count_activations(program)
    hammer_acts: Dict[RowKey, int] = {}
    writes: Dict[RowKey, str] = {}
    reads: Dict[RowKey, int] = {}
    _collect_effects(ops, 1, hammer_acts, writes, reads)
    aggressors = tuple(sorted(key for key, count in hammer_acts.items()
                              if count >= 2))

    refs: Dict[PcKey, int] = {}
    _count_refs(ops, 1, refs)
    total_refs = sum(refs.values())
    duration = report.duration_cycles
    interval = (duration // total_refs
                if total_refs and duration else None)
    trr_exposed = any(count >= context.trr_period_refs
                      for count in refs.values())

    return EffectSummary(
        ops=ops,
        act_counts=tuple(sorted(act_counts.items())),
        aggressor_rows=aggressors,
        victim_offsets=VICTIM_OFFSETS,
        pacing=_classify_pacing(program, context, duration),
        ref_counts=tuple(sorted(refs.items())),
        ref_interval_cycles=interval,
        trr_exposed=trr_exposed,
        writes=tuple(sorted(writes.items())),
        reads=tuple(sorted(reads.items())),
        duration_cycles=duration,
    )


def loop_op_positions(instructions) -> Tuple[int, ...]:
    """Positions, among the ops :func:`summarize_program` makes of the
    summarizable top-level ``instructions``, of the ops their top-level
    loops make (a loop of count 0 makes none).

    Each top-level loop makes exactly one op, and the row groups
    between loops never straddle one (an ACT whose group a LOOP cuts
    is left open, which does not summarize), so the ops before a loop
    are those of the instructions before it.
    """
    positions: List[int] = []
    position = start = 0
    for index, instruction in enumerate(instructions):
        if isinstance(instruction, isa.Loop):
            position += len(_scan_sequence(instructions[start:index],
                                           "instructions"))
            start = index + 1
            if instruction.count > 0:
                positions.append(position)
                position += 1
    return tuple(positions)


def _count_refs(ops, multiplier, refs) -> None:
    for op in ops:
        if isinstance(op, BurstOp):
            _count_refs(op.ops, multiplier * op.iterations, refs)
        elif isinstance(op, RefreshOp):
            key = (op.channel, op.pseudo_channel)
            refs[key] = refs.get(key, 0) + multiplier * op.count
