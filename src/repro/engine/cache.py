"""Content-addressed cache of built-and-verified Bender programs.

SoftMC-lineage infrastructures get their throughput from compiling a
hammer program once and replaying it across thousands of rows; the
repo's hot loops instead rebuilt and re-verified a near-identical
program per (row, pattern, repetition).  :class:`ProgramCache` closes
that gap: programs are cached by *shape* — the program with every ACT
row operand replaced by a slot ordinal and, for a hammer loop, its
iteration count lifted into a count slot — so construction, protocol
checking, static verification, and backend compilation are paid once
per shape and every further execution only patches row addresses (and
the count) into the verified template.  On hardware the count is a
register or a placeholder in the same way, not a new program.

Soundness of patching
---------------------
All protocol and timing properties the verifier checks are functions of
the command sequence and its (channel, pseudo channel, bank)
coordinates only — never of row *values* — so a verification report for
one row binding holds for any other.  The single row-sensitive property
(declared per-row hammer counts) is preserved exactly when the
substitution keeps distinct slots distinct within each bank, which
:func:`substitute` enforces; a binding that would alias two slots onto
one row raises :class:`~repro.errors.EngineError` instead of executing
with silently merged activation counts.

A count binding is narrower.  Only a program of the shape *prefix,
loop, suffix* takes one: a prefix, one ``LOOP n`` over ACT/PRE/WAIT
(with at least one ACT), and a suffix, neither holding a LOOP or a
REF, and no row written two payloads — the one program of a hammer
test (:func:`repro.core.hammer.build_probe_program`: write the
neighbourhood, hammer, read the victim).  The fast path applies such
a shape as device streams that issue no REF and bind one payload per
written row (:class:`repro.engine.backend.ProbeStream`).  A shape is
verified at the largest count ``N`` it has been bound to; a binding
``n <= N`` runs the verified handle, a binding ``n > N`` rebuilds and
re-verifies the shape at ``n`` (a *widening*).  That is sound because
the verifier's run over ``P; LOOP n {B}; S`` is, up to the suffix, the
first ``n`` iterations of its run over ``P; LOOP N {B}; S``: the prefix
runs from the same state, and the commands and the abstract state after
each iteration are the same (steady-state extrapolation reaches the
state stepping would).  So every verdict that depends on the count is
monotone in it and a clean verdict at ``N`` is clean at every ``n``:

* *protocol and timing violations* in the prefix and the loop are
  raised at a command from the state before it, and ``n``'s commands
  and states are a prefix of ``N``'s.  The suffix starts from the
  loop's exit state, whose *timing* part ``n = 1`` (cold first
  iteration) and short loops need not share with ``N``.  Its
  open/closed part they do share: a clean run at ``N`` leaves every
  bank the body touches in the state its last body command sets, after
  every iteration.  The suffix's verdicts therefore carry only under
  the scheduling policy (``assume_scheduler``), where no command can
  violate timing; strict-policy checks refuse a suffix;
* *hammer-count exactness*: a declared row gets ``p + a * n`` ACTs, ``p``
  from the prefix and suffix and ``a`` per iteration.  A verdict at ``N``
  alone cannot tell ``p + a * N`` from the declared count's own split —
  a prefix activating a row ``N + 1`` times with ``a == 0`` matches a
  declared ``N + 1`` — so the count binding is the hammer count by
  contract: every declared row must be activated exactly once per
  iteration (:func:`check_declared_counts`, refused otherwise).  The
  declared count is then ``n`` plus the row's accesses outside the loop
  (:func:`repro.core.hammer.hammer_checks`), exact at ``N`` means ``p``
  equals those accesses, and so exact at every ``n``;
* *refresh starvation*: the program issues no REF, so a pseudo
  channel's one gap runs to the program's last command, and every
  command runs no later at ``n`` than at ``N`` (earliest-legal
  scheduling is monotone in the timing stamps, which only move later
  with more iterations);
* *the TRR-window warning* fires when a pseudo channel's REF count
  reaches the sampler period, and the program issues no REF at any
  count;
* *step-budget truncation*: a loop of at most ``FULL_UNROLL_LIMIT``
  dynamic commands costs at most that many steps, a longer one
  ``min(n, k)`` body passes where ``k`` is the iteration that reaches
  steady state (``n`` when none does), so the loop's ``steps(n) <=
  max(steps(N), FULL_UNROLL_LIMIT)``, and the prefix and suffix cost
  the same at every count; the default budget cannot truncate at ``n``
  what it did not truncate at ``N`` unless the prefix and suffix alone
  come within ``FULL_UNROLL_LIMIT`` of it.  Truncation is a warning
  anyway: it only withholds a summary, never blocks a run.

The effect summary transfers the same way: the effect grammar maps the
prefix and the suffix to the same ops at every count and ``LOOP n {B}``
to ``HammerOp(n, steps(B))`` for every ``n >= 1``, so the handle's ops
with the loop's op (at :attr:`~repro.engine.backend.CompiledProgram.
loop_ops`, by position) reading its iteration count from the binding
are the summary of the program built at ``n``.  Count 0 builds a
program without the loop and is its own count-free shape.
``tests/property/test_count_binding.py`` checks all of this against
programs built and verified at each ``n``, and the oracle.

Addressing
----------
Entries are content-addressed: the digest is ``blake2b`` over the
canonical assembly text of the template (its count loop's header reads
``LOOP count``, so the digest carries no count) plus the timing
parameter table and device identity, so two call sites that build the
same shape share one compiled, verified entry.  Callers index the store
with a cheap structural key (e.g. ``("hammer", ch, pc, bank, sides)``)
to avoid building a program at all on the hot path; the key maps to the
entry, which carries its digest and verified count.  The key store is
bounded: past ``max_entries`` keys the least recently used is evicted.

Hit/miss counters are exported through the metrics registry as
``engine.cache.hits`` / ``engine.cache.misses``; ``engine.cache.widened``
counts the misses that re-verified a shape at a larger count.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.bender import isa
from repro.bender.assembler import disassemble
from repro.bender.program import Program
from repro.errors import EngineError
from repro.obs import get_metrics
from repro.verify.program import VerifyContext

#: Ordered distinct row operands of a program (first-occurrence order).
RowBinding = Tuple[int, ...]
#: The (channel, pseudo channel, bank) coordinate of each row slot.
SlotBanks = Tuple[Tuple[int, int, int], ...]

#: Keys kept per cache; past it the least recently used key is evicted.
#: Count-free shape keys number in the tens per campaign, but keys that
#: carry data (``write_rows`` payloads, ``wait`` seconds) can grow one
#: per distinct value.
DEFAULT_MAX_ENTRIES = 4096

#: Instructions a count-bound loop body may hold.
_HAMMER_BODY = (isa.Act, isa.Pre, isa.Wait)


def count_loop_index(program: Program) -> int:
    """Position of the loop a count binding sets, among the program's
    top-level instructions.

    A count-bound program is a prefix, one ``LOOP`` over ACT/PRE/WAIT
    with at least one ACT, and a suffix, the prefix and suffix free of
    LOOP and REF and writing each row one payload (module docstring);
    anything else raises :class:`~repro.errors.EngineError`.
    """
    instructions = program.instructions
    loops = [index for index, instruction in enumerate(instructions)
             if isinstance(instruction, isa.Loop)]
    if len(loops) == 1:
        (index,) = loops
        body = instructions[index].body
        if (all(isinstance(instruction, _HAMMER_BODY)
                for instruction in body)
                and any(isinstance(instruction, isa.Act)
                        for instruction in body)
                and not any(isinstance(instruction, isa.Ref)
                            for instruction in instructions)
                and _one_payload_per_row(instructions)):
            return index
    raise EngineError(
        "a count binding needs a program that is a prefix, one LOOP over "
        "ACT/PRE/WAIT, and a suffix, without REF and writing each row "
        "one payload")


def _one_payload_per_row(instructions) -> bool:
    """True when no row is written two payloads by the top-level
    WRROWs (each writes the row its bank's last ACT opened)."""
    opened: Dict[Tuple[int, int, int], int] = {}
    written: Dict[Tuple[int, int, int, int], bytes] = {}
    for instruction in instructions:
        if isinstance(instruction, (isa.Act, isa.WrRow)):
            bank = (instruction.channel, instruction.pseudo_channel,
                    instruction.bank)
            if isinstance(instruction, isa.Act):
                opened[bank] = instruction.row
            elif written.setdefault(bank + (opened.get(bank),),
                                    instruction.data) != instruction.data:
                return False
    return True


def check_declared_counts(program: Program, expected) -> None:
    """Refuse a count-bound program whose declared rows are not
    activated exactly once per iteration of its count loop.

    ``expected`` is the declared per-row ACT count (``VerifyContext.
    expected_hammers``).  The verifier checks each row's total at the
    verified count only; once per iteration is what makes that total
    exact at every smaller count too (module docstring).
    """
    loop = program.instructions[count_loop_index(program)]
    per_iteration: Dict[Tuple[int, int, int, int], int] = {}
    for instruction in loop.body:
        if isinstance(instruction, isa.Act):
            key = (instruction.channel, instruction.pseudo_channel,
                   instruction.bank, instruction.row)
            per_iteration[key] = per_iteration.get(key, 0) + 1
    for key in sorted(expected):
        if per_iteration.get(key, 0) != 1:
            raise EngineError(
                f"declared row {key} is activated "
                f"{per_iteration.get(key, 0)} time(s) per iteration of "
                "the count loop; a count binding is the hammer count, so "
                "every declared row needs exactly one ACT per iteration")


def canonicalize(program: Program, count: Optional[int] = None
                 ) -> Tuple[Program, RowBinding, SlotBanks]:
    """Split ``program`` into a row-free template and its row binding.

    Each distinct (channel, pseudo channel, bank, row) ACT operand is
    assigned a slot ordinal in first-occurrence order and the template
    carries the ordinal in place of the row.  Returns the template, the
    binding (original row per slot), and each slot's bank coordinate.

    With ``count``, the program is count-bound: its count loop
    (:func:`count_loop_index`) must run exactly ``count`` iterations.
    Its template keeps that count, the one it is verified at, and
    :func:`substitute` and :func:`shape_digest` treat it as the slot.
    """
    if count is not None:
        built = program.instructions[count_loop_index(program)].count
        if not 0 < count == built:
            raise EngineError(
                f"count binding {count} does not match the program's "
                f"loop of {built} iteration(s)")
    slots: Dict[Tuple[int, int, int, int], int] = {}
    binding: List[int] = []
    slot_banks: List[Tuple[int, int, int]] = []

    def walk(instructions) -> Tuple[isa.Instruction, ...]:
        out: List[isa.Instruction] = []
        for instruction in instructions:
            if isinstance(instruction, isa.Loop):
                out.append(isa.Loop(instruction.count,
                                    walk(instruction.body)))
            elif isinstance(instruction, isa.Act):
                key = (instruction.channel, instruction.pseudo_channel,
                       instruction.bank, instruction.row)
                slot = slots.get(key)
                if slot is None:
                    slot = len(slots)
                    slots[key] = slot
                    binding.append(instruction.row)
                    slot_banks.append(key[:3])
                out.append(isa.Act(instruction.channel,
                                   instruction.pseudo_channel,
                                   instruction.bank, slot))
            else:
                out.append(instruction)
        return tuple(out)

    template = Program(walk(program.instructions))
    return template, tuple(binding), tuple(slot_banks)


def substitute(template: Program, slot_banks: SlotBanks,
               rows: RowBinding, count: Optional[int] = None) -> Program:
    """Instantiate a template with a concrete row (and count) binding.

    Verification transfers from the insert-time instance only if the
    binding preserves slot distinctness per bank (see module
    docstring), so aliasing bindings are rejected.  ``count`` sets a
    count-bound template's loop count (None keeps the template's).
    """
    if len(rows) != len(slot_banks):
        raise EngineError(
            f"program shape has {len(slot_banks)} row slot(s), "
            f"binding supplies {len(rows)}")
    bound = {(bank + (row,)) for bank, row in zip(slot_banks, rows)}
    if len(bound) != len(rows):
        raise EngineError(
            f"row binding {rows} aliases two slots of the same bank; "
            "activation counts would no longer match the verified shape")

    def walk(instructions) -> Tuple[isa.Instruction, ...]:
        out: List[isa.Instruction] = []
        for instruction in instructions:
            if isinstance(instruction, isa.Loop):
                out.append(isa.Loop(instruction.count,
                                    walk(instruction.body)))
            elif isinstance(instruction, isa.Act):
                out.append(isa.Act(instruction.channel,
                                   instruction.pseudo_channel,
                                   instruction.bank,
                                   rows[instruction.row]))
            else:
                out.append(instruction)
        return tuple(out)

    instructions = walk(template.instructions)
    if count is not None:
        index = count_loop_index(template)
        if count < 1:
            raise EngineError(f"count binding must be positive, got {count}")
        instructions = (instructions[:index]
                        + (isa.Loop(count, instructions[index].body),)
                        + instructions[index + 1:])
    return Program(instructions)


def shape_digest(template: Program, timing, device_identity: str = "",
                 counted: bool = False) -> str:
    """blake2b over the template's assembly, timing, and device identity.

    ``device_identity`` is the executing device family's identity string
    (profile name + geometry + TRR policy — see
    :meth:`repro.dram.profiles.DeviceProfile.identity`).  Including it
    keeps verified programs from aliasing across device families that
    happen to share an assembly text and timing table: a verdict is only
    transferable to the device it was verified against.

    ``counted`` marks a count-bound template: its count loop's header
    (the only ``LOOP`` line: the prefix and suffix are LOOP-free) reads
    ``LOOP count``, text no real program assembles to, so the digest
    carries no count and never aliases a count-free shape.
    """
    text = disassemble(template)
    if counted:
        loop = template.instructions[count_loop_index(template)]
        text = text.replace(f"LOOP {loop.count}\n", "LOOP count\n", 1)
    payload = (text.encode("ascii")
               + b"\x00" + repr(timing).encode("ascii")
               + b"\x00" + device_identity.encode("ascii"))
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class ProgramCache:
    """Verified-program store with row-address and count patching.

    One cache serves one station (board): entries are compiled against
    the station's backend and verified against its timing table, so the
    engine session owns construction (see
    :class:`repro.engine.session.EngineSession`).  At most
    ``max_entries`` keys are kept, least recently used evicted first;
    a digest's entry goes with the last key that maps to it.
    """

    def __init__(self, backend, max_entries: int = DEFAULT_MAX_ENTRIES
                 ) -> None:
        if max_entries < 1:
            raise EngineError(
                f"max_entries must be at least 1, got {max_entries}")
        self._backend = backend
        self._max_entries = max_entries
        #: Key -> handle, least recently used first.
        self._keys: "OrderedDict[tuple, CompiledProgram]" = OrderedDict()
        #: Digest -> the widest handle of that shape, and how many keys
        #: map to the digest.
        self._digests: Dict[str, "CompiledProgram"] = {}
        self._users: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._digests)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def execute(self, key: tuple, rows: RowBinding,
                build: Callable[[], Program],
                checks: Optional[Callable[[], VerifyContext]] = None,
                count: Optional[int] = None):
        """Run the program ``build()`` describes, via the cache.

        Args:
            key: structural shape key — must determine the program up
                to its row binding and count binding (callers include
                every other parameter that reaches the builder).
            rows: the program's row binding in first-ACT order.
            build: constructs the program (with whatever build-time
                protocol checking the uncached path performs).  Called
                on a miss only.
            checks: returns the context the built program must pass
                (see :meth:`~repro.engine.backend.FastPathBackend.
                compile`).  Called on a miss only; hits inherit the
                insert-time verdict by the substitution argument in the
                module docstring.
            count: the count binding of a count-bound shape (the
                iteration count of its hammer loop; see the module
                docstring), passed on every call of its key; ``build``
                and ``checks`` describe the program at this count.  A
                count above the entry's verified count rebuilds and
                re-verifies the shape at it (``engine.cache.widened``).

        Returns the backend's :class:`~repro.bender.interpreter.
        ExecutionResult`.
        """
        rows = tuple(rows)
        entry = self._keys.get(key)
        metrics = get_metrics()
        if entry is not None and (count is None or
                                  count <= (entry.count or 0)):
            self._keys.move_to_end(key)
            self.hits += 1
            metrics.counter("engine.cache.hits").inc()
            return self._backend.execute(entry, rows, count)
        self.misses += 1
        metrics.counter("engine.cache.misses").inc()
        if entry is not None:
            metrics.counter("engine.cache.widened").inc()
        program = build()
        handle = self._backend.compile(
            program, None if checks is None else checks(),
            what=f"program {key!r} on rows {rows}", count=count)
        if handle.source_binding != rows:
            raise EngineError(
                f"cache key {key!r} declared row binding {rows} but "
                f"the built program binds {handle.source_binding}")
        return self._backend.execute(self._admit(key, handle), rows, count)

    def _admit(self, key: tuple, handle: "CompiledProgram"
               ) -> "CompiledProgram":
        """Map ``key`` to ``handle`` (or the digest's wider equal),
        evicting least recently used keys past the bound."""
        self._release(self._keys.pop(key, None))
        while len(self._keys) >= self._max_entries:
            self._release(self._keys.popitem(last=False)[1])
        shared = self._digests.get(handle.digest)
        if shared is not None and (handle.count is None or
                                   shared.count >= handle.count):
            handle = shared
        else:
            self._digests[handle.digest] = handle
        self._keys[key] = handle
        self._users[handle.digest] = self._users.get(handle.digest, 0) + 1
        return handle

    def _release(self, entry: Optional["CompiledProgram"]) -> None:
        """Drop one key's claim on its entry's digest."""
        if entry is None:
            return
        users = self._users[entry.digest] - 1
        if users:
            self._users[entry.digest] = users
        else:
            del self._users[entry.digest]
            del self._digests[entry.digest]
