"""Content-addressed cache of built-and-verified Bender programs.

SoftMC-lineage infrastructures get their throughput from compiling a
hammer program once and replaying it across thousands of rows; the
repo's hot loops instead rebuilt and re-verified a near-identical
program per (row, pattern, repetition).  :class:`ProgramCache` closes
that gap: programs are cached by *shape* — the program with every ACT
row operand replaced by a slot ordinal — so construction, protocol
checking, static verification, and backend compilation are paid once
per shape and every further execution only patches row addresses into
the verified template.

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

Addressing
----------
Entries are content-addressed: the digest is ``blake2b`` over the
canonical assembly text of the template plus the timing parameter
table, so two call sites that build the same shape share one compiled,
verified entry.  Callers index the store with a cheap structural key
(e.g. ``("hammer", ch, pc, bank, aggressors, count)``) to avoid
building a program at all on the hot path; the key maps to a digest,
the digest to the entry.

Hit/miss counters are exported through the metrics registry as
``engine.cache.hits`` / ``engine.cache.misses``.
"""

from __future__ import annotations

import hashlib
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

#: Entries kept per cache (a backstop: shape key spaces are tiny; only
#: per-row retention waits could otherwise grow one entry per row).
DEFAULT_MAX_ENTRIES = 4096


def canonicalize(program: Program) -> Tuple[Program, RowBinding, SlotBanks]:
    """Split ``program`` into a row-free template and its row binding.

    Each distinct (channel, pseudo channel, bank, row) ACT operand is
    assigned a slot ordinal in first-occurrence order and the template
    carries the ordinal in place of the row.  Returns the template, the
    binding (original row per slot), and each slot's bank coordinate.
    """
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
               rows: RowBinding) -> Program:
    """Instantiate a template with a concrete row binding.

    Verification transfers from the insert-time instance only if the
    binding preserves slot distinctness per bank (see module
    docstring), so aliasing bindings are rejected.
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

    return Program(walk(template.instructions))


def shape_digest(template: Program, timing, device_identity: str = "") -> str:
    """blake2b over the template's assembly, timing, and device identity.

    ``device_identity`` is the executing device family's identity string
    (profile name + geometry + TRR policy — see
    :meth:`repro.dram.profiles.DeviceProfile.identity`).  Including it
    keeps verified programs from aliasing across device families that
    happen to share an assembly text and timing table: a verdict is only
    transferable to the device it was verified against.
    """
    payload = (disassemble(template).encode("ascii")
               + b"\x00" + repr(timing).encode("ascii")
               + b"\x00" + device_identity.encode("ascii"))
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class ProgramCache:
    """Verified-program store with row-address patching.

    One cache serves one station (board): entries are compiled against
    the station's backend and verified against its timing table, so the
    engine session owns construction (see
    :class:`repro.engine.session.EngineSession`).
    """

    def __init__(self, backend, max_entries: int = DEFAULT_MAX_ENTRIES
                 ) -> None:
        self._backend = backend
        self._max_entries = max_entries
        self._keys: Dict[tuple, "CompiledProgram"] = {}
        self._digests: Dict[str, "CompiledProgram"] = {}
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
                checks: Optional[Callable[[], VerifyContext]] = None):
        """Run the program ``build()`` describes, via the cache.

        Args:
            key: structural shape key — must determine the program up
                to its row binding (callers include every non-row
                parameter that reaches the builder).
            rows: the program's row binding in first-ACT order.
            build: constructs the program (with whatever build-time
                protocol checking the uncached path performs).  Called
                on a miss only.
            checks: returns the context the built program must pass
                (see :meth:`~repro.engine.backend.FastPathBackend.
                compile`).  Called on a miss only; hits inherit the
                insert-time verdict by the substitution argument in the
                module docstring.

        Returns the backend's :class:`~repro.bender.interpreter.
        ExecutionResult`.
        """
        rows = tuple(rows)
        entry = self._keys.get(key)
        metrics = get_metrics()
        if entry is None:
            self.misses += 1
            metrics.counter("engine.cache.misses").inc()
            program = build()
            if checks is None:
                handle = self._backend.compile(program)
            else:
                handle = self._backend.compile(
                    program, checks(),
                    what=f"program {key!r} on rows {rows}")
            if handle.source_binding != rows:
                raise EngineError(
                    f"cache key {key!r} declared row binding {rows} but "
                    f"the built program binds {handle.source_binding}")
            entry = self._digests.get(handle.digest, handle)
            if len(self._digests) < self._max_entries:
                self._digests.setdefault(handle.digest, entry)
            if len(self._keys) < self._max_entries:
                self._keys[key] = entry
        else:
            self.hits += 1
            metrics.counter("engine.cache.hits").inc()
        return self._backend.execute(entry, rows)
