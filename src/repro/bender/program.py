"""Test-program container and builder.

The builder is the primary authoring API::

    builder = ProgramBuilder()
    builder.act(0, 0, 0, row=41)
    builder.wr_row(0, 0, 0, pattern_bytes)
    builder.pre(0, 0, 0)
    with builder.loop(256 * 1024):
        builder.act(0, 0, 0, row=40)
        builder.pre(0, 0, 0)
        builder.act(0, 0, 0, row=42)
        builder.pre(0, 0, 0)
    program = builder.build()

Loops may nest; ``build()`` raises on unbalanced nesting.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.bender import isa
from repro.errors import ProgramError


@dataclass(frozen=True)
class Program:
    """An immutable DRAM Bender test program."""

    instructions: Tuple[isa.Instruction, ...]

    def dynamic_length(self) -> int:
        """Commands executed when run (loops expanded)."""
        return isa.instruction_count(self.instructions)


class ProgramBuilder:
    """Incrementally constructs a :class:`Program`."""

    def __init__(self) -> None:
        self._stack: List[List[isa.Instruction]] = [[]]
        self._loop_counts: List[int] = []

    # -- emission helpers ------------------------------------------------
    def _emit(self, instruction: isa.Instruction) -> None:
        self._stack[-1].append(instruction)

    def act(self, channel: int, pseudo_channel: int, bank: int,
            row: int) -> "ProgramBuilder":
        self._emit(isa.Act(channel, pseudo_channel, bank, row))
        return self

    def pre(self, channel: int, pseudo_channel: int,
            bank: int) -> "ProgramBuilder":
        self._emit(isa.Pre(channel, pseudo_channel, bank))
        return self

    def pre_all(self, channel: int, pseudo_channel: int) -> "ProgramBuilder":
        self._emit(isa.PreA(channel, pseudo_channel))
        return self

    def rd(self, channel: int, pseudo_channel: int, bank: int,
           column: int) -> "ProgramBuilder":
        self._emit(isa.Rd(channel, pseudo_channel, bank, column))
        return self

    def wr(self, channel: int, pseudo_channel: int, bank: int, column: int,
           data: bytes) -> "ProgramBuilder":
        self._emit(isa.Wr(channel, pseudo_channel, bank, column, bytes(data)))
        return self

    def rd_row(self, channel: int, pseudo_channel: int,
               bank: int) -> "ProgramBuilder":
        self._emit(isa.RdRow(channel, pseudo_channel, bank))
        return self

    def wr_row(self, channel: int, pseudo_channel: int, bank: int,
               data: bytes) -> "ProgramBuilder":
        self._emit(isa.WrRow(channel, pseudo_channel, bank, bytes(data)))
        return self

    def ref(self, channel: int, pseudo_channel: int) -> "ProgramBuilder":
        self._emit(isa.Ref(channel, pseudo_channel))
        return self

    def wait(self, cycles: int) -> "ProgramBuilder":
        if cycles < 0:
            raise ProgramError(f"WAIT cycles must be >= 0, got {cycles}")
        self._emit(isa.Wait(cycles))
        return self

    def wait_time(self, seconds: float, frequency_hz: float) -> "ProgramBuilder":
        """WAIT for a wall-clock duration at the interface frequency."""
        if seconds < 0:
            raise ProgramError(f"wait time must be >= 0, got {seconds}")
        self._emit(isa.Wait(int(round(seconds * frequency_hz))))
        return self

    # -- structured loops --------------------------------------------------
    @contextmanager
    def loop(self, count: int) -> Iterator[None]:
        """Repeat the instructions emitted inside the block ``count`` times."""
        if count < 0:
            raise ProgramError(f"loop count must be >= 0, got {count}")
        self._stack.append([])
        self._loop_counts.append(count)
        try:
            yield
        finally:
            body = self._stack.pop()
            loop_count = self._loop_counts.pop()
            self._emit(isa.Loop(loop_count, tuple(body)))

    # -- finalization -------------------------------------------------------
    def build(self, verify: bool = True) -> Program:
        """Finalize the program.

        With ``verify`` (the default) the instruction stream passes the
        timing-free protocol check from :mod:`repro.verify.program`
        (bank open/close discipline: no ACT on an open bank, no RD/WR
        against a closed row, no REF with a bank open); a violation
        raises :class:`~repro.errors.VerificationError`.  Timing-aware
        verification is a separate, explicit step
        (:func:`repro.verify.verify_program`) because it needs context —
        timing parameters, declared hammer counts — the builder does
        not have.
        """
        if len(self._stack) != 1:
            raise ProgramError(
                f"unbalanced loop nesting: {len(self._stack) - 1} loop(s) "
                "still open")
        program = Program(tuple(self._stack[0]))
        if verify:
            # Imported lazily: repro.verify.program imports this module.
            from repro.verify.program import verify_protocol

            report = verify_protocol(program)
            if report.violations:
                from repro.errors import VerificationError

                raise VerificationError(
                    "program violates DRAM protocol: "
                    + "; ".join(diagnostic.render()
                                for diagnostic in report.violations[:3]),
                    diagnostics=report.violations)
        return program
