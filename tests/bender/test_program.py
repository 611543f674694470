"""Tests for repro.bender.isa and repro.bender.program."""

import pytest

from repro.bender import isa
from repro.bender.program import Program, ProgramBuilder
from repro.errors import ProgramError


class TestIsa:
    def test_mnemonics(self):
        assert isa.mnemonic(isa.Act(0, 0, 0, 1)) == "ACT"
        assert isa.mnemonic(isa.Loop(2, ())) == "LOOP"
        assert isa.mnemonic(isa.Wait(5)) == "WAIT"
        assert isa.mnemonic(isa.WrRow(0, 0, 0, b"")) == "WRROW"

    def test_instruction_count_expands_loops(self):
        body = (isa.Act(0, 0, 0, 1), isa.Pre(0, 0, 0))
        program = (isa.Loop(10, body), isa.Ref(0, 0))
        assert isa.instruction_count(program) == 21

    def test_instruction_count_nested(self):
        inner = isa.Loop(3, (isa.Wait(1),))
        outer = isa.Loop(2, (inner, isa.Wait(1)))
        assert isa.instruction_count((outer,)) == 2 * (3 + 1)

    def test_fast_loop_types_exclude_data_movement(self):
        assert isa.Rd not in isa.FAST_LOOP_TYPES
        assert isa.Wr not in isa.FAST_LOOP_TYPES
        assert isa.Ref not in isa.FAST_LOOP_TYPES
        assert isa.Act in isa.FAST_LOOP_TYPES


class TestBuilder:
    def test_simple_sequence(self):
        builder = ProgramBuilder()
        builder.act(0, 0, 0, 5).wr_row(0, 0, 0, b"\x00" * 8).pre(0, 0, 0)
        program = builder.build()
        assert len(program.instructions) == 3
        assert isinstance(program.instructions[0], isa.Act)
        assert isinstance(program.instructions[1], isa.WrRow)
        assert isinstance(program.instructions[2], isa.Pre)

    def test_loop_context_manager(self):
        builder = ProgramBuilder()
        with builder.loop(100):
            builder.act(0, 0, 0, 1)
            builder.pre(0, 0, 0)
        program = builder.build()
        (loop,) = program.instructions
        assert isinstance(loop, isa.Loop)
        assert loop.count == 100
        assert len(loop.body) == 2

    def test_nested_loops(self):
        builder = ProgramBuilder()
        with builder.loop(4):
            builder.wait(1)
            with builder.loop(2):
                builder.wait(2)
        program = builder.build()
        outer = program.instructions[0]
        assert isinstance(outer.body[1], isa.Loop)
        assert program.dynamic_length() == 4 * (1 + 2)

    def test_wait_time_converts_to_cycles(self):
        builder = ProgramBuilder()
        builder.wait_time(1e-6, 600e6)
        (wait,) = builder.build().instructions
        assert wait.cycles == 600

    def test_negative_wait_rejected(self):
        with pytest.raises(ProgramError):
            ProgramBuilder().wait(-1)

    def test_negative_loop_count_rejected(self):
        builder = ProgramBuilder()
        with pytest.raises(ProgramError):
            with builder.loop(-1):
                pass

    def test_unbalanced_nesting_rejected(self):
        builder = ProgramBuilder()
        builder._stack.append([])  # simulate a stuck-open loop
        builder._loop_counts.append(3)
        with pytest.raises(ProgramError):
            builder.build()

    def test_data_is_copied_to_bytes(self):
        builder = ProgramBuilder()
        builder.act(0, 0, 0, 1)
        builder.wr(0, 0, 0, 0, bytearray(b"\x01\x02"))
        builder.pre(0, 0, 0)
        (_, write, _) = builder.build().instructions
        assert isinstance(write.data, bytes)

    def test_programs_are_immutable_values(self):
        program_a = Program((isa.Wait(1),))
        program_b = Program((isa.Wait(1),))
        assert program_a == program_b
