"""Tests for repro.bender.assembler."""

import pytest
from hypothesis import given, settings

from repro.bender import isa
from repro.bender.assembler import assemble, disassemble
from repro.bender.program import Program, ProgramBuilder
from repro.core.hammer import build_hammer_program
from repro.dram.address import DramAddress
from repro.errors import AssemblyError
from tests.property.test_program_robustness import random_programs


class TestAssemble:
    def test_basic_instructions(self):
        program = assemble("""
            # double-sided hammer kernel
            ACT 0 0 0 41
            PRE 0 0 0
            PREA 0 0
            RD 0 0 0 3
            REF 0 0
            WAIT 100
        """)
        kinds = [type(instruction) for instruction in program.instructions]
        assert kinds == [isa.Act, isa.Pre, isa.PreA, isa.Rd, isa.Ref,
                         isa.Wait]

    def test_loop_block(self):
        program = assemble("""
            LOOP 1000
              ACT 0 0 0 40
              PRE 0 0 0
            ENDLOOP
        """)
        (loop,) = program.instructions
        assert loop.count == 1000
        assert len(loop.body) == 2

    def test_nested_loops(self):
        program = assemble("""
            LOOP 2
              LOOP 3
                WAIT 1
              ENDLOOP
            ENDLOOP
        """)
        assert program.dynamic_length() == 6

    def test_write_with_hex_data(self):
        program = assemble("WR 0 0 0 5 0xDEADBEEF")
        (write,) = program.instructions
        assert write.data == bytes.fromhex("deadbeef")
        assert write.column == 5

    def test_write_with_repeat_data(self):
        program = assemble("WRROW 0 0 0 0xAA*32")
        (write,) = program.instructions
        assert write.data == b"\xaa" * 32

    def test_comments_and_blank_lines_ignored(self):
        program = assemble("\n# hi\n  \nWAIT 1 # trailing\n")
        assert len(program.instructions) == 1

    def test_case_insensitive_mnemonics(self):
        program = assemble("act 0 0 0 1\npre 0 0 0")
        assert isinstance(program.instructions[0], isa.Act)


class TestAssembleErrors:
    @pytest.mark.parametrize("text", [
        "FROB 1 2 3",
        "ACT 0 0 0",            # missing operand
        "ACT 0 0 0 1 2",        # extra operand
        "WAIT -5",
        "LOOP 10",              # unclosed
        "ENDLOOP",              # unopened
        "WR 0 0 0 0 0xABC",     # odd hex digits
        "WR 0 0 0 0 zzz",       # unparsable data
    ])
    def test_malformed_input_raises(self, text):
        with pytest.raises(AssemblyError):
            assemble(text)

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblyError, match="line 2"):
            assemble("WAIT 1\nBOGUS 2")


class TestRoundTrip:
    def build_reference(self):
        builder = ProgramBuilder()
        builder.act(0, 0, 0, 41)
        builder.wr_row(0, 0, 0, b"\x55" * 16)
        builder.pre(0, 0, 0)
        with builder.loop(128):
            builder.act(0, 0, 0, 40)
            builder.pre(0, 0, 0)
            builder.act(0, 0, 0, 42)
            builder.pre(0, 0, 0)
        builder.ref(0, 0)
        builder.act(0, 0, 0, 43)
        builder.rd(0, 0, 0, 7)
        builder.rd_row(0, 0, 0)
        builder.wr(0, 0, 0, 1, b"\x01\x02\x03")
        builder.pre_all(0, 0)
        builder.wait(99)
        return builder.build()

    def test_disassemble_assemble_roundtrip(self):
        program = self.build_reference()
        assert assemble(disassemble(program)) == program

    def test_disassembly_is_indented(self):
        text = disassemble(self.build_reference())
        assert "\n  ACT" in text  # loop body indented
        assert text.startswith("ACT 0 0 0 41")

    def test_repeat_syntax_used_for_uniform_data(self):
        text = disassemble(self.build_reference())
        assert "0x55*16" in text


class TestGeneratorRoundTrip:
    """assemble(disassemble(p)) == p for every shipped program generator.

    The assembly text is the archival/debug format for test programs
    (and the input format of ``repro lint program``), so it must be a
    lossless encoding of everything the experiment layer generates.
    """

    VICTIM = DramAddress(channel=0, pseudo_channel=0, bank=0, row=100)

    @pytest.mark.parametrize("count", [0, 1, 7, 4096, 256 * 1024])
    def test_hammer_programs(self, count):
        program = build_hammer_program(self.VICTIM, (99, 101), count)
        assert assemble(disassemble(program)) == program

    @pytest.mark.parametrize("extra", [0, 1, 37])
    def test_rowpress_programs(self, extra):
        program = build_hammer_program(self.VICTIM, (99, 101), 64, extra)
        assert assemble(disassemble(program)) == program

    def test_refresh_interleaved_shape(self):
        builder = ProgramBuilder()
        with builder.loop(10):
            with builder.loop(64):
                builder.act(0, 0, 0, 99)
                builder.pre(0, 0, 0)
            builder.ref(0, 0)
        program = builder.build()
        assert assemble(disassemble(program)) == program

    def test_empty_write_payload(self):
        # b"" disassembles to a bare "0x"; it must parse back to b"".
        program = Program((isa.Act(0, 0, 0, 1), isa.WrRow(0, 0, 0, b""),
                           isa.Wr(0, 0, 0, 3, b""), isa.Pre(0, 0, 0)))
        assert assemble(disassemble(program)) == program

    @given(program=random_programs())
    @settings(max_examples=50, deadline=None)
    def test_random_programs(self, program):
        assert assemble(disassemble(program)) == program
