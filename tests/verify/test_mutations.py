"""Seeded mutation corpus for the static verifier.

Each case pairs a protocol/timing-clean base program with a single
deliberate mutation (drop a PRE, shrink a Wait below tRAS, squeeze a
fifth ACT inside the tFAW window, stretch the REF cadence past tREFW,
lie about the hammer count) and asserts the verifier flags exactly the
injected defect — and nothing on the unmutated base.  A second suite
asserts every program the repo actually ships or generates verifies
completely clean.
"""

import pytest

from repro.bender.program import Program, ProgramBuilder
from repro.core.hammer import build_hammer_program
from repro.dram.address import DramAddress
from repro.dram.timing import TimingParameters
from repro.verify import (
    HAMMER_COUNT_MISMATCH,
    PROTOCOL_VIOLATION,
    REFRESH_STARVATION,
    TIMING_VIOLATION,
    VerifyContext,
    verify_program,
)

VICTIM = DramAddress(channel=0, pseudo_channel=0, bank=0, row=100)


def diagnostics_of(program, context=None):
    return verify_program(program, context).diagnostics


class TestDroppedPre:
    """Mutation: delete the PRE between two ACTs to the same bank."""

    def _build(self, drop_pre):
        builder = ProgramBuilder()
        builder.act(0, 0, 0, 99)
        if not drop_pre:
            builder.pre(0, 0, 0)
        builder.act(0, 0, 0, 101)
        builder.pre(0, 0, 0)
        return builder.build(verify=False)

    def test_base_is_clean(self):
        assert not diagnostics_of(self._build(drop_pre=False))

    def test_mutant_flagged(self):
        (diagnostic,) = diagnostics_of(self._build(drop_pre=True))
        assert diagnostic.kind == PROTOCOL_VIOLATION
        assert "missing PRE" in diagnostic.message


class TestWaitBelowTras:
    """Mutation: shrink the as-written ACT-to-PRE gap below tRAS."""

    STRICT = VerifyContext(assume_scheduler=False)

    def _build(self, wait_cycles):
        builder = ProgramBuilder()
        builder.act(0, 0, 0, 99)
        builder.wait(wait_cycles)
        builder.pre(0, 0, 0)
        return builder.build()

    def test_base_is_clean(self):
        # ACT occupies one bus cycle, so tRAS - 1 wait cycles suffice.
        base = self._build(TimingParameters().ras_cycles - 1)
        assert not diagnostics_of(base, self.STRICT)

    def test_mutant_flagged(self):
        (diagnostic,) = diagnostics_of(self._build(10), self.STRICT)
        assert diagnostic.kind == TIMING_VIOLATION
        assert diagnostic.constraint == "tRAS"


class TestFifthActInFawWindow:
    """Mutation: tighten ACT spacing so a 5th ACT lands inside tFAW.

    The default tFAW never binds (faw_cycles == 3 x rrd_cycles), so the
    corpus uses an exaggerated t_faw = 30 ns -> 19 cycles to make the
    rolling four-ACT window observable.
    """

    STRICT = VerifyContext(timing=TimingParameters(t_faw=30.0),
                           assume_scheduler=False)

    def _build(self, gap_cycles):
        builder = ProgramBuilder()
        for bank in range(5):
            builder.act(0, 0, bank, 50)
            builder.wait(gap_cycles)
        builder.wait(40)
        for bank in range(5):
            builder.pre(0, 0, bank)
            builder.wait(40)
        return builder.build()

    def test_base_is_clean(self):
        # ACTs land at 0, 7, 14, 21, 28: the 5th starts a new window
        # (21 - 0 >= 19 already closed the first one).
        assert not diagnostics_of(self._build(6), self.STRICT)

    def test_mutant_flagged(self):
        # ACTs attempt 0, 3, 6, 9: the 4th sits well inside the
        # 19-cycle window opened by the 1st.
        diagnostics = diagnostics_of(self._build(2), self.STRICT)
        assert [d.kind for d in diagnostics] == [TIMING_VIOLATION]
        assert diagnostics[0].constraint == "tFAW"


class TestStretchedRefCadence:
    """Mutation: grow the hammer burst between REFs past tREFW."""

    def _build(self, burst):
        builder = ProgramBuilder()
        with builder.loop(2):
            with builder.loop(burst):
                builder.act(0, 0, 0, 99)
                builder.pre(0, 0, 0)
            builder.ref(0, 0)
        return builder.build()

    def test_base_is_clean(self):
        # 600K x tRC(30) = 18M cycles between REFs, inside tREFW (19.2M).
        assert not diagnostics_of(self._build(600_000))

    def test_mutant_flagged(self):
        # 700K x tRC(30) = 21M cycles: the window overruns tREFW.
        (diagnostic,) = diagnostics_of(self._build(700_000))
        assert diagnostic.kind == REFRESH_STARVATION
        assert "without REF" in diagnostic.message


class TestDeclaredHammerCount:
    """Mutation: the experiment declares one hammer more than it runs."""

    def _context(self, declared):
        return VerifyContext(expected_hammers={
            (0, 0, 0, 99): declared, (0, 0, 0, 101): declared})

    def test_base_is_clean(self):
        program = build_hammer_program(VICTIM, (99, 101), 5000)
        assert not diagnostics_of(program, self._context(5000))

    def test_mutant_flagged(self):
        program = build_hammer_program(VICTIM, (99, 101), 5000)
        diagnostics = diagnostics_of(program, self._context(5001))
        assert {d.kind for d in diagnostics} == {HAMMER_COUNT_MISMATCH}
        assert len(diagnostics) == 2  # both aggressors disagree


class TestShippedProgramsVerifyClean:
    """Every program generator the repo ships must verify spotless."""

    @pytest.mark.parametrize("hammer_count", [1, 128, 4096, 256 * 1024])
    def test_hammer_programs(self, hammer_count):
        program = build_hammer_program(VICTIM, (99, 101), hammer_count)
        report = verify_program(program, VerifyContext(
            expected_hammers={(0, 0, 0, 99): hammer_count,
                              (0, 0, 0, 101): hammer_count}))
        assert report.ok, report.render()

    def test_single_sided_hammer_program(self):
        program = build_hammer_program(VICTIM, (99,), 10_000)
        report = verify_program(program, VerifyContext(
            expected_hammers={(0, 0, 0, 99): 10_000}))
        assert report.ok, report.render()

    @pytest.mark.parametrize("extra_cycles", [0, 1, 37, 512])
    def test_rowpress_programs(self, extra_cycles):
        program = build_hammer_program(VICTIM, (99, 101), 2000,
                                       extra_cycles)
        report = verify_program(program, VerifyContext(
            allow_retention_decay=True))
        assert report.ok, report.render()

    def test_trr_bypass_shape(self):
        # The refresh-interleaved burst + decoy cadence TrrBypassAttack
        # emits (hammer bursts sized to tREFI, one decoy ACT, one REF).
        builder = ProgramBuilder()
        with builder.loop(8):
            with builder.loop(256):
                for row in (99, 101):
                    builder.act(0, 0, 0, row)
                    builder.pre(0, 0, 0)
            builder.act(0, 0, 0, 10)  # decoy
            builder.pre(0, 0, 0)
            builder.ref(0, 0)
        report = verify_program(builder.build(), VerifyContext(
            expected_hammers={(0, 0, 0, 99): 8 * 256,
                              (0, 0, 0, 101): 8 * 256,
                              (0, 0, 0, 10): 8}))
        assert report.ok, report.render()

    def test_program_builder_default_verification_accepts_them(self):
        # build(verify=True) is the default everywhere; a shipped
        # generator that produced a protocol violation would already
        # have raised inside build().  Spot-check the biggest one.
        program = build_hammer_program(VICTIM, (99, 101), 256 * 1024)
        assert isinstance(program, Program)
