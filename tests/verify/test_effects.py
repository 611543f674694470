"""Tests for the abstract-effect analysis (repro.verify.effects)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bender import isa
from repro.bender.board import BenderBoard
from repro.bender.program import Program, ProgramBuilder
from repro.core.hammer import build_hammer_program
from repro.dram.address import DramAddress
from repro.verify import VerifyContext
from repro.verify.effects import (
    BurstOp,
    EffectSummary,
    HammerOp,
    IdleOp,
    PACING_JEDEC,
    PACING_THROTTLED,
    REASON_COLUMN_ACCESS,
    REASON_OPEN_ROW,
    REASON_PRECHARGE_ALL,
    REASON_TRR_WINDOW,
    REASON_TRUNCATED,
    REASON_VIOLATIONS,
    RefreshOp,
    RowReadOp,
    RowWriteOp,
    Unsummarizable,
    summarize_program,
)
from tests.conftest import SMALL_GEOMETRY, make_vulnerable_device

VICTIM = DramAddress(channel=0, pseudo_channel=0, bank=0, row=100)
AGGRESSORS = (99, 101)
ROW_BYTES = SMALL_GEOMETRY.row_bytes


def summary_of(program, **context_overrides):
    outcome = summarize_program(program,
                                VerifyContext(**context_overrides))
    assert isinstance(outcome, EffectSummary), outcome
    return outcome


def reason_of(program, **context_overrides):
    outcome = summarize_program(program,
                                VerifyContext(**context_overrides))
    assert isinstance(outcome, Unsummarizable), outcome
    return outcome.reason


def row_fill_program(rows, payload):
    builder = ProgramBuilder()
    for row in rows:
        builder.act(VICTIM.channel, VICTIM.pseudo_channel, VICTIM.bank,
                    row)
        builder.wr_row(VICTIM.channel, VICTIM.pseudo_channel, VICTIM.bank,
                       payload)
        builder.pre(VICTIM.channel, VICTIM.pseudo_channel, VICTIM.bank)
    return builder.build()


class TestShippedShapes:
    """Every shipped driver program family must summarize.

    These mirror the exact builder shapes of the hammer / BER /
    HC-first / RowPress / cross-channel / TRRespass drivers — the
    acceptance bar for zero ``engine.fastpath.fallbacks`` on the
    benchmark campaigns.
    """

    def test_neighborhood_fill(self):
        summary = summary_of(row_fill_program(range(96, 106),
                                              b"\xaa" * ROW_BYTES))
        assert len(summary.ops) == 10
        assert all(isinstance(op, RowWriteOp) for op in summary.ops)
        assert len(summary.writes) == 10
        assert summary.pacing == PACING_JEDEC

    def test_hammer_kernel(self):
        program = build_hammer_program(VICTIM, AGGRESSORS, 5000)
        summary = summary_of(program)
        assert summary.ops == (HammerOp(5000, (
            ("act", 0, 0, 0, 99), ("pre", 0, 0, 0),
            ("act", 0, 0, 0, 101), ("pre", 0, 0, 0))),)
        assert summary.act_total == 10_000
        assert summary.aggressor_rows == ((0, 0, 0, 99), (0, 0, 0, 101))
        assert summary.pacing == PACING_JEDEC

    def test_readback(self):
        builder = ProgramBuilder()
        builder.act(0, 0, 0, VICTIM.row)
        builder.rd_row(0, 0, 0)
        builder.pre(0, 0, 0)
        summary = summary_of(builder.build())
        assert summary.ops == (RowReadOp(0, 0, 0, VICTIM.row),)
        assert summary.reads == (((0, 0, 0, VICTIM.row), 1),)

    def test_rowpress_throttled(self):
        program = build_hammer_program(VICTIM, AGGRESSORS, 2000,
                                       open_cycles=64)
        summary = summary_of(program, allow_retention_decay=True)
        assert summary.pacing == PACING_THROTTLED
        (hammer,) = summary.ops
        assert ("wait", 64) in hammer.steps

    def test_rowpress_zero_wait_is_jedec(self):
        program = build_hammer_program(VICTIM, AGGRESSORS, 2000,
                                       open_cycles=0)
        assert summary_of(program).pacing == PACING_JEDEC

    def test_cross_channel_idle_arm(self):
        builder = ProgramBuilder()
        builder.wait(500_000)
        summary = summary_of(builder.build(),
                             allow_retention_decay=True)
        assert summary.ops == (IdleOp(500_000),)
        assert summary.act_total == 0

    def test_ber_refresh_interleaved(self):
        # The BER driver's shape: LOOP bursts { LOOP n { hammers } REF }.
        builder = ProgramBuilder()
        with builder.loop(12):
            with builder.loop(40):
                for row in AGGRESSORS:
                    builder.act(0, 0, 0, row)
                    builder.pre(0, 0, 0)
            builder.ref(0, 0)
        summary = summary_of(builder.build())
        (burst,) = summary.ops
        assert isinstance(burst, BurstOp)
        assert burst.iterations == 12
        assert summary.act_counts == (((0, 0, 0, 99), 480),
                                      ((0, 0, 0, 101), 480))
        assert summary.ref_counts == (((0, 0), 12),)
        assert summary.ref_interval_cycles is not None

    def test_trrespass_decoy_shape(self):
        # Burst + decoy ACT/PRE + REF per round, remainder tail.
        builder = ProgramBuilder()
        with builder.loop(20):
            with builder.loop(30):
                for row in AGGRESSORS:
                    builder.act(0, 0, 0, row)
                    builder.pre(0, 0, 0)
            builder.act(0, 0, 0, 612)
            builder.pre(0, 0, 0)
            builder.ref(0, 0)
        with builder.loop(17):
            for row in AGGRESSORS:
                builder.act(0, 0, 0, row)
                builder.pre(0, 0, 0)
        summary = summary_of(builder.build())
        assert dict(summary.act_counts) == {(0, 0, 0, 99): 617,
                                            (0, 0, 0, 101): 617,
                                            (0, 0, 0, 612): 20}
        # The decoy is hammered 20 times — an aggressor in its own right.
        assert (0, 0, 0, 612) in summary.aggressor_rows
        assert summary.trr_exposed  # 20 REFs >= the 17-REF sampler period


class TestMutationCorpus:
    """A mutated program must shift its summary or go Unsummarizable —
    never keep the original's."""

    def _base(self):
        return build_hammer_program(VICTIM, AGGRESSORS, 1000)

    def test_extra_act_changes_counts(self):
        base = summary_of(self._base())
        builder = ProgramBuilder()
        with builder.loop(1000):
            for row in AGGRESSORS:
                builder.act(0, 0, 0, row)
                builder.pre(0, 0, 0)
        builder.act(0, 0, 0, AGGRESSORS[0])
        builder.pre(0, 0, 0)
        mutated = summary_of(builder.build())
        assert mutated != base
        assert dict(mutated.act_counts)[(0, 0, 0, 99)] == 1001

    def test_reordered_pre_is_rejected(self):
        # PRE before its ACT inside the loop body: the first iteration's
        # ACT is left open at the loop (and program) boundary.
        body = (isa.Pre(0, 0, 0), isa.Act(0, 0, 0, 99))
        program = Program((isa.Loop(1000, body), isa.Pre(0, 0, 0)))
        outcome = summarize_program(program, VerifyContext())
        assert isinstance(outcome, Unsummarizable)

    def test_off_pace_wait_changes_pacing(self):
        base = summary_of(self._base())
        assert base.pacing == PACING_JEDEC
        builder = ProgramBuilder()
        with builder.loop(1000):
            for row in AGGRESSORS:
                builder.act(0, 0, 0, row)
                builder.wait(200)  # stretches aggressor-on time
                builder.pre(0, 0, 0)
        mutated = summary_of(builder.build(), allow_retention_decay=True)
        assert mutated.pacing == PACING_THROTTLED
        assert mutated != base

    def test_misdeclared_hammer_count_is_violations(self):
        expected = {(0, 0, 0, row): 999 for row in AGGRESSORS}
        outcome = summarize_program(
            self._base(), VerifyContext(expected_hammers=expected))
        assert isinstance(outcome, Unsummarizable)
        assert outcome.reason == REASON_VIOLATIONS

    def test_dropped_iteration_changes_summary(self):
        assert (summary_of(build_hammer_program(VICTIM, AGGRESSORS, 999))
                != summary_of(self._base()))


class TestUnsummarizableTaxonomy:
    def test_column_access(self):
        program = Program((isa.Act(0, 0, 0, 5), isa.Rd(0, 0, 0, 0),
                           isa.Pre(0, 0, 0)))
        assert reason_of(program) == REASON_COLUMN_ACCESS

    def test_precharge_all(self):
        program = Program((isa.Act(0, 0, 0, 5), isa.PreA(0, 0)))
        assert reason_of(program) == REASON_PRECHARGE_ALL

    def test_open_row(self):
        program = Program((isa.Act(0, 0, 0, 5), isa.Ref(0, 1)))
        assert reason_of(program) == REASON_OPEN_ROW

    def test_violations(self):
        program = Program((isa.Act(0, 0, 0, 5), isa.Act(0, 0, 0, 6),
                           isa.Pre(0, 0, 0)))
        assert reason_of(program) == REASON_VIOLATIONS

    def test_truncated(self):
        program = build_hammer_program(VICTIM, AGGRESSORS, 50)
        assert reason_of(program, step_budget=10) == REASON_TRUNCATED

    def test_trr_window(self):
        builder = ProgramBuilder()
        with builder.loop(20):
            with builder.loop(10):
                builder.act(0, 0, 0, 99)
                builder.pre(0, 0, 0)
            builder.ref(0, 0)
        program = builder.build()
        assert reason_of(program,
                         assume_trr_escaped=True) == REASON_TRR_WINDOW
        # Without the escape assumption the same program summarizes,
        # flagged as TRR-exposed.
        assert summary_of(program).trr_exposed

    def test_render_names_the_reason(self):
        rendered = Unsummarizable(REASON_COLUMN_ACCESS, "x[3]").render()
        assert REASON_COLUMN_ACCESS in rendered and "x[3]" in rendered


class TestSerialization:
    def _roundtrip(self, summary):
        return EffectSummary.from_dict(summary.to_dict())

    def test_hammer_roundtrip(self):
        summary = summary_of(build_hammer_program(VICTIM, AGGRESSORS,
                                                  4096))
        assert self._roundtrip(summary) == summary

    def test_nested_burst_roundtrip(self):
        builder = ProgramBuilder()
        with builder.loop(5):
            with builder.loop(8):
                builder.act(0, 0, 0, 99)
                builder.pre(0, 0, 0)
            builder.ref(0, 0)
        builder.act(0, 0, 0, 7)
        builder.wr_row(0, 0, 0, b"\x55" * ROW_BYTES)
        builder.pre(0, 0, 0)
        summary = summary_of(builder.build())
        assert self._roundtrip(summary) == summary

    def test_json_compatible(self):
        import json
        summary = summary_of(row_fill_program([3, 4], b"\x00" * ROW_BYTES))
        encoded = json.dumps(summary.to_dict())
        assert EffectSummary.from_dict(json.loads(encoded)) == summary


def interpreted_act_counts(program):
    """Per-row ACT counts of a real interpreted execution."""
    board = BenderBoard(make_vulnerable_device(seed=3))
    device = board.host.device
    counts = {}
    real_activate = device.activate
    real_bulk = device.bulk_activations

    def counting_activate(channel, pseudo_channel, bank, row):
        key = (channel, pseudo_channel, bank, row)
        counts[key] = counts.get(key, 0) + 1
        return real_activate(channel, pseudo_channel, bank, row)

    def counting_bulk(body, iterations, total_cycles):
        for channel, pseudo_channel, bank, row in body:
            key = (channel, pseudo_channel, bank, row)
            counts[key] = counts.get(key, 0) + iterations
        return real_bulk(body, iterations, total_cycles)

    device.activate = counting_activate
    device.bulk_activations = counting_bulk
    board.host.run(program)
    return counts


class TestActCountProperty:
    """The summary's per-row ACT counts equal the interpreted stream's."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(iterations=st.integers(min_value=1, max_value=40),
           aggressors=st.lists(
               st.integers(min_value=1, max_value=60).map(lambda r: 2 * r),
               min_size=1, max_size=3, unique=True),
           tail=st.integers(min_value=0, max_value=3),
           wait=st.sampled_from([0, 0, 32]))
    def test_matches_interpreter(self, iterations, aggressors, tail, wait):
        builder = ProgramBuilder()
        with builder.loop(iterations):
            for row in aggressors:
                builder.act(0, 0, 0, row)
                if wait:
                    builder.wait(wait)
                builder.pre(0, 0, 0)
        for _ in range(tail):
            builder.act(0, 0, 0, aggressors[0])
            builder.pre(0, 0, 0)
        program = builder.build()
        summary = summary_of(program, allow_retention_decay=True)
        assert dict(summary.act_counts) == interpreted_act_counts(program)

    def test_matches_interpreter_across_loop_split(self):
        # Straddles the interpreter's bulk threshold: warm-up + bulk +
        # cool-down iterations must still sum to the static count.
        program = build_hammer_program(VICTIM, AGGRESSORS, 500)
        summary = summary_of(program)
        assert dict(summary.act_counts) == interpreted_act_counts(program)
