"""Tests for repro.dram.disturb."""

import pytest

from repro.dram.calibration import default_profile
from repro.dram.disturb import (SIDE_ABOVE, SIDE_BELOW, SIDE_DIRECT,
                                DisturbanceTracker)
from repro.dram.subarrays import SubarrayLayout


@pytest.fixture
def tracker():
    # Two 10-row subarrays: boundary between physical rows 9 and 10.
    return DisturbanceTracker(20, SubarrayLayout([10, 10]),
                              default_profile())


class TestActivationRecording:
    def test_distance_one_neighbors_get_full_weight(self, tracker):
        profile = default_profile()
        tracker.record_activation(5)
        assert tracker.get_sides(4) == (0.0, profile.blast_weight_1)
        assert tracker.get_sides(6) == (profile.blast_weight_1, 0.0)

    def test_distance_two_neighbors_get_small_weight(self, tracker):
        profile = default_profile()
        tracker.record_activation(5)
        assert tracker.get_sides(3) == (0.0, profile.blast_weight_2)
        assert tracker.get_sides(7) == (profile.blast_weight_2, 0.0)

    def test_aggressor_itself_unchanged(self, tracker):
        tracker.record_activation(5)
        assert tracker.get_total(5) == 0.0

    def test_counts_accumulate(self, tracker):
        tracker.record_activation(5)
        tracker.record_activation(5, count=9)
        assert tracker.get_sides(6)[SIDE_BELOW] == pytest.approx(10.0)

    def test_double_sided_pattern_sums_on_victim(self, tracker):
        tracker.record_activation(4, count=100)
        tracker.record_activation(6, count=100)
        below, above = tracker.get_sides(5)
        assert below == pytest.approx(100.0)
        assert above == pytest.approx(100.0)


class TestSubarrayIsolation:
    def test_disturbance_does_not_cross_boundary(self, tracker):
        """The physical basis of the paper's footnote-3 methodology."""
        tracker.record_activation(9)   # last row of subarray 0
        assert tracker.get_total(10) == 0.0
        assert tracker.get_total(8) > 0.0

    def test_distance_two_also_respects_boundary(self, tracker):
        tracker.record_activation(9)
        assert tracker.get_total(11) == 0.0

    def test_first_row_of_subarray_disturbs_upward_only(self, tracker):
        tracker.record_activation(10)
        assert tracker.get_total(9) == 0.0
        assert tracker.get_total(11) > 0.0

    def test_bank_edges_clip(self, tracker):
        tracker.record_activation(0)
        # No row below 0; only rows 1 and 2 receive disturbance.
        assert tracker.get_total(1) > 0
        assert sorted(tracker.rows()) == [1, 2]


class TestResets:
    def test_reset_clears_both_sides(self, tracker):
        tracker.record_activation(4)
        tracker.record_activation(6)
        tracker.reset(5)
        assert tracker.get_total(5) == 0.0

    def test_reset_range(self, tracker):
        for row in (2, 4, 6):
            tracker.record_activation(row, count=5)
        tracker.reset_range(0, 6)
        assert tracker.get_total(3) == 0.0
        assert tracker.get_total(5) == 0.0
        assert tracker.get_total(7) > 0.0

    def test_total_diagnostic(self, tracker):
        profile = default_profile()
        tracker.record_activation(5, count=10)
        expected = 10 * (2 * profile.blast_weight_1 +
                         2 * profile.blast_weight_2)
        assert tracker.total() == pytest.approx(expected)


class TestContributions:
    def test_contributions_report_sides(self, tracker):
        triples = tracker.contributions(5, count=2.0)
        by_victim = {(victim, side): amount
                     for victim, side, amount in triples}
        profile = default_profile()
        assert by_victim[(4, SIDE_ABOVE)] == pytest.approx(
            2.0 * profile.blast_weight_1)
        assert by_victim[(6, SIDE_BELOW)] == pytest.approx(
            2.0 * profile.blast_weight_1)

    def test_add_matches_record(self, tracker):
        other = DisturbanceTracker(20, SubarrayLayout([10, 10]),
                                   default_profile())
        tracker.record_activation(5, count=3.0)
        for victim, side, amount in other.contributions(5, count=3.0):
            other.add(victim, side, amount)
        for row in range(20):
            assert tracker.get_sides(row) == other.get_sides(row)


class TestBurstPlans:
    """A burst's ledger ops, repeated in closed form, equal stepping it."""

    @staticmethod
    def burst(tracker, factors):
        # Double-sided hammering of rows 4 and 6 with uneven RowPress
        # factors, a bulk add on victim 5, an inter-die dose, and the
        # aggressors' own restores.
        for factor in factors:
            tracker.reset(4)
            tracker.record_activation(4, factor)
            tracker.reset(6)
            tracker.record_activation(6, factor * 1.0000001)
        tracker.add(5, SIDE_BELOW, 37 * factors[-1])
        tracker.add_direct(5, 1e-3 * factors[0])
        tracker.reset(4)
        tracker.record_activation(4, factors[-1])

    @staticmethod
    def burst_ops(tracker, factors):
        """The same burst's ops as the device derives them from its
        schedule: a reset per ACT, :meth:`contributions` per PRE."""
        ops = []

        def activation(row, factor):
            ops.append((row, None, 0.0))
            ops.extend(tracker.contributions(row, factor))

        for factor in factors:
            activation(4, factor)
            activation(6, factor * 1.0000001)
        ops.append((5, SIDE_BELOW, 37 * factors[-1]))
        ops.append((5, SIDE_DIRECT, 1e-3 * factors[0]))
        activation(4, factors[-1])
        return ops

    @pytest.mark.parametrize("times", [2, 17, 5000])
    def test_repeat_equals_stepped(self, times):
        layout, profile = SubarrayLayout([10, 10]), default_profile()
        factors = (1.0173, 1.0000013, 0.99999991)
        stepped = DisturbanceTracker(20, layout, profile)
        closed = DisturbanceTracker(20, layout, profile)
        for tracker in (stepped, closed):
            tracker.add(5, SIDE_ABOVE, 0.3)  # pre-existing dose
        self.burst(closed, factors)
        plan = closed.burst_plan(self.burst_ops(closed, factors))
        closed.repeat_burst(plan, times - 1)
        for _ in range(times):
            self.burst(stepped, factors)
        # Bit-exact: the closed form makes the stepped float adds.
        assert closed._counts == stepped._counts
        assert {row for row, _ in plan.resets} == {4, 6}
        assert all(dose > 0 for dose in plan.doses)
