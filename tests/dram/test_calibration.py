"""Tests for repro.dram.calibration."""

import pytest

from repro.dram.calibration import (
    CalibrationProfile,
    default_profile,
)
from repro.errors import CalibrationError


class TestDefaultProfile:
    def test_channels_come_in_die_pairs(self):
        profile = default_profile()
        fractions = profile.weak_fraction
        for die in range(4):
            first, second = fractions[2 * die], fractions[2 * die + 1]
            assert abs(first - second) / first < 0.05, \
                "die-pair channels should have near-identical densities"

    def test_channels_6_and_7_are_most_vulnerable(self):
        profile = default_profile()
        assert min(profile.weak_fraction[6:8]) > \
            max(profile.weak_fraction[:6])

    def test_weak_cells_are_a_small_minority(self):
        profile = default_profile()
        assert max(profile.weak_fraction) < 0.2

    def test_strong_cells_cannot_flip_in_budget(self):
        """Strong-population cells must sit far above any disturbance
        reachable within the 27 ms experiment budget (~560K ACTs)."""
        profile = default_profile()
        assert profile.strong_median > 20 * 560_000

    def test_accessors_per_channel(self):
        profile = default_profile()
        assert profile.weak_fraction_for(7) == profile.weak_fraction[7]
        assert profile.channel_scale(0) == 1.0

    def test_die_level_orientation_entries(self):
        profile = default_profile()
        assert profile.true_scale_for(0) == profile.true_scale_for(1)
        assert profile.true_scale_for(6) == profile.true_scale_for(7)
        assert profile.true_scale_for(0) != profile.true_scale_for(2)

    def test_out_of_range_channel_raises(self):
        profile = default_profile()
        with pytest.raises(CalibrationError):
            profile.channel_scale(8)
        with pytest.raises(CalibrationError):
            profile.weak_fraction_for(-1)


class TestSubarrayPositionScale:
    def test_middle_is_most_vulnerable(self):
        profile = default_profile()
        assert profile.subarray_position_scale(0.5) == pytest.approx(1.0)

    def test_edges_are_least_vulnerable(self):
        profile = default_profile()
        edge = profile.subarray_position_scale(0.0)
        assert edge == profile.subarray_position_scale(1.0)
        assert edge > 1.3

    def test_monotone_from_middle_to_edge(self):
        profile = default_profile()
        scales = [profile.subarray_position_scale(p)
                  for p in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
        assert scales == sorted(scales)


class TestTemperatureScaling:
    def test_reference_temperature_is_neutral(self):
        profile = default_profile()
        assert profile.temperature_threshold_scale(85.0) == pytest.approx(1.0)
        assert profile.retention_temperature_scale(85.0) == pytest.approx(1.0)

    def test_hotter_chips_flip_earlier(self):
        profile = default_profile()
        assert profile.temperature_threshold_scale(95.0) < 1.0

    def test_cooler_chips_retain_longer(self):
        profile = default_profile()
        assert profile.retention_temperature_scale(75.0) == pytest.approx(2.0)
        assert profile.retention_temperature_scale(65.0) == pytest.approx(4.0)

    def test_threshold_scale_never_reaches_zero(self):
        profile = default_profile()
        assert profile.temperature_threshold_scale(1000.0) > 0.0


class TestValidation:
    def test_weak_median_must_be_below_strong(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile(weak_median=1e8, strong_median=1e6)

    def test_weak_fraction_must_match_channels(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile(weak_fraction=(0.05, 0.05))

    def test_weak_fraction_must_be_probability(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile(weak_fraction=(1.5,) * 8)

    def test_negative_floor_rejected(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile(threshold_floor=-1)

    def test_droop_must_stay_below_one(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile(subarray_edge_droop=1.0)

    def test_blast_weights_ordered(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile(blast_weight_1=0.1, blast_weight_2=0.5)

    def test_same_bit_coupling_is_a_fraction(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile(same_bit_coupling=1.5)

    def test_last_subarray_scale_cannot_help(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile(last_subarray_scale=0.5)


class TestOverridesAndUniform:
    def test_with_overrides_returns_new_profile(self):
        profile = default_profile()
        modified = profile.with_overrides(threshold_floor=1000.0)
        assert modified.threshold_floor == 1000.0
        assert profile.threshold_floor != 1000.0
