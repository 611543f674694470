"""Tests for repro.dram.cellmodel."""

import numpy as np
import pytest

from repro.dram.calibration import default_profile
from repro.dram.cellmodel import (
    ECC_PARITY_BITS,
    ECC_WORD_BITS,
    GroundTruthProvider,
)
from repro.dram.geometry import Geometry
from repro.dram.subarrays import SubarrayLayout


@pytest.fixture
def provider():
    geometry = Geometry()
    return GroundTruthProvider(geometry, default_profile(),
                               SubarrayLayout.paper_default(geometry.rows),
                               seed=42)


class TestDeterminism:
    def test_same_cell_same_properties(self, provider):
        """Like silicon: re-reading a row's ground truth never changes it."""
        first = provider.row(0, 0, 0, 5000)
        second = provider.row(0, 0, 0, 5000)
        assert np.array_equal(first.thresholds, second.thresholds)
        assert np.array_equal(first.true_cell, second.true_cell)
        assert np.array_equal(first.retention_s, second.retention_s)

    def test_survives_cache_eviction(self):
        geometry = Geometry()
        provider = GroundTruthProvider(
            geometry, default_profile(),
            SubarrayLayout.paper_default(geometry.rows), seed=42,
            cache_rows=2)
        before = provider.row(0, 0, 0, 100).thresholds.copy()
        provider.row(0, 0, 0, 101)
        provider.row(0, 0, 0, 102)  # evicts row 100
        after = provider.row(0, 0, 0, 100).thresholds
        assert np.array_equal(before, after)

    def test_different_rows_differ(self, provider):
        assert not np.array_equal(provider.row(0, 0, 0, 100).thresholds,
                                  provider.row(0, 0, 0, 101).thresholds)

    def test_different_seeds_differ(self):
        geometry = Geometry()
        layout = SubarrayLayout.paper_default(geometry.rows)
        provider_a = GroundTruthProvider(geometry, default_profile(),
                                         layout, seed=1)
        provider_b = GroundTruthProvider(geometry, default_profile(),
                                         layout, seed=2)
        assert not np.array_equal(provider_a.row(0, 0, 0, 0).thresholds,
                                  provider_b.row(0, 0, 0, 0).thresholds)


class TestShapes:
    def test_cells_cover_data_plus_parity(self, provider):
        geometry = Geometry()
        words = geometry.row_bits // ECC_WORD_BITS
        expected = geometry.row_bits + words * ECC_PARITY_BITS
        assert provider.cells_per_row == expected
        truth = provider.row(0, 0, 0, 0)
        assert truth.thresholds.shape == (expected,)
        assert truth.true_cell.shape == (expected,)
        assert truth.retention_s.shape == (expected,)

    def test_arrays_are_read_only(self, provider):
        truth = provider.row(0, 0, 0, 0)
        with pytest.raises(ValueError):
            truth.thresholds[0] = 1.0

    def test_charged_values_match_orientation(self, provider):
        truth = provider.row(0, 0, 0, 0)
        assert np.array_equal(truth.charged_values,
                              truth.true_cell.astype(np.uint8))


class TestDistributions:
    def test_thresholds_respect_the_floor(self, provider):
        profile = default_profile()
        truth = provider.row(0, 0, 0, 5000)
        orientation_min = min(profile.true_scale_for(0),
                              profile.anti_scale_for(0))
        # The floor is scaled per row but never below ~60% of nominal.
        assert truth.thresholds.min() > \
            profile.threshold_floor * orientation_min * 0.6

    def test_two_populations_visible(self, provider):
        """The weak/strong split should leave a wide gap in thresholds."""
        truth = provider.row(0, 0, 0, 5000)
        thresholds = np.sort(truth.thresholds)
        weak_count = int((thresholds < 5e6).sum())
        total = len(thresholds)
        assert 0.02 * total < weak_count < 0.15 * total

    def test_true_cell_fraction_near_profile(self, provider):
        profile = default_profile()
        truth = provider.row(0, 0, 0, 5000)
        fraction = truth.true_cell.mean()
        assert abs(fraction - profile.true_fraction_for(0)) < 0.05

    def test_channel_6_has_more_weak_cells_than_0(self, provider):
        counts = {}
        for channel in (0, 6):
            weak = 0
            for row in range(5000, 5010):
                truth = provider.row(channel, 0, 0, row)
                weak += int((truth.thresholds < 5e6).sum())
            counts[channel] = weak
        assert counts[6] > 1.5 * counts[0]

    def test_last_subarray_thresholds_are_higher(self, provider):
        interior = provider.row(0, 0, 0, 8000).thresholds
        final = provider.row(0, 0, 0, 16000).thresholds
        # Compare the weak tails (5th percentile).
        assert np.percentile(final, 5) > 2.0 * np.percentile(interior, 5)

    def test_retention_times_are_positive_seconds(self, provider):
        truth = provider.row(0, 0, 0, 0)
        assert truth.retention_s.min() > 0.0
        # Median around the calibrated 30 s.
        assert 5.0 < np.median(truth.retention_s) < 200.0


class TestPowerup:
    def test_powerup_is_discharged_everywhere(self, provider):
        truth = provider.row(0, 0, 0, 123)
        cells = provider.powerup_cells(0, 0, 0, 123)
        assert np.array_equal(cells, 1 - truth.charged_values)

    def test_powerup_is_deterministic(self, provider):
        first = provider.powerup_cells(0, 0, 0, 7)
        second = provider.powerup_cells(0, 0, 0, 7)
        assert np.array_equal(first, second)
