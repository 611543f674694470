"""Tests for repro.dram.cellmodel."""

import numpy as np
import pytest

from repro.dram.calibration import default_profile
from repro.dram.cellmodel import (
    CUTOFF_WEAK_MEDIANS,
    ECC_PARITY_BITS,
    ECC_WORD_BITS,
    GroundTruthProvider,
)
from repro.dram.geometry import Geometry
from repro.dram.subarrays import SubarrayLayout
from repro.obs import MetricsRegistry, use_metrics

from tests.dram.dense_truth import dense_row, unbounded


@pytest.fixture
def provider():
    geometry = Geometry()
    return GroundTruthProvider(geometry, default_profile(),
                               SubarrayLayout.paper_default(geometry.rows),
                               seed=42)


def assert_same_prefix(first, second):
    assert first.cutoff == second.cutoff
    assert np.array_equal(first.cells, second.cells)
    assert np.array_equal(first.keys, second.keys)
    assert np.array_equal(first.charged, second.charged)


class TestDeterminism:
    def test_same_cell_same_properties(self, provider):
        """Like silicon: re-reading a row's ground truth never changes it."""
        first = provider.row(0, 0, 0, 5000)
        assert provider.row(0, 0, 0, 5000) is first
        dense = dense_row(provider, 0, 0, 0, 5000)
        again = dense_row(provider, 0, 0, 0, 5000)
        assert np.array_equal(dense.thresholds, again.thresholds)
        assert np.array_equal(dense.true_cell, again.true_cell)
        assert np.array_equal(dense.retention_s, again.retention_s)

    def test_widened_row_equals_a_fresh_wide_sample(self, provider):
        """A row sampled at its initial cutoffs and then widened holds
        exactly what a fresh sample at the wider cutoffs holds, and its
        kept cells carry their dense properties."""
        narrow = provider.row(0, 0, 0, 100)
        reach = 3.0 * narrow.hammer.cutoff
        retention_reach = 5.0 * narrow.retention.cutoff
        wide = provider.row(0, 0, 0, 100, reach, retention_reach)
        assert wide.hammer.cutoff == reach
        assert wide.retention.cutoff == retention_reach
        fresh = provider._sample_row(0, 0, 0, 100, reach, retention_reach)
        assert np.array_equal(wide.orientation, narrow.orientation)
        assert_same_prefix(wide.hammer, fresh.hammer)
        assert_same_prefix(wide.retention, fresh.retention)
        dense = dense_row(provider, 0, 0, 0, 100)
        for prefix, values in ((wide.hammer, dense.thresholds),
                               (wide.retention, dense.retention_s)):
            assert np.array_equal(prefix.keys, values[prefix.cells])
            assert np.array_equal(prefix.charged,
                                  dense.true_cell[prefix.cells])
            # Exactly the cells at or below the cutoff, ascending.
            assert np.all(np.diff(prefix.keys) >= 0)
            assert len(prefix.cells) == int((values <= prefix.cutoff).sum())
        # The narrow row's cells are the wide row's leading cells.
        count = len(narrow.hammer.cells)
        assert np.array_equal(np.sort(narrow.hammer.cells),
                              np.sort(wide.hammer.cells[:count]))

    def test_different_rows_differ(self, provider):
        assert not np.array_equal(dense_row(provider, 0, 0, 0, 100).thresholds,
                                  dense_row(provider, 0, 0, 0, 101).thresholds)

    def test_different_seeds_differ(self):
        geometry = Geometry()
        layout = SubarrayLayout.paper_default(geometry.rows)
        provider_a = GroundTruthProvider(geometry, default_profile(),
                                         layout, seed=1)
        provider_b = GroundTruthProvider(geometry, default_profile(),
                                         layout, seed=2)
        assert not np.array_equal(
            dense_row(provider_a, 0, 0, 0, 0).thresholds,
            dense_row(provider_b, 0, 0, 0, 0).thresholds)


class TestWidening:
    def test_reach_within_the_cutoff_keeps_the_row(self, provider):
        registry = MetricsRegistry()
        with use_metrics(registry):
            truth = provider.row(0, 0, 0, 7)
            assert provider.row(0, 0, 0, 7, truth.hammer.cutoff,
                                truth.retention.cutoff) is truth
        assert "dram.truth.widened" not in registry.snapshot()["counters"]

    def test_widening_at_least_doubles_and_is_counted(self, provider):
        registry = MetricsRegistry()
        with use_metrics(registry):
            truth = provider.row(0, 0, 0, 7)
            cutoff = truth.hammer.cutoff
            wider = provider.row(0, 0, 0, 7, 1.01 * cutoff)
            assert wider.hammer.cutoff == 2.0 * cutoff
            assert wider.retention.cutoff == truth.retention.cutoff
            assert provider.row(0, 0, 0, 7) is wider
        assert registry.snapshot()["counters"]["dram.truth.widened"] == 1

    def test_initial_cutoff_follows_the_profile(self, provider):
        truth = provider.row(0, 0, 0, 7)
        assert truth.hammer.cutoff == \
            CUTOFF_WEAK_MEDIANS * default_profile().weak_median

    def test_stored_hbm2_row_is_at_most_8_kb(self, provider):
        """Channel 7 holds the densest weak cells of the hbm2 profile."""
        for row in range(4000, 4200, 20):
            truth = provider.row(7, 0, 0, row)
            stored = truth.orientation.nbytes + sum(
                prefix.cells.nbytes + prefix.keys.nbytes +
                prefix.charged.nbytes
                for prefix in (truth.hammer, truth.retention))
            assert stored <= 8 * 1024


class TestShapes:
    def test_cells_cover_data_plus_parity(self, provider):
        geometry = Geometry()
        words = geometry.row_bits // ECC_WORD_BITS
        expected = geometry.row_bits + words * ECC_PARITY_BITS
        assert provider.cells_per_row == expected
        truth = unbounded(provider, 0, 0, 0, 0)
        for prefix in (truth.hammer, truth.retention):
            assert np.array_equal(np.sort(prefix.cells), np.arange(expected))
        assert truth.orientation.shape == ((expected + 7) // 8,)

    def test_arrays_are_read_only(self, provider):
        truth = provider.row(0, 0, 0, 0)
        with pytest.raises(ValueError):
            truth.hammer.keys[0] = 1.0
        with pytest.raises(ValueError):
            truth.orientation[0] = 1

    def test_charged_values_match_orientation(self, provider):
        truth = provider.row(0, 0, 0, 0)
        true_cell = np.unpackbits(truth.orientation,
                                  count=provider.cells_per_row)
        for prefix in (truth.hammer, truth.retention):
            assert np.array_equal(prefix.charged, true_cell[prefix.cells])


class TestDistributions:
    def test_thresholds_respect_the_floor(self, provider):
        profile = default_profile()
        thresholds = dense_row(provider, 0, 0, 0, 5000).thresholds
        orientation_min = min(profile.true_scale_for(0),
                              profile.anti_scale_for(0))
        # The floor is scaled per row but never below ~60% of nominal.
        assert thresholds.min() > \
            profile.threshold_floor * orientation_min * 0.6

    def test_two_populations_visible(self, provider):
        """The weak/strong split should leave a wide gap in thresholds."""
        thresholds = np.sort(dense_row(provider, 0, 0, 0, 5000).thresholds)
        weak_count = int((thresholds < 5e6).sum())
        total = len(thresholds)
        assert 0.02 * total < weak_count < 0.15 * total

    def test_true_cell_fraction_near_profile(self, provider):
        profile = default_profile()
        fraction = dense_row(provider, 0, 0, 0, 5000).true_cell.mean()
        assert abs(fraction - profile.true_fraction_for(0)) < 0.05

    def test_channel_6_has_more_weak_cells_than_0(self, provider):
        counts = {}
        for channel in (0, 6):
            weak = 0
            for row in range(5000, 5010):
                thresholds = dense_row(provider, channel, 0, 0, row).thresholds
                weak += int((thresholds < 5e6).sum())
            counts[channel] = weak
        assert counts[6] > 1.5 * counts[0]

    def test_last_subarray_thresholds_are_higher(self, provider):
        interior = dense_row(provider, 0, 0, 0, 8000).thresholds
        final = dense_row(provider, 0, 0, 0, 16000).thresholds
        # Compare the weak tails (5th percentile).
        assert np.percentile(final, 5) > 2.0 * np.percentile(interior, 5)

    def test_retention_times_are_positive_seconds(self, provider):
        retention = dense_row(provider, 0, 0, 0, 0).retention_s
        assert retention.min() > 0.0
        # Median around the calibrated 30 s.
        assert 5.0 < np.median(retention) < 200.0


class TestPowerup:
    def test_powerup_is_discharged_everywhere(self, provider):
        true_cell = dense_row(provider, 0, 0, 0, 123).true_cell
        cells = provider.powerup_cells(0, 0, 0, 123)
        assert cells.dtype == np.uint8
        assert np.array_equal(cells, 1 - true_cell.astype(np.uint8))

    def test_powerup_is_deterministic(self, provider):
        first = provider.powerup_cells(0, 0, 0, 7)
        second = provider.powerup_cells(0, 0, 0, 7)
        assert np.array_equal(first, second)
