"""Tests for repro.analysis.stats."""

import numpy as np
import pytest

from repro.analysis.stats import (
    box_stats,
    coefficient_of_variation,
    quartiles,
    relative_difference,
)
from repro.errors import AnalysisError


class TestQuartiles:
    def test_median_of_halves_convention(self):
        """Footnote 2: Q1/Q3 are medians of the ordered halves."""
        q1, median, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8])
        assert (q1, median, q3) == (2.5, 4.5, 6.5)

    def test_odd_count_excludes_median_from_halves(self):
        q1, median, q3 = quartiles([1, 2, 3, 4, 5])
        assert median == 3
        assert q1 == 1.5
        assert q3 == 4.5

    def test_single_value(self):
        assert quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_two_values(self):
        q1, median, q3 = quartiles([1.0, 3.0])
        assert median == 2.0
        assert q1 == 1.0
        assert q3 == 3.0

    def test_unsorted_input(self):
        assert quartiles([5, 1, 3, 2, 4]) == quartiles([1, 2, 3, 4, 5])

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            quartiles([])

    def test_nan_rejected_with_clear_error(self):
        with pytest.raises(AnalysisError, match="non-finite"):
            quartiles([1.0, float("nan"), 3.0])

    def test_non_1d_rejected(self):
        with pytest.raises(AnalysisError, match="1-D"):
            quartiles([[1.0, 2.0], [3.0, 4.0]])


class TestBoxStats:
    def test_full_summary(self):
        stats = box_stats([1, 2, 3, 4, 5, 6, 7, 8])
        assert stats.count == 8
        assert stats.minimum == 1
        assert stats.maximum == 8
        assert stats.mean == 4.5
        assert stats.iqr == 4.0

    def test_constant_distribution(self):
        stats = box_stats([3.0] * 10)
        assert stats.minimum == stats.maximum == stats.mean == 3.0
        assert stats.iqr == 0.0

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            box_stats([])


class TestCoefficientOfVariation:
    def test_known_value(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        expected = np.std(values) / np.mean(values)
        assert coefficient_of_variation(values) == pytest.approx(expected)

    def test_constant_data_has_zero_cv(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_zero_mean_raises(self):
        with pytest.raises(AnalysisError):
            coefficient_of_variation([1.0, -1.0])

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            coefficient_of_variation([])


class TestRelativeDifference:
    def test_paper_convention(self):
        """2.03x ratio <=> ~50.7% difference, and 79% <=> ~4.76x."""
        assert relative_difference(2.03, 1.0) == pytest.approx(0.507, abs=1e-3)
        assert relative_difference(1.0, 0.21) == pytest.approx(0.79)

    def test_zero_reference_raises(self):
        with pytest.raises(AnalysisError):
            relative_difference(0.0, 0.0)
