"""Tests for repro.core.rowdata."""

import numpy as np
import pytest

from repro.core.rowdata import (
    bit_error_rate,
    byte_fill_bits,
    count_flips,
    flip_positions,
    flip_report,
)
from repro.errors import AnalysisError


class TestFill:
    def test_byte_fill_bits_zeros(self):
        assert byte_fill_bits(0x00, 4).sum() == 0

    def test_byte_fill_bits_ones(self):
        assert byte_fill_bits(0xFF, 4).sum() == 32

    def test_byte_fill_bits_pattern(self):
        bits = byte_fill_bits(0x55, 1)
        assert list(bits) == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_bad_byte_rejected(self):
        with pytest.raises(AnalysisError):
            byte_fill_bits(256, 4)


class TestCounting:
    def test_count_flips(self):
        read = np.array([0, 1, 1, 0], dtype=np.uint8)
        expected = np.array([0, 0, 1, 1], dtype=np.uint8)
        assert count_flips(read, expected) == 2

    def test_flip_positions(self):
        read = np.array([0, 1, 1, 0], dtype=np.uint8)
        expected = np.array([0, 0, 1, 1], dtype=np.uint8)
        assert list(flip_positions(read, expected)) == [1, 3]

    def test_shape_mismatch_raises(self):
        with pytest.raises(AnalysisError):
            count_flips(np.zeros(3, dtype=np.uint8),
                        np.zeros(4, dtype=np.uint8))

    def test_ber(self):
        assert bit_error_rate(82, 8192) == pytest.approx(0.01, abs=1e-4)

    def test_ber_bounds(self):
        with pytest.raises(AnalysisError):
            bit_error_rate(-1, 8192)
        with pytest.raises(AnalysisError):
            bit_error_rate(9000, 8192)
        with pytest.raises(AnalysisError):
            bit_error_rate(1, 0)


class TestReport:
    def test_flip_report_directions(self):
        read = np.array([1, 0, 1, 0], dtype=np.uint8)
        expected = np.array([0, 1, 1, 0], dtype=np.uint8)
        report = flip_report(read, expected)
        assert report.flips == 2
        assert report.zero_to_one_count == 1  # position 0 read 1
        assert report.one_to_zero_count == 1  # position 1 read 0
        assert report.ber == pytest.approx(0.5)

    def test_clean_report(self):
        bits = np.ones(8, dtype=np.uint8)
        report = flip_report(bits, bits.copy())
        assert report.flips == 0
        assert report.ber == 0.0
