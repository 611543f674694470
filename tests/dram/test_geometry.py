"""Tests for repro.dram.geometry."""

import pytest

from repro.dram.calibration import default_profile
from repro.dram.geometry import Geometry
from repro.errors import AddressError, ConfigurationError


class TestDefaults:
    def test_paper_chip_dimensions(self):
        geometry = Geometry()
        assert geometry.channels == 8
        assert geometry.pseudo_channels == 2
        assert geometry.banks == 16
        assert geometry.rows == 16384
        assert geometry.columns == 32

    def test_stack_capacity_is_4gib(self):
        assert Geometry().stack_bytes == 4 * 1024 ** 3

    def test_row_is_1kib(self):
        geometry = Geometry()
        assert geometry.row_bytes == 1024
        assert geometry.row_bits == 8192

    def test_total_banks_is_256(self):
        geometry = Geometry()
        assert (geometry.channels * geometry.pseudo_channels
                * geometry.banks) == 256

    def test_eight_channels_make_four_dies(self):
        assert Geometry().dies == 4


class TestDieMapping:
    def test_channels_pair_onto_dies(self):
        """Per-die calibration entries pair channels onto dies."""
        profile = default_profile()
        scales = profile.true_cell_scale
        assert len(scales) == Geometry().dies
        assert profile.true_scale_for(0) == profile.true_scale_for(1) \
            == scales[0]
        assert profile.true_scale_for(6) == profile.true_scale_for(7) \
            == scales[3]


class TestValidation:
    def test_zero_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            Geometry(rows=0)

    def test_negative_banks_rejected(self):
        with pytest.raises(ConfigurationError):
            Geometry(banks=-1)

    def test_non_integer_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            Geometry(columns=1.5)

    def test_channels_must_divide_into_dies(self):
        with pytest.raises(ConfigurationError):
            Geometry(channels=7, channels_per_die=2)

    @pytest.mark.parametrize("method,value", [
        ("check_channel", 8),
        ("check_pseudo_channel", 2),
        ("check_bank", 16),
        ("check_row", 16384),
        ("check_column", 32),
    ])
    def test_range_checks_reject_one_past_end(self, method, value):
        geometry = Geometry()
        with pytest.raises(AddressError):
            getattr(geometry, method)(value)

    @pytest.mark.parametrize("method", [
        "check_channel", "check_pseudo_channel", "check_bank",
        "check_row", "check_column",
    ])
    def test_range_checks_reject_negative(self, method):
        geometry = Geometry()
        with pytest.raises(AddressError):
            getattr(geometry, method)(-1)

    def test_range_checks_accept_zero_and_max(self):
        geometry = Geometry()
        geometry.check_channel(0)
        geometry.check_channel(7)
        geometry.check_row(0)
        geometry.check_row(16383)


class TestCustomGeometry:
    def test_small_geometry_sizes(self):
        geometry = Geometry(channels=2, pseudo_channels=1, banks=2,
                                rows=256, columns=4, column_bytes=8)
        assert geometry.row_bytes == 32
        assert geometry.row_bits == 256
        assert geometry.bank_bytes == 256 * 32
