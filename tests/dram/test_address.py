"""Tests for repro.dram.address."""

import pytest

from repro.dram.address import DramAddress, RowAddressMapper
from repro.dram.geometry import Geometry
from repro.errors import AddressError, ConfigurationError


@pytest.fixture
def geometry():
    return Geometry()


class TestDramAddress:
    def test_with_row_preserves_bank_coordinates(self):
        address = DramAddress(3, 1, 9, 100, column=5)
        moved = address.with_row(200)
        assert moved == DramAddress(3, 1, 9, 200, column=5)

    def test_with_column(self):
        address = DramAddress(3, 1, 9, 100)
        assert address.with_column(7).column == 7

    def test_bank_key(self):
        assert DramAddress(3, 1, 9, 100).bank_key() == (3, 1, 9)

    def test_validate_accepts_in_range(self, geometry):
        DramAddress(7, 1, 15, 16383, 31).validate(geometry)

    @pytest.mark.parametrize("address", [
        DramAddress(8, 0, 0, 0),
        DramAddress(0, 2, 0, 0),
        DramAddress(0, 0, 16, 0),
        DramAddress(0, 0, 0, 16384),
        DramAddress(0, 0, 0, 0, 32),
    ])
    def test_validate_rejects_out_of_range(self, geometry, address):
        with pytest.raises(AddressError):
            address.validate(geometry)

    def test_str_is_readable(self):
        assert str(DramAddress(2, 1, 3, 42)) == "ch2.pc1.ba3.row42"

    def test_addresses_are_ordered(self):
        assert DramAddress(0, 0, 0, 1) < DramAddress(0, 0, 0, 2)


class TestDefaultMapper:
    def test_default_scheme_is_involution(self, geometry):
        mapper = RowAddressMapper(geometry)
        for row in list(range(64)) + [16000, 16383]:
            physical = mapper.logical_to_physical(row)
            assert mapper.physical_to_logical(physical) == row

    def test_default_scheme_scrambles_some_rows(self, geometry):
        mapper = RowAddressMapper(geometry)
        scrambled = [row for row in range(32)
                     if mapper.logical_to_physical(row) != row]
        assert scrambled, "default mapping should not be the identity"

    def test_default_scheme_preserves_16_row_blocks(self, geometry):
        mapper = RowAddressMapper(geometry)
        for row in range(64):
            assert mapper.logical_to_physical(row) // 16 == row // 16

    def test_identity_mapper(self, geometry):
        mapper = RowAddressMapper.identity(geometry)
        for row in range(0, 16384, 997):
            assert mapper.logical_to_physical(row) == row

    def test_row_out_of_range_raises(self, geometry):
        with pytest.raises(AddressError):
            RowAddressMapper(geometry).logical_to_physical(16384)


class TestNeighbors:
    def test_interior_row_has_two_neighbors(self, geometry):
        mapper = RowAddressMapper(geometry)
        neighbors = mapper.physical_neighbors(100)
        assert len(neighbors) == 2
        physical = mapper.logical_to_physical(100)
        for neighbor in neighbors:
            assert abs(mapper.logical_to_physical(neighbor) - physical) == 1

    def test_first_physical_row_has_one_neighbor(self, geometry):
        mapper = RowAddressMapper.identity(geometry)
        assert mapper.physical_neighbors(0) == [1]

    def test_last_physical_row_has_one_neighbor(self, geometry):
        mapper = RowAddressMapper.identity(geometry)
        assert mapper.physical_neighbors(16383) == [16382]

    def test_distance_two_neighbors(self, geometry):
        mapper = RowAddressMapper.identity(geometry)
        assert sorted(mapper.physical_neighbors(100, distance=2)) == [98, 102]

    def test_zero_distance_rejected(self, geometry):
        with pytest.raises(ConfigurationError):
            RowAddressMapper(geometry).physical_neighbors(100, distance=0)

    def test_scrambled_rows_have_nonobvious_neighbors(self, geometry):
        mapper = RowAddressMapper(geometry, control_bit=0x8,
                                  swizzle_mask=0x6)
        # Logical 8 maps to physical 8 ^ 6 = 14; neighbours are physical
        # 13 and 15, which map back to logical 11 and 9.
        assert sorted(mapper.physical_neighbors(8)) == [9, 11]


class TestMapperValidation:
    def test_control_bit_must_be_power_of_two(self, geometry):
        with pytest.raises(ConfigurationError):
            RowAddressMapper(geometry, control_bit=0x6, swizzle_mask=0x1)

    def test_mask_must_not_overlap_control(self, geometry):
        with pytest.raises(ConfigurationError):
            RowAddressMapper(geometry, control_bit=0x4, swizzle_mask=0x6)

    def test_mask_must_fit_row_width(self, geometry):
        with pytest.raises(ConfigurationError):
            RowAddressMapper(geometry, control_bit=0x8,
                             swizzle_mask=1 << 20)

    def test_negative_values_rejected(self, geometry):
        with pytest.raises(ConfigurationError):
            RowAddressMapper(geometry, control_bit=-8, swizzle_mask=0x6)
