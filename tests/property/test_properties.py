"""Property-based tests (hypothesis) on core data structures/invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import box_stats, quartiles
from repro.bender import isa
from repro.bender.assembler import assemble, disassemble
from repro.bender.program import Program
from repro.core.rowdata import count_flips, flip_positions, flip_report
from repro.dram.address import RowAddressMapper
from repro.dram.cellmodel import ECC_PARITY_BITS, ECC_WORD_BITS
from repro.dram.ecc import decode_words, encode_words
from repro.dram.geometry import Geometry
from repro.dram.subarrays import SubarrayLayout
from repro.rng import derive_seed, uniform_hash01

GEOMETRY = Geometry()

# Valid (control_bit, swizzle_mask) pairs for the default geometry.
mapper_params = st.tuples(
    st.sampled_from([1 << bit for bit in range(14)] + [0]),
    st.integers(min_value=0, max_value=255),
).filter(lambda pair: not (pair[0] & pair[1]))


class TestMapperProperties:
    @given(params=mapper_params,
           row=st.integers(min_value=0, max_value=GEOMETRY.rows - 1))
    def test_mapping_is_involution(self, params, row):
        control_bit, swizzle_mask = params
        mapper = RowAddressMapper(GEOMETRY, control_bit=control_bit,
                                  swizzle_mask=swizzle_mask)
        physical = mapper.logical_to_physical(row)
        assert mapper.physical_to_logical(physical) == row

    @given(params=mapper_params)
    def test_mapping_is_a_bijection_on_a_block(self, params):
        control_bit, swizzle_mask = params
        mapper = RowAddressMapper(GEOMETRY, control_bit=control_bit,
                                  swizzle_mask=swizzle_mask)
        block = [mapper.logical_to_physical(row) for row in range(512)]
        assert sorted(block) == list(range(512))

    @given(params=mapper_params,
           row=st.integers(min_value=1, max_value=GEOMETRY.rows - 2))
    def test_neighbors_are_physically_adjacent(self, params, row):
        control_bit, swizzle_mask = params
        mapper = RowAddressMapper(GEOMETRY, control_bit=control_bit,
                                  swizzle_mask=swizzle_mask)
        physical = mapper.logical_to_physical(row)
        for neighbor in mapper.physical_neighbors(row):
            assert abs(mapper.logical_to_physical(neighbor) - physical) == 1


class TestEccProperties:
    @given(data=st.binary(min_size=ECC_WORD_BITS // 8,
                          max_size=4 * ECC_WORD_BITS // 8).filter(
               lambda raw: len(raw) % (ECC_WORD_BITS // 8) == 0))
    def test_clean_roundtrip(self, data):
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        parity = encode_words(bits)
        decoded, corrected, uncorrectable = decode_words(bits, parity)
        assert np.array_equal(decoded, bits)
        assert corrected == 0 and uncorrectable == 0

    @given(data=st.binary(min_size=8, max_size=8),
           flip=st.integers(min_value=0,
                            max_value=ECC_WORD_BITS + ECC_PARITY_BITS - 1))
    def test_any_single_flip_is_corrected(self, data, flip):
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        parity = encode_words(bits)
        corrupted_bits = bits.copy()
        corrupted_parity = parity.copy()
        if flip < ECC_WORD_BITS:
            corrupted_bits[flip] ^= 1
        else:
            corrupted_parity[flip - ECC_WORD_BITS] ^= 1
        decoded, corrected, uncorrectable = decode_words(corrupted_bits,
                                                         corrupted_parity)
        assert np.array_equal(decoded, bits)
        assert corrected == 1
        assert uncorrectable == 0


simple_instructions = st.one_of(
    st.builds(isa.Act,
              st.integers(0, 7), st.integers(0, 1), st.integers(0, 15),
              st.integers(0, 16383)),
    st.builds(isa.Pre,
              st.integers(0, 7), st.integers(0, 1), st.integers(0, 15)),
    st.builds(isa.Ref, st.integers(0, 7), st.integers(0, 1)),
    st.builds(isa.Wait, st.integers(0, 10_000)),
    st.builds(isa.Rd,
              st.integers(0, 7), st.integers(0, 1), st.integers(0, 15),
              st.integers(0, 31)),
    st.builds(isa.Wr,
              st.integers(0, 7), st.integers(0, 1), st.integers(0, 15),
              st.integers(0, 31), st.binary(min_size=1, max_size=8)),
)

programs = st.recursive(
    st.lists(simple_instructions, max_size=6).map(tuple),
    lambda inner: st.tuples(
        inner, st.integers(0, 100)).map(
            lambda pair: (isa.Loop(pair[1], pair[0]),)),
    max_leaves=4,
).map(Program)


class TestAssemblerProperties:
    @given(program=programs)
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_disassemble_assemble_roundtrip(self, program):
        assert assemble(disassemble(program)) == program


class TestStatsProperties:
    values = st.lists(st.floats(min_value=-1e9, max_value=1e9,
                                allow_nan=False), min_size=1, max_size=50)

    @given(values=values)
    def test_quartiles_ordered_and_bounded(self, values):
        q1, median, q3 = quartiles(values)
        assert min(values) <= q1 <= median <= q3 <= max(values)

    @given(values=values)
    def test_box_stats_mean_within_range(self, values):
        stats = box_stats(values)
        # One ULP of slack: summation rounding can push the mean of
        # identical values marginally past them.
        slack = 4 * np.spacing(max(abs(stats.minimum), abs(stats.maximum),
                                   1e-300))
        assert stats.minimum - slack <= stats.mean <= stats.maximum + slack

    @given(values=values, shift=st.floats(min_value=-1e6, max_value=1e6,
                                          allow_nan=False))
    def test_quartiles_translate_with_data(self, values, shift):
        base = quartiles(values)
        moved = quartiles([value + shift for value in values])
        for before, after in zip(base, moved):
            assert after == pytest.approx(before + shift, abs=1e-6)


class TestRowDataProperties:
    bit_arrays = st.integers(min_value=1, max_value=64).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n)))

    @given(pair=bit_arrays)
    def test_flip_count_matches_positions(self, pair):
        read = np.array(pair[0], dtype=np.uint8)
        expected = np.array(pair[1], dtype=np.uint8)
        assert count_flips(read, expected) == len(
            flip_positions(read, expected))

    @given(pair=bit_arrays)
    def test_flip_directions_partition(self, pair):
        read = np.array(pair[0], dtype=np.uint8)
        expected = np.array(pair[1], dtype=np.uint8)
        report = flip_report(read, expected)
        assert report.zero_to_one_count + report.one_to_zero_count == \
            report.flips

    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=64))
    def test_self_comparison_is_clean(self, bits):
        array = np.array(bits, dtype=np.uint8)
        assert count_flips(array, array.copy()) == 0


class TestLayoutProperties:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=64),
                          min_size=1, max_size=12))
    def test_subarray_lookup_consistent_with_bounds(self, sizes):
        layout = SubarrayLayout(sizes)
        for index in range(layout.count):
            start, end = layout.bounds(index)
            assert layout.subarray_of(start) == index
            assert layout.subarray_of(end - 1) == index

    @given(sizes=st.lists(st.integers(min_value=1, max_value=64),
                          min_size=1, max_size=12))
    def test_position_fraction_in_unit_interval(self, sizes):
        layout = SubarrayLayout(sizes)
        for row in range(layout.total_rows):
            assert 0.0 <= layout.position_fraction(row) <= 1.0

    @given(sizes=st.lists(st.integers(min_value=2, max_value=64),
                          min_size=2, max_size=8))
    def test_boundary_rows_not_same_subarray(self, sizes):
        layout = SubarrayLayout(sizes)
        for boundary in layout.boundaries()[1:]:
            assert not layout.same_subarray(boundary - 1, boundary)


class TestRngProperties:
    keys = st.lists(st.one_of(st.integers(-1000, 1000),
                              st.text(max_size=8)), max_size=4)

    @given(seed=st.integers(0, 2**31), path=keys)
    def test_derive_seed_is_stable(self, seed, path):
        assert derive_seed(seed, path) == derive_seed(seed, path)

    @given(seed=st.integers(0, 2**31), path=keys)
    def test_uniform_hash_in_unit_interval(self, seed, path):
        value = uniform_hash01(seed, path)
        assert 0.0 <= value < 1.0

    @given(seed=st.integers(0, 2**31), path=keys)
    def test_path_sensitivity(self, seed, path):
        extended = list(path) + ["x"]
        assert derive_seed(seed, path) != derive_seed(seed, extended)

    def test_type_tagging_distinguishes_int_and_str(self):
        assert derive_seed(0, [1]) != derive_seed(0, ["1"])
        assert derive_seed(0, [True]) != derive_seed(0, [1])
