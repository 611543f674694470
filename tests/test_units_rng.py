"""Tests for repro.units and deterministic-draw helpers in repro.rng."""

import numpy as np
import pytest

from repro import units
from repro.rng import generator_for, normal_hash, uniform_hash01


class TestUnits:
    def test_conversions(self):
        assert units.ns(1_000_000_000) == 1.0
        assert units.us(1_000_000) == 1.0
        assert units.ms(1_000) == 1.0

    def test_cycles_round_up(self):
        # 48 ns at 600 MHz = 28.8 cycles -> 29 (timing minimums).
        assert units.cycles_for_time(48e-9, 600e6) == 29

    def test_exact_cycles_do_not_round(self):
        assert units.cycles_for_time(1.0, 10.0) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            units.cycles_for_time(-1.0, 600e6)
        with pytest.raises(ValueError):
            units.cycles_for_time(1.0, 0.0)


class TestRngDraws:
    def test_generator_streams_are_independent(self):
        a = generator_for(0, ("cell", 0, 0, 0, 1)).random(64)
        b = generator_for(0, ("cell", 0, 0, 0, 2)).random(64)
        assert not np.array_equal(a, b)

    def test_generator_is_reproducible(self):
        a = generator_for(7, ("x",)).random(16)
        b = generator_for(7, ("x",)).random(16)
        assert np.array_equal(a, b)

    def test_uniform_hash_distribution_is_flat(self):
        draws = [uniform_hash01(0, ("u", index)) for index in range(4000)]
        assert 0.45 < float(np.mean(draws)) < 0.55
        assert min(draws) < 0.05
        assert max(draws) > 0.95

    def test_normal_hash_moments(self):
        draws = [normal_hash(0, ("n", index)) for index in range(4000)]
        assert abs(float(np.mean(draws))) < 0.1
        assert 0.9 < float(np.std(draws)) < 1.1

    def test_normal_hash_tails_are_finite(self):
        # Inverse-CDF path for extreme uniforms must stay finite.
        values = [normal_hash(seed, ("t",)) for seed in range(2000)]
        assert all(np.isfinite(values))
        assert max(values) > 2.5  # the tail is actually exercised

    def test_unsupported_key_type_raises(self):
        from repro.rng import derive_seed
        with pytest.raises(TypeError):
            derive_seed(0, [1.5])
