"""Tests for the pluggable TRR sampler strategies (repro.dram.trr).

The paper's chip uses the last-activation sampler (covered by
``test_trr.py``); these tests pin down the two additional strategies the
device-family profiles use — the counter table (DDR4, U-TRR "Vendor A")
and the probabilistic slot (DDR5, U-TRR "Vendor B") — plus the
``observe_run`` bulk contract every strategy must honour: feeding a run
through ``observe_run`` must leave the sampler in exactly the state that
sequential ``observe`` calls would.
"""

import pytest

from repro.dram.trr import (
    SAMPLER_KINDS,
    CounterSampler,
    LastActivationSampler,
    ProbabilisticSampler,
    TrrConfig,
    TrrEngine,
    make_sampler,
)
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, use_metrics

BANK = (0, 0, 0)
OTHER_BANK = (0, 0, 1)


class TestConfigValidation:
    def test_sampler_kinds_exposed(self):
        assert SAMPLER_KINDS == ("last", "counter", "probabilistic")

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ConfigurationError):
            TrrConfig(sampler="neural")

    def test_bad_table_size_rejected(self):
        with pytest.raises(ConfigurationError):
            TrrConfig(table_size=0)

    @pytest.mark.parametrize("probability", [0.0, -0.1, 1.5])
    def test_bad_probability_rejected(self, probability):
        with pytest.raises(ConfigurationError):
            TrrConfig(sample_probability=probability)

    def test_factory_maps_kind_to_strategy(self):
        assert isinstance(make_sampler(TrrConfig(sampler="last")),
                          LastActivationSampler)
        assert isinstance(make_sampler(TrrConfig(sampler="counter")),
                          CounterSampler)
        assert isinstance(
            make_sampler(TrrConfig(sampler="probabilistic"), seed=7),
            ProbabilisticSampler)


class TestCounterSampler:
    def test_fire_picks_max_count(self):
        sampler = CounterSampler(table_size=4)
        for _ in range(3):
            sampler.observe(BANK, 10)
        sampler.observe(BANK, 20)
        assert sampler.fire() == [(BANK, 10)]

    def test_fire_tie_breaks_on_lowest_row(self):
        sampler = CounterSampler(table_size=4)
        sampler.observe(BANK, 30)
        sampler.observe(BANK, 20)
        assert sampler.fire() == [(BANK, 20)]

    def test_fire_consumes_only_the_winner(self):
        sampler = CounterSampler(table_size=4)
        for _ in range(2):
            sampler.observe(BANK, 10)
        sampler.observe(BANK, 20)
        assert sampler.fire() == [(BANK, 10)]
        # The runner-up survived the event and wins the next one.
        assert sampler.fire() == [(BANK, 20)]
        assert sampler.fire() == []

    def test_eviction_drops_min_count_entry(self):
        sampler = CounterSampler(table_size=2)
        for _ in range(5):
            sampler.observe(BANK, 10)
        sampler.observe(BANK, 20)  # table full: {10: 5, 20: 1}
        sampler.observe(BANK, 30)  # evicts 20 (min count)
        assert sampler.fire() == [(BANK, 10)]
        assert sampler.fire() == [(BANK, 30)]

    def test_tables_are_per_bank(self):
        sampler = CounterSampler(table_size=1)
        sampler.observe(BANK, 10)
        sampler.observe(OTHER_BANK, 99)
        assert sorted(sampler.fire()) == [(BANK, 10), (OTHER_BANK, 99)]


class TestProbabilisticSampler:
    def test_same_seed_same_decisions(self):
        first = ProbabilisticSampler(probability=0.25, seed=42)
        second = ProbabilisticSampler(probability=0.25, seed=42)
        for row in range(200):
            first.observe(BANK, row)
            second.observe(BANK, row)
        assert first.fire() == second.fire()

    def test_different_seeds_diverge(self):
        outcomes = set()
        for seed in range(8):
            sampler = ProbabilisticSampler(probability=0.25, seed=seed)
            for row in range(200):
                sampler.observe(BANK, row)
            outcomes.add(tuple(sampler.fire()))
        assert len(outcomes) > 1

    def test_capture_rate_tracks_probability(self):
        sampler = ProbabilisticSampler(probability=0.25, seed=3)
        captures = 0
        for row in range(4000):
            sampler.observe(BANK, row)
            if sampler.fire():
                captures += 1
        assert 0.15 < captures / 4000 < 0.35

    def test_probability_one_always_captures(self):
        sampler = ProbabilisticSampler(probability=1.0, seed=0)
        sampler.observe(BANK, 7)
        assert sampler.fire() == [(BANK, 7)]

    def test_fire_consumes_the_slot(self):
        sampler = ProbabilisticSampler(probability=1.0, seed=0)
        sampler.observe(BANK, 7)
        sampler.fire()
        assert sampler.fire() == []


def _drain(config, seed, feed):
    """Build an engine, run ``feed`` on it, and drain firings."""
    engine = TrrEngine(config, seed=seed)
    feed(engine)
    picked = []
    while True:
        fired = engine.sampler.fire()
        if not fired:
            return picked
        picked.extend(sorted(fired))


EVENTS = [(BANK, 5), (BANK, 6), (OTHER_BANK, 7), (BANK, 5),
          (OTHER_BANK, 8), (BANK, 9)]


class TestObserveRunEquivalence:
    """observe_run(events, n) == n in-order sequential repetitions.

    The device's analytic paths (bulk_activations, the fast-path row
    replay) depend on this for byte-identical datasets against
    interpreted execution, for every sampler strategy.
    """

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    @pytest.mark.parametrize("iterations", [1, 2, 17, 400])
    def test_bulk_matches_sequential(self, kind, iterations):
        config = TrrConfig(sampler=kind, table_size=2,
                           sample_probability=0.125)

        def sequential(engine):
            for _ in range(iterations):
                for bank, row in EVENTS:
                    engine.observe_activation(bank, row)

        def bulk(engine):
            engine.observe_run(EVENTS, iterations)

        assert (_drain(config, 11, sequential)
                == _drain(config, 11, bulk))

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_bulk_composes_with_prior_state(self, kind):
        config = TrrConfig(sampler=kind, table_size=2,
                           sample_probability=0.125)

        def sequential(engine):
            engine.observe_activation(BANK, 100)
            for _ in range(50):
                for bank, row in EVENTS:
                    engine.observe_activation(bank, row)
            engine.observe_activation(BANK, 101)

        def mixed(engine):
            engine.observe_activation(BANK, 100)
            engine.observe_run(EVENTS, 50)
            engine.observe_activation(BANK, 101)

        assert _drain(config, 5, sequential) == _drain(config, 5, mixed)

    def test_counter_thrash_fixed_point_matches_sequential(self):
        """Resident high-count entries force new rows to evict each
        other every iteration; the bulk path must reproduce that churn
        fixed point exactly — and without unrolling the run (the
        500_000-iteration call below is instant only because of the
        fixed-point short-circuit)."""
        config = TrrConfig(sampler="counter", table_size=3)

        def prime(engine):
            for row in (1, 2):
                for _ in range(5):
                    engine.observe_activation(BANK, row)

        def sequential(engine):
            prime(engine)
            for _ in range(200):
                engine.observe_activation(BANK, 10)
                engine.observe_activation(BANK, 11)

        def bulk(engine):
            prime(engine)
            engine.observe_run([(BANK, 10), (BANK, 11)], 200)

        assert _drain(config, 0, sequential) == _drain(config, 0, bulk)

        huge = TrrEngine(config)
        prime(huge)
        huge.observe_run([(BANK, 10), (BANK, 11)], 500_000)
        assert huge.sampler.fire() == [(BANK, 1)]

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_zero_iterations_is_a_no_op(self, kind):
        config = TrrConfig(sampler=kind)
        engine = TrrEngine(config, seed=1)
        engine.observe_run(EVENTS, 0)
        assert engine.sampler.fire() == []


class TestEngineIntegration:
    def test_counter_engine_fires_dominant_aggressor(self):
        engine = TrrEngine(TrrConfig(refresh_period=2, sampler="counter",
                                     table_size=4))
        for _ in range(10):
            engine.observe_activation(BANK, 50)
        engine.observe_activation(BANK, 60)
        assert engine.on_refresh() == []
        assert engine.on_refresh() == [(BANK, 49), (BANK, 51)]
        # Runner-up row 60 survived and is refreshed on the next firing.
        assert engine.on_refresh() == []
        assert engine.on_refresh() == [(BANK, 59), (BANK, 61)]

    def test_probabilistic_engines_reproduce_per_seed(self):
        config = TrrConfig(refresh_period=1, sampler="probabilistic",
                           sample_probability=0.125)
        runs = []
        for _ in range(2):
            engine = TrrEngine(config, seed=9)
            victims = []
            for row in range(300):
                engine.observe_activation(BANK, row)
                victims.extend(engine.on_refresh())
            runs.append(victims)
        assert runs[0] == runs[1]
        assert runs[0]  # p = 1/8 over 300 ACTs: some firings happen

    def test_firings_hit_the_obs_counter(self):
        engine = TrrEngine(TrrConfig(refresh_period=1, sampler="counter",
                                     table_size=2))
        registry = MetricsRegistry()
        with use_metrics(registry):
            engine.observe_activation(BANK, 50)
            assert engine.on_refresh() == [(BANK, 49), (BANK, 51)]
        assert registry.counter("trr.preventive_refreshes").value == 2


def state(sampler) -> str:
    """A sampler's whole state, insertion order included."""
    return repr(vars(sampler))


class TestFireCycleContract:
    """``fire_cycle`` names the picks that stepping the fires makes, and
    ``skip_fires`` leaves the state stepping leaves, on every sampler."""

    #: Two aggressors hammered in turn, plus a lone ACT on another bank.
    EVENTS = ((BANK, 10), (BANK, 12), (OTHER_BANK, 40))

    @staticmethod
    def _stepped(sampler, fires, iterations):
        picks = []
        for _ in range(fires):
            sampler.observe_run(TestFireCycleContract.EVENTS, iterations)
            picks.append(tuple(sampler.fire()))
        return picks

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_picks_and_state_match_stepped_fires(self, kind):
        config = TrrConfig(sampler=kind, table_size=4,
                           sample_probability=0.125)
        cycled, stepped = (make_sampler(config, seed=5) for _ in range(2))
        for sampler in (cycled, stepped):
            # Off the cycle's fixed point first: a period must start
            # from whatever the sampler holds, here a row of a bank the
            # cycle never activates.
            sampler.observe(BANK, 11)
            self._stepped(sampler, 1, 3)
            sampler.observe_run((((0, 0, 2), 77),), 64)
        covered_fires = 0
        for _ in range(20):
            before = state(cycled)
            picks, covered = cycled.fire_cycle(self.EVENTS, 9, 12)
            assert state(cycled) == before, kind
            fires = covered - covered % len(picks) if picks else 0
            if not fires:
                # Refused: step one fire on both and ask again.
                self._stepped(cycled, 1, 9)
                self._stepped(stepped, 1, 9)
                continue
            expected = self._stepped(stepped, fires, 9)
            assert expected == [picks[index % len(picks)]
                                for index in range(fires)], kind
            cycled.skip_fires(self.EVENTS, 9, fires)
            assert state(cycled) == state(stepped), kind
            covered_fires += fires
        assert covered_fires >= 20, kind

    def test_counter_alternation_has_period_two(self):
        sampler = CounterSampler(table_size=4)
        sampler.observe_run(((BANK, 10), (BANK, 12)), 9)
        sampler.fire()
        picks, covered = sampler.fire_cycle(((BANK, 10), (BANK, 12)), 9, 8)
        assert picks == (((BANK, 12),), ((BANK, 10),))
        assert covered == 8

    def test_long_rotation_is_refused(self):
        rows = tuple((BANK, row) for row in range(10, 20, 2))
        sampler = CounterSampler(table_size=8)
        sampler.observe_run(rows, 9)
        before = state(sampler)
        assert len(rows) > CounterSampler.MAX_FIRE_PERIOD
        assert sampler.fire_cycle(rows, 9, 20) == ((), 0)
        assert state(sampler) == before
