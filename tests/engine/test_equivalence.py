"""Engine equivalence: every execution route yields the same bytes.

The acceptance contract of the engine refactor: a sweep executed (a)
serially on the production path, (b) across worker processes through
``PoolBackend``, (c) resumed from a half-written campaign, and (d) on
the oracle (``REPRO_FASTPATH=0``: no program cache, every program
interpreted), produces byte-identical datasets and the same
measurement trace/metrics.
"""

from dataclasses import replace

from repro.bender.board import BoardSpec
from repro.core.experiment import ExperimentConfig
from repro.core.parallel import ParallelSweepRunner
from repro.core.patterns import ROWSTRIPE0, ROWSTRIPE1
from repro.core.sweeps import SpatialSweep, SweepConfig
from repro.envutil import FASTPATH_VAR
from repro.faults.plan import FaultSpec
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from tests.conftest import SMALL_GEOMETRY, vulnerable_profile


def small_spec() -> BoardSpec:
    return BoardSpec(seed=5, temperature_c=85.0, settle_thermals=False,
                     geometry=SMALL_GEOMETRY, profile=vulnerable_profile())


def small_config(**overrides) -> SweepConfig:
    defaults = dict(
        channels=(0, 1),
        banks=(0, 1),
        region_size=64,
        rows_per_region=3,
        hcfirst_rows_per_region=1,
        patterns=(ROWSTRIPE0, ROWSTRIPE1),
        faults=FaultSpec(),  # suppress any $REPRO_FAULTS chaos plan
        experiment=ExperimentConfig(ber_hammer_count=80_000,
                                    hcfirst_max_hammers=128 * 1024),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def serial_run(config=None):
    spec = small_spec()
    return SpatialSweep(spec.build(), config or small_config()).run()


def _measurement_spans(records):
    keys = ("channel", "pseudo_channel", "bank", "region", "row",
            "repetition")
    return [(record.name,
             tuple((key, record.attrs[key]) for key in keys
                   if key in record.attrs))
            for record in records
            if record.name in ("region", "cell", "ber", "hcfirst")]


#: Counters that must be invariant across execution routes and caching
#: (cache hit/miss counters are legitimately topology-dependent).
INVARIANT_COUNTERS = ("dram.commands.ACT", "hammer.pairs",
                      "bitflips.observed", "sweep.ber_records")


class TestCacheTransparency:
    def test_cache_off_is_byte_identical_and_slower_path(self, monkeypatch):
        monkeypatch.setenv(FASTPATH_VAR, "1")
        cached_metrics = MetricsRegistry()
        with use_metrics(cached_metrics):
            cached = serial_run()
        monkeypatch.setenv(FASTPATH_VAR, "0")
        uncached_metrics = MetricsRegistry()
        with use_metrics(uncached_metrics):
            uncached = serial_run()

        assert cached.fingerprint() == uncached.fingerprint()
        assert cached.ber_records == uncached.ber_records
        assert cached.hcfirst_records == uncached.hcfirst_records
        cached_counters = cached_metrics.snapshot()["counters"]
        uncached_counters = uncached_metrics.snapshot()["counters"]
        for name in INVARIANT_COUNTERS:
            assert cached_counters[name] == uncached_counters[name], name
        # The cached run actually exercised the cache...
        assert cached_counters["engine.cache.hits"] > 0
        # ...and the uncached run never touched it.
        assert "engine.cache.hits" not in uncached_counters
        assert "engine.cache.misses" not in uncached_counters

    def test_cache_off_trace_is_identical(self, monkeypatch):
        monkeypatch.setenv(FASTPATH_VAR, "1")
        cached_tracer = Tracer()
        with use_tracer(cached_tracer):
            serial_run()
        monkeypatch.setenv(FASTPATH_VAR, "0")
        uncached_tracer = Tracer()
        with use_tracer(uncached_tracer):
            serial_run()
        assert (_measurement_spans(cached_tracer.records)
                == _measurement_spans(uncached_tracer.records))


class TestRouteEquivalence:
    def test_local_pool_and_resumed_fingerprints_match(self, tmp_path):
        """Serial run == PoolBackend at --jobs 4 == a campaign
        killed halfway and resumed: one fingerprint, same bytes."""
        spec = small_spec()
        config = small_config()

        serial = serial_run(config)

        pooled_runner = ParallelSweepRunner(spec, replace(config, jobs=4))
        pooled = pooled_runner.run()
        assert pooled_runner.errors == ()

        campaign = tmp_path / "campaign"
        ParallelSweepRunner(spec, replace(config, jobs=4),
                            campaign_dir=campaign).run()
        checkpoints = sorted(campaign.glob("shard_*.json"))
        assert len(checkpoints) == 12
        for checkpoint in checkpoints[::2]:  # kill half the campaign
            checkpoint.unlink()
        resumed_runner = ParallelSweepRunner(spec, replace(config, jobs=4),
                                             campaign_dir=campaign)
        resumed = resumed_runner.run()
        assert resumed_runner.coverage["complete"] is True

        assert serial.fingerprint() == pooled.fingerprint()
        assert serial.fingerprint() == resumed.fingerprint()
        serial.to_json(tmp_path / "serial.json")
        pooled.to_json(tmp_path / "pooled.json")
        resumed.to_json(tmp_path / "resumed.json")
        serial_bytes = (tmp_path / "serial.json").read_bytes()
        assert (tmp_path / "pooled.json").read_bytes() == serial_bytes
        assert (tmp_path / "resumed.json").read_bytes() == serial_bytes

    def test_pool_metrics_and_trace_match_serial(self):
        spec = small_spec()
        config = small_config()

        serial_tracer, serial_metrics = Tracer(), MetricsRegistry()
        with use_tracer(serial_tracer), use_metrics(serial_metrics):
            serial_run(config)

        pool_tracer, pool_metrics = Tracer(), MetricsRegistry()
        with use_tracer(pool_tracer), use_metrics(pool_metrics):
            runner = ParallelSweepRunner(spec, replace(config, jobs=4))
            runner.run()
        assert runner.errors == ()

        assert (_measurement_spans(pool_tracer.records)
                == _measurement_spans(serial_tracer.records))
        serial_counters = serial_metrics.snapshot()["counters"]
        pool_counters = pool_metrics.snapshot()["counters"]
        for name in INVARIANT_COUNTERS:
            assert pool_counters[name] == serial_counters[name], name

    def test_pool_workers_honour_the_cache_gate(self, tmp_path, monkeypatch):
        """REPRO_FASTPATH=0 propagates into pool workers and the
        merged dataset still matches the cached one byte for byte."""
        spec = small_spec()
        config = small_config(jobs=2)

        monkeypatch.setenv(FASTPATH_VAR, "0")
        uncached_metrics = MetricsRegistry()
        with use_metrics(uncached_metrics):
            uncached = ParallelSweepRunner(spec, config).run()
        monkeypatch.setenv(FASTPATH_VAR, "1")
        cached_metrics = MetricsRegistry()
        with use_metrics(cached_metrics):
            cached = ParallelSweepRunner(spec, config).run()
        assert cached.fingerprint() == uncached.fingerprint()
        # The workers' merged counters show which path each run took.
        assert cached_metrics.snapshot()["counters"]["engine.cache.misses"]
        assert not any(name.startswith(("engine.cache.", "engine.fastpath."))
                       for name in uncached_metrics.snapshot()["counters"])
