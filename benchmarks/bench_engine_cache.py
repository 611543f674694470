"""E1 — engine program cache: Fig. 3 BER sweep, cache on vs off.

Times the Fig. 3-shaped BER campaign (all 8 channels, three regions,
Table-1 rowstripe patterns, 256K double-sided hammers) twice on
identical fresh stations: once on the production path (the engine's
verified-program cache and analytic fast path, the default) and once
with ``REPRO_FASTPATH=0``, the oracle that restores the pre-engine
build-verify-run-per-measurement path.  Records before the oracle
replaced the separate cache gate timed a cached-but-interpreted arm,
so their speedups are not comparable with newer ones.

Asserts the contract the cache was built under: the cached campaign is
**byte-identical** to the uncached one (same dataset fingerprint) and
at least **1.5x faster**.  The hit rate is read back through the
metrics registry (``engine.cache.hits`` / ``engine.cache.misses``).

Methodology: each arm runs a one-repetition warmup sweep first so the
device model's one-time row sampling is excluded from both sides, then
times the full campaign; two rounds per arm, best round scored.  The
default density (one row per region, ten repetitions) keeps the row
working set inside the cell model's ground-truth LRU, so the timed
region measures steady-state execution rather than cache thrash.
"""

import time
from dataclasses import replace

from repro.bender.board import make_paper_setup
from repro.core.experiment import ExperimentConfig
from repro.core.patterns import ROWSTRIPE0, ROWSTRIPE1
from repro.core.sweeps import SpatialSweep, SweepConfig
from repro.envutil import FASTPATH_VAR
from repro.obs import MetricsRegistry, use_metrics

from benchmarks.conftest import CHIP_SEED, emit, env_int, write_bench_json

ROUNDS = 2
SPEEDUP_FLOOR = 1.5


def cache_bench_config() -> SweepConfig:
    return SweepConfig(
        channels=tuple(range(8)),
        rows_per_region=env_int("REPRO_CACHE_BENCH_ROWS", 1),
        repetitions=env_int("REPRO_CACHE_BENCH_REPS", 10),
        patterns=(ROWSTRIPE0, ROWSTRIPE1),
        include_hcfirst=False,
        experiment=ExperimentConfig(ber_hammer_count=256 * 1024),
    )


def run_arm(cache_flag: str, config: SweepConfig, monkeypatch):
    """One timed campaign on a fresh station; returns its record."""
    monkeypatch.setenv(FASTPATH_VAR, cache_flag)
    board = make_paper_setup(seed=CHIP_SEED)
    SpatialSweep(board, replace(config, repetitions=1)).run()  # warmup
    registry = MetricsRegistry()
    with use_metrics(registry):
        started = time.perf_counter()
        dataset = SpatialSweep(board, config).run()
        wall_s = time.perf_counter() - started
    return dataset, wall_s, registry.snapshot()["counters"]


def test_engine_cache_speedup(benchmark, results_dir, monkeypatch):
    config = cache_bench_config()

    uncached_walls, cached_walls = [], []
    fingerprints = set()
    for _ in range(ROUNDS):
        dataset, wall_s, _ = run_arm("0", config, monkeypatch)
        uncached_walls.append(wall_s)
        fingerprints.add(dataset.fingerprint())

    def cached_round():
        dataset, wall_s, counters = run_arm("1", config, monkeypatch)
        cached_walls.append(wall_s)
        fingerprints.add(dataset.fingerprint())
        return counters

    cached_counters = benchmark.pedantic(cached_round, rounds=1,
                                         iterations=1)
    for _ in range(ROUNDS - 1):
        cached_counters = cached_round()

    hits = int(cached_counters["engine.cache.hits"])
    # The warmup pass inserts every shape, so the timed campaign can be
    # (and usually is) all hits.
    misses = int(cached_counters.get("engine.cache.misses", 0))
    hit_rate = hits / (hits + misses)
    speedup = min(uncached_walls) / min(cached_walls)
    measurements = (len(config.channels) * 3 * config.rows_per_region
                    * len(config.patterns) * config.repetitions)

    emit(results_dir, "engine_cache", "\n".join([
        f"Fig. 3 BER campaign, {measurements} measurements "
        f"({config.repetitions} repetitions)",
        f"cache off: {min(uncached_walls):.2f}s   "
        f"cache on: {min(cached_walls):.2f}s   speedup: {speedup:.2f}x",
        f"program cache: {hits:,} hits, {misses:,} misses "
        f"({hit_rate:.1%} hit rate)",
        "datasets byte-identical: "
        f"{'yes' if len(fingerprints) == 1 else 'NO'}",
    ]))
    write_bench_json(results_dir, "engine_cache", {
        "campaign": {
            "channels": len(config.channels),
            "rows_per_region": config.rows_per_region,
            "repetitions": config.repetitions,
            "patterns": len(config.patterns),
            "ber_hammer_count": config.experiment.ber_hammer_count,
        },
        "uncached_s": [round(wall, 3) for wall in uncached_walls],
        "cached_s": [round(wall, 3) for wall in cached_walls],
        "speedup": round(speedup, 3),
        "cache": {"hits": hits, "misses": misses,
                  "hit_rate": round(hit_rate, 4)},
    })

    # One fingerprint across every arm and round: caching is invisible
    # in the data.
    assert len(fingerprints) == 1
    assert hit_rate > 0.9
    assert speedup >= SPEEDUP_FLOOR, (
        f"program cache delivered {speedup:.2f}x, need >= "
        f"{SPEEDUP_FLOOR}x (off {min(uncached_walls):.2f}s, "
        f"on {min(cached_walls):.2f}s)")
