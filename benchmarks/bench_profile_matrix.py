"""PM — device-family matrix: the Fig. 3/4 campaign per profile.

Runs the same miniature characterization campaign (BER + HC_first,
first/middle/last regions, Table 1 patterns) on every registered device
family — ``hbm2`` (last-activation TRR, the paper's chip), ``ddr4``
(counter-table TRR) and ``ddr5`` (probabilistic TRR) — on separately
built stations under private metrics registries, and tabulates per
family the BER summary, the uncensored HC_first median and the dataset
fingerprint (deterministic per family).

Expected shape: the three families produce distinct fingerprints and
distinct vulnerability levels (the DDR5 calibration is the most
RowHammer-vulnerable, per the paper's scaling narrative), while every
family stays on the analytic fast path.
"""

from statistics import median

from repro.core.experiment import ExperimentConfig
from repro.core.parallel import run_sweep
from repro.core.sweeps import SweepConfig
from repro.dram.profiles import get_profile, list_profiles
from repro.envutil import fastpath_enabled
from repro.obs import MetricsRegistry, use_metrics

from benchmarks.conftest import CHIP_SEED, emit, env_int, make_paper_setup


def _family_config(name: str) -> SweepConfig:
    geometry = get_profile(name).geometry
    return SweepConfig.from_env(
        channels=tuple(range(min(2, geometry.channels))),
        rows_per_region=env_int("REPRO_ROWS_PER_REGION", 4),
        hcfirst_rows_per_region=env_int("REPRO_HCFIRST_ROWS", 2),
        experiment=ExperimentConfig(profile=name),
    )


def _run_family(name: str) -> dict:
    """One family's campaign on a freshly built station, under a
    private metrics registry."""
    config = _family_config(name)
    board = make_paper_setup(seed=CHIP_SEED, device_profile=name)
    registry = MetricsRegistry()
    with use_metrics(registry):
        dataset = run_sweep(config, board=board)

    uncensored = [record.hc_first
                  for record in dataset.hcfirst(include_censored=False)]
    ber_records = dataset.ber_records
    flipped = sum(1 for record in ber_records if record.flips)
    return {
        "sampler": get_profile(name).trr.sampler,
        "fingerprint": dataset.fingerprint(),
        "ber_records": len(ber_records),
        "ber_rows_flipped_fraction": round(
            flipped / len(ber_records), 4) if ber_records else 0.0,
        "hcfirst_median": (int(median(uncensored))
                           if uncensored else None),
        "counters": registry.snapshot()["counters"],
    }


def test_profile_matrix(benchmark, results_dir):
    families = [name for name in list_profiles()
                if name in ("hbm2", "ddr4", "ddr5")]
    results = {}

    def matrix():
        for name in families:
            results[name] = _run_family(name)
        return results

    benchmark.pedantic(matrix, rounds=1, iterations=1)

    lines = [f"{'family':8} {'sampler':14} "
             f"{'HC_first med':>13} {'flipped':>8}  fingerprint"]
    for name in families:
        record = results[name]
        lines.append(
            f"{name:8} {record['sampler']:14} "
            f"{str(record['hcfirst_median']):>13} "
            f"{record['ber_rows_flipped_fraction']:>8} "
            f" {record['fingerprint']}")
    emit(results_dir, "profile_matrix", "\n".join(lines))

    fingerprints = {record["fingerprint"] for record in results.values()}
    assert len(fingerprints) == len(families)
    for record in results.values():
        assert record["ber_records"] > 0
        if fastpath_enabled():
            counters = record["counters"]
            assert counters.get("engine.fastpath.hits", 0) > 0
            assert counters.get("engine.fastpath.fallbacks", 0) == 0
            assert counters.get("engine.fastpath.bypasses", 0) == 0
