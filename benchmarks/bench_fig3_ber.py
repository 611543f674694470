"""F3 — Fig. 3: BER across rows, channels, and data patterns.

Regenerates the paper's Fig. 3: the distribution of BER (256K
double-sided hammers) across DRAM rows of the first/middle/last 3K-row
regions, for every channel, under the four Table 1 patterns plus the
per-row WCDP.  Expected shape: flips in every row; channels 6/7 highest;
die-pair grouping; rowstripe > checkered; WCDP on top.

Also the analytic fast path's headline benchmark: the campaign runs
in two arms, once on the oracle (``REPRO_FASTPATH=0``: no program
cache, every program built, verified and interpreted per call) and
once on the production path, on separately built stations, each timed
steady-state after one warm-up round — the archived record carries
both wall clocks and the speedup, and the CI oracle job pins the two
arms to byte-identical datasets.  The interpreted arm used to keep the
program cache on, so ``speedup_x`` is not comparable with records
made before the oracle became uncached.
"""

import json
import os
import time

from repro.analysis.figures import fig3_ber_distributions, render_box_table
from repro.analysis.tables import ber_channel_extremes, channel_groups_by_ber
from repro.bender.board import make_paper_setup
from repro.core.parallel import run_sweep
from repro.core.sweeps import SweepConfig
from repro.envutil import FASTPATH_VAR, fastpath_enabled
from repro.obs import MetricsRegistry, use_metrics

from benchmarks.conftest import (
    CHIP_SEED,
    emit,
    env_int,
    metrics_summary,
    write_bench_json,
)

#: The interpreted Fig. 3 wall clock archived before the fast path
#: landed (same config: 8 channels x 10 rows/region x 4 patterns,
#: jobs=1, seed 2023) — the fixed goalpost for the recorded speedup,
#: immune to drift in the fresh baseline re-measured below.
RECORDED_INTERPRETED_ELAPSED_S = 6.251


def _interpreted_baseline(config: SweepConfig) -> float:
    """Time the same campaign with the fast path off, on its own
    freshly built station (equal footing: the fast arm's board is
    also built cold by the ``board`` fixture).  Runs under a private
    metrics registry so the archived telemetry block counts the fast
    arm only."""
    saved = os.environ.get(FASTPATH_VAR)
    os.environ[FASTPATH_VAR] = "0"
    try:
        baseline_board = make_paper_setup(seed=CHIP_SEED)
        with use_metrics(MetricsRegistry()):
            run_sweep(config, board=baseline_board)  # warm-up round
            started = time.perf_counter()
            run_sweep(config, board=baseline_board)
            return time.perf_counter() - started
    finally:
        if saved is None:
            del os.environ[FASTPATH_VAR]
        else:
            os.environ[FASTPATH_VAR] = saved


def test_fig3_ber_distribution(benchmark, board, board_spec, results_dir,
                               campaign_metrics):
    config = SweepConfig.from_env(
        channels=tuple(range(8)),
        rows_per_region=env_int("REPRO_ROWS_PER_REGION", 10),
        include_hcfirst=False,
    )

    interpreted_s = _interpreted_baseline(config)

    timing = {}

    def campaign():
        started = time.perf_counter()
        dataset = run_sweep(config, spec=board_spec, board=board)
        timing["wall_s"] = time.perf_counter() - started
        return dataset

    # Warm-up round under a private registry: the timed round below is
    # steady-state (caches and schedule memos hot, matching the
    # interpreted arm's warm second round) and the archived telemetry
    # counts the timed round only.
    with use_metrics(MetricsRegistry()):
        run_sweep(config, spec=board_spec, board=board)

    dataset = benchmark.pedantic(campaign, rounds=1, iterations=1)

    dataset.to_json(results_dir / "fig3_dataset.json")
    distributions = fig3_ber_distributions(dataset)
    worst, best, worst_ber, best_ber = ber_channel_extremes(dataset)
    lines = [
        render_box_table(distributions, value_format="{:.5f}",
                         title="BER distribution across rows "
                               "(fraction of row bits flipped)"),
        "",
        f"worst channel: ch{worst} (mean WCDP BER {worst_ber:.4%})",
        f"best channel:  ch{best} (mean WCDP BER {best_ber:.4%})",
        f"ratio (paper: 2.03x): {worst_ber / best_ber:.2f}x",
        f"difference (paper: up to 79%): "
        f"{(worst_ber - best_ber) / worst_ber:.1%}",
        f"channel groups by BER (paper: die pairs): "
        f"{channel_groups_by_ber(dataset)}",
    ]
    emit(results_dir, "fig3_ber", "\n".join(lines))

    (results_dir / "fig3_summary.json").write_text(json.dumps({
        "worst_channel": worst, "best_channel": best,
        "worst_ber": worst_ber, "best_ber": best_ber,
        "ratio": worst_ber / best_ber,
    }, indent=1))

    speedup = interpreted_s / timing["wall_s"]
    speedup_vs_recorded = (RECORDED_INTERPRETED_ELAPSED_S /
                           timing["wall_s"])
    metrics = metrics_summary(campaign_metrics, timing["wall_s"])
    write_bench_json(results_dir, "fig3_ber", {
        "campaign": {
            "channels": len(config.channels),
            "rows_per_region": config.rows_per_region,
            "patterns": len(config.patterns),
            "jobs": config.jobs,
        },
        "elapsed_s": round(timing["wall_s"], 3),
        "interpreted_elapsed_s": round(interpreted_s, 3),
        "speedup_x": round(speedup, 2),
        "speedup_vs_recorded_x": round(speedup_vs_recorded, 2),
        "metrics": metrics,
    })

    assert worst in (6, 7)
    assert worst_ber / best_ber > 1.4
    if fastpath_enabled():
        # Every campaign program must summarize: fallbacks are a
        # correctness escape hatch, never the benchmarked path.
        fastpath = metrics.get("fastpath", {})
        assert fastpath.get("hits", 0) > 0
        assert fastpath.get("fallbacks", 0) == 0
        # Conservative floor; the archived record carries the real
        # ratio (see speedup_x / speedup_vs_recorded_x).
        assert speedup > 3
