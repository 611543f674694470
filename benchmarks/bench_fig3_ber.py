"""F3 — Fig. 3: BER across rows, channels, and data patterns.

Regenerates the paper's Fig. 3: the distribution of BER (256K
double-sided hammers) across DRAM rows of the first/middle/last 3K-row
regions, for every channel, under the four Table 1 patterns plus the
per-row WCDP.  Expected shape: flips in every row; channels 6/7 highest;
die-pair grouping; rowstripe > checkered; WCDP on top.

Throughput of this campaign is measured by the benchmark suite's
``fig3_ber`` workload (``benchmarks/suite/``), not here.
"""

import json

from repro.analysis.figures import fig3_ber_distributions, render_box_table
from repro.analysis.tables import ber_channel_extremes, channel_groups_by_ber
from repro.core.parallel import run_sweep
from repro.core.sweeps import SweepConfig
from repro.envutil import fastpath_enabled
from repro.obs import MetricsRegistry, use_metrics

from benchmarks.conftest import emit, env_int


def test_fig3_ber_distribution(benchmark, board, board_spec, results_dir):
    config = SweepConfig.from_env(
        channels=tuple(range(8)),
        rows_per_region=env_int("REPRO_ROWS_PER_REGION", 10),
        include_hcfirst=False,
    )

    registry = MetricsRegistry()
    with use_metrics(registry):
        dataset = benchmark.pedantic(
            run_sweep, args=(config,),
            kwargs={"spec": board_spec, "board": board},
            rounds=1, iterations=1)

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

    assert worst in (6, 7)
    assert worst_ber / best_ber > 1.4
    if fastpath_enabled():
        # Every campaign program must summarize: fallbacks and bypasses
        # are correctness escape hatches, never the benchmarked path.
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.fastpath.hits", 0) > 0
        assert counters.get("engine.fastpath.fallbacks", 0) == 0
        assert counters.get("engine.fastpath.bypasses", 0) == 0
