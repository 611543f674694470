"""F6 — Fig. 6: BER variation across banks and pseudo channels.

Regenerates the paper's Fig. 6: each of the 256 banks (8 channels x 2
pseudo channels x 16 banks) placed by its mean WCDP BER (y) and
coefficient of variation (x) over rows sampled from the first/middle/
last 100 rows.  Expected shape: bank-to-bank variation exists but is
dominated by channel-to-channel variation (banks of channels 6/7 sit
clearly above the rest).
"""

import numpy as np

from repro.analysis.figures import fig6_bank_scatter, render_scatter_table
from repro.core.parallel import run_sweep
from repro.core.patterns import ROWSTRIPE0, ROWSTRIPE1
from repro.core.sweeps import SweepConfig

from benchmarks.conftest import emit, env_int


def test_fig6_bank_scatter(benchmark, board, board_spec, results_dir):
    """The 256-bank campaign: the sweep that gains the most from
    ``REPRO_JOBS`` — its 8 x 2 x banks x 3 shard grid keeps every worker
    busy."""
    config = SweepConfig.from_env(
        channels=tuple(range(8)),
        pseudo_channels=(0, 1),
        banks=tuple(range(env_int("REPRO_FIG6_BANKS", 4))),
        region_size=100,  # the paper samples first/middle/last 100 rows
        rows_per_region=env_int("REPRO_FIG6_ROWS", 3),
        patterns=(ROWSTRIPE0, ROWSTRIPE1),
        include_hcfirst=False,
    )

    dataset = benchmark.pedantic(
        run_sweep, args=(config,),
        kwargs={"spec": board_spec, "board": board},
        rounds=1, iterations=1)
    dataset.to_json(results_dir / "fig6_dataset.json")

    points = fig6_bank_scatter(dataset)
    by_channel = {}
    for point in points:
        by_channel.setdefault(point.channel, []).append(point.mean_ber)
    channel_means = {channel: np.mean(values)
                     for channel, values in by_channel.items()}

    # Within-channel bank spread vs across-channel spread (the paper's
    # conclusion: test channels, not banks).
    within = np.mean([np.max(values) - np.min(values)
                      for values in by_channel.values()
                      if len(values) > 1])
    across = max(channel_means.values()) - min(channel_means.values())

    lines = [
        render_scatter_table(points),
        "",
        f"banks measured: {len(points)} "
        f"(paper: 256 banks, 300 rows each)",
        f"mean within-channel bank BER spread:  {within:.4%}",
        f"across-channel mean BER spread:       {across:.4%}",
        f"conclusion holds (channel >> bank variation): {across > within}",
    ]
    emit(results_dir, "fig6_banks", "\n".join(lines))

    assert across > within
