#!/usr/bin/env python3
"""Run the full reproduction campaign and regenerate EXPERIMENTS.md.

Covers every artifact in DESIGN.md's per-experiment index: Table 1,
Figs. 3-6, the §5 U-TRR discovery, the headline numbers, and the
ablations.  Density scales with the usual environment variables; the
defaults complete in a few minutes.  Set ``REPRO_JOBS=N`` to fan the
sweep campaigns out over N worker processes (results are identical to
a serial run; see README "Execution engine").

Usage:  python tools/generate_experiments.py [output-path]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.figures import (
    fig3_ber_distributions,
    fig4_hcfirst_distributions,
    fig5_row_series,
    fig6_bank_scatter,
    render_box_table,
    render_row_series,
    render_scatter_table,
)
from repro.analysis.tables import (
    channel_groups_by_ber,
    format_headline_table,
    headline_numbers,
)
from repro.bender.board import BoardSpec
from repro.core.ber import BerExperiment
from repro.core.experiment import ExperimentConfig, InterferenceControls
from repro.core.parallel import run_sweep
from repro.core.patterns import ROWSTRIPE0, ROWSTRIPE1
from repro.core.subarray_re import SubarrayReverseEngineer
from repro.core.sweeps import SweepConfig
from repro.core.utrr import UTrrExperiment
from repro.dram.address import DramAddress
from repro.defenses.evaluation import compare_defenses
from repro.attacks.templating import MemoryTemplater
from repro.envutil import env_int
from repro.obs import MetricsRegistry, use_metrics


def log(message: str) -> None:
    print(f"[campaign +{time.time() - START:7.1f}s] {message}",
          flush=True)


START = time.time()


def telemetry_lines(label: str, registry: MetricsRegistry,
                    wall_s: float) -> list:
    """Command-count telemetry bullet for one sweep campaign."""
    counters = registry.snapshot()["counters"]
    commands = {name.rsplit(".", 1)[-1]: int(value)
                for name, value in counters.items()
                if name.startswith("dram.commands.")}
    per_type = "  ".join(f"{mnemonic}={value:,}"
                         for mnemonic, value in sorted(commands.items()))
    rows = int(counters.get("sweep.ber_records", 0) +
               counters.get("sweep.hcfirst_records", 0))
    return [
        f"- {label}: {sum(commands.values()):,} DRAM commands "
        f"({per_type});",
        f"  {int(counters.get('hammer.pairs', 0)):,} hammer pairs, "
        f"{int(counters.get('bitflips.observed', 0)):,} bitflips "
        f"observed, {rows:,} rows measured "
        f"({rows / wall_s:.1f} rows/s wall clock)",
    ]


def discover_subarray_sizes(board, dataset, count=3):
    """BER-dip-guided footnote-3 scan; returns consecutive boundaries."""
    board.host.set_ecc_enabled(False)
    mapper = board.device.mapper
    records = dataset.ber(channel=7, pattern="WCDP", region="first")
    by_physical = sorted((mapper.logical_to_physical(record.row), record.ber)
                         for record in records)
    interior = [(row, ber) for row, ber in by_physical if row > 128]
    dip_row = min(interior, key=lambda pair: pair[1])[0]

    engineer = SubarrayReverseEngineer(board.host, mapper)
    window = 72
    result = engineer.scan(channel=7, start=max(1, dip_row - window),
                           end=dip_row + window)
    boundaries = result.boundaries()
    if not boundaries:
        return []
    # Subarrays repeat at 768/832-row pitch: walk forward from the first
    # discovered boundary.
    while len(boundaries) < count:
        base = boundaries[-1]
        scan = engineer.scan(channel=7, start=base + 700, end=base + 880)
        found = scan.boundaries()
        if not found:
            break
        boundaries.append(found[0])
    return boundaries


#: Heading of the section this script carries over unchanged: timings
#: and peak RSS measured by hand, which depend on the host.
HAND_RECORDED = "## Performance (recorded by hand)"


def main() -> None:
    output = Path(sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md")
    seed = env_int("REPRO_CHIP_SEED", 2023)
    log(f"building the testing station (chip seed {seed}) ...")
    spec = BoardSpec(seed=seed)
    board = spec.build()

    log("running the Figs. 3/4 campaign ...")
    config = SweepConfig.from_env(
        channels=tuple(range(8)),
        rows_per_region=env_int("REPRO_ROWS_PER_REGION", 12),
        hcfirst_rows_per_region=env_int("REPRO_HCFIRST_ROWS", 5),
    )
    fig34_metrics = MetricsRegistry()
    fig34_started = time.perf_counter()
    with use_metrics(fig34_metrics):
        dataset = run_sweep(config, spec=spec, board=board,
                            progress=lambda message: log(f"  {message}"))
    fig34_wall = time.perf_counter() - fig34_started
    dataset.metadata.pop("telemetry", None)  # keep the dataset serial-shaped

    log("running the Fig. 6 bank campaign ...")
    fig6_config = SweepConfig.from_env(
        channels=tuple(range(8)),
        pseudo_channels=(0, 1),
        banks=tuple(range(env_int("REPRO_FIG6_BANKS", 4))),
        region_size=100,
        rows_per_region=env_int("REPRO_FIG6_ROWS", 3),
        patterns=(ROWSTRIPE0, ROWSTRIPE1),
        include_hcfirst=False,
    )
    fig6_metrics = MetricsRegistry()
    fig6_started = time.perf_counter()
    with use_metrics(fig6_metrics):
        fig6_dataset = run_sweep(fig6_config, spec=spec, board=board)
    fig6_wall = time.perf_counter() - fig6_started
    fig6_dataset.metadata.pop("telemetry", None)

    log("running the fleet-population campaign ...")
    from repro.core.fleet import FleetConfig, FleetRunner
    fleet_config = FleetConfig(
        devices=env_int("REPRO_FLEET_DEVICES", 40), base_seed=seed,
        jobs=config.jobs, spec=BoardSpec(seed=seed))
    fleet = FleetRunner(fleet_config).run()

    log("discovering subarray structure (footnote 3) ...")
    boundaries = discover_subarray_sizes(board, dataset)
    sizes = [second - first
             for first, second in zip(boundaries, boundaries[1:])]

    log("running the Sec 5 U-TRR experiment ...")
    utrr = UTrrExperiment(board.host, board.device.mapper).run(
        DramAddress(0, 0, 0, 6000),
        iterations=env_int("REPRO_UTRR_ITERATIONS", 100))

    log("running the interference ablation ...")
    ablation_rows = range(5000, 5064, 8)
    def mean_ber(controls):
        board.host.set_ecc_enabled(controls.ecc_enabled)
        experiment = BerExperiment(board.host, board.device.mapper,
                                   ExperimentConfig(controls=controls))
        return float(np.mean([
            experiment.run_row(DramAddress(7, 0, 0, row), ROWSTRIPE0).ber
            for row in ablation_rows]))
    clean = mean_ber(InterferenceControls())
    with_ecc = mean_ber(InterferenceControls(ecc_enabled=True))
    with_refresh = mean_ber(InterferenceControls(
        issue_periodic_refresh=True, time_budget_s=1.0))
    board.host.set_ecc_enabled(False)

    log("running the temperature ablation ...")
    temp_means = {}
    experiment = BerExperiment(board.host, board.device.mapper,
                               ExperimentConfig())
    for temperature in (55.0, 70.0, 85.0, 90.0):
        board.set_target_temperature(temperature)
        temp_means[temperature] = float(np.mean([
            experiment.run_row(DramAddress(7, 0, 0, row), ROWSTRIPE0).ber
            for row in range(5000, 5032, 8)]))
    board.set_target_temperature(85.0)

    log("running the RowPress extension ...")
    from repro.core.rowpress import RowPressExperiment
    rowpress = RowPressExperiment(board.host, board.device.mapper)
    rp_victim = DramAddress(7, 0, 0, 5000)
    rp_base = rowpress.first_flip_hammers(rp_victim, 0)
    rp_pressed = rowpress.first_flip_hammers(rp_victim, 4096)

    log("running the TRR-bypass extension ...")
    from repro.attacks.trrespass import TrrBypassAttack
    # A fresh station: the RowPress run above has just hammered this
    # victim, and the comparison should not depend on what the earlier
    # experiments leave behind on the board.
    bypass_board = spec.build()
    bypass_board.host.set_ecc_enabled(False)
    bypass = TrrBypassAttack(
        bypass_board.host, bypass_board.device.mapper).compare(
            DramAddress(7, 0, 0, 5000), hammer_count=400_000)

    log("running the orientation analysis ...")
    from repro.core.orientation_re import (
        OrientationAnalysis,
        render_orientation_table,
    )
    orientation = OrientationAnalysis(
        board.host, board.device.mapper).profile_channels(
            (0, 2, 7), rows=range(5000, 5064, 8))

    log("running the voltage ablation ...")
    volt_means = {}
    experiment = BerExperiment(board.host, board.device.mapper,
                               ExperimentConfig())
    for voltage in (2.5, 2.3, 2.1):
        board.device.set_wordline_voltage(voltage)
        volt_means[voltage] = float(np.mean([
            experiment.run_row(DramAddress(7, 0, 0, row), ROWSTRIPE0).ber
            for row in range(5000, 5032, 8)]))
    board.device.set_wordline_voltage(2.5)

    log("running the cross-channel experiment ...")
    from repro.core.cross_channel import CrossChannelExperiment
    cross = CrossChannelExperiment(board.host, board.device.mapper).run(
        DramAddress(2, 0, 0, 5000), activations=2_000_000)

    log("running the attack/defense implications ...")
    templater = MemoryTemplater(board.host, board.device.mapper,
                                hammer_count=128 * 1024,
                                pattern=ROWSTRIPE1)
    templating = templater.compare_channels(
        [0, 7], rows=range(4000, 4384, 4), target_templates=400)
    characterization = run_sweep(SweepConfig(
        channels=(0, 3, 7), rows_per_region=4, hcfirst_rows_per_region=4,
        patterns=(ROWSTRIPE0, ROWSTRIPE1), include_ber=False,
        jobs=config.jobs), spec=spec, board=board)
    base_probability = 6.0 / min(
        record.hc_first for record in
        characterization.hcfirst(include_censored=False))
    defenses = compare_defenses(
        board, characterization,
        [DramAddress(channel, 0, 0, row) for channel in (0, 3, 7)
         for row in range(5200, 5216, 4)],
        base_probability=base_probability)

    log("rendering EXPERIMENTS.md ...")
    numbers = headline_numbers(dataset,
                               utrr_period=utrr.inferred_period)
    sections = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Generated by `tools/generate_experiments.py` on the simulated",
        f"HBM2 chip (specimen seed {seed}), sampling "
        f"{config.rows_per_region} BER rows and "
        f"{config.hcfirst_rows_per_region} HC_first rows per 3K-row "
        "region (paper: every row, 5 repetitions, on real hardware).",
        "Absolute BER/HC_first values come from the calibrated fault",
        "model; what this file demonstrates is that the *measured shape*",
        "of every observation matches the paper when the paper's own",
        "methodology is run against the simulated chip.",
        "",
        f"Sweep campaigns ran with `jobs={config.jobs}`"
        + (" (serial)" if config.jobs == 1
           else " worker processes (`REPRO_JOBS`)")
        + "; by the sharding contract (README \"Execution engine\",",
        "`repro.core.parallel`) every number below is identical at any",
        "job count — shards split by (channel, pseudo channel, bank,",
        "region), workers rebuild the same deterministic chip from its",
        "`BoardSpec`, and datasets merge back in serial order.  The",
        "campaign ran under a fault-free plan; by the resilience",
        "contract (README \"Fault injection & resilience\",",
        "`repro.faults`) every number is also unchanged under any",
        "recoverable fault plan — injected link/worker/thermal faults",
        "are retried, re-requested, or re-settled back to a",
        "byte-identical dataset.",
        "",
        "## Campaign telemetry",
        "",
        "Command-stream accounting from `repro.obs` (the same registry",
        "the CLI's `--metrics` flag snapshots; record a full trace with",
        "`--trace` and render it via `repro obs summarize`):",
        "",
        *telemetry_lines("Figs. 3/4 campaign", fig34_metrics, fig34_wall),
        *telemetry_lines("Fig. 6 bank campaign", fig6_metrics, fig6_wall),
        "",
        "## Headline numbers (K1)",
        "",
        "```",
        format_headline_table(numbers),
        "```",
        "",
        "## T1 — Table 1 data patterns",
        "",
        "Implemented verbatim in `repro.core.patterns` "
        "(`tests/core/test_patterns.py` checks every byte).",
        "",
        "## F3 — Fig. 3: BER across rows, channels, data patterns",
        "",
        "Paper: bitflips in every tested row; channels 6/7 worst; "
        "channel grouping in die pairs; ch7/ch0 WCDP ratio 2.03x (79% "
        "difference); rowstripe > checkered.",
        "",
        "```",
        render_box_table(fig3_ber_distributions(dataset),
                         value_format="{:.5f}"),
        "```",
        "",
        f"- measured channel groups by BER: "
        f"{channel_groups_by_ber(dataset)}",
        f"- rows with zero WCDP flips: "
        f"{sum(1 for record in dataset.ber(pattern='WCDP') if record.flips == 0)}"
        f" / {len(dataset.ber(pattern='WCDP'))}",
        "",
        "## F4 — Fig. 4: HC_first across rows, channels, data patterns",
        "",
        "Paper: minimum 14,531; channels 6/7 skew low; ch0 means "
        "57,925 (Rowstripe0) vs 79,179 (Rowstripe1).",
        "",
        "```",
        render_box_table(fig4_hcfirst_distributions(dataset),
                         value_format="{:.0f}"),
        "```",
        "",
        "## F5 — Fig. 5: per-row BER and subarray structure",
        "",
        "Paper: BER peaks mid-subarray and droops at edges; subarrays "
        "of 832 or 768 rows; the final 832-row subarray ('SA Z') shows "
        "far fewer flips.",
        "",
        "```",
        render_row_series(fig5_row_series(dataset), boundaries=boundaries),
        "```",
        "",
        f"- subarray boundaries discovered by single-sided RH: "
        f"{boundaries}",
        f"- implied subarray sizes (paper: 832 / 768): {sizes}",
    ]
    rows = board.device.geometry.rows
    last_sa = [record.ber for record in dataset.ber(
        channel=7, pattern="WCDP", region="last")
        if record.row >= rows - 832]
    middle = [record.ber for record in dataset.ber(
        channel=7, pattern="WCDP", region="middle")]
    if last_sa and middle:
        sections += [
            f"- ch7 mean WCDP BER, middle region: {np.mean(middle):.4%}; "
            f"final 832-row subarray: {np.mean(last_sa):.4%} "
            f"({np.mean(last_sa) / np.mean(middle):.1%} of middle)",
        ]
    sections += [
        "",
        "## F6 — Fig. 6: BER variation across banks",
        "",
        "Paper: bank/pseudo-channel variation exists (<=0.23% mean-BER "
        "spread within a channel) but channel variation dominates.",
        "",
        "```",
        render_scatter_table(fig6_bank_scatter(fig6_dataset)),
        "```",
        "",
        "## P1 — population: chip-to-chip variation (fleet mode)",
        "",
        "Paper: six physical chips (Sec 4) bound the chip-to-chip "
        "axis; fleet mode re-seeds distinct simulated specimens from "
        "one spec template and reports the population spread "
        "(`repro fleet run`, byte-identical at any `--jobs` level).",
        "",
        f"- devices: {fleet.population['devices']} (seeds "
        f"{fleet_config.base_seed}.."
        f"{fleet_config.base_seed + fleet_config.devices - 1})",
        f"- HC_first, per-device minimum: "
        f"min={fleet.population['hc_first_min']['min']:.0f} "
        f"p50={fleet.population['hc_first_min']['p50']:.0f} "
        f"max={fleet.population['hc_first_min']['max']:.0f}",
        f"- BER, per-device mean: "
        f"min={fleet.population['ber_mean']['min']:.6f} "
        f"p50={fleet.population['ber_mean']['p50']:.6f} "
        f"max={fleet.population['ber_mean']['max']:.6f}",
        f"- bitflips total: {fleet.population['bitflips_total']}; "
        f"fully censored devices: "
        f"{fleet.population['fully_censored_devices']}",
        "",
        "## S5 — Sec 5: uncovering the in-DRAM TRR",
        "",
        f"- canary retention onset: "
        f"{utrr.profile.retention_time_s * 1e3:.0f} ms",
        f"- refresh iterations over {utrr.iterations}: "
        f"{utrr.refresh_iterations}",
        f"- inferred TRR period (paper: 17 REFs): "
        f"**{utrr.inferred_period}**",
        "",
        "## A2/A3 — ablation: Sec 3.1 interference controls",
        "",
        f"- controls per paper (refresh off, ECC off): BER {clean:.4%}",
        f"- ECC left on: BER {with_ecc:.4%} "
        f"(masks {1 - with_ecc / clean:.0%} of flips)",
        f"- refresh left on (hidden TRR active): BER {with_refresh:.4%} "
        f"(prevents {1 - with_refresh / clean:.0%})",
        "",
        "## A1 — ablation: temperature sensitivity (paper future work)",
        "",
    ]
    for temperature, ber_value in temp_means.items():
        sections.append(f"- {temperature:.0f} degC: BER {ber_value:.4%}")
    sections += [
        "",
        "## A5 — attack implication: templating throughput",
        "",
    ]
    for channel, result in sorted(templating.items()):
        sections.append(
            f"- ch{channel}: {result.templates_found} templates in "
            f"{result.dram_time_s:.3f} s DRAM time "
            f"({result.seconds_per_template * 1e3:.2f} ms/template)")
    speedup = (templating[0].seconds_per_template /
               templating[7].seconds_per_template)
    sections.append(f"- most-vulnerable-channel speedup: {speedup:.2f}x")
    sections += [
        "",
        "## A4 — defense implication: adaptive PARA",
        "",
    ]
    for name in ("none", "uniform", "adaptive"):
        sections.append(f"- {defenses[name].summary()}")
    saved = 1 - (defenses["adaptive"].total_refreshes /
                 max(1, defenses["uniform"].total_refreshes))
    sections.append(f"- adaptive saves {saved:.0%} of preventive "
                    f"refreshes at equal protection")
    sections += [
        "",
        "## E1 — extension: RowPress (Sec 6 future work 2.2)",
        "",
        f"- first-flip hammers at minimum tAggON: {rp_base:,}",
        f"- first-flip hammers at ~6.8 us tAggON: {rp_pressed:,} "
        f"({rp_base / rp_pressed:.1f}x reduction; RowPress reports "
        f"~an order of magnitude)",
        "",
        "## E2 — extension: bypassing the uncovered TRR",
        "",
        f"- naive attack under live refresh: {bypass['naive'].flips} "
        f"flips (TRR keeps rescuing the victim)",
        f"- decoy attack under live refresh: {bypass['decoy'].flips} "
        f"flips (sampler misdirected; mitigation defeated)",
        "",
        "## E5 — extension: cell-orientation analysis",
        "",
        "```",
        render_orientation_table(orientation),
        "```",
        "",
        "## E3 — extension: wordline-voltage sweep "
        "(Sec 6 future work 2.4)",
        "",
    ]
    for voltage, ber_value in volt_means.items():
        sections.append(f"- {voltage:.1f} V: BER {ber_value:.4%}")
    sections += [
        "",
        "## E4 — extension: cross-channel interference "
        "(Sec 6 future work 3)",
        "",
        f"- differential stress test, {cross.activations:,} aggressor-"
        f"channel activations vs equal idle window: control "
        f"{cross.control_flips} flips, stressed {cross.stressed_flips} "
        f"flips -> interference detected: "
        f"{cross.interference_detected} (no modelled inter-die "
        f"coupling; `bench_extension_cross_channel.py` shows the "
        f"detector firing on a hypothetical-coupling chip)",
    ]
    sections.append("")
    # Hand-recorded measurements (host-dependent timings) are carried
    # over from the file being replaced.
    previous = output.read_text() if output.exists() else ""
    if HAND_RECORDED in previous:
        sections.append(previous[previous.index(HAND_RECORDED):].rstrip())
        sections.append("")

    output.write_text("\n".join(sections))
    log(f"wrote {output} "
        f"({len(dataset.ber_records)} BER records, "
        f"{len(dataset.hcfirst_records)} HC_first records)")


if __name__ == "__main__":
    main()
