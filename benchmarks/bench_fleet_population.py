"""P2 — fleet population: N re-seeded specimens through the warm pool.

The paper reports chip-to-chip variation over six physical HBM2 devices
(§4); the fleet mode scales that axis in simulation.  This benchmark
runs ``REPRO_FLEET_DEVICES`` (default 100) distinct specimens — each a
re-seeded board with its own cell ground truth — through ``repro``'s
fleet runner and archives the population HC_first/BER distributions
in ``fleet_population.json``.

Fleet throughput is measured by the benchmark suite's ``fleet_pooled``
workload (``benchmarks/suite/``), not here.
"""

import json

from repro.bender.board import BoardSpec
from repro.core.fleet import FleetConfig, FleetRunner

from benchmarks.conftest import emit, env_int

DEVICES = env_int("REPRO_FLEET_DEVICES", 100)
JOBS = env_int("REPRO_FLEET_JOBS", 2, minimum=1)


def test_fleet_population(results_dir):
    config = FleetConfig(devices=DEVICES, base_seed=0, jobs=JOBS,
                         spec=BoardSpec(seed=0))
    runner = FleetRunner(config)
    result = runner.run()

    assert not runner.errors
    population = result.population
    assert population["devices"] == DEVICES
    # A population of distinct specimens must actually vary: identical
    # per-device minima across 100 seeds would mean the re-seeding is
    # broken and every "device" is the same chip.
    hc_minima = {summary["hc_first_min"] for summary in result.devices}
    assert len(hc_minima) > 1

    (results_dir / "fleet_population.json").write_text(json.dumps({
        "devices": DEVICES,
        "jobs": JOBS,
        "population": population,
    }, indent=1) + "\n")

    hc = population["hc_first_min"]
    ber = population["ber_mean"]
    lines = [
        f"devices: {DEVICES} (jobs={JOBS})",
        f"HC_first (per-device min): min={hc['min']:.0f} "
        f"p50={hc['p50']:.0f} max={hc['max']:.0f}",
        f"BER (per-device mean): min={ber['min']:.6f} "
        f"p50={ber['p50']:.6f} max={ber['max']:.6f}",
        f"bitflips total: {population['bitflips_total']}; fully censored "
        f"devices: {population['fully_censored_devices']}",
    ]
    emit(results_dir, "fleet_population", "\n".join(lines))
