"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import replace

import pytest

from benchmarks.suite import harness
from benchmarks.suite.harness import (
    END_TO_END,
    per_layer_spec,
    run_workload,
    summarize,
)
from benchmarks.suite.ledger import Ledger, entry_points
from benchmarks.suite.workloads import (
    WORKLOADS,
    fig3_ber,
    fig4_hcfirst,
    fleet_pooled,
    trr_refresh,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_partitions_a_nested_call_tree():
    clock = FakeClock()
    ledger = Ledger(clock)

    def advance(seconds):
        clock.now += seconds

    leaf = ledger.wrap("leaf", lambda: advance(2))

    def middle():
        advance(1)
        leaf()
        advance(3)

    middle = ledger.wrap("middle", middle)

    def failing():
        advance(1)
        raise ValueError("boom")

    failing = ledger.wrap("failing", failing)

    def root():
        advance(5)
        middle()
        leaf()
        with pytest.raises(ValueError):
            failing()
        advance(7)

    ledger.wrap("root", root)()
    assert dict(ledger.self_s) == {"root": 12, "middle": 4, "leaf": 4,
                                   "failing": 1}
    assert dict(ledger.calls) == {"root": 1, "middle": 1, "leaf": 2,
                                  "failing": 1}
    assert sum(ledger.self_s.values()) == clock.now


def test_other_threads_pass_through_untimed():
    ledger = Ledger(FakeClock())
    wrapped = ledger.wrap("f", lambda: None)
    thread = threading.Thread(target=wrapped)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert not ledger.calls


def test_summarize_median_and_quartiles():
    assert summarize([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5, "min": 1.0, "max": 5.0, "n": 5}
    assert summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0,
                                "min": 7.0, "max": 7.0, "n": 1}
    assert harness.metric_entry([3.0, 1.0, 2.0], "s", "max")["value"] == 3.0


@pytest.mark.parametrize("station", [
    lambda seed: fig3_ber(seed, rows_per_region=1),
    lambda seed: fig4_hcfirst(seed, rows_per_region=1),
    lambda seed: trr_refresh(seed, channels=(7,)),
    lambda seed: fleet_pooled(seed, devices=4),
], ids=["fig3_ber", "fig4_hcfirst", "trr_refresh", "fleet_pooled"])
def test_each_workload_runs_cold_then_warm_at_small_size(station):
    run = station(5)
    try:
        cold, warm = run.run(), run.run()
    finally:
        run.close()
    assert cold.records > 0 and cold.records == warm.records
    assert cold.failed == warm.failed == 0
    assert cold.fingerprint == warm.fingerprint


def test_traced_run_is_correct_and_removes_every_wrapper(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    targets = [target for point in entry_points() for target in point.targets]
    originals = [vars(owner)[attribute] for owner, attribute in targets]
    workload = replace(WORKLOADS["fig3_ber"],
                       station=lambda seed: fig3_ber(seed, rows_per_region=1))
    record = run_workload(workload, seed=5, seconds=0, trace=True)

    assert [vars(owner)[attribute] for owner, attribute in targets] == \
        originals
    assert record["correct"], record["problems"]
    assert list(record["per_layer"]) == [name for name, _, _
                                         in per_layer_spec()]
    layer = record["per_layer"]
    assert layer["cold.core.sweeps.run.calls"]["value"] == 1
    assert layer["warm.engine.backend.compile.calls"]["value"] == 0
    assert layer["cold.bender.interpreter.run.calls"]["value"] == 0
    assert set(record["end_to_end"]) == set(END_TO_END) | {
        harness.FAILED_FRACTION}


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == \
        list(WORKLOADS)
    assert {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in END_TO_END.items()}
    assert [(metric["name"], metric["unit"], metric["better"])
            for metric in spec["per_layer"]] == per_layer_spec()


def test_runner_refuses_repro_variables():
    completed = subprocess.run(
        [sys.executable, str(harness.ROOT / "benchmarks/suite/run.py"),
         "--workload", "fig3_ber"],
        env=dict(os.environ, REPRO_JOBS="2"), capture_output=True,
        text=True, timeout=60)
    assert completed.returncode == 2
    assert "REPRO_JOBS" in completed.stderr
    assert completed.stdout == ""
