"""Measure one workload in this interpreter and report it.

A run has three phases:

1. set-up: ``SETUP_PROBES`` fresh interpreters each time ``import
   repro``, building the station and ``EngineSession.prepare()``;
2. untraced repetitions, for at least ``--seconds`` and at least
   ``MIN_REPS``: a fresh station per repetition, the campaign once cold
   and once warm — these give the end-to-end metrics;
3. with ``--trace 1``, one more repetition with the ledger's wrappers
   installed — this gives the per-layer metrics.

Every run checks correctness: all fingerprints (cold and warm, every
repetition, traced and untraced) agree, match the pinned value at the
pinned seed, and pass the workload's paper-shape check; the traced
repetition never leaves the analytic fast path.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; a failed
check prints ``correct: false`` with no metrics and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy
from repro.obs import MetricsRegistry, use_metrics

from benchmarks.suite.ledger import Ledger, entry_points, installed
from benchmarks.suite.workloads import PINNED_SEED, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

ARMS = ("cold", "warm")
MIN_REPS = 3
SETUP_PROBES = 5
DEFAULT_SEED = PINNED_SEED
DEFAULT_SECONDS = 15

#: End-to-end metrics the benchmark reports with ``--trace 0``, as
#: name -> (unit, statistic reported).  Throughput reports the fastest
#: repetition: on a shared host, other tenants slow the CPU in bursts
#: of seconds and never speed it up, so the best repetition is the
#: estimate least moved by them (median and quartiles stay in the
#: record).
END_TO_END = {
    "setup_s": ("s", "median"),
    "cold_records_per_s": ("records/s", "max"),
    "warm_records_per_s": ("records/s", "max"),
    "peak_rss_mb": ("MB", "max"),
}
#: Reported beside them in the record but not listed in BENCHMARK.json:
#: a healthy run always reads 0 (the result line's ``failed`` carries it).
FAILED_FRACTION = "failed_fraction"

SETUP_PROBE = """\
import sys, time
started = time.perf_counter()
import repro
from repro.bender.board import BoardSpec
from repro.engine import EngineSession
EngineSession(board=BoardSpec(seed=int(sys.argv[1])).build()).prepare()
print(time.perf_counter() - started)
"""


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4), extremes and
    count."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    if len(ordered) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": ordered[0],
            "max": ordered[-1], "n": len(ordered)}


def metric_entry(values: Sequence[float], unit: str, statistic: str
                 ) -> Dict[str, object]:
    """One end-to-end metric: its reported ``value`` (the named
    statistic of ``values``), the full summary, and the samples."""
    summary = summarize(values)
    return dict(value=summary[statistic], statistic=statistic, unit=unit,
                **summary, values=list(values))


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def git_head(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> Dict[str, object]:
    return {
        "affinity_cpus": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_head": git_head(),
    }


def peak_rss_mb() -> float:
    """Largest maxrss of this process and its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def measure_setup(seed: int) -> List[float]:
    """Set-up seconds as timed inside each of ``SETUP_PROBES`` fresh
    interpreters."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))
    return [float(subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(seed)], env=env, check=True,
        capture_output=True, text=True, timeout=120).stdout)
        for _ in range(SETUP_PROBES)]


@dataclass
class Measurement:
    """What the runs of one workload observed."""

    walls: Dict[str, List[float]] = field(
        default_factory=lambda: {arm: [] for arm in ARMS})
    rates: Dict[str, List[float]] = field(
        default_factory=lambda: {arm: [] for arm in ARMS})
    #: (which run, dataset fingerprint), every arm of every repetition.
    fingerprints: List[Tuple[str, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    shape_checked: bool = False

    def record(self, workload: Workload, label: str, result) -> None:
        self.fingerprints.append((label, result.fingerprint))
        self.attempted += result.attempted
        self.failed += result.failed
        if result.failed:
            self.problems.append(f"{label}: {result.failed} of "
                                 f"{result.attempted} failed")
        if not self.shape_checked:
            self.problems.extend(workload.check(result.dataset))
            self.shape_checked = True


def measure(workload: Workload, seed: int, seconds: float,
            measurement: Measurement) -> None:
    """Untraced repetitions until ``seconds`` and ``MIN_REPS`` are met."""
    started = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - started < seconds:
        rep += 1
        station = workload.station(seed)
        try:
            for arm in ARMS:
                began = time.perf_counter()
                result = station.run()
                wall = time.perf_counter() - began
                measurement.walls[arm].append(wall)
                measurement.rates[arm].append(result.records / wall)
                measurement.record(workload, f"rep {rep} {arm}", result)
        finally:
            station.close()


def traced(workload: Workload, seed: int, measurement: Measurement
           ) -> Dict[str, Tuple[float, str]]:
    """One repetition under the ledger; returns the per-layer metrics."""
    points = entry_points()
    ledger = Ledger()
    metrics: Dict[str, Tuple[float, str]] = {}
    station = workload.station(seed)
    try:
        with installed(ledger, points):
            for arm in ARMS:
                ledger.reset()
                registry = MetricsRegistry()
                with use_metrics(registry):
                    began = time.perf_counter()
                    result = station.run()
                    wall = time.perf_counter() - began
                measurement.record(workload, f"traced {arm}", result)
                counters = registry.snapshot()["counters"]
                metrics.update(arm_ledger(
                    arm, ledger, points, wall,
                    statistics.median(measurement.walls[arm]), counters))
                measurement.problems.extend(
                    fast_path_problems(arm, ledger, counters))
    finally:
        station.close()
    return metrics


def arm_ledger(arm: str, ledger: Ledger, points, wall: float,
               untraced_wall: float, counters: Dict[str, float]
               ) -> Dict[str, Tuple[float, str]]:
    """The 50 per-layer metrics of one traced arm."""
    metrics: Dict[str, Tuple[float, str]] = {}
    for point in points:
        metrics[f"{arm}.{point.name}.self_s"] = (
            ledger.self_s.get(point.name, 0.0), "s")
        metrics[f"{arm}.{point.name}.calls"] = (
            ledger.calls.get(point.name, 0), "count")
    hits = counters.get("engine.cache.hits", 0)
    metrics[f"{arm}.engine.cache.hit_rate"] = (share(
        hits, hits + counters.get("engine.cache.misses", 0)), "ratio")
    fast = counters.get("engine.fastpath.hits", 0)
    metrics[f"{arm}.engine.fastpath.hit_rate"] = (share(
        fast, fast + counters.get("engine.fastpath.fallbacks", 0)
        + counters.get("engine.fastpath.bypasses", 0)), "ratio")
    metrics[f"{arm}.unattributed_s"] = (
        wall - sum(ledger.self_s.values()), "s")
    metrics[f"{arm}.trace_overhead"] = (wall / untraced_wall - 1, "ratio")
    return metrics


def fast_path_problems(arm: str, ledger: Ledger,
                       counters: Dict[str, float]) -> List[str]:
    problems = [f"traced {arm}: engine.fastpath.{kind} = {count:g}"
                for kind in ("fallbacks", "bypasses")
                for count in [counters.get(f"engine.fastpath.{kind}", 0)]
                if count]
    if ledger.calls.get("bender.interpreter.run"):
        problems.append(f"traced {arm}: bender.interpreter.run called "
                        f"{ledger.calls['bender.interpreter.run']} times")
    return problems


def fingerprint_problems(workload: Workload, seed: int,
                         fingerprints: List[Tuple[str, str]]) -> List[str]:
    """Every run must agree, and match the pin at the pinned seed."""
    distinct = sorted({fingerprint for _, fingerprint in fingerprints})
    if len(distinct) > 1:
        return ["fingerprints differ across runs: " + ", ".join(
            f"{label}={fingerprint[:8]}" for label, fingerprint in fingerprints)]
    if seed == PINNED_SEED and distinct != [workload.pinned]:
        return [f"fingerprint {distinct} != pinned {workload.pinned}"]
    return []


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for arm in ARMS:
        for point in entry_points():
            spec.append((f"{arm}.{point.name}.self_s", "s", "lower"))
            spec.append((f"{arm}.{point.name}.calls", "count", "lower"))
        spec += [(f"{arm}.engine.cache.hit_rate", "ratio", "higher"),
                 (f"{arm}.engine.fastpath.hit_rate", "ratio", "higher"),
                 (f"{arm}.unattributed_s", "s", "lower"),
                 (f"{arm}.trace_overhead", "ratio", "lower")]
    return spec


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> Dict[str, object]:
    """Measure ``workload`` and return its full record."""
    measurement = Measurement()
    end_to_end: Dict[str, Dict[str, object]] = {}
    per_layer: Dict[str, Dict[str, object]] = {}
    try:
        setup = measure_setup(seed)
        measure(workload, seed, seconds, measurement)
        rss = peak_rss_mb()
        if trace:
            per_layer = {name: {"value": value, "unit": unit}
                         for name, (value, unit)
                         in traced(workload, seed, measurement).items()}
        samples = {"setup_s": setup,
                   "cold_records_per_s": measurement.rates["cold"],
                   "warm_records_per_s": measurement.rates["warm"],
                   "peak_rss_mb": [rss]}
        end_to_end = {name: metric_entry(samples[name], unit, statistic)
                      for name, (unit, statistic) in END_TO_END.items()}
    except Exception as error:  # reported as a failed run, never hidden
        traceback.print_exc()
        measurement.attempted += 1
        measurement.failed += 1
        measurement.problems.append(f"{type(error).__name__}: {error}")
    end_to_end[FAILED_FRACTION] = metric_entry(
        [share(measurement.failed, measurement.attempted)], "ratio", "max")
    problems = (measurement.problems
                + fingerprint_problems(workload, seed,
                                       measurement.fingerprints))
    fingerprints = sorted({fp for _, fp in measurement.fingerprints})
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "correct": not problems,
        "problems": problems,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "fingerprint": fingerprints[0] if len(fingerprints) == 1 else None,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "host": host_facts(),
    }


def result_line(record: Dict[str, object], trace: bool) -> Dict[str, object]:
    """The result line's object (metrics withheld when incorrect)."""
    metrics: Dict[str, object] = {}
    if record["correct"]:
        if trace:
            metrics = record["per_layer"]
        else:
            metrics = {name: {"value": record["end_to_end"][name]["value"],
                              "unit": unit}
                       for name, (unit, _) in END_TO_END.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/suite/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="also write the full JSON record here")
    args = parser.parse_args(argv)

    # Temporary files (the fleet's checkpoints, event logs and telemetry
    # spools) stay inside the checkout and go when the run ends.
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    try:
        record = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"error: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0 if record["correct"] else 2
