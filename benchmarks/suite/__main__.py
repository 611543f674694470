"""``python -m benchmarks.suite [--workload NAME]... [--seed N] [--out FILE]``

Runs each workload in its own interpreter with the traced repetition
on, prints every end-to-end metric (reported value, median, quartiles,
n) and the
per-layer ledger, and with ``--out`` writes all records as one JSON
document.  Exits 2, printing only the problems, if any workload fails
its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.suite.harness import ARMS, DEFAULT_SECONDS, DEFAULT_SEED
from benchmarks.suite.workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_one(workload: str, seed: int) -> Optional[Dict[str, object]]:
    """One workload in a fresh interpreter; its record, or None if the
    runner refused to start (its error is already on stderr)."""
    with tempfile.TemporaryDirectory(prefix="suite-") as scratch:
        record_path = Path(scratch) / "record.json"
        subprocess.run(
            [sys.executable, str(RUN), "--workload", workload,
             "--seed", str(seed), "--seconds", str(DEFAULT_SECONDS),
             "--trace", "1", "--record", str(record_path)],
            stdout=subprocess.DEVNULL, timeout=600)
        if not record_path.exists():
            return None
        return json.loads(record_path.read_text())


def render(record: Dict[str, object]) -> List[str]:
    lines = [f"== {record['workload']} (seed {record['seed']}, "
             f"fingerprint {record['fingerprint']}, "
             f"{record['attempted']} attempted, {record['failed']} failed)",
             f"   why: {record['why']}",
             f"   {'metric':<22}{'unit':<11}{'value':>12} {'(of n)':<9}"
             f"{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}"]
    for name, stats in record["end_to_end"].items():
        lines.append(f"   {name:<22}{stats['unit']:<11}{stats['value']:>12.4f}"
                     f" {'(' + stats['statistic'] + ')':<9}"
                     f"{stats['median']:>12.4f}{stats['q1']:>12.4f}"
                     f"{stats['q3']:>12.4f}{stats['n']:>4}")
    layer = record["per_layer"]
    lines.append(f"   {'ledger (traced rep, n=1)':<40}"
                 + "".join(f"{arm + ' self_s':>14}{'calls':>10}"
                           for arm in ARMS))
    functions = [name[len("cold."):-len(".self_s")] for name in layer
                 if name.startswith("cold.") and name.endswith(".self_s")]
    for function in functions:
        lines.append(f"   {function:<40}" + "".join(
            f"{layer[f'{arm}.{function}.self_s']['value']:>14.4f}"
            f"{layer[f'{arm}.{function}.calls']['value']:>10}"
            for arm in ARMS))
    for metric in ("unattributed_s", "trace_overhead",
                   "engine.cache.hit_rate", "engine.fastpath.hit_rate"):
        lines.append(f"   {metric:<40}" + "".join(
            f"{layer[f'{arm}.{metric}']['value']:>14.4f}{'':>10}"
            for arm in ARMS))
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Run the campaign benchmark suite.")
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path,
                        help="write every workload's record as JSON here")
    args = parser.parse_args(argv)

    records = {}
    problems = []
    for workload in args.workload or WORKLOADS:
        record = run_one(workload, args.seed)
        if record is None:
            problems.append(f"{workload}: the runner refused to start")
            continue
        records[workload] = record
        problems += [f"{workload}: {problem}"
                     for problem in record["problems"]]
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    for record in records.values():
        print("\n".join(render(record)))
    if args.out is not None:
        host = next(iter(records.values()))["host"]
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": DEFAULT_SECONDS, "host": host,
             "workloads": records}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
