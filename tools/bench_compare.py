#!/usr/bin/env python3
"""Compare a benchmark-suite record against the committed baseline.

Usage::

    python tools/bench_compare.py BASELINE CURRENT

Both files are ``python -m benchmarks.suite --out`` records; the
committed baseline is ``benchmarks/results/BENCH_suite.json``.  The
question is whether a change altered *what the campaigns computed*
(hard failure) or only *how fast they ran* (a warning, since CI hosts
differ).  For every workload of the baseline:

* **hard failure** — the workload is missing from CURRENT, its
  ``correct`` is not true, its ``fingerprint`` differs, or any
  per-layer ``*.calls`` count or ``*.hit_rate`` differs.  The suite
  README states these repeat exactly on every run of one commit.
* **warning** — an end-to-end metric is worse than the baseline by
  more than the ``bound`` that ``BENCHMARK.json`` gives it.

Exit codes: 0 clean, 1 timing warnings only, 2 hard failures.  An
unusable input (unreadable or truncated JSON, not a suite record)
prints one ``error:`` line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: Declares the end-to-end metrics, which way is better, and the share
#: by which each may get worse before it counts as a regression.
BENCHMARK_SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: Per-layer ledger entries that are deterministic counts or ratios of
#: counts, as opposed to self times.
EXACT_SUFFIXES = (".calls", ".hit_rate")


class _CompareError(Exception):
    """An unusable input: reported as one ``error:`` line, exit 2."""


def _load(path: Path) -> Dict:
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise _CompareError(f"unreadable record {path}: {error}") from error
    if not isinstance(record, dict):
        raise _CompareError(f"{path} is not a JSON object "
                            f"(got {type(record).__name__})")
    return record


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` for every end-to-end metric."""
    return {metric["name"]: (metric["better"], metric["bound"])
            for metric in _load(BENCHMARK_SPEC)["end_to_end"]}


def compare(baseline: Dict, current: Dict,
            bounds: Dict[str, Tuple[str, float]]
            ) -> Tuple[List[str], List[str]]:
    """(failures, warnings) of ``current`` against ``baseline``."""
    failures: List[str] = []
    warnings: List[str] = []
    if not baseline["workloads"]:
        raise _CompareError("the baseline has no workloads")
    for name, base in baseline["workloads"].items():
        record = current["workloads"].get(name)
        if record is None:
            failures.append(f"{name}: missing from the current record")
            continue
        if record["correct"] is not True:
            failures.append(f"{name}: correct is {record['correct']!r}: "
                            f"{record.get('problems')}")
            continue
        if record["fingerprint"] != base["fingerprint"]:
            failures.append(f"{name}: fingerprint {base['fingerprint']} "
                            f"-> {record['fingerprint']}")
        layer = record["per_layer"]
        for key, stats in base["per_layer"].items():
            if not key.endswith(EXACT_SUFFIXES):
                continue
            value = layer.get(key, {}).get("value")
            if value != stats["value"]:
                failures.append(f"{name}: {key}: {stats['value']!r} -> "
                                f"{value!r}")
        for metric, (better, bound) in bounds.items():
            old = base["end_to_end"][metric]["value"]
            new = record["end_to_end"][metric]["value"]
            worse = (new - old) / old
            if better == "higher":
                worse = -worse
            if worse > bound:
                warnings.append(f"{name}: {metric}: {old:.4g} -> "
                                f"{new:.4g} ({worse:.1%} worse, bound "
                                f"{bound:.0%})")
    return failures, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare a benchmark-suite record against a "
                    "baseline (count drift fails, timing warns).")
    parser.add_argument("baseline", type=Path,
                        help="committed suite record "
                             "(benchmarks/results/BENCH_suite.json)")
    parser.add_argument("current", type=Path,
                        help="python -m benchmarks.suite --out record")
    args = parser.parse_args(argv)
    try:
        baseline, current = _load(args.baseline), _load(args.current)
        try:
            failures, warnings = compare(baseline, current, load_bounds())
        except (KeyError, TypeError, AttributeError) as error:
            raise _CompareError(f"not a benchmark-suite record: "
                                f"{type(error).__name__}: {error}") from error
    except _CompareError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for finding in failures:
        print(f"FAIL  {finding}")
    for finding in warnings:
        print(f"WARN  {finding}")
    verdict = ("hard failure" if failures
               else "warnings only" if warnings else "clean")
    print(f"{len(baseline['workloads'])} workload(s) compared: "
          f"{len(failures)} failure(s), {len(warnings)} warning(s) "
          f"[{verdict}]")
    return 2 if failures else 1 if warnings else 0


if __name__ == "__main__":
    sys.exit(main())
