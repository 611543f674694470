#!/usr/bin/env python3
"""Calibration helper: measure a candidate CalibrationProfile against the
paper's target numbers.

The default profile in `repro.dram.calibration` was tuned with this
tool.  It runs a reduced spatial sweep for one or more candidate
profiles and prints the calibration scoreboard — the quantities the
profile's constants exist to hit — so a parameter change can be judged
in one glance.

Usage:
    python tools/calibrate.py                       # score the default
    python tools/calibrate.py --weak-median 9e5     # one override
    python tools/calibrate.py --scan weak_sigma 0.7 0.85 1.0

Tuning guidance (see docs/fault_model.md for the why):

* BER levels move with ``weak_fraction`` (linearly) and ``weak_median``
  (via the lognormal CDF at 512K disturbance).
* HC_first means move with ``weak_median`` and ``weak_sigma`` (the
  min-of-n statistics of the weak population).
* The global minimum HC_first is floor-dominated: ``threshold_floor``.
* The BER channel ratio is the ``weak_fraction`` ratio; the HC_first
  channel spread follows only logarithmically — do not try to fix one
  with the other's knob.
* Pattern contrasts: orientation scales (rowstripe split per die),
  ``intra_row_penalty`` (rowstripe vs checkered),
  ``same_bit_coupling`` (rowstripe vs solid).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.tables import headline_numbers, format_headline_table
from repro.bender.board import make_paper_setup
from repro.core.sweeps import SpatialSweep, SweepConfig
from repro.dram.calibration import default_profile


def score_profile(profile, seed: int, rows: int, hc_rows: int) -> str:
    board = make_paper_setup(seed=seed, profile=profile)
    dataset = SpatialSweep(board, SweepConfig(
        channels=tuple(range(8)),
        rows_per_region=rows,
        hcfirst_rows_per_region=hc_rows,
    )).run()
    return format_headline_table(headline_numbers(dataset))


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="score CalibrationProfile candidates against the paper")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--rows", type=int, default=8,
                        help="BER rows per region (default: 8)")
    parser.add_argument("--hc-rows", type=int, default=4,
                        help="HC_first rows per region (default: 4)")
    parser.add_argument("--weak-median", type=float)
    parser.add_argument("--weak-sigma", type=float)
    parser.add_argument("--threshold-floor", type=float)
    parser.add_argument("--intra-row-penalty", type=float)
    parser.add_argument("--scan", nargs="+", metavar=("FIELD", "VALUE"),
                        help="profile field followed by candidate values, "
                             "e.g. --scan weak_sigma 0.7 0.85 1.0")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    overrides = {}
    for field in ("weak_median", "weak_sigma", "threshold_floor",
                  "intra_row_penalty"):
        value = getattr(args, field)
        if value is not None:
            overrides[field] = value

    if args.scan:
        field, *raw_values = args.scan
        if not raw_values:
            print("error: --scan needs at least one value",
                  file=sys.stderr)
            return 2
        for raw in raw_values:
            candidate = default_profile().with_overrides(
                **{**overrides, field: float(raw)})
            print(f"\n=== {field} = {raw} ===")
            print(score_profile(candidate, args.seed, args.rows,
                                args.hc_rows))
        return 0

    profile = default_profile().with_overrides(**overrides)
    label = overrides if overrides else "default profile"
    print(f"=== {label} ===")
    print(score_profile(profile, args.seed, args.rows, args.hc_rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
