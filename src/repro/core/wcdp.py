"""Per-row worst-case data pattern (WCDP) selection.

Paper §3.1: *"We define the worst-case data pattern (WCDP) as the data
pattern that causes the smallest HC_first for a given row.  When multiple
data patterns cause the smallest HC_first, we select WCDP as the data
pattern that causes the largest BER at a hammer count of 256K."*

Figures 3 and 4 plot WCDP as a fifth column next to the four Table 1
patterns; Figure 5 uses the per-row WCDP for its row sweep.  This module
derives WCDP views from a dataset containing per-pattern BER and HC_first
records and emits synthesized records carrying ``pattern="WCDP"``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.patterns import WCDP_NAME
from repro.core.results import (
    BerRecord,
    CharacterizationDataset,
    HcFirstRecord,
    RowKey,
)
from repro.errors import AnalysisError


def _mean_ber_by_pattern(records: List[BerRecord]) -> Dict[str, float]:
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for record in records:
        sums[record.pattern] = sums.get(record.pattern, 0.0) + record.ber
        counts[record.pattern] = counts.get(record.pattern, 0) + 1
    return {pattern: sums[pattern] / counts[pattern] for pattern in sums}


def _best_hcfirst_by_pattern(
        records: List[HcFirstRecord]) -> Dict[str, Optional[int]]:
    best: Dict[str, Optional[int]] = {}
    for record in records:
        current = best.get(record.pattern, "unset")
        if current == "unset":
            best[record.pattern] = record.hc_first
            continue
        if record.hc_first is None:
            continue
        if current is None or record.hc_first < current:
            best[record.pattern] = record.hc_first
    return best


def _wcdp_rule(row_key: RowKey, hc_records: List[HcFirstRecord],
               ber_records: List[BerRecord]) -> str:
    """:func:`select_wcdp`'s rule over one row's records."""
    ber_records = [r for r in ber_records if r.pattern != WCDP_NAME]
    if not hc_records and not ber_records:
        raise AnalysisError(f"no records for row {row_key}")

    mean_ber = _mean_ber_by_pattern(ber_records)

    if hc_records:
        best_hc = _best_hcfirst_by_pattern(
            [r for r in hc_records if r.pattern != WCDP_NAME])
        uncensored = {pattern: hc for pattern, hc in best_hc.items()
                      if hc is not None}
        if uncensored:
            smallest = min(uncensored.values())
            tied = sorted(pattern for pattern, hc in uncensored.items()
                          if hc == smallest)
        else:
            tied = sorted(best_hc)
        if len(tied) == 1:
            return tied[0]
        if mean_ber:
            return max(tied, key=lambda pattern: (
                mean_ber.get(pattern, -1.0), pattern))
        return tied[0]

    if not mean_ber:
        raise AnalysisError(f"no per-pattern BER for row {row_key}")
    return max(mean_ber, key=lambda pattern: (mean_ber[pattern], pattern))


def select_wcdp(dataset: CharacterizationDataset,
                row_key: RowKey) -> str:
    """The WCDP name for one row, by the paper's rule.

    Smallest (uncensored) HC_first wins; ties — including the case where
    every pattern is censored — are broken by largest BER at 256K.  Rows
    with no HC_first data at all fall back to the largest-BER rule.
    """
    return _wcdp_rule(
        row_key,
        [r for r in dataset.hcfirst_records if r.row_key == row_key],
        [r for r in dataset.ber_records if r.row_key == row_key])


def wcdp_assignments(
        dataset: CharacterizationDataset) -> Dict[RowKey, str]:
    """WCDP name for every row present in the dataset (records are
    grouped by row once, in dataset order: linear in the records)."""
    rows: Dict[RowKey, Tuple[list, list]] = {}
    for record in dataset.hcfirst_records:
        rows.setdefault(record.row_key, ([], []))[0].append(record)
    for record in dataset.ber_records:
        rows.setdefault(record.row_key, ([], []))[1].append(record)
    return {row_key: _wcdp_rule(row_key, *rows[row_key])
            for row_key in sorted(rows)}


def derive_wcdp_records(
        dataset: CharacterizationDataset
) -> Tuple[List[BerRecord], List[HcFirstRecord]]:
    """Synthesize ``pattern="WCDP"`` records for plotting.

    For each row, copies the records of its selected WCDP with the
    pattern field rewritten — the exact construction behind the WCDP
    columns of Figs. 3 and 4.
    """
    assignments = wcdp_assignments(dataset)

    def copies(records):
        # A row's WCDP is never "WCDP" itself: the rule skips WCDP inputs.
        return [replace(record, pattern=WCDP_NAME) for record in records
                if assignments.get(record.row_key) == record.pattern]

    return copies(dataset.ber_records), copies(dataset.hcfirst_records)


def append_wcdp_records(dataset: CharacterizationDataset) -> None:
    """Add the synthesized WCDP records to the dataset in place."""
    ber_records, hc_records = derive_wcdp_records(dataset)
    dataset.ber_records.extend(ber_records)
    dataset.hcfirst_records.extend(hc_records)
