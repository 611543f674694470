"""Tests for repro.core.wcdp (the paper's §3.1 WCDP rule)."""

import pytest

from repro.core.results import (
    BerRecord,
    CharacterizationDataset,
    HcFirstRecord,
)
from repro.core.wcdp import (
    append_wcdp_records,
    derive_wcdp_records,
    select_wcdp,
    wcdp_assignments,
)
from repro.errors import AnalysisError


def ber(pattern, flips, row=10):
    return BerRecord(channel=0, pseudo_channel=0, bank=0, row=row,
                     region="first", pattern=pattern, repetition=0,
                     hammer_count=262144, flips=flips, row_bits=8192,
                     duration_s=0.025)


def hc(pattern, hc_first, row=10):
    return HcFirstRecord(channel=0, pseudo_channel=0, bank=0, row=row,
                         region="first", pattern=pattern, repetition=0,
                         hc_first=hc_first, max_hammers=262144, probes=10,
                         flips_at_max=5)


ROW_KEY = (0, 0, 0, 10)


class TestSelectionRule:
    def test_smallest_hcfirst_wins(self):
        dataset = CharacterizationDataset()
        dataset.extend([hc("Rowstripe0", 50_000), hc("Rowstripe1", 40_000),
                        ber("Rowstripe0", 100), ber("Rowstripe1", 50)])
        assert select_wcdp(dataset, ROW_KEY) == "Rowstripe1"

    def test_tie_broken_by_largest_ber(self):
        """Paper: ties on HC_first go to the largest BER at 256K."""
        dataset = CharacterizationDataset()
        dataset.extend([hc("Rowstripe0", 40_000), hc("Rowstripe1", 40_000),
                        ber("Rowstripe0", 100), ber("Rowstripe1", 200)])
        assert select_wcdp(dataset, ROW_KEY) == "Rowstripe1"

    def test_censored_patterns_lose_to_uncensored(self):
        dataset = CharacterizationDataset()
        dataset.extend([hc("Rowstripe0", None), hc("Checkered0", 200_000),
                        ber("Rowstripe0", 500), ber("Checkered0", 1)])
        assert select_wcdp(dataset, ROW_KEY) == "Checkered0"

    def test_all_censored_falls_back_to_ber(self):
        dataset = CharacterizationDataset()
        dataset.extend([hc("Rowstripe0", None), hc("Rowstripe1", None),
                        ber("Rowstripe0", 3), ber("Rowstripe1", 9)])
        assert select_wcdp(dataset, ROW_KEY) == "Rowstripe1"

    def test_ber_only_dataset_uses_largest_ber(self):
        dataset = CharacterizationDataset()
        dataset.extend([ber("Rowstripe0", 3), ber("Checkered1", 9)])
        assert select_wcdp(dataset, ROW_KEY) == "Checkered1"

    def test_repetitions_use_best_hcfirst(self):
        dataset = CharacterizationDataset()
        dataset.extend([hc("Rowstripe0", 60_000), hc("Rowstripe0", 30_000),
                        hc("Rowstripe1", 40_000)])
        assert select_wcdp(dataset, ROW_KEY) == "Rowstripe0"

    def test_unknown_row_raises(self):
        with pytest.raises(AnalysisError):
            select_wcdp(CharacterizationDataset(), ROW_KEY)


class TestDerivedRecords:
    @pytest.fixture
    def dataset(self):
        dataset = CharacterizationDataset()
        dataset.extend([
            hc("Rowstripe0", 50_000, row=1), hc("Rowstripe1", 90_000, row=1),
            ber("Rowstripe0", 100, row=1), ber("Rowstripe1", 10, row=1),
            hc("Rowstripe0", 90_000, row=2), hc("Rowstripe1", 50_000, row=2),
            ber("Rowstripe0", 10, row=2), ber("Rowstripe1", 100, row=2),
        ])
        return dataset

    def test_assignments_are_per_row(self, dataset):
        assignments = wcdp_assignments(dataset)
        assert assignments[(0, 0, 0, 1)] == "Rowstripe0"
        assert assignments[(0, 0, 0, 2)] == "Rowstripe1"

    def test_derived_records_copy_the_chosen_pattern(self, dataset):
        ber_records, hc_records = derive_wcdp_records(dataset)
        assert len(ber_records) == 2
        assert len(hc_records) == 2
        by_row = {record.row: record for record in ber_records}
        assert by_row[1].flips == 100
        assert by_row[2].flips == 100
        assert all(record.pattern == "WCDP" for record in ber_records)

    def test_append_is_idempotent_on_wcdp(self, dataset):
        append_wcdp_records(dataset)
        first_count = len(dataset.ber_records)
        append_wcdp_records(dataset)
        # Re-appending adds the same number again (WCDP inputs are
        # excluded from selection), so the count grows by the same 2.
        assert len(dataset.ber_records) == first_count + 2


class TestLinearity:
    """WCDP selection reads each record's row key a fixed number of
    times, however many rows the dataset holds (counted, not timed)."""

    @staticmethod
    def row_key_reads(monkeypatch, rows):
        dataset = CharacterizationDataset()
        for row in range(rows):
            for index, pattern in enumerate(("Rowstripe0", "Rowstripe1",
                                             "Checkered0", "Checkered1")):
                dataset.extend([ber(pattern, (row + index) % 7, row=row),
                                hc(pattern, 40_000 + index, row=row)])
        reads = [0]
        for cls in (BerRecord, HcFirstRecord):
            original = cls.row_key

            def counting(record, original=original):
                reads[0] += 1
                return original.fget(record)

            monkeypatch.setattr(cls, "row_key", property(counting))
        derive_wcdp_records(dataset)
        monkeypatch.undo()
        return reads[0], len(dataset.ber_records) + len(
            dataset.hcfirst_records)

    def test_row_key_reads_grow_linearly_with_records(self, monkeypatch):
        small, small_records = self.row_key_reads(monkeypatch, 8)
        large, large_records = self.row_key_reads(monkeypatch, 64)
        assert large_records == 8 * small_records
        assert small == 2 * small_records
        assert large == 8 * small
