"""Result records and dataset container for characterization sweeps.

Datasets are flat lists of per-measurement records — one
:class:`BerRecord` per (row, pattern, repetition) BER test and one
:class:`HcFirstRecord` per HC_first search — with JSON and CSV
(de)serialization so benchmark outputs can be archived and re-analysed
without re-running experiments.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import AnalysisError

#: Region labels used across sweeps and figures (paper §3.1: the first,
#: middle, and last 3K rows of a bank).
REGION_FIRST = "first"
REGION_MIDDLE = "middle"
REGION_LAST = "last"
REGIONS = (REGION_FIRST, REGION_MIDDLE, REGION_LAST)

RowKey = Tuple[int, int, int, int]


@dataclass(frozen=True)
class BerRecord:
    """One BER measurement: one victim row, one pattern, one repetition."""

    channel: int
    pseudo_channel: int
    bank: int
    row: int
    region: str
    pattern: str
    repetition: int
    hammer_count: int
    flips: int
    row_bits: int
    duration_s: float

    @property
    def ber(self) -> float:
        return self.flips / self.row_bits

    @property
    def row_key(self) -> RowKey:
        return (self.channel, self.pseudo_channel, self.bank, self.row)


@dataclass(frozen=True)
class HcFirstRecord:
    """One HC_first search: one victim row, one pattern, one repetition.

    ``hc_first`` is None when no flip occurred up to ``max_hammers``
    (a right-censored measurement).
    """

    channel: int
    pseudo_channel: int
    bank: int
    row: int
    region: str
    pattern: str
    repetition: int
    hc_first: Optional[int]
    max_hammers: int
    probes: int
    flips_at_max: int

    @property
    def censored(self) -> bool:
        return self.hc_first is None

    @property
    def row_key(self) -> RowKey:
        return (self.channel, self.pseudo_channel, self.bank, self.row)


Record = Union[BerRecord, HcFirstRecord]


@dataclass
class CharacterizationDataset:
    """All measurements of one characterization campaign."""

    ber_records: List[BerRecord] = field(default_factory=list)
    hcfirst_records: List[HcFirstRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    # -- accumulation ---------------------------------------------------
    def add(self, record: Record) -> None:
        if isinstance(record, BerRecord):
            self.ber_records.append(record)
        elif isinstance(record, HcFirstRecord):
            self.hcfirst_records.append(record)
        else:
            raise AnalysisError(f"unknown record type: {type(record)!r}")

    def extend(self, records: Iterable[Record]) -> None:
        for record in records:
            self.add(record)

    def merge(self, other: "CharacterizationDataset") -> None:
        self.ber_records.extend(other.ber_records)
        self.hcfirst_records.extend(other.hcfirst_records)
        self.metadata.update(other.metadata)

    @classmethod
    def merged(cls, parts: Iterable["CharacterizationDataset"],
               metadata: Optional[Dict[str, object]] = None
               ) -> "CharacterizationDataset":
        """Concatenate ``parts`` in order into one dataset.

        The deterministic-merge primitive of the parallel sweep executor:
        record order is exactly the concatenation order of ``parts``, and
        the result's metadata is ``metadata`` (not a union of the parts'
        metadata, which would depend on which shards succeeded).
        """
        dataset = cls(metadata=dict(metadata or {}))
        for part in parts:
            dataset.ber_records.extend(part.ber_records)
            dataset.hcfirst_records.extend(part.hcfirst_records)
        return dataset

    def record_counts(self) -> Tuple[int, int]:
        """(BER records, HC_first records) — a cheap progress/size probe."""
        return len(self.ber_records), len(self.hcfirst_records)

    # -- filtering ------------------------------------------------------
    def ber(self, channel: Optional[int] = None,
            pattern: Optional[str] = None,
            region: Optional[str] = None,
            predicate: Optional[Callable[[BerRecord], bool]] = None
            ) -> List[BerRecord]:
        """BER records matching the given filters."""
        records = self.ber_records
        if channel is not None:
            records = [r for r in records if r.channel == channel]
        if pattern is not None:
            records = [r for r in records if r.pattern == pattern]
        if region is not None:
            records = [r for r in records if r.region == region]
        if predicate is not None:
            records = [r for r in records if predicate(r)]
        return records

    def hcfirst(self, channel: Optional[int] = None,
                pattern: Optional[str] = None,
                region: Optional[str] = None,
                include_censored: bool = True) -> List[HcFirstRecord]:
        """HC_first records matching the given filters."""
        records = self.hcfirst_records
        if channel is not None:
            records = [r for r in records if r.channel == channel]
        if pattern is not None:
            records = [r for r in records if r.pattern == pattern]
        if region is not None:
            records = [r for r in records if r.region == region]
        if not include_censored:
            records = [r for r in records if not r.censored]
        return records

    def channels(self) -> List[int]:
        present = {r.channel for r in self.ber_records}
        present.update(r.channel for r in self.hcfirst_records)
        return sorted(present)

    def patterns(self) -> List[str]:
        present = {r.pattern for r in self.ber_records}
        present.update(r.pattern for r in self.hcfirst_records)
        return sorted(present)

    #: Metadata keys that describe the run, not the chip — excluded from
    #: archives so a parallel sweep exports byte-identically to a serial one.
    RUNTIME_METADATA_KEYS = ("telemetry",)

    # -- serialization ----------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """The archival JSON payload (runtime telemetry excluded).

        The exact round-trip unit: :meth:`from_payload` rebuilds an
        equal dataset, and the durable checkpoint store checksums this
        payload's canonical encoding.
        """
        return {
            "metadata": {key: value for key, value in self.metadata.items()
                         if key not in self.RUNTIME_METADATA_KEYS},
            "ber_records": [asdict(record) for record in self.ber_records],
            "hcfirst_records": [asdict(record)
                                for record in self.hcfirst_records],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]
                     ) -> "CharacterizationDataset":
        """Rebuild a dataset from a :meth:`to_payload` mapping."""
        if not isinstance(payload, dict):
            raise AnalysisError(
                f"dataset payload must be a mapping, "
                f"got {type(payload).__name__}")
        # Every payload carries both record lists, even empty ones; a
        # mapping without them (e.g. an archive whose envelope key was
        # bit-flipped) is not a dataset, not an empty one.
        missing = {"ber_records", "hcfirst_records"} - set(payload)
        if missing:
            raise AnalysisError(
                f"dataset payload lacks {sorted(missing)}")
        dataset = cls(metadata=payload.get("metadata", {}))
        for raw in payload["ber_records"]:
            dataset.add(BerRecord(**raw))
        for raw in payload["hcfirst_records"]:
            dataset.add(HcFirstRecord(**raw))
        return dataset

    def to_json(self, path: Union[str, Path]) -> None:
        """Archive the dataset as JSON (atomic: no torn archives)."""
        from repro.durable import atomic_write_bytes
        atomic_write_bytes(
            path, json.dumps(self.to_payload(), indent=1).encode(),
            kind="dataset")

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "CharacterizationDataset":
        """Load a dataset archived with :meth:`to_json`."""
        return cls.from_payload(json.loads(Path(path).read_text()))

    def ber_to_csv(self, path: Union[str, Path]) -> None:
        """Write BER records as CSV (one row per measurement)."""
        self._to_csv(path, self.ber_records,
                     ["channel", "pseudo_channel", "bank", "row", "region",
                      "pattern", "repetition", "hammer_count", "flips",
                      "row_bits", "duration_s"])

    def hcfirst_to_csv(self, path: Union[str, Path]) -> None:
        """Write HC_first records as CSV (one row per search)."""
        self._to_csv(path, self.hcfirst_records,
                     ["channel", "pseudo_channel", "bank", "row", "region",
                      "pattern", "repetition", "hc_first", "max_hammers",
                      "probes", "flips_at_max"])

    # -- integrity --------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable digest of the dataset's records (metadata excluded).

        The integrity handshake of the parallel executor: a shard
        worker fingerprints its dataset before returning it and the
        parent re-fingerprints after unpickling, so a readback poisoned
        in flight is detected instead of merged.  Metadata is excluded
        because the parent legitimately rewrites it (telemetry,
        coverage); the measured records are what must survive the trip.
        """
        hasher = hashlib.blake2b(digest_size=16)
        for record in self.ber_records:
            hasher.update(repr(asdict(record)).encode())
        hasher.update(b"|")
        for record in self.hcfirst_records:
            hasher.update(repr(asdict(record)).encode())
        return hasher.hexdigest()

    @staticmethod
    def _to_csv(path: Union[str, Path], records: List[Record],
                columns: List[str]) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for record in records:
                row = asdict(record)
                writer.writerow([row[column] for column in columns])
