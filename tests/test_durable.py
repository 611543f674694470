"""Tests for repro.durable — the crash-safe artifact store."""

import json
import os

import pytest

from repro import durable
from repro.durable import (
    atomic_write_bytes,
    quarantine,
    read_artifact,
    read_jsonl_tolerant,
    write_artifact,
)
from repro.errors import ArtifactCorruptError, DiskSpaceError
from repro.faults import FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def _fresh_io_state():
    durable.reset_io_state()
    yield
    durable.reset_io_state()


class TestAtomicWrite:
    def test_writes_the_bytes(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_bytes(path, b'{"a": 1}\n')
        assert path.read_bytes() == b'{"a": 1}\n'

    def test_leaves_no_temp_residue(self, tmp_path):
        atomic_write_bytes(tmp_path / "artifact.json", b"x")
        assert [entry.name for entry in tmp_path.iterdir()] == \
            ["artifact.json"]

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_bytes(path, b"long original content")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"

    def test_disk_space_guard_refuses_cleanly(self, tmp_path, monkeypatch):
        class _Full:
            f_bavail = 1
            f_frsize = 1

        monkeypatch.setattr(os, "statvfs", lambda _path: _Full())
        path = tmp_path / "artifact.json"
        with pytest.raises(DiskSpaceError):
            atomic_write_bytes(path, b"payload")
        assert not path.exists()


class TestArtifactEnvelope:
    def test_round_trip_with_meta(self, tmp_path):
        path = tmp_path / "shard.json"
        write_artifact(path, {"rows": [1, 2, 3]}, kind="shard",
                       campaign="abc123")
        artifact = read_artifact(path, kind="shard")
        assert artifact.payload == {"rows": [1, 2, 3]}
        assert artifact.kind == "shard"
        assert artifact.version == durable.SCHEMA_VERSION
        assert artifact.meta == {"campaign": "abc123"}

    def test_kind_mismatch_is_corrupt(self, tmp_path):
        path = tmp_path / "shard.json"
        write_artifact(path, {}, kind="shard")
        with pytest.raises(ArtifactCorruptError, match="expected"):
            read_artifact(path, kind="campaign-manifest")

    def test_bitflip_fails_checksum(self, tmp_path):
        path = tmp_path / "shard.json"
        write_artifact(path, {"rows": [1, 2, 3]}, kind="shard")
        raw = bytearray(path.read_bytes())
        site = raw.rindex(b"3")  # a payload byte, not the envelope
        raw[site] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            read_artifact(path, kind="shard")

    def test_torn_file_is_corrupt_not_a_crash(self, tmp_path):
        path = tmp_path / "shard.json"
        write_artifact(path, {"rows": list(range(100))}, kind="shard")
        path.write_bytes(path.read_bytes()[:37])
        with pytest.raises(ArtifactCorruptError, match="torn"):
            read_artifact(path)

    def test_missing_file_is_corrupt_error(self, tmp_path):
        with pytest.raises(ArtifactCorruptError, match="unreadable"):
            read_artifact(tmp_path / "nope.json")

    def test_legacy_plain_object_rejected(self, tmp_path):
        """Valid JSON without an envelope has nothing to verify: it may
        be an envelope whose key lost a bit, so it is corrupt."""
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"metadata": {}, "ber_records": []}))
        with pytest.raises(ArtifactCorruptError, match="no valid"):
            read_artifact(path, kind="shard")

    def test_non_object_is_corrupt(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ArtifactCorruptError, match="not a JSON object"):
            read_artifact(path)


class TestQuarantine:
    def test_moves_aside_and_frees_the_name(self, tmp_path):
        path = tmp_path / "shard.json"
        path.write_text("garbage")
        grave = quarantine(path)
        assert not path.exists()
        assert grave.name == "shard.json.corrupt"
        assert grave.read_text() == "garbage"

    def test_repeat_quarantines_get_numbered(self, tmp_path):
        path = tmp_path / "shard.json"
        path.write_text("first")
        quarantine(path)
        path.write_text("second")
        grave = quarantine(path)
        assert grave.name == "shard.json.corrupt.1"


class TestTolerantJsonl:
    def test_torn_tail_dropped_and_counted(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"c": ')
        records, dropped = read_jsonl_tolerant(path)
        assert records == [{"a": 1}, {"b": 2}]
        assert dropped == 1

    def test_midfile_garbage_dropped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"a": 1}\nnot json at all\n{"b": 2}\n')
        records, dropped = read_jsonl_tolerant(path)
        assert records == [{"a": 1}, {"b": 2}]
        assert dropped == 1

    def test_missing_file_raises_corrupt(self, tmp_path):
        with pytest.raises(ArtifactCorruptError):
            read_jsonl_tolerant(tmp_path / "nope.jsonl")


class TestInjectedIoFaults:
    def test_torn_write_detected_on_read(self, tmp_path):
        plan = FaultPlan(FaultSpec(seed=7, io_torn_write=1.0))
        path = tmp_path / "shard.json"
        write_artifact(path, {"rows": list(range(50))}, kind="shard",
                       fault_plan=plan)
        with pytest.raises(ArtifactCorruptError):
            read_artifact(path, kind="shard")

    def test_bitflip_detected_on_read(self, tmp_path):
        plan = FaultPlan(FaultSpec(seed=7, io_bitflip=1.0))
        path = tmp_path / "shard.json"
        write_artifact(path, {"rows": list(range(50))}, kind="shard",
                       fault_plan=plan)
        with pytest.raises(ArtifactCorruptError):
            read_artifact(path, kind="shard")

    def test_enospc_refuses_write(self, tmp_path):
        plan = FaultPlan(FaultSpec(seed=7, io_enospc=1.0))
        path = tmp_path / "shard.json"
        with pytest.raises(DiskSpaceError, match="injected"):
            write_artifact(path, {}, kind="shard", fault_plan=plan)
        assert not path.exists()

    def test_draws_are_deterministic_per_write_index(self, tmp_path):
        spec = FaultSpec(seed=11, io_torn_write=0.5)
        first = [FaultPlan(spec).io_fault("shard", "shard_00000.json", i)
                 for i in range(32)]
        second = [FaultPlan(spec).io_fault("shard", "shard_00000.json", i)
                  for i in range(32)]
        assert first == second
        assert any(category == "torn_write" for category in first)
        assert any(category is None for category in first)

    def test_zero_rate_spec_never_faults(self, tmp_path):
        plan = FaultPlan(FaultSpec(seed=7))
        path = tmp_path / "shard.json"
        write_artifact(path, {"ok": True}, kind="shard", fault_plan=plan)
        assert read_artifact(path, kind="shard").payload == {"ok": True}
