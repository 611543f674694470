"""Durable artifact store: every byte that must survive kill -9.

Campaign checkpoints, fleet manifests, event logs, and per-shard spools
are what make multi-hour §3/§4 campaigns resumable — and before this
module each subsystem wrote them with plain ``open()``/``json.dump``,
so a process killed mid-write left a torn file that resume would either
crash on or silently trust.  This module is the single write/read path
for all of them:

* :func:`atomic_write_bytes` — temp file + ``fsync`` + ``os.replace``
  in the destination directory, so readers only ever observe the old
  complete file or the new complete file, with a **pre-write disk-space
  guard** (:class:`~repro.errors.DiskSpaceError`) instead of a
  half-written artifact when the volume is full;
* :func:`write_artifact` / :func:`read_artifact` — JSON payloads in an
  envelope carrying a blake2b checksum and a schema version, so a
  truncated or bit-rotted artifact is *detected* on read
  (:class:`~repro.errors.ArtifactCorruptError`) rather than merged;
* :func:`quarantine` — renames a corrupt artifact to ``*.corrupt`` so
  recovery can recompute it while keeping the evidence for debugging;
* :func:`read_jsonl_tolerant` — line-oriented reader that drops a torn
  tail (and counts it) instead of raising from ``json.loads``.

**Fault injection.**  Writes accept a
:class:`~repro.faults.plan.FaultPlan`; the plan's seeded ``io_*``
draws — keyed on (artifact kind, file name, per-name write index) —
can truncate the artifact at a seeded offset, flip one seeded bit, or
refuse the write as a simulated ENOSPC.  Corruption is applied to the
bytes *before* they land, so the atomic rename still holds and the
checksum detects the damage exactly as it would detect real rot.

**Kill points.**  ``$REPRO_KILL_AFTER_WRITES=N`` delivers SIGKILL to
the writing process immediately after its N-th shard-archive write —
the hook the crash-loop harness (``tools/crashloop.py``) and the
kill-9-at-every-shard-boundary tests use to park a campaign at an
exact recovery boundary.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.errors import ArtifactCorruptError, DiskSpaceError

__all__ = [
    "Artifact",
    "atomic_write_bytes",
    "checksum",
    "quarantine",
    "read_artifact",
    "read_jsonl_tolerant",
    "reset_io_state",
    "write_artifact",
]

#: Envelope key marking a durable artifact (top-level JSON object key).
ENVELOPE_KEY = "__repro_artifact__"

#: Schema version stamped into every envelope.
SCHEMA_VERSION = 1

#: SIGKILL-after-N-shard-writes hook (see module docstring).
KILL_VAR = "REPRO_KILL_AFTER_WRITES"

#: Artifact kind whose writes count toward the kill hook: the campaign
#: shard archive, because shard boundaries are the recovery points a
#: resume must be byte-identical across.
KILL_KIND = "shard"

#: Free-space slack demanded beyond the artifact's own size, so a write
#: that would leave the volume pathologically full is refused too.
_DISK_SLACK_BYTES = 1 << 16

#: Per-process, per-kind write counters: the ``write_index`` component
#: of the IO fault key, and the kill hook's countdown domain.
_write_counts: Dict[str, int] = {}

#: Remaining shard writes before the kill hook fires; None = env unread,
#: -1 = disabled.
_kill_remaining: Optional[int] = None


def reset_io_state() -> None:
    """Reset write counters and re-read the kill-point env.

    Call at the start of a forked child that should observe its own
    ``$REPRO_KILL_AFTER_WRITES`` budget and a fresh fault-draw stream
    (the crash tests fork campaign parents from pytest).
    """
    global _kill_remaining
    _write_counts.clear()
    _kill_remaining = None


def checksum(data: bytes) -> str:
    """blake2b-16 hex digest — the envelope's integrity primitive."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _next_write_index(kind: str, name: str) -> int:
    key = f"{kind}|{name}"
    index = _write_counts.get(key, 0)
    _write_counts[key] = index + 1
    return index


def _check_disk_space(directory: Path, need: int) -> None:
    """Refuse the write cleanly when the volume cannot hold it."""
    try:
        stats = os.statvfs(directory)
    except (AttributeError, OSError):
        return  # no statvfs (or raced a mkdir): proceed optimistically
    free = stats.f_bavail * stats.f_frsize
    if free < need + _DISK_SLACK_BYTES:
        raise DiskSpaceError(
            f"refusing to write {need} byte(s) to {directory}: only "
            f"{free} byte(s) free (need {need + _DISK_SLACK_BYTES} "
            f"including slack); artifact not written")


def _apply_io_faults(data: bytes, kind: str, name: str, index: int,
                     fault_plan) -> bytes:
    """The plan's seeded corruption of one write's bytes (or the bytes).

    ``enospc`` raises before anything lands; ``torn_write`` truncates at
    the seeded offset; ``bitflip`` flips the seeded bit.  The damaged
    bytes still go through the atomic rename — the simulation is of a
    non-atomic writer dying mid-write or of media rot, both of which
    leave a *complete-looking* file whose checksum no longer matches.
    """
    category = fault_plan.io_fault(kind, name, index)
    if category is None:
        return data
    from repro.obs import get_metrics
    get_metrics().counter(f"faults.io.{category}").inc()
    if category == "enospc":
        raise DiskSpaceError(
            f"injected ENOSPC writing {kind} artifact {name} "
            f"(write {index}); artifact not written")
    if category == "torn_write":
        return data[:fault_plan.torn_offset(len(data), kind, name, index)]
    byte, bit = fault_plan.bitflip_site(len(data), kind, name, index)
    flipped = bytearray(data)
    flipped[byte] ^= 1 << bit
    return bytes(flipped)


def _maybe_kill(kind: str) -> None:
    """Fire the ``$REPRO_KILL_AFTER_WRITES`` hook after shard writes."""
    global _kill_remaining
    if kind != KILL_KIND:
        return
    if _kill_remaining is None:
        raw = os.environ.get(KILL_VAR, "").strip()
        _kill_remaining = int(raw) if raw else -1
    if _kill_remaining < 0:
        return
    _kill_remaining -= 1
    if _kill_remaining == 0:
        os.kill(os.getpid(), signal.SIGKILL)


def atomic_write_bytes(path: Union[str, Path], data: bytes, *,
                       kind: str = "artifact", fault_plan=None) -> None:
    """Write ``data`` to ``path`` so readers never observe a torn file.

    The temp file lives next to the destination (same filesystem, so
    ``os.replace`` is atomic) and is fsynced before the rename.  With a
    ``fault_plan`` carrying IO fault rates, the plan's seeded draws may
    corrupt the landed bytes or refuse the write (see
    :func:`_apply_io_faults`).
    """
    path = Path(path)
    index = _next_write_index(kind, path.name)
    if fault_plan is not None and fault_plan.spec.has_io_faults:
        data = _apply_io_faults(data, kind, path.name, index, fault_plan)
    _check_disk_space(path.parent, len(data))
    temporary = path.with_name(path.name + ".tmp")
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    _maybe_kill(kind)


class Artifact(NamedTuple):
    """One decoded durable artifact: its payload plus envelope metadata."""

    payload: object
    kind: Optional[str]
    version: Optional[int]
    meta: Dict[str, object]


def write_artifact(path: Union[str, Path], payload: object, *,
                   kind: str, fault_plan=None,
                   **meta: object) -> None:
    """Atomically persist ``payload`` in a checksummed envelope.

    ``meta`` lands in the envelope (not the payload) — e.g. the
    campaign fingerprint a shard archive belongs to — so readers can
    validate provenance without trusting the payload.  The checksum
    covers the canonical (sorted, compact) JSON encoding of the
    payload, making it stable under any envelope growth.
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    envelope: Dict[str, object] = {
        "kind": kind,
        "version": SCHEMA_VERSION,
        "checksum": checksum(body.encode()),
    }
    envelope.update(meta)
    record = {ENVELOPE_KEY: envelope, "payload": payload}
    atomic_write_bytes(path, (json.dumps(record, indent=1) + "\n").encode(),
                       kind=kind, fault_plan=fault_plan)


def read_artifact(path: Union[str, Path], *,
                  kind: Optional[str] = None) -> Artifact:
    """Load and verify one durable artifact.

    Raises :class:`~repro.errors.ArtifactCorruptError` for anything
    that cannot be trusted: unreadable file, torn/unparseable JSON, a
    missing or malformed envelope (one flipped bit in the envelope key
    leaves valid JSON without one), checksum mismatch, or an envelope
    of the wrong ``kind``.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ArtifactCorruptError(
            f"unreadable artifact {path}: {error}") from error
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ArtifactCorruptError(
            f"artifact {path} is torn or unparseable: {error}") from error
    if not isinstance(record, dict):
        raise ArtifactCorruptError(
            f"artifact {path} is not a JSON object "
            f"(got {type(record).__name__})")
    envelope = record.get(ENVELOPE_KEY)
    if not isinstance(envelope, dict):
        raise ArtifactCorruptError(
            f"artifact {path} carries no valid {ENVELOPE_KEY} envelope")
    payload = record.get("payload")
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    expected = envelope.get("checksum")
    if expected != checksum(body.encode()):
        raise ArtifactCorruptError(
            f"artifact {path} failed its checksum (stored "
            f"{expected!r}): payload corrupted on disk")
    if kind is not None and envelope.get("kind") != kind:
        raise ArtifactCorruptError(
            f"artifact {path} is a {envelope.get('kind')!r} artifact, "
            f"expected {kind!r}")
    meta = {key: value for key, value in envelope.items()
            if key not in ("kind", "version", "checksum")}
    return Artifact(payload=payload, kind=envelope.get("kind"),
                    version=envelope.get("version"), meta=meta)


def quarantine(path: Union[str, Path]) -> Path:
    """Move a corrupt artifact aside as ``*.corrupt``; return the grave.

    Keeps the evidence for debugging (the CI crash-recovery job uploads
    quarantined files) while freeing the canonical name for a
    recomputed replacement.  Numbered suffixes avoid clobbering an
    earlier quarantine of the same artifact.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    attempt = 1
    while target.exists():
        target = path.with_name(f"{path.name}.corrupt.{attempt}")
        attempt += 1
    os.replace(path, target)
    return target


def read_jsonl_tolerant(path: Union[str, Path]
                        ) -> Tuple[List[object], int]:
    """Parse a JSONL file, dropping (and counting) unparseable lines.

    A process killed mid-append leaves a torn final line; a tolerant
    reader must not raise from ``json.loads`` on it.  Mid-file garbage
    (overlapping appends on a non-POSIX filesystem, manual edits) is
    dropped the same way.  Returns ``(records, dropped_line_count)``.
    """
    records: List[object] = []
    dropped = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    dropped += 1
    except OSError as error:
        raise ArtifactCorruptError(
            f"unreadable JSONL {path}: {error}") from error
    return records, dropped
