"""The campaign lifecycle: one runner for sweeps and fleets.

A campaign is an ordered stream of independent work items — the shards
of a sweep (:mod:`repro.core.parallel`) or the devices of a fleet
(:mod:`repro.core.fleet`) — run to completion and merged back in plan
order.  :class:`CampaignRunner` is that lifecycle, written once:
checkpoint open and resume, observability injection, the retry round
loop, the degraded-pool inline finish, integrity-checked acceptance,
quarantine records, spool/telemetry merge, and the campaign events.

Dispatch follows one rule for every kind: with ``jobs == 1`` and no
per-item timeout the items run inline in this process, through the
same item runner the workers use; otherwise they run on a
:class:`~repro.engine.pool.PoolBackend` (a timeout needs a worker
process to abandon).  A kind supplies only its ordered items and
fingerprint, its picklable item runner, and one merge step
(:meth:`CampaignRunner._merge`).

Checkpointing: a :class:`CampaignCheckpoint` binds a campaign to a
directory:

* ``campaign.json`` — a manifest carrying a fingerprint of everything
  that determines the measured data (board spec + sweep axes/density),
  so a resume against a different configuration fails loudly instead
  of merging datasets from two different experiments;
* ``shard_NNNNN.json`` — each item's dataset, written the moment the
  item first completes.

Both go through the durable artifact store (:mod:`repro.durable`):
atomic temp-file + rename writes, and a checksummed envelope that also
stamps the campaign fingerprint into every shard archive.  Resume is
therefore **self-healing**: a shard archive that is torn, bit-rotted,
or belongs to a different campaign is detected by its envelope,
quarantined to ``*.corrupt`` (counted in ``campaign.recovered_shards``),
and simply *recomputed* — never trusted, never fatal.  A corrupt
*manifest* is likewise quarantined and rewritten, because the per-shard
fingerprint stamps carry enough provenance to keep cross-experiment
merges impossible; only a *valid* manifest with a mismatched
fingerprint refuses the resume (that is a real configuration conflict,
not corruption).

Because item datasets round-trip exactly through the JSON archive
format and the merge runs in plan order from whatever source (live
worker or checkpoint), a campaign killed mid-run and resumed produces
a byte-identical merged dataset to an uninterrupted run — at any jobs
level, before or after the kill, and regardless of which archives had
to be recomputed.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.results import CharacterizationDataset
from repro.durable import (
    ArtifactCorruptError,
    quarantine,
    read_artifact,
    write_artifact,
)
from repro.engine.plan import item_coords
from repro.engine.pool import PoolBackend
from repro.errors import (
    CampaignStateError,
    DiskSpaceError,
    ExperimentError,
    PoolDegradedError,
    ReproError,
    ShardFault,
)
from repro.faults.plan import FaultPlan, resolve_fault_spec
from repro.obs import (
    MetricsRegistry,
    ObsConfig,
    get_events,
    get_metrics,
    get_tracer,
    read_jsonl,
)
from repro.obs.events import dataset_delta
from repro.rng import uniform_hash01

__all__ = ["CampaignCheckpoint", "CampaignRunner", "ShardError",
           "ShardRunError", "campaign_fingerprint", "fleet_fingerprint"]

_MANIFEST_NAME = "campaign.json"
_MANIFEST_VERSION = 2

ProgressCallback = Callable[[str], None]


def _profile_identity(spec) -> str:
    """Resolved device-family identity of a board spec.

    The spec's repr already carries the profile *name*; resolving it to
    the registered profile's full identity (geometry + TRR policy) means
    a checkpoint can never be resumed by a campaign whose profile name
    happens to match but whose registered definition differs — and two
    registered profiles sharing timing parameters still fingerprint
    apart.
    """
    from repro.dram.profiles import resolve_profile

    profile = resolve_profile(getattr(spec, "device_profile", None))
    return profile.identity() if profile is not None else ""


def _fingerprint(spec, config, count: str, prefix: bytes = b"",
                 suffix: bytes = b"") -> str:
    """blake2b of the spec, the config with execution details
    normalized away, the item count, and the spec's profile identity."""
    normalized = replace(config, jobs=1, obs=None, shard_timeout_s=None)
    return hashlib.blake2b(
        prefix + repr(spec).encode() + repr(normalized).encode()
        + count.encode() + _profile_identity(spec).encode() + suffix,
        digest_size=16).hexdigest()


def campaign_fingerprint(spec, config, shards_total: int) -> str:
    """Digest of everything that determines a campaign's measured data.

    Execution details (jobs, observability, timeouts) are normalized
    away — resuming with a different worker count is explicitly
    supported and still byte-identical.  The board spec and the full
    sweep config (including the fault plan: a ``flag``-policy thermal
    plan changes measured values) are included via their dataclass
    reprs, which are deterministic for the plain-scalar configuration
    types used throughout; the spec's device-family profile joins as
    its *resolved* identity so checkpoints never alias across families.
    """
    return _fingerprint(spec, config, str(shards_total))


def fleet_fingerprint(spec, config, devices: int, base_seed: int,
                      profiles: tuple = ()) -> str:
    """Digest of everything that determines a fleet run's measured data.

    The fleet analogue of :func:`campaign_fingerprint`: the spec here
    is the *template* (each device re-seeds it), so the device count
    and base seed join the digest — resuming a 100-device fleet
    against a 200-device checkpoint directory, or against a different
    seed range, must fail loudly.  ``profiles`` is the heterogeneous
    population's device-family rotation; each name joins as its
    resolved identity.  Execution details (jobs, timeouts) are
    normalized away exactly as for campaigns.
    """
    from repro.dram.profiles import get_profile

    rotation = b"".join(b"|" + get_profile(name).identity().encode()
                        for name in profiles)
    return _fingerprint(spec, config, f"{devices}|{base_seed}",
                        prefix=b"fleet|", suffix=rotation)


class CampaignCheckpoint:
    """Shard-granular persistence for one campaign directory.

    ``fault_plan`` (optional) threads the campaign's seeded IO-fault
    schedule into every artifact write, so chaos runs exercise torn
    writes, bit-flips, and simulated ENOSPC on the real checkpoint
    path.  ``recovered`` counts the corrupt shard archives this
    instance quarantined during :meth:`load`.
    """

    def __init__(self, directory: Union[str, Path],
                 fault_plan=None) -> None:
        self.directory = Path(directory)
        self.fault_plan = fault_plan
        self.recovered = 0
        self._fingerprint: Optional[str] = None

    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST_NAME

    def shard_path(self, index: int) -> Path:
        return self.directory / f"shard_{index:05d}.json"

    # ------------------------------------------------------------------
    def prepare(self, fingerprint: str, shards_total: int) -> bool:
        """Create or validate the campaign directory; True if resuming.

        A fresh directory gets a manifest; an existing one must carry a
        matching fingerprint or the resume is refused
        (:class:`~repro.errors.CampaignStateError`) — checkpoints from
        a different spec/config describe a different experiment.  A
        manifest that is *corrupt* (torn write, bit rot) is quarantined
        and rewritten instead: every shard archive stamps the campaign
        fingerprint into its own envelope, so provenance survives the
        manifest and :meth:`load` still refuses foreign shards.
        """
        self._fingerprint = fingerprint
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.manifest_path.exists():
            try:
                artifact = read_artifact(self.manifest_path,
                                         kind="campaign-manifest")
                manifest = artifact.payload
            except ArtifactCorruptError:
                quarantine(self.manifest_path)
                get_metrics().counter(
                    "campaign.recovered_manifests").inc()
                self._write_manifest(fingerprint, shards_total)
                # Still a resume: shard archives carry their own
                # fingerprint stamps and validate individually.
                return True
            if not isinstance(manifest, dict) or \
                    manifest.get("fingerprint") != fingerprint:
                stored = (manifest.get("fingerprint")
                          if isinstance(manifest, dict) else None)
                raise CampaignStateError(
                    f"campaign directory {self.directory} was created "
                    f"for a different spec/config (fingerprint "
                    f"{stored!r} != {fingerprint!r}); refusing to "
                    f"merge datasets from two different experiments")
            return True
        self._write_manifest(fingerprint, shards_total)
        return False

    def _write_manifest(self, fingerprint: str, shards_total: int) -> None:
        write_artifact(self.manifest_path, {
            "version": _MANIFEST_VERSION,
            "fingerprint": fingerprint,
            "shards_total": shards_total,
        }, kind="campaign-manifest", fault_plan=self.fault_plan)

    # ------------------------------------------------------------------
    def load(self, indices: Iterable[int]
             ) -> Dict[int, CharacterizationDataset]:
        """Checkpointed datasets for ``indices``, keyed by shard index.

        Self-healing: an archive whose envelope fails verification —
        torn, bit-rotted, or stamped with a different campaign
        fingerprint — is quarantined to ``*.corrupt`` and omitted from
        the result, so the runner transparently recomputes that shard.
        ``campaign.recovered_shards`` counts the quarantines.  An
        archive without an envelope or without this campaign's stamp
        is untrusted too.
        """
        loaded: Dict[int, CharacterizationDataset] = {}
        for index in indices:
            path = self.shard_path(index)
            if not path.exists():
                continue
            try:
                artifact = read_artifact(path, kind="shard")
                stamp = artifact.meta.get("campaign")
                if stamp != self._fingerprint:
                    raise ArtifactCorruptError(
                        f"shard archive {path} belongs to campaign "
                        f"{stamp!r}, not {self._fingerprint!r}")
                loaded[index] = CharacterizationDataset.from_payload(
                    artifact.payload)
            except Exception:
                self._quarantine_shard(path)
        return loaded

    def _quarantine_shard(self, path: Path) -> None:
        quarantine(path)
        self.recovered += 1
        get_metrics().counter("campaign.recovered_shards").inc()

    def write(self, index: int, dataset: CharacterizationDataset) -> None:
        """Atomically persist one completed shard's dataset.

        The envelope stamps the campaign fingerprint, so a later resume
        can refuse a shard that wandered in from another experiment
        even if the manifest was lost.  May raise
        :class:`~repro.errors.DiskSpaceError` (real or injected); the
        runner degrades to in-memory-only on that — see
        :meth:`CampaignRunner._accept`.
        """
        write_artifact(self.shard_path(index), dataset.to_payload(),
                       kind="shard", fault_plan=self.fault_plan,
                       campaign=self._fingerprint)


# ----------------------------------------------------------------------
# Failure records
# ----------------------------------------------------------------------
class ShardRunError(ReproError):
    """An item failed in its worker; carries the worker-side diagnosis.

    Raised by :func:`~repro.engine.pool.run_shard` so the parent learns
    not just *that* the item failed but how long it ran and what its
    metric snapshot looked like at the point of failure (commands
    issued, hammers, settle iterations, ...) — enough to diagnose most
    failures without rerunning the item.  Picklable: crosses the
    process pool boundary intact.
    """

    def __init__(self, original_type: str, message: str,
                 wall_s: float, metrics: Dict[str, Dict[str, object]],
                 category: str = "error") -> None:
        super().__init__(original_type, message, wall_s, metrics, category)
        self.original_type = original_type
        self.message = message
        self.wall_s = wall_s
        self.metrics = metrics
        self.category = category

    def __str__(self) -> str:
        return f"{self.original_type}: {self.message}"


def _fault_category(error: BaseException) -> str:
    """Structured failure category for quarantine reports and metrics."""
    if isinstance(error, FuturesTimeoutError):
        return "timeout"
    if isinstance(error, BrokenExecutor):
        return "crash"
    if isinstance(error, (ShardFault, ShardRunError)):
        return error.category
    return "exception"


@dataclass(frozen=True)
class ShardError:
    """An item that failed after exhausting its retries.

    ``wall_s`` and ``metrics`` hold the originating worker's wall time
    and metric snapshot from the *last* failing attempt when the worker
    lived long enough to report them (None for hard crashes/timeouts).
    ``backoff_s`` is the total retry backoff the runner spent on this
    item across rounds; ``fault_category`` classifies the last failure
    (``timeout``/``crash``/``poison``/``starved``/``error``/...).
    """

    index: int
    channel: int
    pseudo_channel: int
    bank: int
    region: str
    error_type: str
    message: str
    attempts: int
    wall_s: Optional[float] = None
    metrics: Optional[Dict[str, Dict[str, object]]] = None
    backoff_s: float = 0.0
    fault_category: str = "error"

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.index,
            "channel": self.channel,
            "pseudo_channel": self.pseudo_channel,
            "bank": self.bank,
            "region": self.region,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "wall_s": self.wall_s,
            "metrics": self.metrics,
            "backoff_s": self.backoff_s,
            "fault_category": self.fault_category,
        }

    @classmethod
    def from_failure(cls, item, error: BaseException,
                     attempts: int, backoff_s: float = 0.0) -> "ShardError":
        error_type, message = type(error).__name__, str(error)
        wall_s = metrics = None
        if isinstance(error, ShardRunError):
            # A worker-side failure arrives wrapped: report the original
            # error, with the worker's wall time and metric snapshot.
            error_type, message = error.original_type, error.message
            wall_s, metrics = error.wall_s, error.metrics
        return cls(index=item.index, channel=item.channel,
                   pseudo_channel=item.pseudo_channel, bank=item.bank,
                   region=item.region, error_type=error_type,
                   message=message, attempts=attempts, wall_s=wall_s,
                   metrics=metrics, backoff_s=backoff_s,
                   fault_category=_fault_category(error))


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class _ProgressAggregator:
    """Idempotent item progress accounting across retry rounds.

    A retried item reports completion at most once: completed item
    indices live in a set, so the ``completed/total`` figures a callback
    sees never double-count an item that failed, was retried, and then
    finished (or — with a timeout — finished twice).
    """

    def __init__(self, total: int, callback: Optional[ProgressCallback],
                 noun: str = "shard") -> None:
        self._total = total
        self._callback = callback
        self._noun = noun
        self._done: set = set()

    def preload(self, indices: Iterable[int]) -> None:
        """Mark checkpointed items as done without emitting per-item
        callbacks (a resumed campaign reports them in one line)."""
        self._done.update(indices)

    def completed(self, item, attempt: int) -> bool:
        """Register a completed item; returns True on first completion."""
        first = item.index not in self._done
        self._done.add(item.index)
        self._emit(item, "ok", attempt)
        return first

    def failed(self, item, error: BaseException, attempt: int) -> None:
        name = (error.original_type if isinstance(error, ShardRunError)
                else type(error).__name__)
        self._emit(item, f"FAILED ({name})", attempt)

    def _emit(self, item, status: str, attempt: int) -> None:
        if self._callback is None:
            return
        retry = " retry" if attempt else ""
        self._callback(f"[{len(self._done)}/{self._total} {self._noun}s"
                       f"{retry}] {item.describe()} {status}")


#: Per-item entry point: ``runner(spec, item) -> dataset``.  Must be
#: picklable (module-level) so the pool can ship it to its workers.
ItemRunner = Callable[[object, object], CharacterizationDataset]


class CampaignRunner:
    """Runs one campaign of work items; subclasses define the kind.

    A subclass passes its picklable item runner to the constructor,
    hands its ordered items and resume fingerprint to
    :meth:`_run_campaign`, and implements :meth:`_merge`.  ``kind``
    labels the campaign in events and telemetry; ``noun`` names one
    item (``shard``/``device``) in event counts, telemetry rows and
    progress lines.
    """

    kind: str
    noun: str

    def __init__(self, spec, runner: ItemRunner, *, jobs: int,
                 timeout_s: Optional[float], max_retries: int,
                 retry_backoff_s: float = 0.0, faults=None,
                 experiment=None, campaign_dir=None, mp_context=None,
                 degrade: str = "auto") -> None:
        """
        Args:
            spec: the board recipe shipped to pool workers (and passed
                to the item runner inline).
            runner: per-item entry point, ``runner(spec, item)``.
            jobs / timeout_s: worker processes and per-item wall-clock
                limit; ``jobs == 1`` without a timeout runs inline.
            max_retries / retry_backoff_s: extra attempts per failed
                item, and the base delay before retry round ``n``
                (doubled each round, seeded jitter in [0.5, 1.5)).
            faults: the fault spec (checkpoint IO faults, backoff seed).
            experiment: lets the pool precompute its session digest
                when every item shares one station.
            campaign_dir: checkpoint/resume directory (None = none).
            mp_context: multiprocessing context for the pool.
            degrade: ``"auto"`` finishes inline when the pool's
                crash-loop breaker opens; ``"never"`` raises
                :class:`~repro.errors.PoolDegradedError`.
        """
        if max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ExperimentError("retry_backoff_s must be >= 0")
        if degrade not in ("auto", "never"):
            raise ExperimentError(
                f"degrade must be 'auto' or 'never', got {degrade!r}")
        self._spec = spec
        self._runner = runner
        self._jobs = jobs
        self._timeout_s = timeout_s
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._faults = faults
        self._experiment = experiment
        self._campaign_dir = campaign_dir
        self._mp_context = mp_context
        self._degrade = degrade
        #: Injectable for tests; sleeps the retry backoff.
        self._sleep = time.sleep
        self._backoff_seed = (faults.seed if faults is not None
                              else getattr(spec, "seed", 0))
        self._errors: Tuple[ShardError, ...] = ()

    @property
    def errors(self) -> Tuple[ShardError, ...]:
        """Items that failed permanently in the last run."""
        return self._errors

    # -- per-kind hooks -------------------------------------------------
    def _merge(self, items: Sequence,
               results: Dict[int, CharacterizationDataset]):
        """Combine the completed items; returns ``(output, dataset)``.

        ``output`` is what the campaign returns; ``dataset`` is the
        merged dataset that receives the telemetry block and whose
        record count ``campaign_finished`` reports.  ``self.errors``
        already holds the quarantine records.
        """
        raise NotImplementedError

    def _on_completed(self, item, dataset: CharacterizationDataset,
                      attempt: int, timing=None) -> None:
        """Called once per completed item, live or checkpoint-loaded."""

    # ------------------------------------------------------------------
    def _run_campaign(self, items: Sequence, fingerprint: str,
                      progress: Optional[ProgressCallback]):
        """Run ``items`` to completion and return the merged output."""
        tracer = get_tracer()
        metrics = get_metrics()
        events = get_events()
        plural = f"{self.noun}s"
        self._errors = ()
        events.emit("campaign_started", **{plural: len(items)},
                    kind=self.kind, timing={"jobs": self._jobs})
        spool = (tempfile.TemporaryDirectory(prefix="repro-obs-")
                 if tracer.enabled or metrics.enabled else None)
        if spool is not None or events.enabled:
            obs = ObsConfig(
                trace=tracer.enabled, metrics=metrics.enabled,
                spool_dir=spool.name if spool is not None else None,
                events_path=str(events.path) if events.enabled else None,
                epoch=events.epoch)
            items = [replace(item, config=replace(item.config, obs=obs))
                     for item in items]
        started = time.perf_counter()
        self._progress = progress
        self._results: Dict[int, CharacterizationDataset] = {}
        self._failures: Dict[int, BaseException] = {}
        self._backoff_totals: Dict[int, float] = {}
        self._aggregator = _ProgressAggregator(len(items), progress,
                                               self.noun)
        # One warm pool for the whole campaign: workers (and their
        # engine sessions) persist across retry rounds.  jobs=1 without
        # a timeout needs no worker process at all.
        self._backend = None
        if self._jobs > 1 or self._timeout_s is not None:
            self._backend = PoolBackend(
                self._spec, runner=self._runner, timeout_s=self._timeout_s,
                mp_context=self._mp_context, experiment=self._experiment)
        try:
            with tracer.span("campaign", kind=self.kind, jobs=self._jobs,
                             **{plural: len(items)}) as campaign:
                self._checkpoint = self._open_checkpoint(items, fingerprint)
                pending = [item for item in items
                           if item.index not in self._results]
                attempts = 1 + self._max_retries
                for attempt in range(attempts):
                    if not pending:
                        break
                    if not attempt:
                        pending = self._run_round(pending, attempt)
                        continue
                    metrics.counter("sweep.shard_retries").inc(len(pending))
                    for item in pending:
                        events.emit("retry", item=item.index,
                                    attempt=attempt,
                                    category=_fault_category(
                                        self._failures[item.index]),
                                    **item_coords(item))
                    self._backoff(pending, attempt)
                    with tracer.span("retry-round", attempt=attempt,
                                     **{plural: len(pending)}):
                        pending = self._run_round(pending, attempt)
                if pending:
                    metrics.counter("sweep.shard_failures").inc(len(pending))

                quarantined = sorted(pending, key=lambda item: item.index)
                self._errors = tuple(
                    ShardError.from_failure(
                        item, self._failures[item.index], attempts,
                        backoff_s=round(
                            self._backoff_totals.get(item.index, 0.0), 9))
                    for item in quarantined)
                for item, error in zip(quarantined, self._errors):
                    events.emit("quarantine", item=item.index,
                                attempt=attempts,
                                category=error.fault_category,
                                error_type=error.error_type,
                                **item_coords(item))

                output, dataset = self._merge(items, self._results)
                if spool is not None:
                    self._merge_spool(items, spool.name, campaign, dataset,
                                      time.perf_counter() - started)
                events.emit(
                    "campaign_finished", **{plural: len(items)},
                    completed=len(self._results),
                    quarantined=len(self._errors),
                    records=sum(dataset.record_counts()),
                    timing={"wall_s": round(
                        time.perf_counter() - started, 6)})
                events.finalize()
                return output
        finally:
            if self._backend is not None:
                self._backend.close()
            if spool is not None:
                spool.cleanup()
            self._backend = self._checkpoint = self._progress = None
            self._results = {}

    # ------------------------------------------------------------------
    def _open_checkpoint(self, items: Sequence, fingerprint: str
                         ) -> Optional[CampaignCheckpoint]:
        """Prepare the campaign directory and preload checkpointed items."""
        if self._campaign_dir is None:
            return None
        fault_spec = resolve_fault_spec(self._faults)
        fault_plan = (FaultPlan(fault_spec)
                      if fault_spec is not None and fault_spec.has_io_faults
                      else None)
        checkpoint = CampaignCheckpoint(self._campaign_dir,
                                        fault_plan=fault_plan)
        try:
            resuming = checkpoint.prepare(fingerprint, len(items))
        except DiskSpaceError:
            # A full volume at campaign start: run without checkpoints
            # (results stay in memory) rather than refuse the campaign.
            get_metrics().counter("campaign.checkpoint_write_errors").inc()
            return checkpoint
        if not resuming:
            return checkpoint
        loaded = checkpoint.load(item.index for item in items)
        if loaded:
            self._results.update(loaded)
            self._aggregator.preload(loaded)
            self._replay_events(items, loaded)
            get_metrics().counter("campaign.checkpoint_loads").inc(
                len(loaded))
        if self._progress is not None and (loaded or checkpoint.recovered):
            recovered = (f" ({checkpoint.recovered} corrupt quarantined)"
                         if checkpoint.recovered else "")
            self._progress(f"[resume] {len(loaded)}/{len(items)} "
                           f"{self.noun}s loaded from "
                           f"{checkpoint.directory}{recovered}")
        return checkpoint

    def _replay_events(self, items: Sequence,
                       loaded: Dict[int, CharacterizationDataset]) -> None:
        """Synthesize the event stream of checkpoint-loaded items.

        A resumed item did no work this run, so no worker emits its
        dispatched/heartbeat/completed sequence — the parent synthesizes
        it from the stored archive instead, keeping a resumed campaign's
        event log identical (modulo ``timing``) to an uninterrupted one.
        ``timing.source = "checkpoint"`` marks the synthetic events;
        ``item_completed``'s delta is dataset-derivable by design
        (:func:`repro.obs.events.dataset_delta`).  The archive doesn't
        record which attempt succeeded, so they always say attempt 0.
        """
        events = get_events()
        if not events.enabled:
            return
        source = {"source": "checkpoint"}
        for item in items:
            dataset = loaded.get(item.index)
            if dataset is None:
                continue
            coords = item_coords(item)
            for event in ("shard_dispatched", "worker_heartbeat"):
                events.emit(event, item=item.index, attempt=0,
                            timing=source, **coords)
            events.emit("item_completed", item=item.index, attempt=0,
                        timing=source, **coords, **dataset_delta(dataset))
            self._on_completed(item, dataset, 0, timing=source)

    def _backoff(self, pending: List, attempt: int) -> None:
        """Exponential backoff with deterministic jitter before a retry
        round; the delay is attributed to every item in the round so
        quarantine reports carry exact per-item backoff totals."""
        base = self._retry_backoff_s
        if base <= 0:
            return
        jitter = 0.5 + uniform_hash01(self._backoff_seed,
                                      ("retry-round", attempt))
        delay = base * (2 ** (attempt - 1)) * jitter
        get_metrics().histogram("sweep.retry_backoff_s").observe(delay)
        for item in pending:
            self._backoff_totals[item.index] = (
                self._backoff_totals.get(item.index, 0.0) + delay)
        self._sleep(delay)

    # ------------------------------------------------------------------
    def _run_round(self, pending: List, attempt: int) -> List:
        """Run one round; returns the items that failed in it.

        Inline without a backend; otherwise on the warm pool, whose
        scheduling semantics (dispatch-armed deadlines, batching, zombie
        accounting, starvation fast-fail, crash containment) live in
        :class:`~repro.engine.pool.PoolBackend`.  Retry rounds
        (``attempt > 0``) dispatch sequentially so a crashing item
        cannot fail its neighbours — while keeping the pool, and the
        sessions its workers already built, warm.

        When the pool's crash-loop circuit breaker opens and
        ``degrade`` is ``"auto"``, the items the pool never settled
        finish inline: the same item runner, so the merged output stays
        byte-identical.
        """
        failed: List = []
        settled: set = set()

        def record_failure(item, error: BaseException) -> None:
            settled.add(item.index)
            self._failures[item.index] = error
            failed.append(item)
            self._aggregator.failed(item, error, attempt)

        def accept(item, dataset: CharacterizationDataset) -> None:
            settled.add(item.index)
            self._accept(item, dataset, attempt, record_failure)

        if self._backend is None:
            self._run_inline(pending, attempt, accept, record_failure)
            return failed
        workers = 1 if attempt else min(self._jobs, len(pending))
        try:
            self._backend.run(list(pending), workers, attempt, accept,
                              record_failure, sequential=bool(attempt))
        except PoolDegradedError as error:
            if self._degrade == "never":
                raise
            remaining = [item for item in pending
                         if item.index not in settled]
            get_metrics().counter("sweep.degraded_serial").inc(
                len(remaining))
            if self._progress is not None:
                self._progress(f"[degraded] worker pool gave up "
                               f"({error}); finishing serially")
            self._run_inline(remaining, attempt, accept, record_failure)
        return failed

    def _run_inline(self, items: List, attempt: int, accept,
                    record_failure) -> None:
        """Run ``items`` one by one in this process.

        The ``jobs == 1`` path and the degraded-pool endgame.  The item
        runner is the one the workers use, so the output is
        byte-identical; worker-process fault injection (SIGKILL) stays
        dormant inline by design (see
        :func:`repro.faults.inject.injure_worker`).
        """
        events = get_events()
        for item in items:
            events.emit("shard_dispatched", item=item.index,
                        attempt=attempt, **item_coords(item))
            try:
                dataset = self._runner(self._spec,
                                       replace(item, attempt=attempt))
            except Exception as error:
                record_failure(item, error)
            else:
                accept(item, dataset)
            events.tick()

    def _accept(self, item, dataset: CharacterizationDataset, attempt: int,
                record_failure) -> None:
        """Integrity-check and register one completed item's dataset."""
        fingerprint = dataset.metadata.pop("integrity", None)
        if (fingerprint is not None
                and fingerprint != dataset.fingerprint()):
            get_metrics().counter("sweep.shard_poisoned").inc()
            record_failure(item, ShardFault(
                f"{self.noun} {item.describe()} dataset failed its "
                f"integrity check (readback poisoned in transit)",
                category="poison"))
            return
        if item.index not in self._results:
            self._results[item.index] = dataset
            if self._checkpoint is not None:
                try:
                    self._checkpoint.write(item.index, dataset)
                    get_metrics().counter(
                        "campaign.checkpoint_writes").inc()
                except DiskSpaceError:
                    # The dataset is safe in memory; the campaign keeps
                    # going, it just can't checkpoint this item.  A
                    # later kill loses only the unspooled items.
                    get_metrics().counter(
                        "campaign.checkpoint_write_errors").inc()
            get_events().emit("item_completed", item=item.index,
                              attempt=attempt, **item_coords(item),
                              **dataset_delta(dataset))
            self._on_completed(item, dataset, attempt)
        self._failures.pop(item.index, None)
        self._aggregator.completed(item, attempt)

    # ------------------------------------------------------------------
    def _merge_spool(self, items: Sequence, spool_dir: str, campaign,
                     dataset: CharacterizationDataset,
                     wall_s: float) -> None:
        """Fold worker spool files back into the parent collectors.

        Iterates in plan order, so the grafted item subtrees appear in
        the merged trace exactly as the serial path would visit them,
        and builds the per-item telemetry block.  Items satisfied from
        a checkpoint have no spool files and contribute no telemetry —
        they did no work this run.
        """
        tracer = get_tracer()
        metrics = get_metrics()
        obs = ObsConfig(trace=tracer.enabled, metrics=metrics.enabled,
                        spool_dir=spool_dir)
        rows: List[Dict[str, object]] = []
        total_records = 0
        for item in items:
            if tracer.enabled:
                trace_path = obs.trace_path(item.index)
                if trace_path.exists():
                    tracer.graft(read_jsonl(trace_path),
                                 parent_id=campaign.span_id)
            metrics_path = obs.metrics_path(item.index)
            if not metrics_path.exists():
                continue
            snapshot = MetricsRegistry.read_snapshot(metrics_path)
            gauges = snapshot.get("gauges", {})
            item_wall = gauges.pop("shard.wall_s", None)
            item_records = gauges.pop("shard.records", None)
            if metrics.enabled:
                metrics.merge_snapshot(snapshot)
                if item_wall:
                    metrics.histogram("sweep.shard_wall_s").observe(
                        item_wall)
            row: Dict[str, object] = {self.noun: item.index,
                                      **item_coords(item),
                                      "wall_s": item_wall}
            if item_records is not None:
                total_records += int(item_records)
                row["records"] = int(item_records)
                if item_wall:
                    row["rows_per_s"] = round(item_records / item_wall, 3)
            rows.append(row)
        dataset.metadata["telemetry"] = {
            "kind": self.kind,
            "jobs": self._jobs,
            "wall_s": round(wall_s, 6),
            "records": total_records,
            "rows_per_s": (round(total_records / wall_s, 3)
                           if wall_s > 0 else None),
            f"{self.noun}s": rows,
        }
