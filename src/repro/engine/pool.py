"""The subprocess execution backend: work items on warm worker pools.

This is the engine's second backend — where
:class:`~repro.engine.backend.FastPathBackend` runs programs in-process,
:class:`PoolBackend` schedules whole plan items onto a
:class:`concurrent.futures.ProcessPoolExecutor`.

The pool is **persistent and warm**: one executor is owned per
:class:`PoolBackend` (one per campaign) and reused across retry
rounds, so board construction, the §3.1 controls, and the program
cache are paid once per *worker process* — not once per attempt, as
the earlier build-a-pool-per-round design paid them.  Three further
overheads of that design are amortized here:

* the :class:`~repro.bender.board.BoardSpec` and the per-item runner
  are shipped **once per worker** via the pool initializer instead of
  being pickled into every ``submit``;
* the per-item session key — previously ``pickle.dumps((spec,
  config.experiment))`` on every item — is a cheap blake2b digest
  precomputed once in the parent and handed to the workers;
* work items are dispatched in **batches** (contiguous plan slices),
  so the per-future submit/pickle/wakeup overhead is paid per batch
  rather than per item.  Batch results carry one ``(index, ok,
  payload)`` outcome per item, so a failing item quarantines alone
  instead of sinking its batch.

Each worker process keeps a small LRU of
:class:`~repro.engine.session.EngineSession`\\ s keyed by session
digest (``$REPRO_WORKER_SESSIONS`` entries, default 4), so long-lived
workers that see many specs — a fleet-population run rotates through
hundreds of device seeds — do not accumulate board state without
bound.

Scheduling semantics (the parent side of :meth:`PoolBackend.run`):

* per-batch deadlines are armed when the pool *dispatches* the batch
  (``future.running()``), not at submission, so a long queue behind a
  few slow items is not misread as a hang; a batch's budget is
  ``timeout_s`` per item it carries, and completed batches drop their
  deadline entries immediately;
* a timed-out batch whose future cannot be cancelled is still
  occupying a worker slot — counted via the ``sweep.shard_zombies``
  metric — and the executor is recycled at the end of the run so the
  zombie cannot starve later rounds;
* when nothing is running and nothing has completed for a full
  timeout, the queued items are failed fast as ``starved`` instead of
  waiting out a timeout each;
* ``sequential=True`` (used by retry rounds) dispatches items one at
  a time on the same warm pool, so a hard worker crash takes down
  only the item that crashed — the executor is recycled and the next
  item proceeds on a fresh pool, while exception-only retries keep
  their warm sessions;
* worker-side failures arrive as picklable
  :class:`~repro.core.campaign.ShardRunError` with the item's wall
  time and metric snapshot.

Fault injection happens here, at the session boundary: injected
execution faults fire at item entry — keyed on (coordinates, attempt),
so retries redraw — and the dataset is fingerprinted before any
injected readback poisoning, letting the parent detect the poisoning
exactly as it would detect real in-transit corruption.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from concurrent.futures import Future  # noqa: F401  (typing)
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import wait as futures_wait
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bender.board import BoardSpec
from repro.core.results import CharacterizationDataset
from repro.core.sweeps import SpatialSweep
from repro.engine.plan import chunk_items, item_coords
from repro.engine.session import EngineSession
from repro.envutil import env_int
from repro.errors import PoolDegradedError, ShardFault
from repro.faults.plan import FaultPlan, resolve_fault_spec
from repro.rng import uniform_hash01
from repro.obs import (
    NOOP_TRACER,
    EventBus,
    MetricsRegistry,
    Tracer,
    get_events,
    get_metrics,
    use_metrics,
    use_tracer,
)

#: Cadence of the dispatch/deadline poll when a timeout is set.
_POLL_S = 0.05

#: Crash-loop budget (``$REPRO_POOL_CRASH_BUDGET``): consecutive pool
#: recycles caused by worker crashes before the circuit breaker opens
#: and the backend refuses to rebuild (:class:`~repro.errors.
#: PoolDegradedError`), letting the runner fall back to serial
#: execution instead of burning CPU on a deterministic crasher.
CRASH_BUDGET_VAR = "REPRO_POOL_CRASH_BUDGET"
_DEFAULT_CRASH_BUDGET = 3

#: Base backoff before rebuilding a crashed pool (doubles per
#: consecutive crash, with seeded jitter).
_RECYCLE_BACKOFF_S = 0.05

#: Worker-process session LRU bound (``$REPRO_WORKER_SESSIONS``): how
#: many engine sessions a long-lived worker keeps warm before evicting
#: the least-recently-used one.  Campaign workers only ever see one
#: session; fleet workers rotate through many device specs.
SESSION_CACHE_VAR = "REPRO_WORKER_SESSIONS"
_DEFAULT_SESSION_CACHE = 4

#: Per-process session cache: engine sessions (board + controls +
#: program cache) keyed by session digest, LRU-bounded, reused across
#: the items a worker executes — including across retry rounds, since
#: the pool (and therefore the worker) now outlives a round.
_WORKER_SESSIONS: "OrderedDict[str, EngineSession]" = OrderedDict()

#: Per-worker execution context installed by :func:`_pool_initializer`:
#: the board spec, the per-item runner, and the precomputed session
#: digest — shipped once per worker instead of once per submit.
_WORKER_STATE: Dict[str, object] = {}


def session_key(spec: BoardSpec, experiment) -> str:
    """Digest keying one engine session: (board spec, experiment).

    Computed once per campaign in the parent and shipped to workers via
    the pool initializer; the previous design paid a full
    ``pickle.dumps((spec, config.experiment))`` on *every* item.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(pickle.dumps((spec, experiment)))
    return hasher.hexdigest()


def worker_session(spec: BoardSpec, config,
                   key: Optional[str] = None) -> EngineSession:
    """The calling process's session for ``spec`` (built on first use).

    Sessions live in a per-process LRU bounded by
    ``$REPRO_WORKER_SESSIONS`` (default 4): a hit refreshes the entry,
    a miss builds the session and evicts the least-recently-used one
    beyond the bound, releasing its board state.  ``key`` is the
    precomputed session digest when the caller has one (the pool ships
    it per worker); without it the digest is computed here.
    """
    if key is None:
        key = session_key(spec, config.experiment)
    session = _WORKER_SESSIONS.get(key)
    if session is not None:
        _WORKER_SESSIONS.move_to_end(key)
        return session
    session = EngineSession(spec=spec, experiment=config.experiment)
    _WORKER_SESSIONS[key] = session
    get_metrics().counter("engine.pool.sessions_built").inc()
    cap = env_int(SESSION_CACHE_VAR, _DEFAULT_SESSION_CACHE, minimum=1)
    while len(_WORKER_SESSIONS) > cap:
        _, evicted = _WORKER_SESSIONS.popitem(last=False)
        evicted.release()
        get_metrics().counter("engine.pool.sessions_evicted").inc()
    return session


def _pool_initializer(spec: BoardSpec, runner: Callable,
                      key: Optional[str]) -> None:
    """Install the per-worker execution context (runs once per worker).

    Also clears any session state inherited over ``fork`` from a parent
    that ran items inline, so a worker's cache accounting starts empty.
    """
    _WORKER_STATE["spec"] = spec
    _WORKER_STATE["runner"] = runner
    _WORKER_STATE["key"] = key
    _WORKER_SESSIONS.clear()


def run_shard(spec: BoardSpec, shard,
              key: Optional[str] = None) -> CharacterizationDataset:
    """Execute one work item in the current process; returns its dataset.

    The default item runner for worker processes; also usable inline
    (e.g. by tests) since it has no pool-specific state.  Every item
    runs under its own metrics registry (cheap enough to be always-on)
    so that a *failing* item can report its wall time and metric
    snapshot via :class:`~repro.core.campaign.ShardRunError`.
    """
    from repro.core.campaign import ShardRunError

    obs = shard.config.obs
    want_trace = bool(obs is not None and obs.trace)
    registry = MetricsRegistry()
    tracer = Tracer() if want_trace else NOOP_TRACER
    kind = getattr(shard, "span_kind", "shard")
    attrs = {kind: shard.index}
    attrs.update(item_coords(shard))
    if obs is not None and obs.events_path:
        # The item-loop heartbeat: one O_APPEND line into the shared
        # live event log at item pickup, so a stalled worker is visible
        # as a heartbeat with no matching completion.
        EventBus(obs.events_path, epoch=obs.epoch, truncate=False).emit(
            "worker_heartbeat", item=shard.index, attempt=shard.attempt,
            **item_coords(shard))
    started = time.perf_counter()
    try:
        with use_metrics(registry), use_tracer(tracer):
            with tracer.span(kind, **attrs) as span:
                fault_spec = resolve_fault_spec(shard.config.faults)
                if fault_spec is not None and (
                        fault_spec.has_shard_faults
                        or fault_spec.has_process_faults):
                    from repro.faults.inject import injure_worker
                    injure_worker(FaultPlan(fault_spec), shard.channel,
                                  shard.pseudo_channel, shard.bank,
                                  shard.region, shard.attempt)
                session = worker_session(spec, shard.config, key=key)
                board = session.station()
                sweep = SpatialSweep(board, shard.config)
                dataset = sweep.run(apply_interference_controls=False)
                span.set(records=sum(dataset.record_counts()))
                dataset.metadata["integrity"] = dataset.fingerprint()
                if fault_spec is not None and fault_spec.shard_poison:
                    from repro.faults.inject import poison_dataset
                    poison_dataset(FaultPlan(fault_spec), dataset,
                                   shard.channel, shard.pseudo_channel,
                                   shard.bank, shard.region, shard.attempt)
    except Exception as error:
        wall_s = time.perf_counter() - started
        registry.gauge("shard.wall_s").set(wall_s)
        category = (error.category if isinstance(error, ShardFault)
                    else "error")
        raise ShardRunError(type(error).__name__, str(error), wall_s,
                            registry.snapshot(), category) from error
    wall_s = time.perf_counter() - started
    registry.gauge("shard.wall_s").set(wall_s)
    registry.gauge("shard.records").set(sum(dataset.record_counts()))
    if obs is not None and obs.active:
        if want_trace:
            tracer.write_jsonl(obs.trace_path(shard.index))
        registry.to_json(obs.metrics_path(shard.index))
    return dataset


#: One item's outcome inside a batch result: (item index, completed?,
#: dataset-or-exception).  Exceptions must be picklable — run_shard
#: wraps everything in ShardRunError; custom runners' raw exceptions
#: cross the boundary exactly as they did as per-item future results.
BatchOutcome = Tuple[int, bool, object]


def _run_batch(jobs: Sequence) -> List[BatchOutcome]:
    """Worker entry point: run one batch of items, one outcome each.

    Uses the worker context installed by :func:`_pool_initializer`, so
    the batch payload is just the items.  A failing item contributes
    its exception as an outcome instead of aborting the batch — items
    quarantine individually, exactly as they did as separate futures.
    """
    spec: BoardSpec = _WORKER_STATE["spec"]  # type: ignore[assignment]
    runner: Callable = _WORKER_STATE["runner"]  # type: ignore[assignment]
    key = _WORKER_STATE.get("key")
    outcomes: List[BatchOutcome] = []
    for job in jobs:
        try:
            if runner is run_shard:
                result = run_shard(spec, job, key=key)
            else:
                result = runner(spec, job)
        except Exception as error:
            outcomes.append((job.index, False, error))
        else:
            outcomes.append((job.index, True, result))
    return outcomes


#: Callback signatures for :meth:`PoolBackend.run`.
ResultHandler = Callable[[object, CharacterizationDataset], None]
FailureHandler = Callable[[object, BaseException], None]

#: Target dispatch batches per worker when auto-sizing: small enough to
#: load-balance uneven item costs, large enough to amortize per-future
#: overhead.  A campaign with fewer than ``workers * _BATCHES_PER_WORKER``
#: items degenerates to one item per batch (the pre-batching semantics).
_BATCHES_PER_WORKER = 4


class PoolBackend:
    """Schedules work items onto one persistent warm worker pool."""

    def __init__(self, spec: BoardSpec, *,
                 runner: Optional[Callable] = None,
                 timeout_s: Optional[float] = None,
                 mp_context=None,
                 experiment=None,
                 batch_size: Optional[int] = None) -> None:
        """
        Args:
            spec: recipe each worker rebuilds its own station from
                (shipped once per worker via the pool initializer).
            runner: per-item entry point (must be picklable; defaults
                to :func:`run_shard`).
            timeout_s: per-item wall-clock limit, measured from
                dispatch (None = unlimited); a batch's budget is this
                times the items it carries.
            mp_context: multiprocessing context (None = platform
                default).
            experiment: the campaign's experiment config; when given,
                the session digest is precomputed here instead of
                pickled per item in the workers.
            batch_size: items per dispatch batch (None = auto:
                ``len(items) / (workers * 4)``, at least 1).
        """
        self._spec = spec
        self._runner = runner or run_shard
        self._timeout_s = timeout_s
        self._mp_context = mp_context
        self._session_key = (session_key(spec, experiment)
                             if experiment is not None else None)
        self._batch_size = batch_size
        self._executor: Optional[ProcessPoolExecutor] = None
        self._workers = 0
        self._recycle = False
        self._builds = 0
        self._reuses = 0
        #: Consecutive crash-caused recycles (reset by a healthy batch).
        self._crash_streak = 0
        #: Injectable for tests; seeded backoff between crash rebuilds.
        self._sleep = time.sleep

    # ------------------------------------------------------------------
    @property
    def pool_builds(self) -> int:
        """Executors constructed so far (1 = fully warm campaign)."""
        return self._builds

    @property
    def pool_reuses(self) -> int:
        """Dispatch rounds that reused the warm executor."""
        return self._reuses

    def _note_crash(self) -> None:
        """Record one crash-caused recycle (at most one per round)."""
        if not self._recycle:
            self._crash_streak += 1
            get_metrics().counter("engine.pool.worker_crashes").inc()
        self._recycle = True

    def _ensure_executor(self, workers: int) -> ProcessPoolExecutor:
        """The warm executor, (re)built only when needed.

        Rebuilds when none exists, when the previous round marked it
        for recycling (broken pool, zombie worker, starvation), or when
        a round needs more workers than the pool has.

        The rebuild path is supervised.  A crash streak (consecutive
        crash-caused recycles with no healthy batch between them) backs
        off with seeded jitter and shrinks the pool — a crashing
        machine gets a smaller, slower-restarting pool, not a hot loop
        of fork storms.  At ``$REPRO_POOL_CRASH_BUDGET`` consecutive
        crashes (default 3), or when the OS refuses to fork at all, the
        circuit breaker opens: :class:`~repro.errors.PoolDegradedError`
        tells the runner to stop using the pool and finish the campaign
        serially in-process.
        """
        if self._executor is not None and (self._recycle
                                           or workers > self._workers):
            self._retire()
        if self._executor is None:
            if self._crash_streak:
                budget = env_int(CRASH_BUDGET_VAR, _DEFAULT_CRASH_BUDGET,
                                 minimum=1)
                if self._crash_streak >= budget:
                    get_metrics().counter("engine.pool.breaker_open").inc()
                    raise PoolDegradedError(
                        f"worker pool crashed {self._crash_streak} "
                        f"consecutive round(s), reaching the crash-loop "
                        f"budget ({budget}); refusing to rebuild",
                        crashes=self._crash_streak)
                jitter = 0.5 + uniform_hash01(
                    self._spec.seed, ("pool-recycle", self._crash_streak))
                self._sleep(_RECYCLE_BACKOFF_S
                            * 2 ** (self._crash_streak - 1) * jitter)
                workers = max(1, workers >> self._crash_streak)
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=workers, mp_context=self._mp_context,
                    initializer=_pool_initializer,
                    initargs=(self._spec, self._runner, self._session_key))
            except OSError as error:
                get_metrics().counter("engine.pool.breaker_open").inc()
                raise PoolDegradedError(
                    f"cannot (re)build worker pool: {error}",
                    crashes=self._crash_streak) from error
            self._workers = workers
            self._builds += 1
            get_metrics().counter("engine.pool.builds").inc()
        else:
            self._reuses += 1
            get_metrics().counter("engine.pool.reuses").inc()
        return self._executor

    def _retire(self) -> None:
        """Drop the current executor without waiting for stragglers."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._recycle = False

    def close(self) -> None:
        """Shut the pool down (waits unless it was marked unhealthy)."""
        if self._executor is not None:
            self._executor.shutdown(wait=not self._recycle,
                                    cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "PoolBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, shards: List, workers: int, attempt: int,
            on_result: ResultHandler, on_failure: FailureHandler, *,
            sequential: bool = False) -> None:
        """Run ``shards`` on the warm pool of (at least) ``workers``.

        Every item ends in exactly one callback: ``on_result`` with its
        dataset, or ``on_failure`` with the error (worker exception,
        crash, dispatch-measured timeout, or starvation).

        ``sequential=True`` dispatches one item at a time: a crash
        poisons only the crashing item (the executor is recycled and
        the next item gets a fresh pool), which is how retry rounds
        contain a deterministic crasher without giving up warm
        sessions for ordinary exception retries.
        """
        if sequential:
            self._run_sequential(shards, attempt, on_result, on_failure)
            return
        timeout = self._timeout_s
        metrics = get_metrics()
        events = get_events()
        executor = self._ensure_executor(workers)
        size = self._batch_size or max(
            1, len(shards) // (workers * _BATCHES_PER_WORKER))
        live: Dict[Future, List] = {}
        batches = chunk_items(list(shards), size)
        for position, batch in enumerate(batches):
            jobs = [replace(shard, attempt=attempt) for shard in batch]
            try:
                future = executor.submit(_run_batch, jobs)
            except BrokenExecutor as error:
                self._note_crash()
                for unsent in batches[position:]:
                    for shard in unsent:
                        on_failure(shard, error)
                break
            live[future] = list(batch)
            metrics.counter("engine.pool.batches").inc()
            for shard in batch:
                events.emit("shard_dispatched", item=shard.index,
                            attempt=attempt, **item_coords(shard))
        deadlines: Dict[Future, float] = {}
        last_event = time.monotonic()
        # With an active bus the wait polls so subscribers (the live
        # progress renderer) see worker heartbeats as they land, not
        # only at batch completion.
        poll = (timeout is not None) or events.enabled
        while live:
            done, _ = futures_wait(
                list(live),
                timeout=(_POLL_S if poll else None),
                return_when=FIRST_COMPLETED)
            events.tick()
            now = time.monotonic()
            if done:
                last_event = now
            for future in done:
                batch = live.pop(future)
                deadlines.pop(future, None)
                try:
                    outcomes = future.result()
                except Exception as error:
                    if isinstance(error, BrokenExecutor):
                        self._note_crash()
                    for shard in batch:
                        on_failure(shard, error)
                else:
                    # A batch came back intact: the pool process layer
                    # is healthy, so the crash streak resets.
                    self._crash_streak = 0
                    self._deliver(batch, outcomes, on_result, on_failure)
            if timeout is None:
                continue
            for future, batch in live.items():
                if future not in deadlines and future.running():
                    deadlines[future] = now + timeout * len(batch)
            for future in [future for future in list(live)
                           if deadlines.get(future, now + 1) <= now]:
                batch = live.pop(future)
                deadlines.pop(future, None)
                if not future.cancel():
                    # The worker is still crunching: it occupies a slot
                    # until it finishes, so the pool must be recycled.
                    metrics.counter("sweep.shard_zombies").inc()
                self._recycle = True
                for shard in batch:
                    metrics.counter("sweep.shard_timeouts").inc()
                    on_failure(shard, FuturesTimeoutError(
                        f"shard {shard.describe()} exceeded "
                        f"shard_timeout_s={timeout} (batch budget "
                        f"{timeout * len(batch)}s for {len(batch)} "
                        f"item(s))"))
            if (live and now - last_event > timeout
                    and not any(future.running() for future in live)):
                self._recycle = True
                for future in list(live):
                    batch = live.pop(future)
                    deadlines.pop(future, None)
                    future.cancel()
                    for shard in batch:
                        metrics.counter("sweep.shard_starved").inc()
                        on_failure(shard, ShardFault(
                            f"shard {shard.describe()} starved: pool "
                            f"has no live workers left to run it",
                            category="starved"))
        if self._recycle:
            self._retire()

    # ------------------------------------------------------------------
    def _run_sequential(self, shards: List, attempt: int,
                        on_result: ResultHandler,
                        on_failure: FailureHandler) -> None:
        """One item at a time on the warm pool, crash-contained."""
        timeout = self._timeout_s
        metrics = get_metrics()
        events = get_events()
        for shard in shards:
            executor = self._ensure_executor(1)
            job = replace(shard, attempt=attempt)
            events.emit("shard_dispatched", item=shard.index,
                        attempt=attempt, **item_coords(shard))
            future = executor.submit(_run_batch, [job])
            try:
                # The pool is idle in sequential mode, so submission is
                # dispatch and the timeout measures from dispatch.
                outcomes = future.result(timeout=timeout)
            except FuturesTimeoutError:
                if not future.cancel():
                    metrics.counter("sweep.shard_zombies").inc()
                self._recycle = True
                self._retire()
                metrics.counter("sweep.shard_timeouts").inc()
                on_failure(shard, FuturesTimeoutError(
                    f"shard {shard.describe()} exceeded "
                    f"shard_timeout_s={timeout}"))
            except BrokenExecutor as error:
                self._note_crash()
                self._retire()
                on_failure(shard, error)
            except Exception as error:
                on_failure(shard, error)
            else:
                self._crash_streak = 0
                self._deliver([shard], outcomes, on_result, on_failure)
            events.tick()

    @staticmethod
    def _deliver(batch: List, outcomes: List[BatchOutcome],
                 on_result: ResultHandler,
                 on_failure: FailureHandler) -> None:
        """Fan a batch's outcomes out to the per-item callbacks."""
        by_index = {shard.index: shard for shard in batch}
        for index, completed, payload in outcomes:
            shard = by_index[index]
            if completed:
                on_result(shard, payload)
            else:
                on_failure(shard, payload)
