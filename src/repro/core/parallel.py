"""Sharded sweeps: one campaign per spatial sweep, any jobs level.

The Figs. 3-6 campaigns are embarrassingly parallel across (channel,
pseudo channel, bank, region): the keyed counter-based RNG
(:mod:`repro.rng`) gives every cell identical physical properties in
every process, and each measurement re-initializes its victim
neighbourhood before hammering, so per-shard results do not depend on
what other shards ran before — the same property the paper's FPGA
infrastructure exploits by characterizing many banks concurrently.

:class:`ShardPlan` splits a :class:`~repro.core.sweeps.SweepConfig` into
single-(channel, pseudo channel, bank, region) work units *in the serial
nesting order*.  :class:`ParallelSweepRunner` runs them through
:class:`~repro.core.campaign.CampaignRunner`, the campaign lifecycle
shared with fleets: inline when ``jobs == 1`` and no ``shard_timeout_s``
is set, otherwise on the warm worker pool, whose workers rebuild their
boards from a picklable :class:`~repro.bender.board.BoardSpec`.  The
sweep's own part is the merge: shard datasets concatenate in plan
order, thermal and coverage accounts merge, and WCDP synthesis runs
once on the merged dataset — byte-identical to the serial
:class:`~repro.core.sweeps.SpatialSweep` for the same spec and config.
A quarantined shard leaves an exact ``metadata["coverage"]`` account
of what was measured versus lost.

Limitations: the runner always uses the device's own row mapping (a
custom ``mapper`` cannot cross the fork); call :func:`run_sweep` with a
live ``board`` to sweep with a reverse-engineered mapper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.bender.board import BenderBoard, BoardSpec
from repro.core.campaign import (
    CampaignRunner,
    ShardError,
    ShardRunError,
    campaign_fingerprint,
)
from repro.core.results import CharacterizationDataset
from repro.core.sweeps import (
    ProgressCallback,
    SpatialSweep,
    SweepConfig,
    sweep_metadata,
)
from repro.core.wcdp import append_wcdp_records
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import run_shard
from repro.errors import ExperimentError
from repro.faults.thermal import ThermalGuard
from repro.obs import get_tracer

__all__ = [
    "ShardError",
    "ShardPlan",
    "ShardRunError",
    "SweepShard",
    "ParallelSweepRunner",
    "run_shard",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepShard:
    """One independent work unit: a single (ch, pc, bank, region) cell.

    ``config`` is the parent sweep config narrowed to this cell, with
    WCDP synthesis disabled (it runs once, on the merged dataset) and
    ``jobs`` forced to 1 (a shard is the unit of parallelism).
    ``attempt`` is the retry round the shard is being executed under —
    fault plans key injected shard faults on it, so an injected fault
    is transient and a retry of the same shard can succeed.
    """

    index: int
    channel: int
    pseudo_channel: int
    bank: int
    region: str
    config: SweepConfig
    attempt: int = 0

    def describe(self) -> str:
        return (f"ch{self.channel} pc{self.pseudo_channel} "
                f"ba{self.bank} region={self.region}")


@dataclass(frozen=True)
class ShardPlan:
    """All shards of one sweep, in the serial path's iteration order.

    The serial :meth:`SpatialSweep.run` nests channel -> pseudo channel
    -> bank -> region; concatenating shard datasets in this plan's order
    therefore reproduces the serial record order exactly.
    """

    shards: Tuple[SweepShard, ...]

    @classmethod
    def from_config(cls, config: SweepConfig) -> "ShardPlan":
        """One shard per engine plan item: a :class:`ShardPlan` is the
        engine's :class:`~repro.engine.plan.ExecutionPlan` partitioned
        into process-crossable work units, so the serial and parallel
        paths iterate the same items in the same order by construction.
        """
        plan = ExecutionPlan.from_config(config)
        return cls(shards=tuple(
            SweepShard(index=item.index, channel=item.channel,
                       pseudo_channel=item.pseudo_channel, bank=item.bank,
                       region=item.region,
                       config=ExecutionPlan.narrow_config(config, item))
            for item in plan))

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)


#: Per-shard entry point, ``runner(spec, shard) -> dataset``; the default
#: is :func:`repro.engine.pool.run_shard` (re-exported here for callers
#: and tests that run shards inline).
ShardRunner = Callable[[BoardSpec, SweepShard], CharacterizationDataset]


class ParallelSweepRunner(CampaignRunner):
    """Runs one characterization campaign as a sharded sweep.

    Drop-in equivalent of ``SpatialSweep(spec.build(), config).run()``:
    same dataset, same record order, same metadata — plus
    ``metadata["shard_errors"]`` and ``metadata["coverage"]`` when
    shards were quarantined and ``metadata["telemetry"]`` when
    observability is active.
    """

    kind = "sweep"
    noun = "shard"

    def __init__(self, spec: BoardSpec, config: Optional[SweepConfig] = None,
                 *, shard_runner: Optional[ShardRunner] = None,
                 max_retries: int = 1, retry_backoff_s: float = 0.0,
                 campaign_dir=None, mp_context=None,
                 degrade: str = "auto") -> None:
        """
        Args:
            spec: recipe each worker rebuilds its own board from.
            config: sweep axes/density; ``config.jobs`` sets the worker
                count (1 runs the shards inline in this process, unless
                ``config.shard_timeout_s`` asks for a supervised worker).
            shard_runner: override for the per-shard entry point (must be
                picklable; used by fault-injection tests).
            max_retries: extra attempts for a failed shard (default 1).
            retry_backoff_s: base delay before retry round ``n``
                (doubled each round, scaled by a deterministic jitter in
                [0.5, 1.5) keyed on the fault seed; 0 = no backoff).
            campaign_dir: directory to checkpoint completed shards into
                and resume from (see :mod:`repro.core.campaign`).
            mp_context: multiprocessing context for the pool (default:
                the platform default).
            degrade: ``"auto"`` (default) finishes the campaign serially
                in-process when the pool's crash-loop circuit breaker
                opens (:class:`~repro.errors.PoolDegradedError`);
                ``"never"`` propagates the error instead.
        """
        config = config or SweepConfig()
        super().__init__(spec, shard_runner or run_shard, jobs=config.jobs,
                         timeout_s=config.shard_timeout_s,
                         max_retries=max_retries,
                         retry_backoff_s=retry_backoff_s,
                         faults=config.faults,
                         experiment=config.experiment,
                         campaign_dir=campaign_dir, mp_context=mp_context,
                         degrade=degrade)
        self._config = config
        self._coverage: Optional[Dict[str, object]] = None

    @property
    def config(self) -> SweepConfig:
        return self._config

    @property
    def coverage(self) -> Optional[Dict[str, object]]:
        """Shard/row coverage accounting for the last :meth:`run`."""
        return self._coverage

    def run(self, progress: Optional[ProgressCallback] = None
            ) -> CharacterizationDataset:
        """Execute the campaign and return the merged dataset."""
        self._coverage = None
        plan = ShardPlan.from_config(self._config)
        fingerprint = campaign_fingerprint(self._spec, self._config,
                                           len(plan))
        return self._run_campaign(plan.shards, fingerprint, progress)

    def _merge(self, shards: Sequence[SweepShard],
               results: Dict[int, CharacterizationDataset]):
        """Concatenate in plan order; merge thermal and coverage; WCDP."""
        completed = [results[shard.index] for shard in shards
                     if shard.index in results]
        dataset = CharacterizationDataset.merged(
            completed, metadata=sweep_metadata(self._config))
        thermal = ThermalGuard.merge_metadata(completed)
        if thermal is not None:
            dataset.metadata["thermal"] = thermal
        self._coverage = self._coverage_of(shards, results)
        if self.errors:
            dataset.metadata["shard_errors"] = [
                error.as_dict() for error in self.errors]
            dataset.metadata["coverage"] = self._coverage
        if self._config.append_wcdp:
            with get_tracer().span("wcdp"):
                append_wcdp_records(dataset)
        return dataset, dataset

    @staticmethod
    def _coverage_of(shards: Sequence[SweepShard],
                     results: Dict[int, CharacterizationDataset]
                     ) -> Dict[str, object]:
        completed = sum(1 for shard in shards if shard.index in results)
        rows_completed = sum(
            len({record.row_key for record in (dataset.ber_records
                                               + dataset.hcfirst_records)})
            for dataset in results.values())
        # A quarantined shard never reported which rows it sampled, so
        # its loss is accounted at the planned sampling density.
        rows_quarantined = sum(
            min(shard.config.rows_per_region, shard.config.region_size)
            for shard in shards if shard.index not in results)
        return {
            "shards": {"total": len(shards), "completed": completed,
                       "quarantined": len(shards) - completed},
            "rows": {"attempted": rows_completed + rows_quarantined,
                     "completed": rows_completed,
                     "quarantined": rows_quarantined},
            "complete": completed == len(shards),
        }


def run_sweep(config: SweepConfig, *, spec: Optional[BoardSpec] = None,
              board: Optional[BenderBoard] = None,
              progress: Optional[ProgressCallback] = None,
              campaign_dir=None, max_retries: int = 1,
              retry_backoff_s: float = 0.0,
              verify: Optional[bool] = None,
              degrade: str = "auto") -> CharacterizationDataset:
    """Run a sweep on a live board or as a sharded campaign.

    Args:
        config: the sweep; ``config.jobs`` sets the worker count.
        spec: board recipe for the sharded campaign (workers, or the
            inline ``jobs == 1`` path, rebuild stations from it).
        board: an existing station: a ``jobs == 1`` sweep without
            ``campaign_dir`` runs :class:`SpatialSweep` on it directly
            (keeping its mapper and state); ignored otherwise.
        progress: per-(bank, region) callback (live board) or per-shard
            completion callback (campaign).
        campaign_dir: checkpoint/resume directory for the campaign.
        max_retries: extra attempts per failed shard.
        retry_backoff_s: base backoff before retry rounds.
        verify: override ``config.experiment.verify_programs`` (static
            verification of every generated hammer program; default on).
        degrade: ``"auto"`` finishes serially in-process when the pool's
            crash-loop breaker opens; ``"never"`` propagates the error.
    """
    if verify is not None and verify != config.experiment.verify_programs:
        config = replace(config, experiment=replace(
            config.experiment, verify_programs=verify))
    if board is not None and config.jobs == 1 and campaign_dir is None:
        return SpatialSweep(board, config).run(progress)
    if spec is None:
        raise ExperimentError(
            "run_sweep needs a BoardSpec to rebuild stations from, or a "
            "live board for a jobs=1 sweep without checkpoints (jobs="
            f"{config.jobs}, spec=None)")
    runner = ParallelSweepRunner(spec, config, max_retries=max_retries,
                                 retry_backoff_s=retry_backoff_s,
                                 campaign_dir=campaign_dir, degrade=degrade)
    return runner.run(progress)
