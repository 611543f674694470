"""Spatial sweep orchestration for the Figs. 3-6 campaigns.

The paper measures BER and HC_first over the first, middle, and last 3K
rows of a bank in every channel (Figs. 3-5), and a 300-row slice of all
256 banks (Fig. 6).  A :class:`SpatialSweep` reproduces those campaigns
with configurable subsampling: hammering every row of a 3K region is
dominated by simulation time exactly as it is dominated by hammering time
on the FPGA, so benchmarks default to evenly-spaced samples per region and
scale up via environment variables:

============================  =============================================
``REPRO_ROWS_PER_REGION``     BER victims sampled per 3K-row region
``REPRO_HCFIRST_ROWS``        HC_first victims per region (searches are
                              ~20x the cost of one BER test)
``REPRO_REPETITIONS``         independent repetitions of each measurement
``REPRO_REGION_SIZE``         region size in rows (paper: 3072)
``REPRO_JOBS``                worker processes for the sweep (1 = serial)
============================  =============================================

Setting ``jobs > 1`` does not change this module: :class:`SpatialSweep`
is always the serial reference implementation.  The parallel executor in
:mod:`repro.core.parallel` shards a sweep by (channel, pseudo channel,
bank, region) and merges the per-shard datasets back into exactly the
record order the serial path produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.bender.board import BenderBoard
from repro.core.ber import BerExperiment
from repro.core.experiment import ExperimentConfig
from repro.core.hcfirst import HcFirstSearch
from repro.core.patterns import DataPattern, STANDARD_PATTERNS
from repro.core.results import (
    REGION_FIRST,
    REGION_LAST,
    REGION_MIDDLE,
    REGIONS,
    CharacterizationDataset,
)
from repro.core.wcdp import append_wcdp_records
from repro.dram.address import DramAddress, RowAddressMapper
from repro.engine import EngineSession, ExecutionPlan, WorkItem
from repro.envutil import env_int
from repro.errors import ExperimentError
from repro.faults.plan import FaultSpec
from repro.faults.thermal import ThermalGuard
from repro.obs import ObsConfig, get_metrics, get_tracer

ProgressCallback = Callable[[str], None]


@dataclass(frozen=True)
class SweepConfig:
    """Axes and sampling density of one spatial sweep."""

    channels: Tuple[int, ...] = tuple(range(8))
    pseudo_channels: Tuple[int, ...] = (0,)
    banks: Tuple[int, ...] = (0,)
    regions: Tuple[str, ...] = REGIONS
    #: Rows per region in the paper's campaign (first/middle/last 3K).
    region_size: int = 3072
    #: BER victims sampled per region.
    rows_per_region: int = 16
    #: HC_first victims sampled per region (subset of the BER victims).
    hcfirst_rows_per_region: int = 6
    patterns: Tuple[DataPattern, ...] = STANDARD_PATTERNS
    include_ber: bool = True
    include_hcfirst: bool = True
    repetitions: int = 1
    #: Drop stored row data between regions to bound memory in big sweeps.
    release_rows_between_regions: bool = True
    #: Synthesize the WCDP records after the sweep (Figs. 3-5 need them).
    append_wcdp: bool = True
    #: Worker processes for a sharded sweep
    #: (:class:`repro.core.parallel.ParallelSweepRunner`); 1 runs the
    #: shards inline unless ``shard_timeout_s`` is set.
    jobs: int = 1
    #: Per-shard wall-clock timeout (None = unlimited).
    shard_timeout_s: Optional[float] = None
    #: Observability carried across the process boundary: the parallel
    #: executor injects this into shard configs so workers know what to
    #: collect and where to spool it (None = nothing; the serial path
    #: ignores it and uses the process's current collectors instead).
    obs: Optional[ObsConfig] = None
    #: Deterministic fault plan for resilience testing (None = consult
    #: ``$REPRO_FAULTS``, see :meth:`repro.faults.FaultSpec.from_env`).
    faults: Optional[FaultSpec] = None
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def __post_init__(self) -> None:
        if self.region_size <= 0:
            raise ExperimentError("region_size must be positive")
        if self.rows_per_region <= 0:
            raise ExperimentError("rows_per_region must be positive")
        if self.hcfirst_rows_per_region < 0:
            raise ExperimentError("hcfirst_rows_per_region must be >= 0")
        if self.repetitions <= 0:
            raise ExperimentError("repetitions must be positive")
        if self.jobs <= 0:
            raise ExperimentError("jobs must be positive")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ExperimentError("shard_timeout_s must be positive")
        unknown = set(self.regions) - set(REGIONS)
        if unknown:
            raise ExperimentError(f"unknown regions: {sorted(unknown)}")

    #: Environment knobs :meth:`from_env` consults, as
    #: field -> (variable, default, minimum).
    ENV_FIELDS = {
        "rows_per_region": ("REPRO_ROWS_PER_REGION", 16, 0),
        "hcfirst_rows_per_region": ("REPRO_HCFIRST_ROWS", 6, 0),
        "repetitions": ("REPRO_REPETITIONS", 1, 0),
        "region_size": ("REPRO_REGION_SIZE", 3072, 0),
        "jobs": ("REPRO_JOBS", 1, 1),
    }

    @classmethod
    def from_env(cls, **overrides) -> "SweepConfig":
        """Default config with sampling density read from the environment.

        Explicit ``overrides`` always win: the environment variable for
        an overridden field is not even read, so e.g. an invalid
        ``$REPRO_JOBS`` cannot poison a call that passes ``jobs=``
        explicitly.
        """
        values = dict(overrides)
        for name, (variable, default, minimum) in cls.ENV_FIELDS.items():
            if name not in values:
                values[name] = env_int(variable, default, minimum=minimum)
        return cls(**values)


def sweep_metadata(config: SweepConfig) -> dict:
    """The dataset metadata a sweep with ``config`` records.

    Shared by the serial and parallel executors so that both produce
    byte-identical exported datasets for the same config.  Deliberately
    excludes execution details (``jobs``): how a dataset was computed is
    not part of what was measured.
    """
    return {
        "channels": list(config.channels),
        "pseudo_channels": list(config.pseudo_channels),
        "banks": list(config.banks),
        "regions": list(config.regions),
        "region_size": config.region_size,
        "rows_per_region": config.rows_per_region,
        "hcfirst_rows_per_region": config.hcfirst_rows_per_region,
        "patterns": [pattern.name for pattern in config.patterns],
        "repetitions": config.repetitions,
        "ber_hammer_count": config.experiment.ber_hammer_count,
        "temperature_c": config.experiment.temperature_c,
        "profile": config.experiment.profile,
    }


class SpatialSweep:
    """Runs one characterization campaign over a device."""

    def __init__(self, board: BenderBoard, config: Optional[SweepConfig] = None,
                 mapper: Optional[RowAddressMapper] = None) -> None:
        """
        Args:
            board: the testing station (one physical chip).
            config: sweep axes and sampling density.
            mapper: the logical->physical row mapping to address physical
                neighbourhoods with.  Defaults to the device's mapping;
                pass the result of
                :func:`repro.core.mapping_re.reverse_engineer_mapping`
                to run the fully self-contained methodology (the two are
                verified equivalent in the integration tests).
        """
        self._board = board
        self._config = config or SweepConfig()
        wanted = self._config.experiment.profile
        actual = board.device.profile_name
        if wanted is not None and actual is not None and wanted != actual:
            raise ExperimentError(
                f"sweep is configured for device profile {wanted!r} but "
                f"the station was built as {actual!r}")
        self._session = EngineSession(board=board,
                                      experiment=self._config.experiment)
        self._mapper = mapper or board.device.mapper
        self._ber = BerExperiment(board.host, self._mapper,
                                  self._config.experiment)
        self._hcfirst = HcFirstSearch(board.host, self._mapper,
                                      self._config.experiment)
        self._thermal_guard: Optional[ThermalGuard] = None

    @property
    def config(self) -> SweepConfig:
        return self._config

    # ------------------------------------------------------------------
    def region_start(self, region: str) -> int:
        """First row of a named region (paper §3.1 regions)."""
        rows = self._board.device.geometry.rows
        size = min(self._config.region_size, rows)
        if region == REGION_FIRST:
            return 0
        if region == REGION_MIDDLE:
            return (rows - size) // 2
        if region == REGION_LAST:
            return rows - size
        raise ExperimentError(f"unknown region {region!r}")

    def region_rows(self, region: str, count: int) -> List[int]:
        """``count`` evenly spaced victim rows within a region.

        Rows whose wordline sits at a bank edge (only one physical
        neighbour) cannot be double-sided hammered and are skipped in
        favour of the nearest usable row.

        The even-spacing grid is computed first and each gridpoint is
        then bumped independently past edge rows, so one skip does not
        drag every subsequent sample off the grid (which would compress
        the spacing for the rest of the region).  A gridpoint whose
        forward bump would run past the region end falls back to the
        nearest unused row before it.
        """
        geometry = self._board.device.geometry
        start = self.region_start(region)
        size = min(self._config.region_size, geometry.rows)
        count = min(count, size)
        stride = max(1, size // count)
        end = start + size

        def usable(row: int) -> bool:
            return len(self._mapper.physical_neighbors(row)) == 2

        rows: List[int] = []
        previous = start - 1
        for index in range(count):
            gridpoint = max(start + index * stride, previous + 1)
            candidate = gridpoint
            while candidate < end and not usable(candidate):
                candidate += 1
            if candidate >= end:
                # Off the region end: take the closest unused row below
                # the gridpoint instead of silently dropping the sample.
                candidate = min(gridpoint, end - 1)
                while candidate > previous and not usable(candidate):
                    candidate -= 1
                if candidate <= previous:
                    continue  # no usable row left for this gridpoint
            rows.append(candidate)
            previous = candidate
        if len(set(rows)) != len(rows):
            raise ExperimentError(
                f"region_rows produced duplicate rows for region "
                f"{region!r}: {rows}")
        return rows

    # ------------------------------------------------------------------
    def run(self, progress: Optional[ProgressCallback] = None, *,
            apply_interference_controls: bool = True
            ) -> CharacterizationDataset:
        """Execute the campaign; returns the dataset (with WCDP records).

        Applies the §3.1 interference controls first: sets the chip
        temperature through the PID rig and writes the ECC mode register
        (forgetting the latter silently halves measured vulnerability —
        on-die ECC eats isolated bitflips).  Parallel sweep workers pass
        ``apply_interference_controls=False`` for the shards after a
        station's first, having applied the controls exactly once per
        station as this method does for a whole serial campaign.
        """
        config = self._config
        tracer = get_tracer()
        metrics = get_metrics()
        counts_before = (dict(self._board.device.command_counts)
                         if metrics.enabled else None)
        self._session.prepare(apply_interference_controls)
        # The thermal guard is armed *after* the controls settle the rig
        # so it captures the calibrated operating point to snap back to.
        self._thermal_guard = self._session.thermal_guard(config.faults)
        dataset = CharacterizationDataset(metadata=sweep_metadata(config))
        plan = ExecutionPlan.from_config(config)
        with tracer.span("sweep", channels=list(config.channels),
                         pseudo_channels=list(config.pseudo_channels),
                         banks=list(config.banks),
                         regions=list(config.regions)):
            for item in plan:
                self._sweep_item(dataset, item, progress)
            measured_ber, measured_hcfirst = dataset.record_counts()
            if self._thermal_guard is not None:
                thermal = self._thermal_guard.metadata()
                if thermal is not None:
                    dataset.metadata["thermal"] = thermal
            if config.append_wcdp:
                with tracer.span("wcdp"):
                    append_wcdp_records(dataset)
        if counts_before is not None:
            metrics.count_commands(counts_before,
                                   self._board.device.command_counts)
            metrics.counter("sweep.ber_records").inc(measured_ber)
            metrics.counter("sweep.hcfirst_records").inc(measured_hcfirst)
        return dataset

    def _sweep_item(self, dataset: CharacterizationDataset, item: WorkItem,
                    progress: Optional[ProgressCallback]) -> None:
        """Measure one :class:`~repro.engine.plan.WorkItem` (bank region)."""
        config = self._config
        device = self._board.device
        tracer = get_tracer()
        channel, pseudo_channel = item.channel, item.pseudo_channel
        bank, region = item.bank, item.region
        if progress is not None:
            progress(f"ch{channel} pc{pseudo_channel} ba{bank} "
                     f"region={region}")
        with tracer.span("region", channel=channel,
                         pseudo_channel=pseudo_channel, bank=bank,
                         region=region):
            ber_rows = self.region_rows(region, config.rows_per_region)
            hcfirst_rows = ber_rows[:config.hcfirst_rows_per_region]
            for row in ber_rows:
                victim = DramAddress(channel, pseudo_channel, bank, row)
                guard = self._thermal_guard
                if guard is not None:
                    guard.before_cell(channel, pseudo_channel, bank, row)
                with tracer.span("cell", row=row):
                    for repetition in range(config.repetitions):
                        if config.include_ber:
                            with tracer.span("ber",
                                             repetition=repetition):
                                dataset.extend(self._ber.run_patterns(
                                    victim, config.patterns, region,
                                    repetition))
                        if (config.include_hcfirst
                                and row in hcfirst_rows):
                            with tracer.span("hcfirst",
                                             repetition=repetition):
                                dataset.extend(
                                    self._hcfirst.record_patterns(
                                        victim, config.patterns,
                                        region, repetition))
                if guard is not None:
                    guard.after_cell()
        if config.release_rows_between_regions:
            device.bank(channel, pseudo_channel, bank).release_all_rows()
