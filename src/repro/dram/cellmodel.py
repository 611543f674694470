"""Per-cell ground truth: RowHammer thresholds, orientation, retention.

Every DRAM cell in the simulated stack has three immutable physical
properties, sampled deterministically from the device seed and the cell's
coordinates (so the same cell behaves identically across experiments and
repetitions, as silicon does):

* **RowHammer threshold** — the accumulated neighbour-activation count at
  which the cell flips, before data-pattern coupling adjustments.
* **Orientation** — *true cell* (logical 1 stored as charged) or *anti
  cell* (logical 0 stored as charged).  Charge-loss mechanisms (RowHammer
  and retention decay) can only flip a cell that currently holds its
  charged value, which is what makes RowHammer data-pattern dependent.
* **Retention time** — how long the cell holds charge without refresh,
  the side channel U-TRR exploits (§5).

A row's ground truth covers its 8,192 data cells plus 1,024 on-die-ECC
parity cells (one 8-bit parity word per 64 data bits).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.dram.calibration import CalibrationProfile
from repro.dram.geometry import Geometry
from repro.dram.subarrays import SubarrayLayout
from repro.rng import generator_for, normal_hash

#: ECC granularity: one parity byte per this many data bits.
ECC_WORD_BITS = 64
#: Parity bits stored per ECC word.
ECC_PARITY_BITS = 8


@dataclass(frozen=True)
class RowGroundTruth:
    """Immutable physical properties of one row's cells.

    Arrays cover data cells followed by parity cells:
    ``thresholds[:row_bits]`` are the data cells, the rest are parity.
    """

    #: Base RowHammer threshold per cell (disturbance units), before
    #: data-pattern coupling multipliers and temperature scaling.
    thresholds: np.ndarray
    #: True where the cell is a true cell (charged == logical 1).
    true_cell: np.ndarray
    #: Retention time per cell at the reference temperature, seconds.
    retention_s: np.ndarray

    @property
    def charged_values(self) -> np.ndarray:
        """Logical value at which each cell is charged (uint8 0/1)."""
        return self.true_cell.astype(np.uint8)


class GroundTruthProvider:
    """Samples and caches per-row ground truth for one device.

    The provider is shared by every bank of the device; rows are keyed by
    (channel, pseudo channel, bank, physical row).  A bounded LRU cache
    keeps memory flat during full-bank sweeps.
    """

    def __init__(self, geometry: Geometry, profile: CalibrationProfile,
                 layout: SubarrayLayout, seed: int,
                 cache_rows: int = 768) -> None:
        self._geometry = geometry
        self._profile = profile
        self._layout = layout
        self._seed = seed
        self._cache: "OrderedDict[Tuple[int, int, int, int], RowGroundTruth]" = \
            OrderedDict()
        self._cache_rows = cache_rows

    @property
    def cells_per_row(self) -> int:
        """Data cells + parity cells per row."""
        data_bits = self._geometry.row_bits
        words = data_bits // ECC_WORD_BITS
        return data_bits + words * ECC_PARITY_BITS

    def row(self, channel: int, pseudo_channel: int, bank: int,
            physical_row: int) -> RowGroundTruth:
        """Ground truth for one physical row (cached)."""
        key = (channel, pseudo_channel, bank, physical_row)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        truth = self._sample_row(channel, pseudo_channel, bank, physical_row)
        self._cache[key] = truth
        if len(self._cache) > self._cache_rows:
            self._cache.popitem(last=False)
        return truth

    # ------------------------------------------------------------------
    def _row_scale(self, channel: int, pseudo_channel: int, bank: int,
                   physical_row: int) -> float:
        """Deterministic multiplicative scale shared by a row's cells."""
        profile = self._profile
        scale = profile.channel_scale(channel)
        scale *= float(np.exp(profile.bank_sigma * normal_hash(
            self._seed, ("bank-scale", channel, pseudo_channel, bank))))
        scale *= float(np.exp(profile.row_sigma * normal_hash(
            self._seed,
            ("row-scale", channel, pseudo_channel, bank, physical_row))))
        scale *= profile.subarray_position_scale(
            self._layout.position_fraction(physical_row))
        if self._layout.is_last_subarray(physical_row):
            scale *= profile.last_subarray_scale
        return scale

    def _sample_row(self, channel: int, pseudo_channel: int, bank: int,
                    physical_row: int) -> RowGroundTruth:
        profile = self._profile
        cells = self.cells_per_row
        rng = generator_for(
            self._seed, ("cells", channel, pseudo_channel, bank, physical_row))

        # Orientation first so the draw layout is stable if knobs change.
        true_cell = rng.random(cells) < profile.true_fraction_for(channel)

        # Two threshold populations: RowHammer-susceptible weak cells (a
        # few percent, channel-dependent density) and the strong bulk.
        weak = rng.random(cells) < profile.weak_fraction_for(channel)
        standard_normals = rng.standard_normal(cells)
        medians = np.where(weak, profile.weak_median, profile.strong_median)
        sigmas = np.where(weak, profile.weak_sigma, profile.strong_sigma)
        scale = self._row_scale(channel, pseudo_channel, bank, physical_row)
        thresholds = (profile.threshold_floor * scale +
                      medians * scale * np.exp(standard_normals * sigmas))

        orientation_scale = np.where(
            true_cell,
            profile.true_scale_for(channel),
            profile.anti_scale_for(channel))
        thresholds = (thresholds * orientation_scale).astype(np.float32)

        retention = (profile.retention_median_s * np.exp(
            rng.standard_normal(cells) * profile.retention_sigma)
        ).astype(np.float32)

        thresholds.setflags(write=False)
        true_cell.setflags(write=False)
        retention.setflags(write=False)
        return RowGroundTruth(thresholds=thresholds, true_cell=true_cell,
                              retention_s=retention)

    def powerup_cells(self, channel: int, pseudo_channel: int, bank: int,
                      physical_row: int) -> np.ndarray:
        """Deterministic power-up content of a never-written row.

        Covers data cells followed by parity cells.  A never-written,
        never-refreshed cell has fully decayed and reads as its
        *discharged* logical value — which is also why untouched rows can
        never gain RowHammer or retention flips (nothing is charged).
        """
        truth = self.row(channel, pseudo_channel, bank, physical_row)
        return (1 - truth.charged_values).astype(np.uint8)
