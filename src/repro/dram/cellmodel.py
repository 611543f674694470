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

Only a row's few weak cells can ever flip, so a sampled row is stored
sparsely.  Its orientation is kept for every cell, packed eight to a
byte (a never-written row powers up to its discharged values).  Its
thresholds and retention times are kept only for the cells at or below
a *cutoff*, sorted ascending, in two :class:`CellPrefix` objects.
This is exact:

* a cell flips by hammer iff it holds its charged value and
  ``below·cb + above·ca (+ direct) >= th·h·t·v``, with aggressor-data
  coupling ``cb, ca <= 1``, the intra-row penalty ``h >= 1`` and the
  temperature and voltage scales ``t, v > 0``; so no cell whose base
  threshold ``th`` exceeds ``(below + above + direct) / (t·v)`` can
  flip.  The bank asks for twice that bound, its *reach*, which
  absorbs any float reordering;
* a cell loses its charge by retention iff ``elapsed >= ret·rscale``,
  so no cell with ``ret > elapsed / rscale`` can; again the bank asks
  for twice that.

A restore slices each prefix at its reach and compares only those
cells.  When a reach passes a row's cutoff, :meth:`GroundTruthProvider.row`
re-samples the row at a wider cutoff (at least double, at least the
reach) — sampling is keyed by the cell's coordinates, so the widened
row holds the same cells and more.  The initial cutoffs come from the
profile: twice the weak population's median threshold (the paper's
256K-hammer budget reaches 1.25x it on the hbm2 profile), and the
retention time three sigma below the median.  A stored hbm2 row takes
3.5–7.5 KB (the channel's weak-cell density sets it), against 81 KB for
every cell's properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.dram.calibration import CalibrationProfile
from repro.dram.geometry import Geometry
from repro.dram.subarrays import SubarrayLayout
from repro.obs import get_metrics
from repro.rng import generator_for, normal_hash

#: ECC granularity: one parity byte per this many data bits.
ECC_WORD_BITS = 64
#: Parity bits stored per ECC word.
ECC_PARITY_BITS = 8

#: Initial hammer cutoff, in multiples of the weak population's median
#: threshold.
CUTOFF_WEAK_MEDIANS = 2.0
#: Initial retention cutoff, in retention sigmas below the median.
RETENTION_CUTOFF_SIGMAS = 3.0


@dataclass(frozen=True)
class CellPrefix:
    """The cells of one row whose key (base threshold or retention time)
    is at or below ``cutoff``, in ascending key order."""

    #: Largest key a kept cell may have; every cell above it is absent.
    cutoff: float
    #: Index of each kept cell in the row (data cells, then parity).
    cells: np.ndarray
    #: Each kept cell's key (float32), ascending.
    keys: np.ndarray
    #: Each kept cell's charged logical value (uint8 0/1).
    charged: np.ndarray

    def upto(self, bound: float) -> int:
        """How many leading cells have a key at or below ``bound``."""
        return int(self.keys.searchsorted(bound, side="right"))


@dataclass(frozen=True)
class RowGroundTruth:
    """Immutable physical properties of one row's cells, stored sparsely
    (see the module docstring)."""

    #: Orientation of every cell, packed (``np.packbits`` of true-cell
    #: flags over data cells followed by parity cells).
    orientation: np.ndarray
    #: Cells by base RowHammer threshold (disturbance units), before
    #: data-pattern coupling multipliers and temperature scaling.
    hammer: CellPrefix
    #: Cells by retention time at the reference temperature, seconds.
    retention: CellPrefix


def _prefix(keys: np.ndarray, true_cell: np.ndarray, cutoff: float,
            index_type: np.dtype) -> CellPrefix:
    """The cells whose key is at or below ``cutoff``, sorted by key."""
    kept = np.flatnonzero(keys <= cutoff)
    kept = kept[np.argsort(keys[kept], kind="stable")]
    prefix = CellPrefix(cutoff=cutoff, cells=kept.astype(index_type),
                        keys=keys[kept],
                        charged=true_cell[kept].astype(np.uint8))
    for array in (prefix.cells, prefix.keys, prefix.charged):
        array.setflags(write=False)
    return prefix


def _wider(cutoff: float, reach: float) -> float:
    """``cutoff``, or a cutoff at least double it that covers ``reach``."""
    return cutoff if reach <= cutoff else max(2.0 * cutoff, reach)


class GroundTruthProvider:
    """Samples and keeps per-row ground truth for one device.

    The provider is shared by every bank of the device; rows are keyed by
    (channel, pseudo channel, bank, physical row), and every row sampled
    is kept for the device's lifetime (a stored row is a few KB).
    """

    def __init__(self, geometry: Geometry, profile: CalibrationProfile,
                 layout: SubarrayLayout, seed: int) -> None:
        self._geometry = geometry
        self._profile = profile
        self._layout = layout
        self._seed = seed
        self._rows: Dict[Tuple[int, int, int, int], RowGroundTruth] = {}
        self._cutoff = CUTOFF_WEAK_MEDIANS * profile.weak_median
        self._retention_cutoff = profile.retention_median_s * float(
            np.exp(-RETENTION_CUTOFF_SIGMAS * profile.retention_sigma))
        self._index_type = np.min_scalar_type(self.cells_per_row - 1)

    @property
    def cells_per_row(self) -> int:
        """Data cells + parity cells per row."""
        data_bits = self._geometry.row_bits
        words = data_bits // ECC_WORD_BITS
        return data_bits + words * ECC_PARITY_BITS

    def row(self, channel: int, pseudo_channel: int, bank: int,
            physical_row: int, reach: float = 0.0,
            retention_reach: float = 0.0) -> RowGroundTruth:
        """Ground truth for one physical row, holding every cell whose
        base threshold is at or below ``reach`` and whose retention time
        is at or below ``retention_reach`` (kept; widened when a reach
        passes the row's cutoff)."""
        key = (channel, pseudo_channel, bank, physical_row)
        truth = self._rows.get(key)
        if truth is None:
            cutoffs = (self._cutoff, self._retention_cutoff)
        else:
            cutoffs = (truth.hammer.cutoff, truth.retention.cutoff)
            if reach <= cutoffs[0] and retention_reach <= cutoffs[1]:
                return truth
        wide = (_wider(cutoffs[0], reach), _wider(cutoffs[1], retention_reach))
        if wide != cutoffs:
            get_metrics().counter("dram.truth.widened").inc()
        truth = self._sample_row(channel, pseudo_channel, bank, physical_row,
                                 *wide)
        self._rows[key] = truth
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
                    physical_row: int, cutoff: float,
                    retention_cutoff: float) -> RowGroundTruth:
        """Sample one row, keeping the cells at or below the cutoffs
        (``np.inf`` keeps every cell)."""
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

        orientation = np.packbits(true_cell)
        orientation.setflags(write=False)
        return RowGroundTruth(
            orientation=orientation,
            hammer=_prefix(thresholds, true_cell, cutoff, self._index_type),
            retention=_prefix(retention, true_cell, retention_cutoff,
                              self._index_type))

    def powerup_cells(self, channel: int, pseudo_channel: int, bank: int,
                      physical_row: int) -> np.ndarray:
        """Deterministic power-up content of a never-written row.

        Covers data cells followed by parity cells.  A never-written,
        never-refreshed cell has fully decayed and reads as its
        *discharged* logical value — which is also why untouched rows can
        never gain RowHammer or retention flips (nothing is charged).
        """
        truth = self.row(channel, pseudo_channel, bank, physical_row)
        return 1 - np.unpackbits(truth.orientation, count=self.cells_per_row)
