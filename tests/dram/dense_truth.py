"""Every cell's ground truth, in cell order, for tests.

:class:`~repro.dram.cellmodel.GroundTruthProvider` stores a row's
thresholds and retention times only up to a cutoff; sampled at an
unbounded cutoff, a row keeps every cell, and scattering its prefixes
back by cell index gives the dense per-cell arrays.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DenseRow:
    thresholds: np.ndarray
    true_cell: np.ndarray
    retention_s: np.ndarray


def unbounded(provider, channel, pseudo_channel, bank, physical_row):
    """A row sampled with every cell kept."""
    return provider._sample_row(channel, pseudo_channel, bank, physical_row,
                                np.inf, np.inf)


def dense_row(provider, channel, pseudo_channel, bank, physical_row):
    truth = unbounded(provider, channel, pseudo_channel, bank, physical_row)
    cells = provider.cells_per_row
    thresholds = np.empty(cells, dtype=np.float32)
    thresholds[truth.hammer.cells] = truth.hammer.keys
    retention = np.empty(cells, dtype=np.float32)
    retention[truth.retention.cells] = truth.retention.keys
    true_cell = np.unpackbits(truth.orientation, count=cells).astype(bool)
    return DenseRow(thresholds, true_cell, retention)
