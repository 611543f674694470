"""Row-data helpers: fill generation, flip counting, flip localisation.

Shared by every experiment: the BER metric is
``bitflips_in_victim / row_bits`` and the flip *positions* feed the
attack-templating example and the analysis of data-dependent behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError


def byte_fill_bits(byte_value: int, row_bytes: int) -> np.ndarray:
    """A row filled with ``byte_value``, as an unpacked bit array."""
    if not 0 <= byte_value <= 0xFF:
        raise AnalysisError(f"fill value must be a byte, got {byte_value:#x}")
    return np.unpackbits(np.full(row_bytes, byte_value, dtype=np.uint8))


def count_flips(read_bits: np.ndarray, expected_bits: np.ndarray) -> int:
    """Number of bit positions where read data differs from expectation."""
    if read_bits.shape != expected_bits.shape:
        raise AnalysisError(
            f"shape mismatch: read {read_bits.shape} vs expected "
            f"{expected_bits.shape}")
    return int(np.count_nonzero(read_bits != expected_bits))


def flip_positions(read_bits: np.ndarray,
                   expected_bits: np.ndarray) -> np.ndarray:
    """Bit indices (0-based within the row) that flipped."""
    if read_bits.shape != expected_bits.shape:
        raise AnalysisError(
            f"shape mismatch: read {read_bits.shape} vs expected "
            f"{expected_bits.shape}")
    return np.nonzero(read_bits != expected_bits)[0]


def bit_error_rate(flips: int, row_bits: int) -> float:
    """BER: fraction of a row's cells that flipped."""
    if row_bits <= 0:
        raise AnalysisError(f"row_bits must be positive, got {row_bits}")
    if flips < 0 or flips > row_bits:
        raise AnalysisError(
            f"flip count {flips} outside [0, {row_bits}]")
    return flips / row_bits


@dataclass(frozen=True)
class FlipReport:
    """Detailed outcome of reading back one victim row."""

    flips: int
    row_bits: int
    positions: np.ndarray
    #: Direction of each flip: True where the cell read 1 but expected 0.
    zero_to_one: np.ndarray

    @property
    def ber(self) -> float:
        return bit_error_rate(self.flips, self.row_bits)

    @property
    def one_to_zero_count(self) -> int:
        return self.flips - int(self.zero_to_one.sum())

    @property
    def zero_to_one_count(self) -> int:
        return int(self.zero_to_one.sum())


def flip_report(read_bits: np.ndarray,
                expected_bits: np.ndarray) -> FlipReport:
    """Full flip analysis of one read-back row."""
    positions = flip_positions(read_bits, expected_bits)
    zero_to_one = read_bits[positions] == 1
    return FlipReport(flips=len(positions), row_bits=len(read_bits),
                      positions=positions, zero_to_one=zero_to_one)
