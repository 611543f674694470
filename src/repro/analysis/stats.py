"""Distribution statistics used throughout the evaluation.

The paper summarizes per-row metrics with box-and-whiskers plots (first
and third quartiles, min/max whiskers, mean marker — its footnote 2) and
compares bank distributions via the coefficient of variation (footnote 4:
standard deviation normalized to the mean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True)
class BoxStats:
    """Box-and-whiskers summary of one distribution (paper footnote 2)."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def _validated(values: Sequence[float], what: str) -> np.ndarray:
    """``values`` as a 1-D float array, or a clear :class:`AnalysisError`.

    Every public function below funnels through this, so empty input,
    nested/scalar shapes, and NaN/inf contamination (e.g. a BER series
    divided by a zero denominator upstream) fail with the *metric name*
    instead of a ZeroDivisionError or a silent numpy warning.
    """
    try:
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise AnalysisError(
            f"{what} needs a sequence of numbers, got {values!r}") from None
    if array.ndim != 1:
        raise AnalysisError(
            f"{what} needs a 1-D sequence, got shape {array.shape}")
    if array.size == 0:
        raise AnalysisError(f"{what} of an empty sequence")
    if not np.all(np.isfinite(array)):
        raise AnalysisError(f"{what} of non-finite values (NaN/inf present)")
    return array


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) using the median-of-halves convention.

    The paper's footnote 2 defines Q1/Q3 as "the medians of the first and
    second half of the ordered set of data points", so we implement that
    convention rather than numpy's default interpolation.
    """
    ordered = np.sort(_validated(values, "quartiles"))
    n = len(ordered)
    median = float(np.median(ordered))
    half = n // 2
    lower = ordered[:half]
    upper = ordered[half + (n % 2):]
    if len(lower) == 0:  # n == 1
        return median, median, median
    return float(np.median(lower)), median, float(np.median(upper))


def box_stats(values: Sequence[float]) -> BoxStats:
    """Full box-plot summary of ``values``."""
    array = _validated(values, "box_stats")
    q1, median, q3 = quartiles(array)
    return BoxStats(count=len(array),
                    minimum=float(array.min()), q1=q1, median=median, q3=q3,
                    maximum=float(array.max()), mean=float(array.mean()))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation normalized to the mean (paper footnote 4).

    Uses the population standard deviation; raises on a zero mean — both
    the all-zero case (e.g. a flip-free bank) and a cancelling mixed-sign
    case — because the CV is undefined there.
    """
    array = _validated(values, "coefficient_of_variation")
    mean = float(array.mean())
    if mean == 0.0:
        detail = ("all zero" if not array.any()
                  else "mixed signs cancelling to zero mean")
        raise AnalysisError(
            "coefficient of variation undefined for zero-mean data "
            f"({array.size} values, {detail})")
    return float(array.std()) / mean


def relative_difference(larger: float, smaller: float) -> float:
    """(larger - smaller) / larger — the paper's "up to X%" convention.

    A 79% difference between the worst and best channel means the best
    channel's BER is 21% of the worst's, i.e. a 2.03x ratio the other way
    up — both numbers the abstract quotes come from this definition.
    """
    if not (np.isfinite(larger) and np.isfinite(smaller)):
        raise AnalysisError(
            f"relative difference of non-finite values "
            f"({larger!r}, {smaller!r})")
    if larger == 0:
        raise AnalysisError("relative difference with zero reference")
    return (larger - smaller) / larger
