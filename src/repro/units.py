"""Time and frequency unit helpers.

The library tracks in-DRAM time in *interface clock cycles* (the HBM2
interface in the paper runs at 600 MHz, i.e. one cycle every 1.66 ns) and
converts to seconds only at reporting boundaries.  Keeping integer cycle
counts internally avoids floating-point drift over the hundreds of
thousands of commands a hammering experiment issues.
"""

from __future__ import annotations

#: Nanoseconds per second.
NS_PER_S = 1_000_000_000

#: Microseconds per second.
US_PER_S = 1_000_000

#: Milliseconds per second.
MS_PER_S = 1_000


def ns(value: float) -> float:
    """Convert a value in nanoseconds to seconds."""
    return value / NS_PER_S


def us(value: float) -> float:
    """Convert a value in microseconds to seconds."""
    return value / US_PER_S


def ms(value: float) -> float:
    """Convert a value in milliseconds to seconds."""
    return value / MS_PER_S


def cycles_for_time(time_s: float, frequency_hz: float) -> int:
    """Number of whole clock cycles needed to cover ``time_s`` seconds.

    DRAM timing constraints are minimums, so partial cycles round *up*:
    a 48 ns constraint on a 600 MHz clock needs ceil(48 / 1.6667) = 29
    cycles, not 28.

    >>> cycles_for_time(48e-9, 600e6)
    29
    """
    if time_s < 0:
        raise ValueError(f"time must be non-negative, got {time_s}")
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    exact = time_s * frequency_hz
    whole = int(exact)
    if exact > whole:
        whole += 1
    return whole


def time_for_cycles(cycles: int, frequency_hz: float) -> float:
    """Seconds elapsed over ``cycles`` clock cycles at ``frequency_hz``."""
    if cycles < 0:
        raise ValueError(f"cycles must be non-negative, got {cycles}")
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return cycles / frequency_hz
