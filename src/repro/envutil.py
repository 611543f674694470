"""Shared environment-variable parsing.

Every knob the repo reads from the environment goes through this module,
so parsing and validation behave identically whether a variable is
consumed by the sweep layer (``REPRO_ROWS_PER_REGION``), the parallel
executor (``REPRO_JOBS``), the fault-injection hook (``REPRO_FAULTS``)
or the execution engine (``REPRO_FASTPATH``).  Raises
:class:`~repro.errors.ExperimentError` on malformed values — an env
typo should fail loudly, not silently fall back to a default.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ExperimentError

#: The one execution gate (default: enabled).  On, engine sessions run
#: programs on the production path (program cache + analytic fast
#: path); off, on the oracle (built, verified and interpreted per call).
FASTPATH_VAR = "REPRO_FASTPATH"

_TRUTHY = frozenset(("1", "true", "yes", "on"))
_FALSY = frozenset(("0", "false", "no", "off"))


def env_str(name: str) -> Optional[str]:
    """The raw value of ``name``, or None when unset or empty."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    return raw


def env_int(name: str, default: int, minimum: int = 0) -> int:
    """Integer env var with a lower bound (``>= minimum``, not clamped:
    a below-minimum value raises, surfacing the misconfiguration)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ExperimentError(
            f"environment variable {name} must be an int, "
            f"got {raw!r}") from None
    if value < minimum:
        raise ExperimentError(
            f"environment variable {name} must be >= {minimum}, got {value}")
    return value


def env_flag(name: str, default: bool) -> bool:
    """Boolean env var: 1/true/yes/on vs 0/false/no/off (case-insensitive)."""
    raw = env_str(name)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ExperimentError(
        f"environment variable {name} must be a boolean flag "
        f"(0/1/true/false), got {raw!r}")


def env_jobs(default: int = 1) -> int:
    """Worker-process count from ``$REPRO_JOBS`` (minimum 1)."""
    return env_int("REPRO_JOBS", default, minimum=1)


def fastpath_enabled() -> bool:
    """Whether ``$REPRO_FASTPATH`` selects the production path (unset =
    enabled; the CI oracle job sets 0/1 and diffs dataset
    fingerprints)."""
    return env_flag(FASTPATH_VAR, True)
