"""Metrics registry: counters, gauges, and histograms for campaigns.

The registry holds the quantities the paper's infrastructure accounts
for because they *are* the experiment — DRAM commands issued by type,
hammer pairs, bitflips observed, TRR preventive refreshes, PID settle
iterations, shard retries — as three metric kinds:

* :class:`Counter` — monotonically increasing total (``inc``),
* :class:`Gauge` — last-written value (``set``) with a declared
  cross-shard merge policy (``last`` / ``max`` / ``sum``),
* :class:`Histogram` — streaming summary (``observe``) with
  deterministic fixed-bin quantile estimates (p50/p95/p99).

Everything is process-local and single-threaded (matching the rest of
the simulator); cross-process aggregation happens by snapshotting a
worker's registry to JSON and :meth:`MetricsRegistry.merge_snapshot`-ing
it in the parent — counters add, gauges merge per their policy,
histograms combine their summaries (including bins, so merged quantiles
equal the quantiles of the pooled observations).

The module-level default registry is :data:`NULL_METRICS`, whose metric
handles are shared do-nothing objects, so instrumented code pays only a
lookup + call when metrics are disabled.  Naming convention:
dot-separated lowercase paths, e.g. ``dram.commands.ACT``,
``hammer.pairs``, ``sweep.shard_retries``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "GAUGE_POLICIES",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters only increase; got inc({amount})")
        self.value += amount


#: Valid gauge merge policies (cross-shard semantics of a gauge name).
GAUGE_POLICIES = ("last", "max", "sum")


class Gauge:
    """A point-in-time value (``set`` = last write wins, in-process).

    ``policy`` declares what the value *means* across shards, which is
    what :meth:`MetricsRegistry.merge_snapshot` applies: ``max`` (the
    default — peak-style gauges like temperatures or wall times survive
    merge order), ``sum`` (capacity-style gauges add up), ``last``
    (the historical clobbering behaviour, for gauges that genuinely
    describe the merging process itself).
    """

    __slots__ = ("value", "policy")

    def __init__(self, policy: str = "max") -> None:
        if policy not in GAUGE_POLICIES:
            raise ConfigurationError(
                f"unknown gauge policy {policy!r}; pick one of "
                f"{GAUGE_POLICIES}")
        self.value: Optional[float] = None
        self.policy = policy

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, value: Optional[float]) -> None:
        """Fold a remote shard's value in, per the declared policy."""
        if value is None:
            return
        if self.value is None or self.policy == "last":
            self.value = value
        elif self.policy == "max":
            self.value = max(self.value, value)
        else:  # sum
            self.value = self.value + value


#: Log-scale bin resolution: 16 bins per octave bounds the relative
#: error of any bin edge (and hence any quantile estimate) to < 1/16.
_BINS_PER_OCTAVE = 16


class Histogram:
    """Streaming summary of an observed distribution.

    Tracks count/sum/min/max plus sparse fixed log-scale bins
    (:data:`_BINS_PER_OCTAVE` per power of two), from which
    :meth:`quantile` interpolates deterministic p50/p95/p99 estimates.
    Fixed bins — unlike P² — are order-independent and merge exactly:
    combining two shards' bins gives the bins of the pooled stream, so
    quantiles are byte-stable across jobs levels.
    """

    __slots__ = ("count", "total", "min", "max", "_bins", "_nonpos")

    def __init__(self) -> None:
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._bins: Dict[int, int] = {}
        self._nonpos = 0  # observations <= 0 sort below every bin

    @staticmethod
    def _bin_key(value: float) -> int:
        mantissa, exponent = math.frexp(value)  # value = m * 2**e, m in [.5,1)
        sub = int((mantissa - 0.5) * 2 * _BINS_PER_OCTAVE)
        return exponent * _BINS_PER_OCTAVE + min(sub, _BINS_PER_OCTAVE - 1)

    @staticmethod
    def _bin_edges(key: int) -> "tuple":
        exponent, sub = divmod(key, _BINS_PER_OCTAVE)
        base = math.ldexp(1.0, exponent - 1)
        return (base * (1 + sub / _BINS_PER_OCTAVE),
                base * (1 + (sub + 1) / _BINS_PER_OCTAVE))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value > 0 and math.isfinite(value):
            key = self._bin_key(value)
            self._bins[key] = self._bins.get(key, 0) + 1
        else:
            self._nonpos += 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Deterministic quantile estimate interpolated within its bin.

        Accurate to the bin's relative width (< 1/16); exact for the
        extremes because estimates are clamped into [min, max].
        """
        if not self.count:
            return None
        target = q * self.count
        cumulative = self._nonpos
        if target <= cumulative:
            return self.min
        for key in sorted(self._bins):
            width = self._bins[key]
            if cumulative + width >= target:
                low, high = self._bin_edges(key)
                estimate = low + (high - low) * (target - cumulative) / width
                return min(max(estimate, self.min), self.max)
            cumulative += width
        return self.max

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "count": self.count, "sum": self.total,
            "min": self.min, "max": self.max, "mean": self.mean,
            "p50": self.quantile(0.50), "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "bins": {str(key): width
                     for key, width in sorted(self._bins.items())},
        }
        if self._nonpos:
            summary["nonpos"] = self._nonpos
        return summary

    def combine(self, other: Mapping[str, object]) -> None:
        """Fold another histogram's summary into this one."""
        count = int(other.get("count", 0))
        if count == 0:
            return
        self.count += count
        self.total += float(other.get("sum", 0.0))
        for bound, pick in (("min", min), ("max", max)):
            value = other.get(bound)
            if value is None:
                continue
            own = getattr(self, bound)
            setattr(self, bound,
                    value if own is None else pick(own, value))
        for key, width in other.get("bins", {}).items():
            key = int(key)
            self._bins[key] = self._bins.get(key, 0) + int(width)
        self._nonpos += int(other.get("nonpos", 0))


class _NullMetric:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    value = 0

    def inc(self, amount: float = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_METRIC = _NullMetric()


class NullMetrics:
    """The default disabled registry: accepts everything, records nothing."""

    enabled = False

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, policy: Optional[str] = None) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()


class MetricsRegistry:
    """Create-or-get registry of named metrics."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str, policy: Optional[str] = None) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._gauges[name] = Gauge(policy or "max")
        elif policy is not None and metric.policy != policy:
            raise ConfigurationError(
                f"gauge {name!r} already registered with policy "
                f"{metric.policy!r}, not {policy!r}")
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, self._histograms)
            metric = self._histograms[name] = Histogram()
        return metric

    def _check_free(self, name: str, target: Dict[str, object]) -> None:
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
            if table is not target and name in table:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {kind}")

    # ------------------------------------------------------------------
    def count_commands(self, before: Mapping[str, int],
                       after: Mapping[str, int],
                       prefix: str = "dram.commands.") -> None:
        """Record the delta of two device command-count snapshots.

        The device model already accounts every issued command by
        mnemonic (:attr:`repro.dram.device.Device.command_counts`);
        pulling deltas here keeps the per-command hot path untouched.
        """
        for mnemonic, total in after.items():
            delta = total - before.get(mnemonic, 0)
            if delta:
                self.counter(prefix + mnemonic).inc(delta)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready dump of every metric."""
        return {
            "counters": {name: metric.value
                         for name, metric in sorted(self._counters.items())},
            "gauges": {name: metric.value
                       for name, metric in sorted(self._gauges.items())},
            "histograms": {name: metric.summary()
                           for name, metric in
                           sorted(self._histograms.items())},
        }

    def merge_snapshot(self, snapshot: Mapping[str, Mapping[str, object]]
                       ) -> None:
        """Fold a snapshot (e.g. a worker's) into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).merge(value)
        for name, summary in snapshot.get("histograms", {}).items():
            self.histogram(name).combine(summary)

    # ------------------------------------------------------------------
    def to_json(self, path: Union[str, Path]) -> None:
        from repro.durable import atomic_write_bytes
        atomic_write_bytes(
            path, (json.dumps(self.snapshot(), indent=1) + "\n").encode(),
            kind="metrics")

    @staticmethod
    def read_snapshot(path: Union[str, Path]
                      ) -> Dict[str, Dict[str, object]]:
        return json.loads(Path(path).read_text())
