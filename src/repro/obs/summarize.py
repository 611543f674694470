"""Render exported traces/metrics as a human-readable profile.

Backs ``python -m repro obs summarize t.jsonl [--metrics m.json]``: a
per-phase time profile (where did the campaign's wall time go), the
slowest shards (where to look when ``--jobs N`` does not scale), and —
when a metrics snapshot is given — the command-stream accounting
(commands issued by type, commands/s, rows/s, shard retries/timeouts,
the execution engine's program-cache hit rate, and streaming-quantile
latency summaries for every recorded histogram).

Works on any trace this package wrote: a serial sweep, a merged
parallel campaign, a fleet run, or a single CLI command.  Fleet traces
(``device`` spans under the campaign root) additionally get a
per-device table with population spread — the fleet analogue of the
slowest-shards view.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.obs.trace import SpanRecord, read_jsonl

__all__ = [
    "device_profile",
    "phase_profile",
    "slowest_spans",
    "render_profile",
    "summarize_trace",
]


def _wall_seconds(records: Sequence[SpanRecord]) -> float:
    """Total campaign wall time: the summed duration of the root spans.

    Roots of a merged parallel trace are campaigns (shards are children);
    a bare worker trace or a single-command trace may have several roots,
    which ran sequentially in one process, so their durations add.
    """
    return sum(record.duration_s for record in records
               if record.parent_id is None)


def phase_profile(records: Sequence[SpanRecord]
                  ) -> List[Dict[str, object]]:
    """Aggregate spans by name: count, total/mean duration, wall share.

    ``total_s`` sums each span's own duration (children nest inside
    parents, so the column is *inclusive* time — the tree view of where
    time went, not an exclusive flat profile).
    """
    wall = _wall_seconds(records)
    by_name: Dict[str, List[float]] = {}
    order: List[str] = []
    for record in records:
        if record.name not in by_name:
            by_name[record.name] = []
            order.append(record.name)
        by_name[record.name].append(record.duration_s)
    profile = []
    for name in order:
        durations = by_name[name]
        total = sum(durations)
        profile.append({
            "phase": name,
            "count": len(durations),
            "total_s": total,
            "mean_ms": 1e3 * total / len(durations),
            "share": total / wall if wall > 0 else 0.0,
        })
    profile.sort(key=lambda row: row["total_s"], reverse=True)
    return profile


def slowest_spans(records: Sequence[SpanRecord], name: str = "shard",
                  top: int = 5) -> List[SpanRecord]:
    """The ``top`` longest spans named ``name`` (default: shards)."""
    matching = [record for record in records if record.name == name]
    matching.sort(key=lambda record: record.duration_s, reverse=True)
    return matching[:top]


def device_profile(records: Sequence[SpanRecord]
                   ) -> List[Dict[str, object]]:
    """Per-device rows from a fleet trace's ``device`` spans.

    Empty for non-fleet traces (no spans named ``device``), which is
    how the renderer decides whether to show the fleet section.
    """
    devices: List[Dict[str, object]] = []
    for record in records:
        if record.name != "device":
            continue
        wall = record.duration_s
        rows = record.attrs.get("records")
        devices.append({
            "device": record.attrs.get("device"),
            "seed": record.attrs.get("seed"),
            "wall_s": wall,
            "records": rows,
            "rows_per_s": (rows / wall if rows and wall > 0 else 0.0),
        })
    devices.sort(key=lambda row: (row["device"] is None, row["device"]))
    return devices


def _spread(values: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(values)
    return {"min": ordered[0], "p50": ordered[len(ordered) // 2],
            "max": ordered[-1]}


def _format_rows(rows: List[Sequence[str]], header: Sequence[str]) -> str:
    widths = [max(len(str(row[i])) for row in [header] + rows)
              for i in range(len(header))]
    lines = ["  ".join(str(cell).ljust(width) if i == 0
                       else str(cell).rjust(width)
                       for i, (cell, width) in enumerate(zip(row, widths)))
             for row in [header] + rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def _describe(record: SpanRecord) -> str:
    attrs = record.attrs
    keys = ("shard", "channel", "pseudo_channel", "bank", "region", "row")
    parts = [f"{key}={attrs[key]}" for key in keys if key in attrs]
    return " ".join(parts) if parts else "-"


def render_profile(records: Sequence[SpanRecord],
                   metrics: Optional[Mapping[str, Mapping[str, object]]]
                   = None,
                   top: int = 5) -> str:
    """The full profile rendering (see module docstring)."""
    wall = _wall_seconds(records)
    sections: List[str] = []

    sections.append(f"spans: {len(records)}    campaign wall: {wall:.3f} s")

    rows = [[row["phase"], row["count"], f"{row['total_s']:.3f}",
             f"{row['mean_ms']:.2f}", f"{row['share']:.1%}"]
            for row in phase_profile(records)]
    sections.append("time per phase (inclusive)\n" + _format_rows(
        rows, ["phase", "count", "total_s", "mean_ms", "share"]))

    shards = slowest_spans(records, "shard", top)
    if shards:
        shard_rows = [[_describe(record), f"{record.duration_s:.3f}"]
                      for record in shards]
        sections.append(f"slowest shards (top {len(shards)})\n" +
                        _format_rows(shard_rows, ["shard", "wall_s"]))

    devices = device_profile(records)
    if devices:
        sections.append(_render_devices(devices))

    if metrics is not None:
        sections.append(_render_metrics(metrics, wall))

    return "\n\n".join(sections)


def _render_devices(devices: List[Dict[str, object]]) -> str:
    rows = [[f"{row['device']}", f"{row['seed']}",
             f"{row['wall_s']:.3f}",
             "-" if row["records"] is None else f"{row['records']}",
             f"{row['rows_per_s']:.1f}"]
            for row in devices]
    table = _format_rows(
        rows, ["device", "seed", "wall_s", "records", "rows/s"])
    walls = _spread([row["wall_s"] for row in devices])
    rates = _spread([row["rows_per_s"] for row in devices])
    spread = (f"population spread: wall_s "
              f"min={walls['min']:.3f} p50={walls['p50']:.3f} "
              f"max={walls['max']:.3f}; rows/s "
              f"min={rates['min']:.1f} p50={rates['p50']:.1f} "
              f"max={rates['max']:.1f}")
    return (f"fleet devices ({len(devices)})\n{table}\n{spread}")


#: Counter prefix of the burst events the fast path stepped, by cause.
BURSTS_STEPPED = "engine.fastpath.bursts.stepped."


def _render_metrics(metrics: Mapping[str, Mapping[str, object]],
                    wall: float) -> str:
    counters = metrics.get("counters", {})
    commands = {name.rsplit(".", 1)[-1]: value
                for name, value in counters.items()
                if name.startswith("dram.commands.")}
    lines: List[str] = []
    if commands:
        total = sum(commands.values())
        per_type = "  ".join(f"{mnemonic}={int(value):,}"
                             for mnemonic, value in sorted(commands.items()))
        lines.append(f"DRAM commands: {int(total):,}  ({per_type})")
        if wall > 0:
            lines.append(f"command throughput: {total / wall:,.0f} "
                         "commands/s")
    measurements = (counters.get("sweep.ber_records", 0) +
                    counters.get("sweep.hcfirst_records", 0))
    if measurements and wall > 0:
        lines.append(f"measurements: {int(measurements):,} "
                     f"({measurements / wall:.2f} rows/s)")
    for name, label in (("hammer.pairs", "hammer pairs"),
                        ("bitflips.observed", "bitflips observed"),
                        ("trr.preventive_refreshes",
                         "TRR preventive refreshes"),
                        ("dram.truth.widened",
                         "cell ground-truth rows widened"),
                        ("sweep.shard_retries", "shard retries"),
                        ("sweep.shard_timeouts", "shard timeouts"),
                        ("sweep.shard_failures", "shard failures"),
                        ("campaign.recovered_shards",
                         "corrupt shard archives recovered"),
                        ("campaign.recovered_manifests",
                         "corrupt manifests recovered"),
                        ("campaign.checkpoint_write_errors",
                         "checkpoint writes refused (disk)"),
                        ("engine.pool.worker_crashes",
                         "worker pool crashes"),
                        ("engine.pool.breaker_open",
                         "pool circuit-breaker trips"),
                        ("sweep.degraded_serial",
                         "items finished degraded-serial"),
                        ("events.dropped_lines",
                         "torn event-log lines dropped")):
        if name in counters:
            lines.append(f"{label}: {int(counters[name]):,}")
    hits = int(counters.get("engine.cache.hits", 0))
    misses = int(counters.get("engine.cache.misses", 0))
    widened = int(counters.get("engine.cache.widened", 0))
    if hits or misses:
        rate = hits / (hits + misses)
        lines.append(f"program cache: {hits:,} hits, {misses:,} misses "
                     f"of which {widened:,} count widenings "
                     f"({rate:.1%} hit rate)")
    fast_hits = int(counters.get("engine.fastpath.hits", 0))
    fast_falls = int(counters.get("engine.fastpath.fallbacks", 0))
    fast_bypasses = int(counters.get("engine.fastpath.bypasses", 0))
    if fast_hits or fast_falls or fast_bypasses:
        total = fast_hits + fast_falls + fast_bypasses
        lines.append(f"analytic fast path: {fast_hits:,} hits, "
                     f"{fast_falls:,} fallbacks, "
                     f"{fast_bypasses:,} bypasses "
                     f"({fast_hits / total:.1%} of programs)")
    stepped = {name[len(BURSTS_STEPPED):]: int(value)
               for name, value in sorted(counters.items())
               if name.startswith(BURSTS_STEPPED)}
    collapsed = int(counters.get("engine.fastpath.bursts.collapsed", 0))
    cycle_fires = int(counters.get("engine.fastpath.bursts.cycle_fires", 0))
    if collapsed or stepped:
        causes = ", ".join(f"{cause} {count:,}"
                           for cause, count in stepped.items())
        lines.append(f"REF-bounded bursts: {collapsed:,} closed-form "
                     f"windows, {cycle_fires:,} TRR fires in closed "
                     f"form; stepped: {causes or 'none'}")
    for name in sorted(metrics.get("histograms", {})):
        summary = metrics["histograms"][name]
        if not summary.get("count") or "p50" not in summary:
            continue
        lines.append(
            f"{name}: n={summary['count']} p50={summary['p50']:.4g} "
            f"p95={summary['p95']:.4g} p99={summary['p99']:.4g} "
            f"(min={summary['min']:.4g} max={summary['max']:.4g})")
    if not lines:
        lines.append("(metrics snapshot holds no campaign counters)")
    return "command-stream metrics\n" + "\n".join(
        "  " + line for line in lines)


def summarize_trace(trace_path: Union[str, Path],
                    metrics_path: Union[str, Path, None] = None,
                    top: int = 5) -> str:
    """Load a trace (and optional metrics snapshot) and render it."""
    if not Path(trace_path).exists():
        raise ConfigurationError(
            f"no trace at {trace_path} (record one with --trace PATH)")
    records = read_jsonl(trace_path)
    metrics = None
    if metrics_path is not None:
        if not Path(metrics_path).exists():
            raise ConfigurationError(
                f"no metrics snapshot at {metrics_path} "
                "(record one with --metrics PATH)")
        import json
        metrics = json.loads(Path(metrics_path).read_text())
    return render_profile(records, metrics, top=top)
