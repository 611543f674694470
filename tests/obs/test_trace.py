"""Tests for repro.obs.trace — span nesting, export order, grafting."""

import pytest

from repro.obs import (
    NOOP_TRACER,
    ObsSession,
    Tracer,
    get_metrics,
    get_tracer,
    read_jsonl,
    set_tracer,
    use_tracer,
)
from repro.obs.summarize import phase_profile, render_profile
from repro.obs.trace import SpanRecord


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestSpanNesting:
    def test_children_parent_to_enclosing_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("campaign") as campaign:
            with tracer.span("shard") as shard:
                with tracer.span("cell"):
                    pass
            with tracer.span("shard"):
                pass

        records = tracer.records
        assert [record.name for record in records] == [
            "campaign", "shard", "cell", "shard"]
        by_id = {record.span_id: record for record in records}
        assert by_id[campaign.span_id].parent_id is None
        assert by_id[shard.span_id].parent_id == campaign.span_id
        cell = records[2]
        assert cell.parent_id == shard.span_id
        assert records[3].parent_id == campaign.span_id

    def test_export_order_is_open_order(self):
        """Records are appended on open: export = pre-order traversal."""
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [record.name for record in tracer.records] == ["a", "b", "c"]

    def test_durations_and_attrs(self):
        clock = FakeClock(step=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("hammer", hammers=300) as span:
            span.set(flips=7)
        record = tracer.records[0]
        assert record.attrs == {"hammers": 300, "flips": 7}
        assert record.duration_s == 1.0
        assert record.end_s is not None

    def test_exception_marks_span_failed_and_closes_it(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("shard"):
                raise RuntimeError("boom")
        record = tracer.records[0]
        assert record.attrs["failed"] is True
        assert record.end_s is not None

    def test_out_of_order_exit_closes_inner_spans(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        tracer.span("inner")  # never explicitly closed
        outer.__exit__(None, None, None)
        assert all(record.end_s is not None for record in tracer.records)

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer(clock=FakeClock(), max_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.records) == 2
        assert tracer.dropped == 3


class TestNoopPath:
    def test_default_tracer_is_noop(self):
        assert get_tracer() is NOOP_TRACER
        assert NOOP_TRACER.enabled is False

    def test_noop_span_is_shared_and_inert(self):
        span_a = NOOP_TRACER.span("a", x=1)
        span_b = NOOP_TRACER.span("b")
        assert span_a is span_b  # one shared instance, no allocation
        with span_a as handle:
            assert handle.set(y=2) is handle
        assert handle.span_id is None
        assert list(NOOP_TRACER.records) == []

    def test_noop_export_refuses(self, tmp_path):
        with pytest.raises(RuntimeError):
            NOOP_TRACER.write_jsonl(tmp_path / "t.jsonl")

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with use_tracer(None):
                assert get_tracer() is NOOP_TRACER
            assert get_tracer() is tracer
        assert get_tracer() is NOOP_TRACER

    def test_set_tracer_none_restores_noop(self):
        set_tracer(Tracer())
        try:
            assert get_tracer() is not NOOP_TRACER
        finally:
            set_tracer(None)
        assert get_tracer() is NOOP_TRACER


class TestJsonlRoundTrip:
    def test_round_trip_preserves_tree_and_times(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("campaign", jobs=2):
            with tracer.span("shard", shard=0):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)

        loaded = read_jsonl(path)
        assert [(r.span_id, r.parent_id, r.name, r.start_s, r.end_s, r.attrs)
                for r in loaded] == \
               [(r.span_id, r.parent_id, r.name, r.start_s, r.end_s, r.attrs)
                for r in tracer.records]

    def test_open_span_round_trips_with_null_end(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        tracer.span("stuck")  # never closed, e.g. a crashed worker
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        (record,) = read_jsonl(path)
        assert record.end_s is None
        assert record.duration_s == 0.0


class TestGraft:
    def _worker_records(self):
        worker = Tracer(clock=FakeClock())
        with worker.span("shard", shard=3):
            with worker.span("cell"):
                pass
        return worker.records

    def test_graft_rebases_ids_and_reparents_roots(self):
        parent = Tracer(clock=FakeClock())
        with parent.span("campaign") as campaign:
            count = parent.graft(self._worker_records(),
                                 parent_id=campaign.span_id)
        assert count == 2
        shard = next(r for r in parent.records if r.name == "shard")
        cell = next(r for r in parent.records if r.name == "cell")
        assert shard.parent_id == campaign.span_id
        assert cell.parent_id == shard.span_id
        ids = [record.span_id for record in parent.records]
        assert len(set(ids)) == len(ids)

    def test_graft_orphan_hangs_off_graft_point(self):
        """A truncated trace's orphan subtree is kept, not dropped."""
        orphan = SpanRecord(span_id=9, parent_id=7, name="cell",
                            start_s=0.0, end_s=1.0)
        parent = Tracer(clock=FakeClock())
        with parent.span("campaign") as campaign:
            parent.graft([orphan], parent_id=campaign.span_id)
        grafted = next(r for r in parent.records if r.name == "cell")
        assert grafted.parent_id == campaign.span_id


class TestObsSession:
    def test_session_installs_and_exports(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        with ObsSession(trace_path=trace_path, metrics_path=metrics_path):
            with get_tracer().span("campaign"):
                pass
            get_metrics().counter("hammer.pairs").inc(5)
        assert get_tracer() is NOOP_TRACER
        assert [r.name for r in read_jsonl(trace_path)] == ["campaign"]
        from repro.obs import MetricsRegistry
        snapshot = MetricsRegistry.read_snapshot(metrics_path)
        assert snapshot["counters"]["hammer.pairs"] == 5


class TestSummarize:
    def test_phase_profile_aggregates_by_name(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("campaign"):
            with tracer.span("hammer"):
                pass
            with tracer.span("hammer"):
                pass
        profile = phase_profile(tracer.records)
        by_name = {row["phase"]: row for row in profile}
        assert by_name["hammer"]["count"] == 2
        assert by_name["campaign"]["count"] == 1
        assert by_name["hammer"]["total_s"] > 0

    def test_render_profile_mentions_phases(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("campaign"):
            with tracer.span("shard", shard=0, channel=1):
                pass
        text = render_profile(tracer.records)
        assert "campaign" in text
        assert "shard" in text

    def test_render_metrics_reports_fastpath_triage(self):
        from repro.obs.summarize import _render_metrics

        text = _render_metrics(
            {"counters": {"engine.fastpath.hits": 360,
                          "engine.fastpath.fallbacks": 0,
                          "engine.fastpath.bypasses": 40}}, wall=1.0)
        assert ("analytic fast path: 360 hits, 0 fallbacks, "
                "40 bypasses (90.0% of programs)") in text

    def test_render_metrics_reports_burst_causes(self):
        from repro.obs.summarize import _render_metrics

        text = _render_metrics(
            {"counters": {"engine.fastpath.hits": 4,
                          "engine.fastpath.bursts.collapsed": 1712,
                          "engine.fastpath.bursts.stepped.warmup": 4,
                          "engine.fastpath.bursts.stepped.trr-fire": 1708,
                          "engine.fastpath.bursts.stepped.refresh-hit": 4}},
            wall=1.0)
        assert ("REF-bounded bursts: 1,712 closed-form windows, 0 TRR "
                "fires in closed form; stepped: refresh-hit 4, "
                "trr-fire 1,708, warmup 4") in text

    def test_render_metrics_reports_fire_cycles_and_refusals(self):
        from repro.obs.summarize import _render_metrics

        text = _render_metrics(
            {"counters": {"engine.fastpath.hits": 4,
                          "engine.fastpath.bursts.collapsed": 22,
                          "engine.fastpath.bursts.cycle_fires": 1702,
                          "engine.fastpath.bursts.stepped.warmup": 4,
                          "engine.fastpath.bursts.stepped.trr-fire": 8,
                          "engine.fastpath.bursts.stepped.fire-guard": 2,
                          "engine.fastpath.bursts.stepped.fire-picks": 1,
                          "engine.fastpath.bursts.stepped.refresh-hit":
                              32}},
            wall=1.0)
        assert ("REF-bounded bursts: 22 closed-form windows, 1,702 TRR "
                "fires in closed form; stepped: fire-guard 2, "
                "fire-picks 1, refresh-hit 32, trr-fire 8, warmup 4") in text

    def test_render_metrics_reports_count_widenings(self):
        from repro.obs.summarize import _render_metrics

        text = _render_metrics(
            {"counters": {"engine.cache.hits": 1_195,
                          "engine.cache.misses": 5,
                          "engine.cache.widened": 2}}, wall=1.0)
        assert ("program cache: 1,195 hits, 5 misses of which 2 count "
                "widenings (99.6% hit rate)") in text

    def test_render_metrics_reports_truth_widenings(self):
        from repro.obs.summarize import _render_metrics

        text = _render_metrics(
            {"counters": {"dram.truth.widened": 1_024}}, wall=1.0)
        assert "cell ground-truth rows widened: 1,024" in text
        assert "widened" not in _render_metrics(
            {"counters": {"hammer.pairs": 7}}, wall=1.0)

    def test_render_metrics_silent_without_fastpath(self):
        from repro.obs.summarize import _render_metrics

        text = _render_metrics(
            {"counters": {"engine.cache.hits": 5}}, wall=1.0)
        assert "fast path" not in text
