"""Tests for tools/bench_compare.py — the benchmark-suite gate."""

import copy
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_compare  # noqa: E402

#: The committed suite record: every case perturbs a copy of it.
RECORD = json.loads((ROOT / "benchmarks" / "results"
                     / "BENCH_suite.json").read_text())


def _write(path, record):
    path.write_text(json.dumps(record) + "\n")
    return path


def _run(tmp_path, baseline, current):
    base = _write(tmp_path / "base.json", baseline)
    cur = _write(tmp_path / "cur.json", current)
    return bench_compare.main([str(base), str(cur)])


def _changed(edit):
    record = copy.deepcopy(RECORD)
    edit(record["workloads"]["fig3_ber"])
    return record


def _scale_throughput(factor):
    def edit(workload):
        workload["end_to_end"]["warm_records_per_s"]["value"] *= factor
    return edit


class TestVerdicts:
    def test_identical_records_pass(self, tmp_path, capsys):
        assert _run(tmp_path, RECORD, RECORD) == 0
        assert "clean" in capsys.readouterr().out

    def test_count_drift_hard_fails(self, tmp_path, capsys):
        key = "warm.dram.device.activate.calls"

        def edit(workload):
            workload["per_layer"][key]["value"] += 1
        assert _run(tmp_path, RECORD, _changed(edit)) == 2
        out = capsys.readouterr().out
        assert f"FAIL  fig3_ber: {key}" in out

    def test_hit_rate_drift_hard_fails(self, tmp_path, capsys):
        def edit(workload):
            workload["per_layer"]["cold.engine.cache.hit_rate"]["value"] /= 2
        assert _run(tmp_path, RECORD, _changed(edit)) == 2
        assert "cold.engine.cache.hit_rate" in capsys.readouterr().out

    def test_fingerprint_change_hard_fails(self, tmp_path, capsys):
        def edit(workload):
            workload["fingerprint"] = "0" * 32
        assert _run(tmp_path, RECORD, _changed(edit)) == 2
        assert "fig3_ber: fingerprint" in capsys.readouterr().out

    def test_incorrect_workload_hard_fails(self, tmp_path, capsys):
        def edit(workload):
            workload["correct"] = False
        assert _run(tmp_path, RECORD, _changed(edit)) == 2
        assert "fig3_ber: correct is False" in capsys.readouterr().out

    def test_missing_workload_hard_fails(self, tmp_path, capsys):
        pruned = copy.deepcopy(RECORD)
        del pruned["workloads"]["trr_refresh"]
        assert _run(tmp_path, RECORD, pruned) == 2
        assert "trr_refresh: missing" in capsys.readouterr().out

    def test_missing_baseline_key_hard_fails(self, tmp_path):
        def edit(workload):
            del workload["per_layer"]["cold.dram.cellmodel.row.calls"]
        assert _run(tmp_path, RECORD, _changed(edit)) == 2

    def test_twenty_percent_throughput_regression_warns(self, tmp_path,
                                                        capsys):
        _, bound = bench_compare.load_bounds()["warm_records_per_s"]
        slower = _changed(_scale_throughput(1 - bound - 0.05))
        assert _run(tmp_path, RECORD, slower) == 1
        out = capsys.readouterr().out
        assert "WARN  fig3_ber: warm_records_per_s" in out
        assert "FAIL" not in out

    def test_timing_drift_within_tolerance_is_clean(self, tmp_path):
        _, bound = bench_compare.load_bounds()["warm_records_per_s"]
        slower = _changed(_scale_throughput(1 - bound + 0.05))
        assert _run(tmp_path, RECORD, slower) == 0

    def test_improvement_is_clean(self, tmp_path):
        def edit(workload):
            for name in ("cold_records_per_s", "warm_records_per_s"):
                workload["end_to_end"][name]["value"] *= 2
            for name in ("setup_s", "peak_rss_mb"):
                workload["end_to_end"][name]["value"] /= 2
        assert _run(tmp_path, RECORD, _changed(edit)) == 0

    def test_count_drift_beats_timing_warning(self, tmp_path):
        def edit(workload):
            _scale_throughput(0.5)(workload)
            workload["per_layer"]["cold.engine.backend.compile.calls"][
                "value"] += 5
        assert _run(tmp_path, RECORD, _changed(edit)) == 2

    def test_extra_current_keys_are_ignored(self, tmp_path):
        def edit(workload):
            workload["per_layer"]["cold.new.entry.calls"] = {
                "value": 1, "unit": "count"}
        assert _run(tmp_path, RECORD, _changed(edit)) == 0

    def test_compares_every_baseline_workload(self, tmp_path, capsys):
        assert _run(tmp_path, RECORD, RECORD) == 0
        out = capsys.readouterr().out
        assert f"{len(RECORD['workloads'])} workload(s) compared" in out
        assert len(RECORD["workloads"]) == 4


class TestBounds:
    def test_bounds_come_from_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert bench_compare.load_bounds() == {
            metric["name"]: (metric["better"], metric["bound"])
            for metric in spec["end_to_end"]}


class TestUnusableInputs:
    """Broken inputs exit 2 with a one-line diagnostic, not a traceback."""

    def test_truncated_baseline_json_exits_2(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(RECORD)[:40])  # torn mid-write
        cur = _write(tmp_path / "cur.json", RECORD)
        assert bench_compare.main([str(base), str(cur)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unreadable record")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_missing_baseline_file_exits_2(self, tmp_path, capsys):
        cur = _write(tmp_path / "cur.json", RECORD)
        code = bench_compare.main(
            [str(tmp_path / "nope.json"), str(cur)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_current_record_hard_fails(self, tmp_path, capsys):
        base = _write(tmp_path / "base.json", RECORD)
        code = bench_compare.main([str(base), str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_object_baseline_exits_2(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text("[1, 2, 3]\n")
        cur = _write(tmp_path / "cur.json", RECORD)
        assert bench_compare.main([str(base), str(cur)]) == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_file_directory_mismatch_exits_2(self, tmp_path, capsys):
        base = _write(tmp_path / "base.json", RECORD)
        assert bench_compare.main([str(base), str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: unreadable")

    def test_empty_baseline_is_an_error(self, tmp_path, capsys):
        assert _run(tmp_path, {"workloads": {}}, RECORD) == 2
        assert "error: the baseline has no workloads" in \
            capsys.readouterr().err

    def test_non_suite_record_exits_2(self, tmp_path, capsys):
        assert _run(tmp_path, {"seed": 2023}, RECORD) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not a benchmark-suite record")
        assert err.count("\n") == 1
