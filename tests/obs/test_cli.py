"""The ``obs`` CLI verbs: summarize (incl. percentile columns), diff
(incl. added/removed rows and the regression gate), chrome export (incl.
multi-trace merge), report, and the bench-report auto-conversion."""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics, trace
from repro.obs.cli import main


def _write_snapshot(path, **counters):
    reg = metrics.MetricsRegistry()
    for name, value in counters.items():
        reg.counter(name).inc(value)
    metrics.save_snapshot(path, reg.snapshot(run_id="r1"))
    return path


class TestSummarize:
    def test_valid_snapshot_exits_zero(self, tmp_path, capsys):
        path = _write_snapshot(tmp_path / "s.json", a=3)
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "a" in out and "3" in out

    def test_invalid_snapshot_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        assert main(["summarize", str(path)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_unparseable_file_exits_two(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["summarize", str(path)])
        assert excinfo.value.code == 2

    def test_histogram_percentile_columns(self, tmp_path, capsys):
        reg = metrics.MetricsRegistry()
        hist = reg.histogram("lat", buckets=(2.0, 4.0, 8.0))
        for value in (1.0, 1.5, 2.5, 3.0, 3.5, 5.0, 6.0, 7.0, 7.5, 10.0):
            hist.observe(value)
        path = tmp_path / "h.json"
        metrics.save_snapshot(path, reg.snapshot())
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines() if "p50" in line)
        assert "p90" in header and "p99" in header
        row = next(line for line in out.splitlines() if line.startswith("lat"))
        # 10 observations over buckets (2, 4, 8): p50 interpolates inside
        # the (2, 4] bucket and p99 inside the overflow tail.
        cols = row.split()
        p50, p90, p99 = (float(c) for c in cols[-3:])
        assert 2.0 < p50 <= 4.0
        assert 4.0 < p90 <= 8.0
        assert p99 > 8.0

    def test_bench_report_is_converted(self, tmp_path, capsys):
        report = {
            "schema": "repro.perf.bench/v1",
            "filter": {"reference_s": 2.0, "fast_s": 1.0, "speedup": 2.0},
            "replay": {"lru": {"speedup": 30.0}},
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(report))
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bench.filter.speedup" in out
        assert "bench.replay.speedup{policy=lru}" in out


class TestDiff:
    def test_identical_snapshots_exit_zero(self, tmp_path, capsys):
        a = _write_snapshot(tmp_path / "a.json", x=5)
        b = _write_snapshot(tmp_path / "b.json", x=5)
        assert main(["diff", str(a), str(b)]) == 0
        assert "x" in capsys.readouterr().out

    def test_fail_drop_gate_trips(self, tmp_path, capsys):
        a = _write_snapshot(tmp_path / "a.json", x=100)
        b = _write_snapshot(tmp_path / "b.json", x=50)
        assert main(["diff", str(a), str(b), "--fail-drop", "25"]) == 1
        assert "regression" in capsys.readouterr().err

    def test_fail_drop_tolerates_small_drops(self, tmp_path):
        a = _write_snapshot(tmp_path / "a.json", x=100)
        b = _write_snapshot(tmp_path / "b.json", x=90)
        assert main(["diff", str(a), str(b), "--fail-drop", "25"]) == 0

    def test_only_glob_restricts_the_gate(self, tmp_path):
        a = _write_snapshot(tmp_path / "a.json", **{"keep.x": 100, "noise.y": 100})
        b = _write_snapshot(tmp_path / "b.json", **{"keep.x": 100, "noise.y": 1})
        assert (
            main(["diff", str(a), str(b), "--only", "keep.*", "--fail-drop", "25"])
            == 0
        )

    def test_increase_never_trips_the_gate(self, tmp_path):
        a = _write_snapshot(tmp_path / "a.json", x=10)
        b = _write_snapshot(tmp_path / "b.json", x=1000)
        assert main(["diff", str(a), str(b), "--fail-drop", "25"]) == 0

    def test_one_sided_metrics_are_added_removed_rows(self, tmp_path, capsys):
        a = _write_snapshot(tmp_path / "a.json", both=1, only_a=5)
        b = _write_snapshot(tmp_path / "b.json", both=1, only_b=7)
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        row_a = next(line for line in out.splitlines() if "only_a" in line)
        row_b = next(line for line in out.splitlines() if "only_b" in line)
        assert "removed" in row_a
        assert "added" in row_b

    def test_one_sided_metrics_never_trip_the_gate(self, tmp_path):
        # 'gone' drops to nothing — but a one-sided row has no pct, so
        # the gate only judges metrics present on both sides.
        a = _write_snapshot(tmp_path / "a.json", stable=100, gone=100)
        b = _write_snapshot(tmp_path / "b.json", stable=100)
        assert main(["diff", str(a), str(b), "--fail-drop", "25"]) == 0

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "added" in out and "removed" in out


class TestChrome:
    def test_export(self, tmp_path):
        log_path = tmp_path / "t.jsonl"
        with trace.TraceLog(log_path, run_id="r1") as log:
            with log.span("a"):
                pass
        out = tmp_path / "chrome.json"
        assert main(["chrome", str(log_path), str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"]

    def test_multi_trace_merge_sorts_by_timestamp(self, tmp_path):
        paths = []
        for i in range(3):
            path = tmp_path / f"t{i}.jsonl"
            with trace.TraceLog(path, run_id="r1") as log:
                with log.span(f"span-{i}"):
                    pass
            paths.append(str(path))
        out = tmp_path / "merged.json"
        assert main(["chrome", *paths, str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert {e["name"] for e in events} == {"span-0", "span-1", "span-2"}
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)


class TestReport:
    def test_requires_a_source(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "r.html")]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_renders_from_metrics_snapshot(self, tmp_path):
        snap = _write_snapshot(tmp_path / "s.json", decisions=9)
        out = tmp_path / "r.html"
        assert main(["report", "--out", str(out), "--metrics", str(snap)]) == 0
        assert "decisions" in out.read_text()

    def test_invalid_insight_artifact_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "insight.json"
        bad.write_text(json.dumps({"schema": "wrong"}))
        assert (
            main(["report", "--out", str(tmp_path / "r.html"), "--insight", str(bad)])
            == 2
        )
        assert "schema" in capsys.readouterr().err


class TestEvalEntrypoint:
    def test_obs_subcommand_dispatches_without_ml_stack(self, tmp_path, capsys):
        from repro.eval.__main__ import main as eval_main

        path = _write_snapshot(tmp_path / "s.json", a=1)
        assert eval_main(["obs", "summarize", str(path)]) == 0
        assert "a" in capsys.readouterr().out
