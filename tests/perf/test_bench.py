"""Smoke tests for the ``bench`` subcommand and its report schema."""

from __future__ import annotations

import json

import pytest

from repro.cache.fastsim import FAST_PATH_POLICIES
from repro.eval.runner import ExperimentConfig
from repro.perf.bench import BENCH_SCHEMA, run_bench, validate_bench


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_sim.json"
    config = ExperimentConfig(trace_length=6_000)
    run_bench(config, quick=True, out=out)
    return json.loads(out.read_text())


def test_report_is_valid(report):
    assert validate_bench(report) == []
    assert report["schema"] == BENCH_SCHEMA
    assert report["quick"] is True
    assert isinstance(report["cpu_count"], int)


def test_report_covers_every_fast_path_policy(report):
    assert sorted(report["fast_path_policies"]) == sorted(FAST_PATH_POLICIES)
    assert sorted(report["replay"]) == sorted(FAST_PATH_POLICIES)
    for entry in report["replay"].values():
        assert entry["reference_s"] > 0
        assert entry["fast_s"] > 0
        assert entry["speedup"] == pytest.approx(
            entry["reference_s"] / entry["fast_s"]
        )


def test_report_records_min_on_both_engines(report):
    entry = report["min"]
    assert entry["reference_s"] > 0 and entry["fast_s"] > 0
    accesses = report["filter"]["stream_length"]
    for engine in ("reference", "fast"):
        assert entry[f"{engine}_accesses_per_s"] == pytest.approx(
            accesses / entry[f"{engine}_s"]
        )
    broken = dict(report, min={"reference_s": 1.0, "fast_s": 0.0})
    assert "non-positive replay timing for 'min'" in validate_bench(broken)
    assert "missing stage 'min'" in validate_bench(
        {k: v for k, v in report.items() if k != "min"}
    )


def test_report_records_insight_overhead(report):
    assert sorted(report["insight"]) == ["glider", "hawkeye"]
    for entry in report["insight"].values():
        assert entry["baseline_s"] > 0
        assert entry["disabled_s"] > 0 and entry["sampled_s"] > 0
        assert entry["scored"] >= 0
        assert entry["sampled_overhead_pct"] == pytest.approx(
            (entry["sampled_s"] / entry["disabled_s"] - 1.0) * 100.0
        )


def test_validate_flags_malformed_reports():
    assert "schema != " + BENCH_SCHEMA in validate_bench({})[0]
    broken = {
        "schema": BENCH_SCHEMA,
        "fast_path_policies": ["lru"],
        "filter": {"reference_s": 1.0, "fast_s": 0.0},
        "replay": {},
    }
    problems = validate_bench(broken)
    assert any("lru" in p for p in problems)
    assert any("filter" in p for p in problems)
