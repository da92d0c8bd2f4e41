"""RobustSuiteRunner with ``jobs > 1``: same report, manifest, resume."""

from __future__ import annotations

import itertools
import json

from repro.robust.faults import BenchmarkFaultPlan
from repro.robust.retry import DeadlineBudget, RetryPolicy
from repro.robust.suite import RobustSuiteRunner
from repro.robust.supervise import CrashJournal

BENCHMARKS = ("alpha", "beta", "gamma", "delta")


def _compute(benchmark: str) -> str:
    if benchmark == "beta":
        raise ValueError("beta is broken")
    return benchmark.upper()


def _slow_ok(benchmark: str) -> str:
    return benchmark * 2


def test_parallel_matches_sequential_report():
    policy = RetryPolicy(max_attempts=1, base_delay=0.0)
    seq = RobustSuiteRunner(retry_policy=policy).run(BENCHMARKS, _compute)
    par = RobustSuiteRunner(retry_policy=policy).run(BENCHMARKS, _compute, jobs=2)
    assert par.completed == seq.completed
    assert par.failed_benchmarks() == seq.failed_benchmarks() == ["beta"]
    assert list(par.completed) == ["alpha", "gamma", "delta"]  # suite order
    failure = par.failures[0]
    assert failure.error_type == "ValueError"
    assert failure.attempts == 1


def test_parallel_retries_run_inside_workers():
    plan = BenchmarkFaultPlan.parse("gamma:2")
    runner = RobustSuiteRunner(
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0), fault_plan=plan
    )
    report = runner.run(BENCHMARKS[:3], _slow_ok, jobs=2)
    assert report.ok
    assert report.completed["gamma"] == "gammagamma"


def test_parallel_checkpoints_manifest_and_resumes(tmp_path):
    manifest_path = tmp_path / "manifest.json"
    policy = RetryPolicy(max_attempts=1, base_delay=0.0)
    first = RobustSuiteRunner(retry_policy=policy, manifest_path=manifest_path).run(
        BENCHMARKS, _compute, jobs=2
    )
    assert first.failed_benchmarks() == ["beta"]
    manifest = json.loads(manifest_path.read_text())
    assert set(manifest["done"]) == {"alpha", "gamma", "delta"}
    assert "beta" in manifest["failed"]
    # Second run: the three finished benchmarks resume from the
    # manifest; only beta is recomputed (and now succeeds).
    second = RobustSuiteRunner(retry_policy=policy, manifest_path=manifest_path).run(
        BENCHMARKS, _slow_ok, jobs=2
    )
    assert sorted(second.resumed) == ["alpha", "delta", "gamma"]
    assert second.completed["beta"] == "betabeta"
    assert second.ok


def test_parallel_deadline_enforced_at_submission():
    # Fake clock: 0 at construction, then +100s per look — expired by
    # the time the first benchmark would be submitted.
    budget = DeadlineBudget(10.0, clock=itertools.count(0, 100).__next__)
    runner = RobustSuiteRunner(
        retry_policy=RetryPolicy(max_attempts=1, base_delay=0.0), budget=budget
    )
    report = runner.run(BENCHMARKS, _slow_ok, jobs=2)
    assert report.deadline_hit
    assert report.completed == {}
    assert {f.error_type for f in report.failures} == {"DeadlineExceeded"}
    assert all(f.attempts == 0 for f in report.failures)


def test_parallel_records_unpicklable_compute_as_failure():
    # A closure cannot cross the process boundary; the escaping pickling
    # error must land as a structured failure, not crash the suite.
    runner = RobustSuiteRunner(retry_policy=RetryPolicy(max_attempts=1))
    report = runner.run(("a",), lambda b: b, jobs=2)
    assert report.failed_benchmarks() == ["a"]
    failure = report.failures[0]
    assert failure.error_type
    assert "a" == failure.benchmark


def test_jobs_one_is_the_sequential_path():
    runner = RobustSuiteRunner(retry_policy=RetryPolicy(max_attempts=1))
    report = runner.run(BENCHMARKS, _slow_ok, jobs=1)
    assert list(report.completed) == list(BENCHMARKS)


def test_jobs_one_and_two_journal_the_same_failures(tmp_path):
    """One execution path: an injected fault and an already-expired
    budget give the same report and the same journal at any ``jobs``."""

    def run(jobs: int):
        journal_path = tmp_path / f"journal-{jobs}.jsonl"
        # Fake clock: 0 at construction, then +100s per look — expired
        # before the first benchmark is submitted.
        budget = DeadlineBudget(10.0, clock=itertools.count(0, 100).__next__)
        runner = RobustSuiteRunner(
            retry_policy=RetryPolicy(max_attempts=1, base_delay=0.0),
            budget=budget,
            fault_plan=BenchmarkFaultPlan.parse("beta"),
            journal_path=journal_path,
        )
        report = runner.run(BENCHMARKS, _slow_ok, jobs=jobs)
        entries = CrashJournal(journal_path).tasks()
        return report, {(e["task"], e["taxonomy"]) for e in entries}

    seq_report, seq_journal = run(1)
    par_report, par_journal = run(2)
    assert seq_report == par_report
    assert seq_report.deadline_hit
    assert seq_journal == par_journal == {(b, "deadline") for b in BENCHMARKS}
