"""Unit behaviour of the supervised pool executor (``repro.robust.supervise``).

Process-killing failure modes (SIGKILL, hangs, degradation) live in
``test_chaos.py``; this file covers the in-band contract: ordering,
structured outcomes, journaling, budgets, and configuration.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.perf.parallel import parallel_map
from repro.robust.retry import DeadlineBudget
from repro.robust.supervise import (
    TAXONOMY_COMPUTE_ERROR,
    TAXONOMY_DEADLINE,
    CrashJournal,
    SupervisedTaskError,
    SuperviseConfig,
    TaskSupervisor,
    task_seed,
)


def _double(x: int) -> int:
    return x * 2


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three is right out")
    return x * 2


def test_map_parallel_preserves_order_and_runs_in_workers():
    supervisor = TaskSupervisor()
    outcomes = supervisor.map(_double, [1, 2, 3, 4, 5], jobs=2)
    assert [o.result for o in outcomes] == [2, 4, 6, 8, 10]
    assert all(o.ok for o in outcomes)
    assert all(o.submissions == 1 for o in outcomes)
    assert all(o.worker_pid not in (None, os.getpid()) for o in outcomes)
    assert not supervisor.degraded
    assert supervisor.pool_restarts == 0


def test_map_jobs_one_runs_in_the_parent():
    supervisor = TaskSupervisor()
    outcomes = supervisor.map(_double, [1, 2], jobs=1)
    assert [o.result for o in outcomes] == [2, 4]
    assert all(o.worker_pid == os.getpid() for o in outcomes)


def test_compute_error_is_a_structured_journaled_outcome(tmp_path):
    journal = CrashJournal(tmp_path / "journal.jsonl")
    supervisor = TaskSupervisor(journal=journal, repro_command="rerun {task}")
    ok, bad = supervisor.map(
        _fail_on_three, [1, 3], jobs=2, task_ids=["one", "three"]
    )
    assert ok.ok and ok.result == 2
    assert not bad.ok
    assert bad.taxonomy == TAXONOMY_COMPUTE_ERROR
    assert bad.error_type == "ValueError"
    assert "three is right out" in bad.message
    assert "ValueError" in bad.traceback
    (entry,) = journal.tasks()
    assert entry["task"] == "three"
    assert entry["taxonomy"] == TAXONOMY_COMPUTE_ERROR
    assert entry["repro"] == "rerun three"
    assert entry["traceback_digest"]
    assert entry["seed"] == task_seed("three")
    assert entry["worker_pid"] != os.getpid()


def test_unpicklable_fn_becomes_a_compute_error_outcome():
    supervisor = TaskSupervisor()
    (outcome,) = supervisor.map(lambda x: x, ["a"], jobs=2)
    assert not outcome.ok
    assert outcome.taxonomy == TAXONOMY_COMPUTE_ERROR
    assert outcome.error_type


def test_expired_budget_yields_deadline_outcomes_without_running():
    budget = DeadlineBudget(0.0)
    supervisor = TaskSupervisor()
    outcomes = supervisor.map(_double, [1, 2, 3], jobs=2, budget=budget)
    assert all(o.taxonomy == TAXONOMY_DEADLINE for o in outcomes)
    assert all(o.error_type == "DeadlineExceeded" for o in outcomes)
    assert all(o.submissions == 0 for o in outcomes)


def test_on_outcome_fires_once_per_task_as_results_land():
    seen: list[str] = []
    supervisor = TaskSupervisor()
    supervisor.map(
        _double,
        [1, 2, 3],
        jobs=2,
        task_ids=["a", "b", "c"],
        on_outcome=lambda o: seen.append(o.task_id),
    )
    assert sorted(seen) == ["a", "b", "c"]


def test_task_ids_must_match_items():
    with pytest.raises(ValueError):
        TaskSupervisor().map(_double, [1, 2], jobs=2, task_ids=["only-one"])


def test_journal_roundtrip_skips_a_torn_tail_line(tmp_path):
    journal = CrashJournal(tmp_path / "journal.jsonl")
    journal.append(event="task-failed", task="a", taxonomy="timeout")
    journal.append(event="pool-break", restart=1)
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "task-fail')  # crash mid-append
    assert [e["event"] for e in journal.read()] == ["task-failed", "pool-break"]
    assert journal.tasks(taxonomy="timeout")[0]["task"] == "a"
    assert journal.tasks(taxonomy="poison") == []


def test_missing_journal_reads_empty(tmp_path):
    assert CrashJournal(tmp_path / "nope.jsonl").read() == []


def test_parallel_map_raises_structured_error_and_journals(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    with pytest.raises(SupervisedTaskError) as excinfo:
        parallel_map(
            _fail_on_three, [1, 3], jobs=2, journal=str(journal_path),
            task_ids=["one", "three"],
        )
    assert excinfo.value.outcome.taxonomy == TAXONOMY_COMPUTE_ERROR
    assert excinfo.value.outcome.task_id == "three"
    assert CrashJournal(journal_path).tasks()


def test_parallel_map_sequential_path_propagates_original_error():
    with pytest.raises(ValueError):
        parallel_map(_fail_on_three, [3], jobs=1)


def test_clean_run_leaves_no_supervise_temp_dirs(tmp_path, monkeypatch):
    """The heartbeat/marker run dir must be gone after a successful map —
    workers are joined first, so no daemon heartbeat thread can write a
    straggler file mid-rmtree (the old silent leak)."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    outcomes = TaskSupervisor().map(_double, [1, 2, 3, 4], jobs=2)
    assert [o.result for o in outcomes] == [2, 4, 6, 8]
    residue = list(tmp_path.glob("repro-supervise-*"))
    assert residue == []


def test_structured_failures_still_clean_up_run_dir(tmp_path, monkeypatch):
    """In-band compute errors are a *clean* exit: no postmortem dir."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    TaskSupervisor().map(_fail_on_three, [1, 3], jobs=2)
    assert list(tmp_path.glob("repro-supervise-*")) == []


def test_crashed_run_keeps_dir_and_journals_it(tmp_path, monkeypatch):
    """An exception escaping the supervisor keeps the run dir for
    postmortem inspection and records where it lives in the journal."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    journal = CrashJournal(tmp_path / "journal.jsonl")
    supervisor = TaskSupervisor(journal=journal)

    def boom(outcome):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        supervisor.map(_double, [1, 2], jobs=2, on_outcome=boom)
    kept = [e for e in journal.read() if e["event"] == "run-dir-kept"]
    assert kept, "crash exit must journal the kept run dir"
    assert list(tmp_path.glob("repro-supervise-*"))


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        SuperviseConfig(task_timeout=0.0)
    with pytest.raises(ValueError):
        SuperviseConfig(max_pool_restarts=-1)
    with pytest.raises(ValueError):
        SuperviseConfig(poison_threshold=0)
