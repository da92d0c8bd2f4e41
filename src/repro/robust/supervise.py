"""Supervised process-pool execution (``repro.robust.supervise``).

``ProcessPoolExecutor`` is brittle under real failure: one worker that
is OOM-killed, SIGKILLed, or wedged raises ``BrokenProcessPool`` and
throws away every in-flight result.  For long (benchmark x policy)
sweeps — the shape of the paper's Sections 5.2-5.4 evaluation — that
failure mode is intolerable, so every pool path in the repo runs
through :class:`TaskSupervisor` instead:

* **Individual submission** — tasks are submitted one by one (never
  ``pool.map``), so a failure is attributable to a task, and the
  supervisor controls how many are in flight at once.
* **Watchdogs** — each worker writes a per-task *start marker* (pid +
  start time) and touches a per-pid *heartbeat file* from a daemon
  thread.  The parent enforces a per-task wall-clock deadline and a
  heartbeat staleness bound; a task over its deadline (or a worker that
  stops beating) is SIGKILLed.
* **Pool recycling** — on ``BrokenProcessPool`` the dead pool is torn
  down, a fresh one is built, and every unfinished task is re-queued.
  Tasks that were mid-run when the pool broke are *suspects* and re-run
  one at a time ("careful mode") so a second breakage identifies the
  culprit unambiguously; a task that breaks the pool
  ``poison_threshold`` times is quarantined as **poison** and never
  re-submitted.
* **Graceful degradation** — after ``max_pool_restarts`` pool
  recreations the supervisor stops trusting process pools and runs the
  remaining tasks sequentially in the parent, so a run always
  terminates with structured :class:`TaskOutcome`\\ s rather than a
  traceback.
* **Crash journal** — every failure (and every pool break, timeout
  kill, and degradation event) is appended to a :class:`CrashJournal`
  JSONL file: task id, seed, taxonomy class, traceback digest, worker
  pid, RSS high-water, and a repro command.

Determinism: the supervisor never reorders results (outcomes come back
in input order) and never reuses a partial result — a re-queued task is
recomputed from its picklable payload, which is exactly what makes
re-execution safe for the deterministic experiment tasks it runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

__all__ = [
    "RUN_DIR_PREFIX",
    "TAXONOMIES",
    "CrashJournal",
    "PoolBrokenError",
    "SupervisedTaskError",
    "SuperviseConfig",
    "TaskOutcome",
    "TaskSupervisor",
    "heartbeat_path",
    "kill_process",
    "pid_alive",
    "read_heartbeat",
    "start_heartbeat",
    "sweep_stale_run_dirs",
    "task_seed",
]

#: Prefix of the temp directories holding start markers and heartbeats.
RUN_DIR_PREFIX = "repro-supervise-"

#: Failure taxonomy classes recorded on outcomes and journal entries.
TAXONOMY_TIMEOUT = "timeout"  # task exceeded its wall-clock deadline
TAXONOMY_WORKER_CRASH = "worker-crash"  # worker died / pool broke mid-run
TAXONOMY_POISON = "poison"  # task broke the pool poison_threshold times
TAXONOMY_COMPUTE_ERROR = "compute-error"  # task raised (or failed to pickle)
TAXONOMY_DEADLINE = "deadline"  # suite budget exhausted before the task ran
TAXONOMIES = (
    TAXONOMY_TIMEOUT,
    TAXONOMY_WORKER_CRASH,
    TAXONOMY_POISON,
    TAXONOMY_COMPUTE_ERROR,
    TAXONOMY_DEADLINE,
)


class SupervisedTaskError(RuntimeError):
    """A supervised task failed; ``outcome`` holds the structured record."""

    def __init__(self, outcome: "TaskOutcome") -> None:
        super().__init__(
            f"task {outcome.task_id!r} failed ({outcome.taxonomy}): "
            f"{outcome.error_type}: {outcome.message}"
        )
        self.outcome = outcome


class PoolBrokenError(RuntimeError):
    """Pool restarts exhausted with degradation disabled (``degrade=False``)."""


@dataclass(frozen=True)
class SuperviseConfig:
    """Knobs for :class:`TaskSupervisor`.

    ``task_timeout`` is a per-task wall-clock deadline measured from the
    moment the parent observes the worker's start marker; ``None``
    disables it.  ``max_pool_restarts`` bounds how many times a broken
    pool is rebuilt before the remaining tasks degrade to in-process
    sequential execution (``degrade=True``) or :class:`PoolBrokenError`
    is raised (``degrade=False``).  A task that was mid-run for
    ``poison_threshold`` pool breakages is quarantined as poison.
    """

    task_timeout: float | None = None
    max_pool_restarts: int = 2
    poison_threshold: int = 2
    degrade: bool = True
    heartbeat_interval: float = 0.5
    heartbeat_grace: float = 30.0
    kill_grace: float = 10.0
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")


@dataclass
class TaskOutcome:
    """The final, structured fate of one supervised task."""

    task_id: str
    index: int
    status: str  # "ok" | "failed"
    taxonomy: str | None = None
    result: Any = None
    error_type: str = ""
    message: str = ""
    traceback: str = ""
    worker_pid: int | None = None
    rss_kb: int | None = None
    submissions: int = 0
    pool_breaks: int = 0
    degraded: bool = False  # ran in-process after pool degradation

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def task_seed(*parts, base: int = 0) -> int:
    """Derive a deterministic 63-bit seed from task identity.

    ``task_seed("mcf", "brrip", base=config.seed)`` is a pure function
    of its arguments — stable across processes, Python hash
    randomisation, and scheduling order.  A journal entry's ``seed`` is
    ``task_seed(task_id)`` unless the caller supplied one.
    """
    payload = "\x1f".join(str(part) for part in parts).encode()
    digest = hashlib.sha256(payload).digest()
    return (int.from_bytes(digest[:8], "little") ^ base) & (2**63 - 1)


def _traceback_digest(tb: str) -> str:
    return hashlib.sha256(tb.encode()).hexdigest()[:16] if tb else ""


class CrashJournal:
    """Append-only JSONL failure journal.

    Each line is one self-contained JSON event.  Appends are flushed
    immediately so the journal survives a parent crash; reads skip a
    torn final line rather than fail.

    Long-running processes (the prediction server) cap the journal with
    ``max_bytes`` / ``max_entries``: when a cap would be exceeded the
    current file is rotated to ``<path>.1`` (replacing any previous
    archive) and the incoming entry starts a fresh file — the newest
    entry is always present, and total disk use is bounded at roughly
    twice the cap.
    """

    def __init__(
        self,
        path: str | Path,
        max_bytes: int | None = None,
        max_entries: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._entries: int | None = None  # lazy line count of the live file

    @property
    def archive_path(self) -> Path:
        """Where one rotation's worth of older entries is kept."""
        return self.path.with_name(self.path.name + ".1")

    def _live_entries(self) -> int:
        if self._entries is None:
            try:
                with open(self.path, "r", encoding="utf-8") as handle:
                    self._entries = sum(1 for line in handle if line.strip())
            except OSError:
                self._entries = 0
        return self._entries

    def _maybe_rotate(self, incoming: int) -> None:
        if self.max_bytes is None and self.max_entries is None:
            return
        try:
            size = self.path.stat().st_size
        except OSError:
            self._entries = 0
            return
        over_bytes = (
            self.max_bytes is not None and size > 0 and size + incoming > self.max_bytes
        )
        over_entries = (
            self.max_entries is not None and self._live_entries() >= self.max_entries
        )
        if not (over_bytes or over_entries):
            return
        try:
            os.replace(self.path, self.archive_path)
        except OSError:
            return  # keep appending to the oversized file rather than lose entries
        self._entries = 0

    def append(self, **entry: Any) -> dict:
        entry.setdefault("ts", time.time())
        run_id = obs_trace.current_run_id()
        if run_id is not None:
            entry.setdefault("run_id", run_id)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, default=str) + "\n"
        self._maybe_rotate(len(line.encode("utf-8")))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
        if self._entries is not None:
            self._entries += 1
        return entry

    def read(self, include_rotated: bool = False) -> list[dict]:
        paths = [self.archive_path, self.path] if include_rotated else [self.path]
        events: list[dict] = []
        for path in paths:
            if not path.exists():
                continue
            for line in path.read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn tail line from a crash mid-append
        return events

    def tasks(self, taxonomy: str | None = None) -> list[dict]:
        """The ``task-failed`` events, optionally filtered by taxonomy."""
        return [
            e
            for e in self.read()
            if e.get("event") == "task-failed"
            and (taxonomy is None or e.get("taxonomy") == taxonomy)
        ]


# -- worker side ---------------------------------------------------------------

_HEARTBEAT_STARTED = False


def _rss_kb() -> int:
    """Max resident set size of this process, in KiB (0 if unavailable)."""
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return int(rss // 1024) if sys.platform == "darwin" else int(rss)
    except Exception:  # pragma: no cover - platform without resource
        return 0


def heartbeat_path(run_dir: str | Path, pid: int) -> Path:
    """The heartbeat file a worker with ``pid`` writes under ``run_dir``."""
    return Path(run_dir) / f"hb-{pid}.json"


def read_heartbeat(run_dir: str | Path, pid: int) -> dict | None:
    """The last beat a worker wrote (``{"pid", "rss_kb", "ts"}``), or None."""
    try:
        return json.loads(heartbeat_path(run_dir, pid).read_text())
    except (OSError, json.JSONDecodeError):
        return None


def start_heartbeat(run_dir: str | Path, interval: float) -> None:
    """Start this process's heartbeat thread (idempotent per process).

    Used by pool workers (via :func:`_supervised_call`) and by any
    long-lived supervised process — the prediction server's shard
    workers call this directly so the parent-side watchdog can tell a
    busy shard from a wedged one.
    """
    global _HEARTBEAT_STARTED
    if _HEARTBEAT_STARTED:
        return
    _HEARTBEAT_STARTED = True
    pid = os.getpid()
    path = heartbeat_path(run_dir, pid)

    def beat() -> None:
        while True:
            try:
                path.write_text(
                    json.dumps({"pid": pid, "rss_kb": _rss_kb(), "ts": time.time()})
                )
            except OSError:
                pass  # run_dir cleaned up; nothing left to report to
            time.sleep(interval)

    thread = threading.Thread(target=beat, daemon=True, name="supervise-heartbeat")
    thread.start()


_start_heartbeat = start_heartbeat  # backwards-compatible private alias


def pid_alive(pid: int) -> bool:
    """True unless ``pid`` definitely no longer exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def sweep_stale_run_dirs(
    root: str | Path | None = None,
    prefix: str = RUN_DIR_PREFIX,
    min_age_s: float = 3600.0,
    journal: "CrashJournal | None" = None,
) -> list[str]:
    """Remove leaked heartbeat/marker run dirs from *prior* runs.

    A failed :meth:`TaskSupervisor._cleanup_run_dir` (or a parent crash)
    keeps its run dir forever; without a sweep those accumulate in the
    temp root.  A dir is swept only when it is older than ``min_age_s``
    (never a concurrent run that just started) **and** no heartbeat file
    in it names a live pid.  Returns the paths removed.
    """
    root = Path(root or tempfile.gettempdir())
    swept: list[str] = []
    now = time.time()
    for entry in root.glob(prefix + "*"):
        try:
            if not entry.is_dir() or now - entry.stat().st_mtime < min_age_s:
                continue
        except OSError:
            continue  # raced with another sweeper / the owning run
        live = False
        for hb in entry.glob("hb-*.json"):
            try:
                pid = int(json.loads(hb.read_text())["pid"])
            except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError):
                continue
            if pid_alive(pid):
                live = True
                break
        if live:
            continue
        shutil.rmtree(entry, ignore_errors=True)
        if not entry.exists():
            swept.append(str(entry))
            if journal is not None:
                journal.append(event="stale-run-dir-swept", run_dir=str(entry))
    return swept


def _supervised_call(
    fn: Callable, payload: Any, marker_name: str, run_dir: str, heartbeat_interval: float
):
    """Worker-side shim: heartbeat + start marker + exception capture.

    Returns ``("ok", result, pid, rss_kb)`` or ``("error", info, pid,
    rss_kb)`` so an exception inside ``fn`` (or an unpicklable one)
    never escapes through the future.
    """
    _start_heartbeat(run_dir, heartbeat_interval)
    pid = os.getpid()
    try:
        (Path(run_dir) / marker_name).write_text(
            json.dumps({"pid": pid, "start": time.time()})
        )
    except OSError:
        pass
    try:
        result = fn(payload)
    except Exception as error:  # noqa: BLE001 — capture, classify, report
        info = {
            "error_type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exc(),
        }
        return "error", info, pid, _rss_kb()
    return "ok", result, pid, _rss_kb()


# -- parent side ---------------------------------------------------------------


class _TaskState:
    """Parent-side bookkeeping for one task across (re)submissions."""

    __slots__ = (
        "index",
        "task_id",
        "key",
        "payload",
        "submissions",
        "breaks",
        "outcome",
        "marker",
        "marker_info",
        "running_since",
        "killed",
        "killed_at",
        "hb_seen",
    )

    def __init__(self, index: int, task_id: str, payload: Any) -> None:
        self.index = index
        self.task_id = task_id
        self.key = f"t{index:05d}"
        self.payload = payload
        self.submissions = 0
        self.breaks = 0
        self.outcome: TaskOutcome | None = None
        self._reset_flight()

    def _reset_flight(self) -> None:
        self.marker: Path | None = None
        self.marker_info: dict | None = None
        self.running_since: float | None = None
        self.killed: str | None = None
        self.killed_at: float | None = None
        self.hb_seen: tuple[float, float] | None = None


def kill_process(pid: int) -> None:
    """SIGKILL ``pid``, tolerating a process that is already gone."""
    sig = getattr(signal, "SIGKILL", signal.SIGTERM)
    try:
        os.kill(pid, sig)
    except (ProcessLookupError, PermissionError):
        pass  # already gone (the pool will break, or has broken, anyway)


_kill = kill_process  # backwards-compatible private alias


class TaskSupervisor:
    """Run picklable tasks on a watched, self-healing process pool.

    Args:
        config: Watchdog/degradation knobs (:class:`SuperviseConfig`).
        journal: A :class:`CrashJournal`, or a path to create one at, or
            None to disable journaling.
        repro_command: ``"...{task}..."`` template (or callable) used to
            stamp each journal entry with a reproduction command.
        progress: Optional callable invoked in the parent with each
            final :class:`TaskOutcome` (e.g. a
            :class:`repro.obs.progress.ProgressReporter` for live
            per-task progress + ETA on ``--jobs N`` sweeps).
    """

    def __init__(
        self,
        config: SuperviseConfig | None = None,
        journal: CrashJournal | str | Path | None = None,
        repro_command: str | Callable[[str], str] | None = None,
        progress: Callable[[TaskOutcome], None] | None = None,
    ) -> None:
        self.config = config or SuperviseConfig()
        if isinstance(journal, (str, Path)):
            journal = CrashJournal(journal)
        self.journal = journal
        self._repro_command = repro_command
        self.progress = progress
        self.pool_restarts = 0
        self.degraded = False

    # -- public API -----------------------------------------------------------

    def map(
        self,
        fn: Callable,
        items: Iterable,
        jobs: int = 1,
        *,
        task_ids: Sequence[str] | None = None,
        seeds: Mapping[str, int] | None = None,
        budget=None,
        on_outcome: Callable[[TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Map ``fn`` over ``items`` under supervision, preserving order.

        ``budget`` is an optional :class:`~repro.robust.retry.DeadlineBudget`
        (anything with an ``expired`` property): tasks not yet submitted
        when it expires are recorded as ``deadline`` failures without
        running.  ``on_outcome`` is invoked in the parent as each task
        reaches its final state (for incremental checkpointing).
        """
        items = list(items)
        if task_ids is None:
            task_ids = [f"task-{i:04d}" for i in range(len(items))]
        elif len(task_ids) != len(items):
            raise ValueError("task_ids must match items one-to-one")
        self._seeds = seeds or {}
        tasks = [_TaskState(i, str(tid), item) for i, (tid, item) in enumerate(zip(task_ids, items))]
        self.pool_restarts = 0
        self.degraded = False
        if jobs <= 1:
            for state in tasks:
                self._run_in_process(fn, state, budget, on_outcome, degraded=False)
            return [state.outcome for state in tasks]
        self._run_supervised(fn, tasks, jobs, budget, on_outcome)
        return [state.outcome for state in tasks]

    # -- outcome plumbing -----------------------------------------------------

    def _finish(
        self,
        state: _TaskState,
        outcome: TaskOutcome,
        on_outcome: Callable[[TaskOutcome], None] | None,
    ) -> None:
        state.outcome = outcome
        if not outcome.ok:
            self._journal_outcome(outcome)
        if obs_metrics.ENABLED:
            obs_metrics.counter("supervisor.tasks", status=outcome.status).inc()
            if outcome.taxonomy:
                obs_metrics.counter(
                    "supervisor.failures", taxonomy=outcome.taxonomy
                ).inc()
        if on_outcome is not None:
            on_outcome(outcome)
        if self.progress is not None:
            self.progress(outcome)

    def _repro(self, task_id: str) -> str:
        if callable(self._repro_command):
            return self._repro_command(task_id)
        if isinstance(self._repro_command, str):
            return self._repro_command.format(task=task_id)
        return ""

    def _seed(self, task_id: str) -> int:
        return self._seeds.get(task_id, task_seed(task_id))

    def _journal_outcome(self, outcome: TaskOutcome) -> None:
        if self.journal is None:
            return
        self.journal.append(
            event="task-failed",
            task=outcome.task_id,
            taxonomy=outcome.taxonomy,
            seed=self._seed(outcome.task_id),
            error_type=outcome.error_type,
            message=outcome.message,
            traceback_digest=_traceback_digest(outcome.traceback),
            worker_pid=outcome.worker_pid,
            rss_kb=outcome.rss_kb,
            submissions=outcome.submissions,
            pool_breaks=outcome.pool_breaks,
            repro=self._repro(outcome.task_id),
        )

    def _journal_event(self, event: str, **extra: Any) -> None:
        if obs_metrics.ENABLED:
            obs_metrics.counter("supervisor.events", event=event).inc()
        if self.journal is not None:
            self.journal.append(event=event, **extra)

    def _failure(
        self,
        state: _TaskState,
        taxonomy: str,
        error_type: str,
        message: str,
        tb: str = "",
        worker_pid: int | None = None,
        rss_kb: int | None = None,
        degraded: bool = False,
    ) -> TaskOutcome:
        return TaskOutcome(
            task_id=state.task_id,
            index=state.index,
            status="failed",
            taxonomy=taxonomy,
            error_type=error_type,
            message=message,
            traceback=tb,
            worker_pid=worker_pid,
            rss_kb=rss_kb,
            submissions=state.submissions,
            pool_breaks=state.breaks,
            degraded=degraded,
        )

    def _success(
        self,
        state: _TaskState,
        result: Any,
        worker_pid: int | None,
        rss_kb: int | None,
        degraded: bool = False,
    ) -> TaskOutcome:
        return TaskOutcome(
            task_id=state.task_id,
            index=state.index,
            status="ok",
            result=result,
            worker_pid=worker_pid,
            rss_kb=rss_kb,
            submissions=state.submissions,
            pool_breaks=state.breaks,
            degraded=degraded,
        )

    # -- in-process execution (jobs <= 1, and the degradation fallback) -------

    def _run_in_process(
        self,
        fn: Callable,
        state: _TaskState,
        budget,
        on_outcome: Callable[[TaskOutcome], None] | None,
        degraded: bool,
    ) -> None:
        if budget is not None and budget.expired:
            self._finish(state, self._deadline_outcome(state, degraded), on_outcome)
            return
        state.submissions += 1
        try:
            result = fn(state.payload)
        except Exception as error:  # noqa: BLE001 — record, don't abort the run
            self._finish(
                state,
                self._failure(
                    state,
                    TAXONOMY_COMPUTE_ERROR,
                    type(error).__name__,
                    str(error),
                    tb=traceback.format_exc(),
                    worker_pid=os.getpid(),
                    rss_kb=_rss_kb(),
                    degraded=degraded,
                ),
                on_outcome,
            )
            return
        self._finish(
            state,
            self._success(state, result, os.getpid(), _rss_kb(), degraded=degraded),
            on_outcome,
        )

    def _deadline_outcome(self, state: _TaskState, degraded: bool = False) -> TaskOutcome:
        return self._failure(
            state,
            TAXONOMY_DEADLINE,
            "DeadlineExceeded",
            "suite deadline exhausted before benchmark ran",
            degraded=degraded,
        )

    # -- supervised pool execution --------------------------------------------

    def _run_supervised(
        self,
        fn: Callable,
        tasks: list[_TaskState],
        jobs: int,
        budget,
        on_outcome: Callable[[TaskOutcome], None] | None,
    ) -> None:
        cfg = self.config
        # Leaked dirs from prior runs ("run-dir-kept" events) are swept
        # here so a long-lived host never accumulates them.
        sweep_stale_run_dirs(journal=self.journal)
        run_dir = tempfile.mkdtemp(prefix=RUN_DIR_PREFIX)
        queue: deque[_TaskState] = deque(tasks)
        inflight: dict[Any, _TaskState] = {}
        pool: ProcessPoolExecutor | None = None
        failed = False
        try:
            while queue or inflight:
                if obs_metrics.ENABLED:
                    obs_metrics.gauge("supervisor.queue_depth").set(len(queue))
                    obs_metrics.gauge("supervisor.inflight").set(len(inflight))
                careful = any(t.breaks > 0 for t in queue) or any(
                    t.breaks > 0 for t in inflight.values()
                )
                width = 1 if careful else jobs
                broke = False
                # -- submit up to the current width --
                while queue and len(inflight) < width and not broke:
                    state = self._pop_next(queue, careful)
                    if budget is not None and budget.expired:
                        self._finish(state, self._deadline_outcome(state), on_outcome)
                        continue
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
                    state.submissions += 1
                    state._reset_flight()
                    marker_name = f"{state.key}.{state.submissions}.json"
                    state.marker = Path(run_dir) / marker_name
                    try:
                        future = pool.submit(
                            _supervised_call,
                            fn,
                            state.payload,
                            marker_name,
                            run_dir,
                            cfg.heartbeat_interval,
                        )
                    except (BrokenProcessPool, RuntimeError):
                        state.submissions -= 1
                        queue.appendleft(state)
                        broke = True
                    else:
                        inflight[future] = state
                if not inflight and not broke:
                    continue  # queue drained by deadline outcomes
                # -- collect completions --
                done: set = set()
                if inflight:
                    done, _ = wait(
                        list(inflight),
                        timeout=cfg.poll_interval,
                        return_when=FIRST_COMPLETED,
                    )
                victims: list[_TaskState] = []
                for future in done:
                    state = inflight.pop(future)
                    if not self._collect(future, state, on_outcome, timeout=None):
                        victims.append(state)
                        broke = True
                # -- watchdogs --
                if not broke and inflight:
                    broke = self._watchdog(inflight, run_dir)
                # -- pool breakage: recycle, blame, requeue, maybe degrade --
                if broke:
                    for future, state in list(inflight.items()):
                        if self._collect(future, state, on_outcome, timeout=0.5):
                            continue  # finished for real before the break
                        victims.append(state)
                    inflight.clear()
                    self.pool_restarts += 1
                    self._journal_event(
                        "pool-break",
                        restart=self.pool_restarts,
                        suspects=[v.task_id for v in victims if self._started(v)],
                    )
                    if pool is not None:
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = None
                    self._requeue_victims(queue, victims, run_dir, on_outcome)
                    if self.pool_restarts > cfg.max_pool_restarts and queue:
                        if not cfg.degrade:
                            raise PoolBrokenError(
                                f"process pool broke {self.pool_restarts} times "
                                f"(max_pool_restarts={cfg.max_pool_restarts}) with "
                                f"{len(queue)} tasks remaining and degradation disabled"
                            )
                        self.degraded = True
                        self._journal_event(
                            "degrade",
                            restart=self.pool_restarts,
                            remaining=[t.task_id for t in queue],
                        )
                        while queue:
                            self._run_in_process(
                                fn, queue.popleft(), budget, on_outcome, degraded=True
                            )
        except BaseException:
            failed = True
            raise
        finally:
            if failed:
                # Abandon ship without waiting for workers; keep the
                # heartbeat/marker files for postmortem inspection.
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                self._journal_event("run-dir-kept", run_dir=run_dir)
            else:
                # Clean exit: join the workers first so their daemon
                # heartbeat threads die with them — otherwise a beat
                # written mid-rmtree leaves a repro-supervise-* residue
                # directory behind (the old silent leak).
                if pool is not None:
                    pool.shutdown(wait=True, cancel_futures=True)
                self._cleanup_run_dir(run_dir)

    def _cleanup_run_dir(self, run_dir: str) -> None:
        """Remove the heartbeat/marker dir, retrying a straggler write."""
        for attempt in range(5):
            shutil.rmtree(run_dir, ignore_errors=True)
            if not os.path.isdir(run_dir):
                return
            time.sleep(0.05 * (attempt + 1))
        self._journal_event("run-dir-kept", run_dir=run_dir, reason="cleanup-failed")

    def _pop_next(self, queue: deque, careful: bool) -> _TaskState:
        """Suspects first in careful mode, FIFO otherwise."""
        if careful:
            for i, state in enumerate(queue):
                if state.breaks > 0:
                    del queue[i]
                    return state
        return queue.popleft()

    def _collect(
        self,
        future,
        state: _TaskState,
        on_outcome: Callable[[TaskOutcome], None] | None,
        timeout: float | None,
    ) -> bool:
        """Finalize a future's outcome; False means it died with the pool."""
        try:
            if timeout is None:
                kind, payload, pid, rss = future.result()
            else:
                kind, payload, pid, rss = future.result(timeout=timeout)
        except BrokenProcessPool:
            return False
        except FutureTimeoutError:
            return False  # force-break path: the future will never resolve
        except Exception as error:  # noqa: BLE001 — e.g. unpicklable fn/result
            self._finish(
                state,
                self._failure(
                    state,
                    TAXONOMY_COMPUTE_ERROR,
                    type(error).__name__,
                    str(error),
                    tb=traceback.format_exc(),
                ),
                on_outcome,
            )
            return True
        if kind == "ok":
            self._finish(state, self._success(state, payload, pid, rss), on_outcome)
        else:
            self._finish(
                state,
                self._failure(
                    state,
                    TAXONOMY_COMPUTE_ERROR,
                    payload["error_type"],
                    payload["message"],
                    tb=payload["traceback"],
                    worker_pid=pid,
                    rss_kb=rss,
                ),
                on_outcome,
            )
        return True

    # -- watchdogs ------------------------------------------------------------

    def _started(self, state: _TaskState) -> bool:
        return self._marker_info(state) is not None

    def _marker_info(self, state: _TaskState) -> dict | None:
        """The (cached) start marker the worker wrote for this submission."""
        if state.marker_info is not None:
            return state.marker_info
        if state.marker is None:
            return None
        try:
            info = json.loads(state.marker.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        state.marker_info = info
        state.running_since = time.monotonic()
        return info

    def _heartbeat_stale(self, state: _TaskState, run_dir: str, now: float) -> bool:
        info = state.marker_info
        if info is None or state.running_since is None:
            return False
        hb_path = Path(run_dir) / f"hb-{info['pid']}.json"
        try:
            mtime = hb_path.stat().st_mtime
        except OSError:
            # No heartbeat file at all: the worker died before its first
            # beat, or never existed — give it the same grace.
            return now - state.running_since > self.config.heartbeat_grace
        if state.hb_seen is None or mtime != state.hb_seen[0]:
            state.hb_seen = (mtime, now)
            return False
        if obs_metrics.ENABLED:
            # Seconds since the last *observed* beat (both monotonic).
            obs_metrics.gauge("supervisor.heartbeat_age_s").max(
                now - state.hb_seen[1]
            )
        return now - state.hb_seen[1] > self.config.heartbeat_grace

    def _watchdog(self, inflight: dict, run_dir: str) -> bool:
        """Kill deadline-violating / non-beating workers.  True => treat
        the pool as broken *now* (a kill never took effect in time)."""
        cfg = self.config
        now = time.monotonic()
        force_break = False
        for state in inflight.values():
            info = self._marker_info(state)
            if info is None:
                continue
            if state.killed is not None:
                # The SIGKILL should break the pool almost immediately;
                # if it somehow didn't, kill everything and recycle.
                if now - (state.killed_at or now) > cfg.kill_grace:
                    force_break = True
                continue
            if (
                cfg.task_timeout is not None
                and state.running_since is not None
                and now - state.running_since >= cfg.task_timeout
            ):
                state.killed = "timeout"
                state.killed_at = now
                self._journal_event(
                    "timeout-kill",
                    task=state.task_id,
                    worker_pid=info["pid"],
                    timeout=cfg.task_timeout,
                )
                _kill(info["pid"])
            elif self._heartbeat_stale(state, run_dir, now):
                state.killed = "hung"
                state.killed_at = now
                self._journal_event(
                    "hung-kill", task=state.task_id, worker_pid=info["pid"]
                )
                _kill(info["pid"])
        if force_break:
            for state in inflight.values():
                info = self._marker_info(state)
                if info is not None:
                    _kill(info["pid"])
        return force_break

    def _last_rss(self, state: _TaskState, run_dir: str) -> int | None:
        """RSS high-water from the dead worker's last heartbeat, if any."""
        info = state.marker_info
        if info is None:
            return None
        try:
            beat = json.loads((Path(run_dir) / f"hb-{info['pid']}.json").read_text())
            return int(beat.get("rss_kb"))
        except (OSError, ValueError, TypeError, json.JSONDecodeError):
            return None

    # -- breakage handling ----------------------------------------------------

    def _requeue_victims(
        self,
        queue: deque,
        victims: list[_TaskState],
        run_dir: str,
        on_outcome: Callable[[TaskOutcome], None] | None,
    ) -> None:
        """Blame, quarantine, or re-queue every task the break took down."""
        requeue: list[_TaskState] = []
        for state in victims:
            info = self._marker_info(state)
            pid = info["pid"] if info else None
            rss = self._last_rss(state, run_dir)
            if state.killed == "timeout":
                self._finish(
                    state,
                    self._failure(
                        state,
                        TAXONOMY_TIMEOUT,
                        "TaskTimeout",
                        f"task exceeded its {self.config.task_timeout:.1f}s "
                        "wall-clock deadline and its worker was killed",
                        worker_pid=pid,
                        rss_kb=rss,
                    ),
                    on_outcome,
                )
            elif self._started(state):
                state.breaks += 1
                if state.breaks >= self.config.poison_threshold:
                    self._finish(
                        state,
                        self._failure(
                            state,
                            TAXONOMY_POISON,
                            "PoisonTask",
                            f"task broke the process pool {state.breaks} times "
                            "and was quarantined",
                            worker_pid=pid,
                            rss_kb=rss,
                        ),
                        on_outcome,
                    )
                else:
                    self._journal_event(
                        "worker-crash-suspect",
                        task=state.task_id,
                        taxonomy=TAXONOMY_WORKER_CRASH,
                        worker_pid=pid,
                        rss_kb=rss,
                        breaks=state.breaks,
                    )
                    requeue.append(state)
            else:
                requeue.append(state)  # never started: an innocent bystander
        for state in reversed(requeue):
            queue.appendleft(state)
