"""Order-preserving parallel map for the experiment drivers.

The paper's evaluation is a (benchmark x policy) grid — 33 workloads
by 6+ policies in Sections 5.2-5.4 — and every benchmark is
independent once its LLC stream exists.  Each figure runs that grid as
one per-benchmark driver mapped over the suite:

* :func:`parallel_map` — order-preserving process-pool map used by the
  per-benchmark experiment drivers (``--jobs N`` on the eval CLI).
  ``jobs <= 1`` degrades to a plain loop, so sequential and parallel
  runs share one code path and produce bit-identical results.  The pool
  is run by a :class:`~repro.robust.supervise.TaskSupervisor`: tasks
  are submitted individually, watched (deadline + heartbeat), re-queued
  when a worker dies, and degraded to in-process execution after
  repeated pool breakage — ``BrokenProcessPool`` never escapes to the
  caller; a task that ultimately fails raises
  :class:`~repro.robust.supervise.SupervisedTaskError` instead.
* :func:`~repro.robust.supervise.task_seed` (re-exported) —
  deterministic per-task seed derivation, so a task's stochastic
  components depend only on its (benchmark, policy, base-seed)
  identity, never on scheduling order or worker identity.

Determinism: every worker rebuilds its state from the picklable task
description (config + names + seeds); nothing is inherited from parent
mutable state.  A parallel run therefore yields exactly the results of
the sequential run, in the same order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..robust.supervise import (
    CrashJournal,
    SupervisedTaskError,
    SuperviseConfig,
    TaskSupervisor,
    task_seed,
)

__all__ = ["parallel_map", "task_seed"]


def parallel_map(
    fn: Callable,
    items: Iterable,
    jobs: int = 1,
    *,
    supervise: SuperviseConfig | None = None,
    journal: CrashJournal | str | None = None,
    task_ids: Sequence[str] | None = None,
    progress: Callable | None = None,
) -> list:
    """Map ``fn`` over ``items``, preserving order.

    With ``jobs > 1``, runs on a supervised process pool — ``fn`` and
    every item must be picklable (use a module-level function or a
    ``functools.partial`` of one).  A worker that dies or hangs is
    killed and its task re-queued on a fresh pool (degrading to
    in-process execution after repeated breakage), so infrastructure
    failures cost a retry, not the run; a task that ultimately fails
    raises :class:`~repro.robust.supervise.SupervisedTaskError` carrying
    the structured :class:`~repro.robust.supervise.TaskOutcome`.  With
    ``jobs <= 1`` it is a plain loop with identical result semantics
    (original exceptions propagate directly).

    ``progress`` is an optional callable invoked once per finished item
    (with the task id or :class:`~repro.robust.supervise.TaskOutcome`) —
    e.g. a :class:`repro.obs.progress.ProgressReporter`.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        results = []
        for index, item in enumerate(items):
            results.append(fn(item))
            if progress is not None:
                progress(task_ids[index] if task_ids else None)
        return results
    supervisor = TaskSupervisor(supervise, journal=journal, progress=progress)
    outcomes = supervisor.map(fn, items, jobs=jobs, task_ids=task_ids)
    results = []
    for outcome in outcomes:
        if not outcome.ok:
            raise SupervisedTaskError(outcome)
        results.append(outcome.result)
    return results
