"""Live per-task progress + ETA reporting for ``--jobs N`` sweeps.

A :class:`ProgressReporter` is a plain callable so it threads through
the ``progress=`` hooks in :mod:`repro.perf.parallel` and the
supervisor without those layers importing any rendering code.  It
writes one line per completed task to *stderr* (never stdout — stdout
is reserved for tables and ``--metrics-out -`` JSON) and estimates the
remaining wall-clock from the observed completion rate.
"""

from __future__ import annotations

import sys
import time
from typing import Any, TextIO

__all__ = ["ProgressReporter"]


def _fmt_seconds(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressReporter:
    """Callable counting completions: ``reporter(task_id_or_outcome)``.

    Accepts whatever the pipeline hands it — a task-id string or
    ``None`` (``parallel_map``'s in-process loop), a ``TaskOutcome``-like
    object (the supervisor, which runs every ``RobustSuiteRunner`` suite
    at any ``jobs``; uses its ``task_id``/``status``) — and renders
    ``[done/total] id status (elapsed, eta ...)``.
    """

    def __init__(
        self,
        total: int,
        label: str = "tasks",
        stream: TextIO | None = None,
        enabled: bool = True,
    ) -> None:
        self.total = max(0, int(total))
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self.done = 0
        self.started = time.perf_counter()

    def __call__(self, outcome: Any = None) -> None:
        self.done += 1
        if not self.enabled:
            return
        task_id = getattr(outcome, "task_id", None)
        status = getattr(outcome, "status", None)
        if task_id is None and isinstance(outcome, str):
            task_id = outcome
        elapsed = time.perf_counter() - self.started
        parts = [f"[{self.done}/{self.total or '?'}] {self.label}"]
        if task_id is not None:
            parts.append(str(task_id))
        if status not in (None, "ok"):
            parts.append(f"({status})")
        parts.append(f"elapsed {_fmt_seconds(elapsed)}")
        if self.total and 0 < self.done < self.total:
            eta = elapsed / self.done * (self.total - self.done)
            parts.append(f"eta {_fmt_seconds(eta)}")
        try:
            print(" ".join(parts), file=self.stream, flush=True)
        except ValueError:
            # Stream already closed (interpreter teardown); drop the line.
            self.enabled = False

    def finish(self) -> None:
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self.started
        print(
            f"[{self.done}/{self.total or self.done}] {self.label} done "
            f"in {_fmt_seconds(elapsed)}",
            file=self.stream,
            flush=True,
        )
