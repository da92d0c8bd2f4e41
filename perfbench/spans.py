"""In-memory span recording and the self-time arithmetic over it.

A span is one timed call into a layer: name, start, end, and the span
that was open when it began (its parent).  Spans stay in memory while
the workload runs and are written once, at exit, as JSONL in the Chrome
trace-event vocabulary that ``repro.obs.trace`` uses, so
``python -m repro.eval obs chrome <file> <out.json>`` renders them.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: Span-name prefix -> the layer (repository module) it times.  Longest
#: prefix wins; a name matching none belongs to no layer.
LAYER_PREFIXES = {
    "traces.": "traces",
    "cache.filter": "cache.filter",
    "cache.fast.": "cache.fast",
    "policies.ref.": "policies.ref",
    "optgen.": "optgen",
    "ml.": "ml",
    "serve.": "serve",
}


def layer_of(name: str) -> str | None:
    """The layer a span name belongs to, or None (the root, glue code)."""
    best = None
    for prefix, layer in LAYER_PREFIXES.items():
        if name.startswith(prefix) and (best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return best[1] if best else None


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float  # perf_counter seconds
    end: float
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans of one thread; ``enabled=False`` records none.

    ``span`` yields a dict the caller may fill with counts (such as the
    accesses a call processed); it becomes the span's ``args``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 1
        # Offset that turns perf_counter readings into epoch seconds.
        self._epoch = time.time() - time.perf_counter()

    @contextmanager
    def span(self, name: str, **args) -> Iterator[dict]:
        if not self.enabled:
            yield args
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield args
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, args))

    def chrome_events(self, run_id: str) -> list[dict]:
        """The spans as Chrome ``"X"`` complete events (microseconds)."""
        pid = os.getpid()
        return [
            {
                "name": s.name,
                "ph": "X",
                "ts": (self._epoch + s.start) * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid,
                "tid": 0,
                "run_id": run_id,
                "args": {**s.args, "span_id": s.span_id, "parent": s.parent},
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]

    def write_jsonl(self, path: str | os.PathLike, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.chrome_events(run_id):
                handle.write(json.dumps(event, separators=(",", ":")) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - _covered(children.get(s.span_id, []), s.start, s.end)
        for s in spans
    }


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Layer -> summed self time of its spans; glue code under ``None``."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        layer = layer_of(s.name)
        totals[layer] = totals.get(layer, 0.0) + own[s.span_id]
    return totals


def name_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Span name -> (summed self seconds, summed ``args["items"]``)."""
    own = self_times(spans)
    totals: dict[str, tuple[float, int]] = {}
    for s in spans:
        seconds, items = totals.get(s.name, (0.0, 0))
        totals[s.name] = (seconds + own[s.span_id], items + int(s.args.get("items", 0)))
    return totals
