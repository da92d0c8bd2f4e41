"""Spans around the calls the workloads make into each layer.

The benchmark times the repository from outside: :func:`instrument`
wraps the public functions that ``repro.eval``'s experiments call (trace
generation, the L1/L2 filter, LLC replay, Belady labelling, model
epochs) so that each call becomes one span, and every LLC replay's
statistics are kept for the correctness checks.  ``restore()`` puts the
original functions back.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from spans import SpanRecorder


@dataclass
class Replay:
    """One ``simulate_llc`` call as the Fig. 11 experiment made it."""

    benchmark: str
    policy: str
    engine: str  # "fast" or "reference"
    accesses: int
    stats: object  # repro.cache.stats.CacheStats


def policy_label(policy) -> str:
    """Registry name, or ``"min"`` for a Belady-MIN instance."""
    from repro.policies.belady_policy import BeladyPolicy

    if isinstance(policy, BeladyPolicy):
        return "min"
    return policy if isinstance(policy, str) else type(policy).__name__


def replay_span_name(policy) -> tuple[str, str]:
    """(span name, engine) of one LLC replay of ``policy``."""
    from repro.cache.fastsim import fast_path_kernel

    label = policy_label(policy)
    if label == "min":
        return "optgen.belady_replay", "reference"
    if fast_path_kernel(policy) is not None:
        return f"cache.fast.{label}", "fast"
    return f"policies.ref.{label}", "reference"


class Instrumentation:
    """Installed wrappers plus what they captured."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.replays: list[Replay] = []
        self._undo: list = []

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _timed(self, name: str, count=None):
        """Wrapper factory: one span per call; ``count(args, result)``
        gives the number of accesses or samples the call processed."""
        recorder = self.recorder

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with recorder.span(name) as span_args:
                    result = original(*args, **kwargs)
                    if count is not None:
                        span_args["items"] = count(args, result)
                return result

            return wrapper

        return make

    def _replay(self, original):
        recorder, replays = self.recorder, self.replays

        @functools.wraps(original)
        def simulate_llc(stream, policy, *args, **kwargs):
            name, engine = replay_span_name(policy)
            with recorder.span(name, items=len(stream), benchmark=stream.name):
                stats = original(stream, policy, *args, **kwargs)
            replays.append(
                Replay(stream.name, policy_label(policy), engine, len(stream), stats)
            )
            return stats

        return simulate_llc


def instrument(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every layer entry point the four workloads reach."""
    from repro.eval import accuracy, missrate, runner
    from repro.ml.model import AttentionLSTM
    from repro.ml.svm import OfflineHawkeye, OfflineISVM, OrderedHistorySVM
    from repro.policies.belady_policy import BeladyPolicy

    inst = Instrumentation(recorder)
    inst._patch(runner, "get_trace", inst._timed(
        "traces.get_trace", lambda a, trace: len(trace.pcs)))
    inst._patch(runner, "filter_to_llc_stream", inst._timed(
        "cache.filter", lambda a, stream: len(a[0].pcs)))
    inst._patch(runner, "label_trace", inst._timed(
        "optgen.label", lambda a, labelled: len(a[0].pcs)))
    inst._patch(missrate, "simulate_llc", inst._replay)

    def belady(original):
        build = inst._timed("optgen.belady_build", lambda a, p: len(a[1]))(
            original.__func__
        )
        return classmethod(build)

    inst._patch(BeladyPolicy, "from_stream", belady)
    inst._patch(accuracy, "train_linear_model", inst._timed("ml.train_linear"))
    inst._patch(accuracy, "train_lstm", inst._timed("ml.train_lstm"))
    inst._patch(AttentionLSTM, "train_epoch", inst._timed(
        "ml.lstm_epoch", lambda a, r: len(a[1].pcs)))
    inst._patch(AttentionLSTM, "evaluate", inst._timed(
        "ml.lstm_eval", lambda a, r: len(a[1].pcs)))
    for cls, key in (
        (OfflineISVM, "isvm"),
        (OfflineHawkeye, "hawkeye"),
        (OrderedHistorySVM, "ordered_svm"),
    ):
        inst._patch(cls, "fit_epoch", inst._timed(
            f"ml.{key}_epoch", lambda a, r: len(a[1].pcs)))
        inst._patch(cls, "evaluate", inst._timed(
            f"ml.{key}_eval", lambda a, r: len(a[1].pcs)))
    return inst
