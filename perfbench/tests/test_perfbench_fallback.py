import warnings

from layers import instrument
from spans import SpanRecorder
from workloads import fallback_problems, replay_problems


def _stream():
    from repro.eval.runner import QUICK, ArtifactCache
    from dataclasses import replace

    from workloads import prefix

    config = replace(QUICK, trace_length=4000)
    return prefix(ArtifactCache(config).llc_stream("mcf"), 1500), config


def _replay_lru():
    from repro.eval import missrate

    stream, config = _stream()
    inst = instrument(SpanRecorder())
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            missrate.simulate_llc(stream, "lru", config.hierarchy())
    finally:
        inst.restore()
    return caught, inst.replays


def test_fast_replay_passes_the_fallback_check():
    caught, replays = _replay_lru()
    assert fallback_problems(caught) == []
    assert [r.engine for r in replays] == ["fast"]
    spec = {"include_belady": False}
    assert replay_problems(replays, spec) == []


def test_forced_parity_error_fails_the_fallback_check(monkeypatch):
    from repro.cache import fastsim

    def broken(*args, **kwargs):
        raise fastsim.EngineParityError("forced divergence")

    monkeypatch.setitem(fastsim._KERNELS, "lru", broken)
    caught, replays = _replay_lru()
    problems = fallback_problems(caught)
    assert len(problems) == 1 and "forced divergence" in problems[0]
    # The replay still completed (on the reference engine) and counts.
    assert replays[0].stats.accesses == replays[0].accesses


def test_instrumentation_is_undone():
    from repro.eval import missrate, runner
    from repro.ml.svm import OfflineISVM
    from repro.policies.belady_policy import BeladyPolicy

    before = (missrate.simulate_llc, runner.get_trace, OfflineISVM.fit_epoch,
              BeladyPolicy.__dict__["from_stream"])
    instrument(SpanRecorder()).restore()
    after = (missrate.simulate_llc, runner.get_trace, OfflineISVM.fit_epoch,
             BeladyPolicy.__dict__["from_stream"])
    assert before == after
