"""Instrumentation adapters: cache stats, policy introspection, and the
boundary wrappers' disabled-path guarantee."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.cache.hierarchy import LLCStream
from repro.cache.stats import CacheStats
from repro.core.glider import GliderPolicy
from repro.obs import metrics
from repro.obs.instrument import record_cache_stats, record_policy_introspection
from repro.policies.hawkeye import HawkeyePolicy
from repro.policies.registry import make_policy


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics.disable()
    metrics.registry().clear()
    yield
    metrics.disable()
    metrics.registry().clear()


def _stats() -> CacheStats:
    stats = CacheStats(name="LLC")
    for core in (0, 0, 1):
        stats.record(hit=True, is_demand=True, core=core)
    stats.record(hit=False, is_demand=True, core=1)
    stats.record(hit=False, is_demand=False)
    stats.evictions = 3
    return stats


class TestRecordCacheStats:
    def test_counters_and_per_core_labels(self):
        with metrics.collecting() as reg:
            record_cache_stats(_stats(), prefix="sim.llc", benchmark="mcf")
            snap = reg.snapshot()["metrics"]
        assert snap["sim.llc.demand_hits{benchmark=mcf}"]["value"] == 3
        assert snap["sim.llc.demand_misses{benchmark=mcf}"]["value"] == 1
        assert snap["sim.llc.hits{benchmark=mcf,core=0}"]["value"] == 2
        assert snap["sim.llc.hits{benchmark=mcf,core=1}"]["value"] == 1
        assert snap["sim.llc.misses{benchmark=mcf,core=1}"]["value"] == 1
        assert snap["sim.llc.demand_miss_rate{benchmark=mcf}"]["value"] == (
            pytest.approx(0.25)
        )

    def test_noop_when_disabled(self):
        record_cache_stats(_stats())
        assert len(metrics.registry()) == 0


class TestRecordPolicyIntrospection:
    def test_glider_isvm_health_gauges(self):
        policy = GliderPolicy()
        with metrics.collecting() as reg:
            record_policy_introspection(policy, benchmark="mcf")
            snap = reg.snapshot()["metrics"]
        label = "{benchmark=mcf,policy=" + policy.name + "}"
        assert f"policy.isvm.num_entries{label}" in snap
        assert f"policy.isvm.saturated_weights{label}" in snap
        assert f"policy.predictions.checked{label}" in snap

    def test_hawkeye_confusion_counters(self):
        policy = HawkeyePolicy()
        policy.prediction_checks = 10
        policy.prediction_correct = 7
        with metrics.collecting() as reg:
            record_policy_introspection(policy, benchmark="lbm")
            snap = reg.snapshot()["metrics"]
        label = "{benchmark=lbm,policy=" + policy.name + "}"
        assert snap[f"policy.predictions.checked{label}"]["value"] == 10
        assert snap[f"policy.predictions.correct{label}"]["value"] == 7
        assert snap[f"policy.predictions.wrong{label}"]["value"] == 3


def _golden_stream(n: int = 3000, seed: int = 11) -> LLCStream:
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 320, size=n).astype(np.uint64)
    kinds = rng.choice(
        [LLCStream.KIND_LOAD, LLCStream.KIND_STORE, LLCStream.KIND_WRITEBACK],
        size=n,
        p=[0.6, 0.25, 0.15],
    ).astype(np.int64)
    return LLCStream(
        name="golden",
        pcs=rng.integers(0, 48, size=n).astype(np.uint64) * np.uint64(4),
        addresses=lines * np.uint64(64),
        kinds=kinds,
        cores=np.zeros(n, dtype=np.int64),
        line_size=64,
        source_accesses=n,
        source_instructions=4 * n,
        l1_hits=0,
        l2_hits=0,
    )


def _gauge(value: float) -> dict:
    return {"type": "gauge", "value": value}


def _counter(value: int) -> dict:
    return {"type": "counter", "value": value}


#: Optgen occupancy over 16 sampled sets x a 32-slot window, 4 ways.
_OCCUPANCY = {
    "type": "histogram",
    "count": 512,
    "sum": 1329.0,
    "min": 0.0,
    "max": 4.0,
    "buckets": {"0.0": 44, "1.0": 52, "2.0": 101, "3.0": 185, "4.0": 130, "+Inf": 0},
}

#: Every ``policy.*`` entry the bridge publishes for the golden replay.
#: LRU and mustache publish nothing; frd and deap only confusion counters.
_GOLDEN = {
    "policy.isvm.active_entries{benchmark=golden,policy=glider}": _gauge(48.0),
    "policy.isvm.active_weights{benchmark=golden,policy=glider}": _gauge(768.0),
    "policy.isvm.gated_updates{benchmark=golden,policy=glider}": _counter(30),
    "policy.isvm.max_abs_weight{benchmark=golden,policy=glider}": _gauge(15.0),
    "policy.isvm.num_entries{benchmark=golden,policy=glider}": _gauge(2048.0),
    "policy.isvm.predictions{benchmark=golden,policy=glider}": _counter(5170),
    "policy.isvm.saturated_fraction{benchmark=golden,policy=glider}": _gauge(0.0),
    "policy.isvm.saturated_weights{benchmark=golden,policy=glider}": _gauge(0.0),
    "policy.isvm.trainings{benchmark=golden,policy=glider}": _counter(2719),
    "policy.optgen.occupancy{benchmark=golden,policy=glider}": _OCCUPANCY,
    "policy.optgen.occupancy{benchmark=golden,policy=hawkeye}": _OCCUPANCY,
    "policy.predictions.accuracy{benchmark=golden,policy=deap}": _gauge(46 / 473),
    "policy.predictions.accuracy{benchmark=golden,policy=frd}": _gauge(37 / 504),
    "policy.predictions.accuracy{benchmark=golden,policy=glider}": _gauge(
        1162 / 2324
    ),
    "policy.predictions.accuracy{benchmark=golden,policy=hawkeye}": _gauge(
        1200 / 2324
    ),
    "policy.predictions.checked{benchmark=golden,policy=deap}": _counter(473),
    "policy.predictions.checked{benchmark=golden,policy=frd}": _counter(504),
    "policy.predictions.checked{benchmark=golden,policy=glider}": _counter(2324),
    "policy.predictions.checked{benchmark=golden,policy=hawkeye}": _counter(2324),
    "policy.predictions.correct{benchmark=golden,policy=deap}": _counter(46),
    "policy.predictions.correct{benchmark=golden,policy=frd}": _counter(37),
    "policy.predictions.correct{benchmark=golden,policy=glider}": _counter(1162),
    "policy.predictions.correct{benchmark=golden,policy=hawkeye}": _counter(1200),
    "policy.predictions.wrong{benchmark=golden,policy=deap}": _counter(427),
    "policy.predictions.wrong{benchmark=golden,policy=frd}": _counter(467),
    "policy.predictions.wrong{benchmark=golden,policy=glider}": _counter(1162),
    "policy.predictions.wrong{benchmark=golden,policy=hawkeye}": _counter(1124),
}


def test_policy_metrics_golden():
    """Names, kinds, values and histogram buckets of every ``policy.*``
    metric after reference replays of attached policy instances."""
    from repro.cache.fastsim import replay

    stream = _golden_stream()
    config = CacheConfig("LLC", 16 * 4 * 64, 4, latency=26)
    with metrics.collecting() as reg:
        for name in ("hawkeye", "glider", "frd", "deap", "mustache", "lru"):
            replay(stream, make_policy(name), config, engine="reference")
        snap = reg.snapshot()["metrics"]
    published = {k: v for k, v in snap.items() if k.startswith("policy.")}
    assert published == _GOLDEN


class TestBoundaryWrappers:
    def test_replay_records_nothing_when_disabled(self, mixed_llc_stream):
        from repro.cache.fastsim import replay

        stats = replay(mixed_llc_stream, "lru")
        assert stats.demand_accesses > 0
        assert len(metrics.registry()) == 0

    def test_replay_records_sim_metrics_when_enabled(self, mixed_llc_stream):
        from repro.cache.fastsim import replay

        with metrics.collecting() as reg:
            disabled = replay(mixed_llc_stream, "lru")
            snap = reg.snapshot()["metrics"]
        key = "sim.replay.calls{engine=fast,policy=lru}"
        assert snap[key]["value"] == 1
        name = mixed_llc_stream.name
        assert (
            snap[f"sim.llc.demand_hits{{benchmark={name},policy=lru}}"]["value"]
            == disabled.demand_hits
        )

    def test_replay_results_identical_with_and_without_obs(self, mixed_llc_stream):
        from repro.cache.fastsim import replay

        plain = replay(mixed_llc_stream, "lru")
        with metrics.collecting():
            observed = replay(mixed_llc_stream, "lru")
        assert observed.as_dict() == plain.as_dict()
