"""Bridges from runtime objects onto the metrics registry.

Every helper is guarded by the :data:`metrics.ENABLED` flag, so the
simulator layers can call them unconditionally.  They read declared
interfaces only — :class:`~repro.cache.stats.CacheStats` fields and a
policy's :meth:`~repro.cache.policy.ReplacementPolicy.introspect`
payload — and mirror them onto counters/gauges/histograms; they never
mutate the source object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from . import metrics

if TYPE_CHECKING:  # pragma: no cover
    from ..cache.policy import ReplacementPolicy
    from ..cache.stats import CacheStats

__all__ = [
    "record_cache_stats",
    "record_policy_introspection",
]


def record_cache_stats(
    stats: "CacheStats", prefix: str = "cache", **labels: Any
) -> None:
    """Mirror a :class:`repro.cache.stats.CacheStats` onto the registry.

    ``prefix`` namespaces the metrics (``cache``, ``sim`` ...); extra
    labels typically carry the level (``level=llc``) and benchmark.
    """
    if not metrics.ENABLED:
        return
    for field, value in (
        ("demand_hits", stats.demand_hits),
        ("demand_misses", stats.demand_misses),
        ("writeback_hits", stats.writeback_hits),
        ("writeback_misses", stats.writeback_misses),
        ("bypasses", stats.bypasses),
        ("evictions", stats.evictions),
        ("dirty_evictions", stats.dirty_evictions),
    ):
        metrics.counter(f"{prefix}.{field}", **labels).inc(value)
    for name, per_core in (
        ("hits", stats.per_core_hits),
        ("misses", stats.per_core_misses),
    ):
        for core, value in per_core.items():
            metrics.counter(f"{prefix}.{name}", core=core, **labels).inc(value)
    metrics.gauge(f"{prefix}.demand_miss_rate", **labels).set(
        stats.demand_miss_rate
    )


def record_policy_introspection(policy: "ReplacementPolicy", **labels: Any) -> None:
    """Publish a policy's :meth:`introspect` payload after a simulation run.

    Payload keys read: ``prediction_checks``/``prediction_correct``
    (``policy.predictions.*`` confusion counters and accuracy gauge),
    ``isvm_health`` (``policy.isvm.*`` gauges), ``isvm_stats``
    (``policy.isvm.*`` counters) and ``optgen_occupancy`` (the
    ``policy.optgen.occupancy`` histogram, one bucket per way).  A
    policy without a signal contributes nothing for it.  Labels usually
    carry ``benchmark=``; ``policy=`` defaults to the policy's name.
    """
    if not metrics.ENABLED:
        return
    labels.setdefault("policy", policy.name)
    payload = policy.introspect()

    checks = payload.get("prediction_checks")
    if checks is not None:
        correct = payload["prediction_correct"]
        metrics.counter("policy.predictions.checked", **labels).inc(checks)
        metrics.counter("policy.predictions.correct", **labels).inc(correct)
        metrics.counter("policy.predictions.wrong", **labels).inc(checks - correct)
        if checks:
            metrics.gauge("policy.predictions.accuracy", **labels).set(
                correct / checks
            )

    for field, value in payload.get("isvm_health", {}).items():
        metrics.gauge(f"policy.isvm.{field}", **labels).set(value)
    for field, value in payload.get("isvm_stats", {}).items():
        metrics.counter(f"policy.isvm.{field}", **labels).inc(value)

    occupancy = payload.get("optgen_occupancy")
    if occupancy:
        hist = metrics.histogram(
            "policy.optgen.occupancy",
            buckets=[float(i) for i in range(policy.associativity + 1)],
            **labels,
        )
        for level, count in occupancy.items():
            hist.observe(level, n=count)
