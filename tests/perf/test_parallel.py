"""Determinism and correctness of the parallel experiment machinery.

The load-bearing property is *bit-identical results*: a run with
``jobs=N`` must be indistinguishable from ``jobs=1`` (the paper's
numbers cannot depend on how many workers happened to be available).
Wall-clock speedup is environment-dependent and is measured by the
``bench`` subcommand, not asserted here.
"""

from __future__ import annotations

import functools

from repro.eval.missrate import miss_rate_reduction
from repro.eval.runner import ArtifactCache, ExperimentConfig
from repro.perf.parallel import parallel_map, task_seed

CONFIG = ExperimentConfig(trace_length=6_000)
BENCHMARKS = ("mcf", "lbm")
POLICIES = ("lru", "srrip")


def test_task_seed_is_pure_and_spread():
    assert task_seed("mcf", "brrip", base=0) == task_seed("mcf", "brrip", base=0)
    seeds = {task_seed(b, p, base=7) for b in BENCHMARKS for p in POLICIES}
    assert len(seeds) == len(BENCHMARKS) * len(POLICIES)
    assert all(0 <= s < 2**63 for s in seeds)
    assert task_seed("mcf", "brrip", base=0) != task_seed("mcf", "brrip", base=1)


def _square(x: int) -> int:
    return x * x


def test_parallel_map_preserves_order():
    items = list(range(13))
    assert parallel_map(_square, items, jobs=1) == [x * x for x in items]
    assert parallel_map(_square, items, jobs=3) == [x * x for x in items]


def test_parallel_map_accepts_partials():
    add = functools.partial(int.__add__, 10)
    assert parallel_map(add, [1, 2, 3], jobs=2) == [11, 12, 13]


def test_experiment_driver_parallel_is_bit_identical(tmp_path):
    """The fig11 driver end-to-end: --jobs 2 equals --jobs 1, and the
    shared store means the stream is filtered once, not per worker."""
    store = str(tmp_path / "store")
    seq = miss_rate_reduction(
        CONFIG, benchmarks=BENCHMARKS, policies=("srrip",), include_belady=True
    )
    cache = ArtifactCache(CONFIG, store=store)
    par = miss_rate_reduction(
        CONFIG,
        benchmarks=BENCHMARKS,
        policies=("srrip",),
        include_belady=True,
        cache=cache,
        jobs=2,
    )
    assert seq == par
