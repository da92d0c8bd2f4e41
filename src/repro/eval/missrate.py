"""Figure 11: single-core LLC miss-rate reduction over LRU.

For every suite benchmark, the recorded LLC stream is replayed against
LRU, Hawkeye, MPPPB, SHiP++ and Glider (plus optionally MIN), and the
reduction in demand miss rate relative to LRU is reported — the paper's
headline single-core metric (Glider 8.9% vs Hawkeye 7.1%, MPPPB 6.5%,
SHiP++ 7.5% on their traces).
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

from ..cache.hierarchy import simulate_llc
from ..perf.parallel import parallel_map
from ..policies.belady_policy import BeladyPolicy
from ..robust.suite import RobustSuiteRunner
from ..traces.suite import suite_group
from .runner import DEFAULT, ArtifactCache, ExperimentConfig
from .tables import arithmetic_mean

#: The Figure 11 contender set (LRU is the baseline, MIN the bound).
CONTENDERS = ("hawkeye", "mpppb", "ship++", "glider")


@dataclass
class MissRateResult:
    """Per-benchmark miss rates and reductions over LRU."""

    benchmark: str
    group: str
    lru_miss_rate: float
    miss_rates: dict[str, float]
    belady_miss_rate: float | None = None
    # Total (demand + writeback) hits — the quantity MIN provably
    # maximises; demand-only rates can be traded against writeback hits.
    total_hits: dict[str, int] = field(default_factory=dict)
    belady_total_hits: int | None = None

    def reduction(self, policy: str) -> float:
        """Relative miss reduction over LRU, in percent."""
        if self.lru_miss_rate <= 0:
            return 0.0
        return 100.0 * (self.lru_miss_rate - self.miss_rates[policy]) / self.lru_miss_rate

    def as_row(self) -> dict:
        row = {"benchmark": self.benchmark, "group": self.group}
        for policy in self.miss_rates:
            row[policy] = self.reduction(policy)
        return row


def _missrate_benchmark(
    benchmark: str,
    *,
    config: ExperimentConfig,
    policies: tuple[str, ...],
    include_belady: bool,
    cache: ArtifactCache | None = None,
    store=None,
) -> MissRateResult:
    """One Figure 11 row (module-level so a ``functools.partial`` of it
    pickles into process-pool workers; parallel callers pass ``store``
    and each worker rebuilds its own :class:`ArtifactCache`)."""
    cache = cache if cache is not None else ArtifactCache(config, store=store)
    hierarchy = config.hierarchy()
    stream = cache.llc_stream(benchmark)
    # Policies go in by registry *name*: name dispatch is what unlocks
    # the learned-policy fast kernels (their instances take the
    # reference engine so trained state stays inspectable; MIN, which
    # has no trained state, takes its kernel as an instance).  Unknown
    # names still raise UnknownPolicyError from the reference resolver.
    lru_stats = simulate_llc(stream, "lru", hierarchy)
    rates: dict[str, float] = {}
    hits: dict[str, int] = {"lru": lru_stats.hits}
    for policy in policies:
        stats = simulate_llc(stream, policy, hierarchy)
        rates[policy] = stats.demand_miss_rate
        hits[policy] = stats.hits
    belady_rate = None
    belady_hits = None
    if include_belady:
        stats = simulate_llc(stream, BeladyPolicy.from_stream(stream), hierarchy)
        belady_rate = stats.demand_miss_rate
        belady_hits = stats.hits
    try:
        group = suite_group(benchmark)
    except KeyError:
        group = "other"
    return MissRateResult(
        benchmark=benchmark,
        group=group,
        lru_miss_rate=lru_stats.demand_miss_rate,
        miss_rates=rates,
        belady_miss_rate=belady_rate,
        total_hits=hits,
        belady_total_hits=belady_hits,
    )


def miss_rate_reduction(
    config: ExperimentConfig = DEFAULT,
    benchmarks: tuple[str, ...] | None = None,
    policies: tuple[str, ...] = CONTENDERS,
    include_belady: bool = False,
    cache: ArtifactCache | None = None,
    runner: RobustSuiteRunner | None = None,
    jobs: int = 1,
    supervise=None,
    journal=None,
    progress=None,
) -> list[MissRateResult]:
    """Reproduce Figure 11 rows; group averages appended at the end.

    With a ``runner``, each benchmark runs under its retry policy and a
    benchmark that still fails is recorded on ``runner.last_report``
    (structured failure + resume manifest) while the rest of the suite
    completes — the returned list then holds the completed subset.

    With ``jobs > 1``, benchmarks fan out across a supervised process
    pool (``supervise``/``journal`` tune its watchdogs and crash
    journal; a dead or hung worker costs a retry, not the run).  The
    results are bit-identical to the sequential run (workers rebuild
    state deterministically from the config); pair with an on-disk
    store so the expensive stream filter runs once per benchmark
    instead of once per worker touching it.
    """
    cache = cache or ArtifactCache(config)
    benchmarks = benchmarks or config.suite
    kwargs = dict(config=config, policies=policies, include_belady=include_belady)
    if jobs > 1:
        compute = functools.partial(_missrate_benchmark, store=cache.store, **kwargs)
    else:
        compute = functools.partial(_missrate_benchmark, cache=cache, **kwargs)
    if runner is None:
        return parallel_map(
            compute, benchmarks, jobs=jobs, supervise=supervise, journal=journal,
            task_ids=list(benchmarks), progress=progress,
        )
    if progress is not None:
        runner.progress = progress
    report = runner.run(
        benchmarks,
        compute,
        serialize=asdict,
        deserialize=lambda payload: MissRateResult(**payload),
        jobs=jobs,
    )
    return report.results(benchmarks)


def summarize_by_group(results: list[MissRateResult]) -> list[dict]:
    """The SPEC17/SPEC06/GAP/ALL average bars at the right of Figure 11."""
    policies = list(results[0].miss_rates) if results else []
    rows: list[dict] = []
    groups = sorted({r.group for r in results}) + ["ALL"]
    for group in groups:
        member = [r for r in results if group == "ALL" or r.group == group]
        if not member:
            continue
        row: dict = {"group": group, "n": len(member)}
        for policy in policies:
            row[policy] = arithmetic_mean([r.reduction(policy) for r in member])
        rows.append(row)
    return rows
