"""Time-budgeted differential fuzzing loop (``repro.conformance.fuzzer``).

The loop is deliberately boring: derive case specs from the master seed
(never from wall-clock or scheduling order), fan each batch across
supervised worker processes, collect divergences, shrink each one to a
near-minimal repro in the parent, and archive it in the corpus.  A fuzz
run is therefore exactly reproducible from ``(seed, case_length,
geometry)`` — the time budget only decides how far down the deterministic
case sequence the run gets.

Worker tasks are pure functions of a spec dict (see
:func:`_fuzz_case_worker`), so the fuzzer rides the same
:class:`~repro.robust.supervise.TaskSupervisor` machinery as the
experiment matrix: a worker that crashes or hangs costs a retry, not
the fuzz run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..obs import metrics as obs_metrics
from ..perf.parallel import parallel_map
from ..robust.supervise import SuperviseConfig, task_seed
from .differential import Divergence, default_policies, run_case
from .generators import GENERATOR_FAMILIES, CaseSpec, generate_stream, spec_config
from .shrink import ShrinkResult, failure_predicate, shrink_stream

__all__ = ["FuzzConfig", "FuzzReport", "fuzz", "parse_budget", "shrink_divergence"]


def parse_budget(text: str | float) -> float:
    """``"30s"`` / ``"2m"`` / ``"120"`` -> seconds."""
    if isinstance(text, (int, float)):
        return float(text)
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("ms"):
        scale, text = 0.001, text[:-2]
    elif text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        scale, text = 60.0, text[:-1]
    elif text.endswith("h"):
        scale, text = 3600.0, text[:-1]
    try:
        return float(text) * scale
    except ValueError:
        raise ValueError(f"unparseable time budget {text!r}") from None


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that determines the deterministic case sequence."""

    seed: int = 0
    budget: float = 30.0
    jobs: int = 1
    case_length: int = 1200
    num_sets: int = 16
    associativity: int = 4
    policies: tuple[str, ...] | None = None
    max_cases: int | None = None
    shrink: bool = True
    corpus_dir: str | None = None
    invariant_every: int = 256


@dataclass
class FuzzReport:
    """The outcome of one fuzz run."""

    config: FuzzConfig
    cases_run: int = 0
    checks_run: int = 0
    elapsed: float = 0.0
    divergences: list[Divergence] = field(default_factory=list)
    shrunk: list[dict] = field(default_factory=list)  # {case, kind, policy, length, path}

    @property
    def clean(self) -> bool:
        return not self.divergences

    def as_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "budget": self.config.budget,
            "jobs": self.config.jobs,
            "case_length": self.config.case_length,
            "num_sets": self.config.num_sets,
            "associativity": self.config.associativity,
            "policies": list(self.config.policies or default_policies()),
            "cases_run": self.cases_run,
            "checks_run": self.checks_run,
            "elapsed": round(self.elapsed, 3),
            "clean": self.clean,
            "divergences": [
                {
                    "kind": d.kind,
                    "policy": d.policy,
                    "spec": d.spec,
                    "message": d.message,
                    "index": d.index,
                }
                for d in self.divergences
            ],
            "shrunk": self.shrunk,
        }


def _case_spec(config: FuzzConfig, index: int) -> CaseSpec:
    family = GENERATOR_FAMILIES[index % len(GENERATOR_FAMILIES)]
    return CaseSpec(
        family=family,
        seed=task_seed("conformance", family, index, base=config.seed) % (2**31),
        length=config.case_length,
        num_sets=config.num_sets,
        associativity=config.associativity,
    )


def _fuzz_case_worker(payload: tuple[dict, tuple[str, ...] | None, int]) -> dict:
    """Process-pool task: run one case, return picklable divergence rows."""
    spec_dict, policies, invariant_every = payload
    result = run_case(
        CaseSpec.from_dict(spec_dict),
        policies=policies,
        invariant_every=invariant_every,
    )
    return {
        "spec": spec_dict,
        "checks": result.checks,
        "divergences": [
            {
                "kind": d.kind,
                "policy": d.policy,
                "spec": d.spec,
                "message": d.message,
                "index": d.index,
            }
            for d in result.divergences
        ],
    }


def shrink_divergence(
    divergence: Divergence,
    corpus_dir: str | Path | None = None,
    max_predicate_calls: int = 2000,
) -> tuple[ShrinkResult, Path | None]:
    """Minimise one divergence's stream; archive the repro if a corpus
    directory is given.  Returns the shrink result and the corpus path."""
    from .corpus import save_entry

    spec = CaseSpec.from_dict(divergence.spec)
    stream = generate_stream(spec)
    config = spec_config(spec)
    predicate = failure_predicate(divergence.kind, divergence.policy, config)
    shrunk = shrink_stream(stream, predicate, max_predicate_calls=max_predicate_calls)
    path = None
    if corpus_dir is not None:
        policies = (
            (divergence.policy,) if divergence.policy else default_policies()
        )
        path = save_entry(
            corpus_dir,
            name=f"repro-{divergence.kind}-{spec.name}",
            stream=shrunk.stream,
            config=config,
            policies=policies,
            kind=divergence.kind,
            extra={
                "message": divergence.message,
                "original_length": shrunk.original_length,
                "predicate_calls": shrunk.predicate_calls,
            },
        )
    if obs_metrics.ENABLED:
        obs_metrics.counter("conformance.shrink.runs").inc()
        obs_metrics.counter("conformance.shrink.removed_accesses").inc(
            shrunk.original_length - shrunk.length
        )
    return shrunk, path


def fuzz(config: FuzzConfig, progress=None) -> FuzzReport:
    """Run the differential fuzzer until the time budget (or case cap).

    The budget is checked between batches; at least one batch always
    runs, so even ``--budget 0`` yields a meaningful (tiny) run.
    Divergent cases are shrunk in the parent — shrinking is rare and
    needs the corpus on the parent's filesystem — and every shrunk
    repro lands in ``config.corpus_dir`` when one is configured.
    """
    report = FuzzReport(config=config)
    policies = tuple(config.policies) if config.policies else None
    started = time.monotonic()
    supervise = SuperviseConfig(task_timeout=max(60.0, config.budget * 4))
    batch_size = max(1, config.jobs) * 2
    index = 0
    while True:
        remaining = config.budget - (time.monotonic() - started)
        if index > 0 and remaining <= 0:
            break
        if config.max_cases is not None and index >= config.max_cases:
            break
        count = batch_size
        if config.max_cases is not None:
            count = min(count, config.max_cases - index)
        payloads = [
            (_case_spec(config, index + k).to_dict(), policies, config.invariant_every)
            for k in range(count)
        ]
        outcomes = parallel_map(
            _fuzz_case_worker,
            payloads,
            jobs=config.jobs,
            supervise=supervise,
            task_ids=[CaseSpec.from_dict(p[0]).name for p in payloads],
            progress=progress,
        )
        index += count
        for outcome in outcomes:
            report.cases_run += 1
            report.checks_run += outcome["checks"]
            for row in outcome["divergences"]:
                report.divergences.append(
                    Divergence(
                        kind=row["kind"],
                        policy=row["policy"],
                        spec=row["spec"],
                        message=row["message"],
                        index=row.get("index"),
                    )
                )
    report.elapsed = time.monotonic() - started

    if config.shrink:
        for divergence in report.divergences:
            try:
                shrunk, path = shrink_divergence(
                    divergence, corpus_dir=config.corpus_dir
                )
            except ValueError:
                # Not reproducible from the spec alone (flaky environment
                # failure, or a parallel-only effect): report unshrunken.
                report.shrunk.append(
                    {
                        "case": CaseSpec.from_dict(divergence.spec).name,
                        "kind": divergence.kind,
                        "policy": divergence.policy,
                        "length": None,
                        "path": None,
                        "note": "did not reproduce during shrink",
                    }
                )
                continue
            report.shrunk.append(
                {
                    "case": CaseSpec.from_dict(divergence.spec).name,
                    "kind": divergence.kind,
                    "policy": divergence.policy,
                    "length": shrunk.length,
                    "original_length": shrunk.original_length,
                    "path": str(path) if path else None,
                }
            )

    if obs_metrics.ENABLED:
        obs_metrics.counter("conformance.fuzz.cases").inc(report.cases_run)
        obs_metrics.counter("conformance.fuzz.checks").inc(report.checks_run)
        obs_metrics.counter("conformance.fuzz.divergences").inc(
            len(report.divergences)
        )
        if report.elapsed > 0:
            obs_metrics.gauge("conformance.fuzz.cases_per_s").set(
                report.cases_run / report.elapsed
            )
    return report
