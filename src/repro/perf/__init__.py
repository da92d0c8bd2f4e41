"""Performance subsystem: parallel experiment drivers and benchmarking.

Layer 2 of the fast-path work (Layer 1 is :mod:`repro.cache.fastsim`):

* :mod:`repro.perf.parallel` — :func:`parallel_map`, the order-preserving
  map every per-benchmark experiment driver runs through (``--jobs N``),
  on the supervised pool of :mod:`repro.robust.supervise` (watchdogs,
  pool recycling, graceful degradation), plus deterministic per-task
  seeding.
* :mod:`repro.perf.bench` — the ``repro.eval bench`` subcommand: time
  the stream-filter / replay stages on both engines and record the
  perf trajectory in ``BENCH_sim.json``.
"""

from .bench import BENCH_SCHEMA, run_bench, validate_bench
from .parallel import parallel_map, task_seed

__all__ = [
    "BENCH_SCHEMA",
    "parallel_map",
    "run_bench",
    "task_seed",
    "validate_bench",
]
