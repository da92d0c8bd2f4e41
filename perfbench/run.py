"""Benchmark entry point: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig11-quick --seed 1 --seconds 20 --trace 0

Each repetition runs cold in a fresh process (``rep.py``).  Repetitions
run until ``--seconds`` have passed, at least two of them.  With
``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the repetitions); with ``--trace 1`` untraced and traced
repetitions alternate and it carries the per-layer metrics from the
traced ones plus the tracing overhead.  The first repetition also runs
the workload's correctness checks, outside its timed region.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("fig11-quick", "fastpath-long", "offline-train", "serve-glider")
MIN_REPS = 2
#: An untraced run times set-up at least this often (set-up-only
#: processes top up the repetitions' own samples).
MIN_SETUP_SAMPLES = 5
REP_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "fraction",
    "throughput_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and unit, in BENCHMARK.json order."""
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_rep(workload: str, seed: int, trace: bool, checks: bool, workdir: str,
            setup_only: bool = False) -> dict:
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
        "--checks", str(int(checks)), "--workdir", workdir,
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} repetition exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(os.path.join(workdir, "rep.json"), "w", encoding="utf-8") as handle:
        handle.write(lines[-1] + "\n")
    return json.loads(lines[-1])


def cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (empty where absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(v) for v in handle.readline().split()[1:]]
    except OSError:
        return []


def steal_pct(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests meanwhile:
    a noisy neighbour slows every workload, serve the most."""
    delta = [b - a for a, b in zip(before, after)]
    if len(delta) < 8 or sum(delta) <= 0:
        return None
    return round(100.0 * delta[7] / sum(delta), 2)


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values = {
        "setup_s": stats.median(setups),
        "peak_rss_mb": stats.median(r["peak_rss_mb"] for r in reps),
        "success_ratio": 1.0 - failed / attempted,
        "throughput_per_s": stats.median(r["work"] / r["wall_s"] for r in reps),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    units = per_layer_units()
    merged: dict[str, list[float]] = {}
    for rep in traced:
        for name, value in {**rep["counts"], **rep["layer"]}.items():
            merged.setdefault(name, []).append(value)
    values = {name: stats.median(v) for name, v in merged.items()}
    values["tracing_overhead_pct"] = 100.0 * (
        stats.median(r["wall_s"] for r in traced)
        / stats.median(r["wall_s"] for r in untraced) - 1.0)
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(os.getcwd(), ".perfbench", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)

    reps: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    problems: list[str] = []
    started = time.perf_counter()
    ticks = cpu_ticks()
    while len(reps) + len(traced) < MIN_REPS or time.perf_counter() - started < args.seconds:
        index = len(reps) + len(traced)
        trace = bool(args.trace) and index % 2 == 1
        rep_started = time.perf_counter()
        rep = run_rep(args.workload, args.seed, trace, index == 0,
                      os.path.join(run_dir, f"rep{index}"))
        rep["process_s"] = time.perf_counter() - rep_started
        (traced if trace else reps).append(rep)
        setups.append(rep["setup_s"])
        problems += rep["problems"]
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        probe = run_rep(args.workload, args.seed, False, False,
                        os.path.join(run_dir, f"setup{len(setups)}"), setup_only=True)
        setups.append(probe["setup_s"])
    if args.workload == "offline-train":
        accuracies = {json.dumps({k: v for k, v in r["counts"].items()
                                  if k.endswith("_accuracy")}, sort_keys=True)
                      for r in reps + traced}
        if len(accuracies) != 1:
            problems.append(f"accuracies differ between repetitions: {sorted(accuracies)}")

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "commit": git_commit(),
        "env": reps[0]["env"],
        "repetition_s": [round(r["process_s"], 3) for r in reps + traced],
        "host_steal_pct": steal_pct(ticks, cpu_ticks()),
        "spans": [r["spans_file"] for r in traced],
        "latency_ms": [r["latency_ms"] for r in reps + traced if "latency_ms" in r],
        "problems": problems,
    }))
    metrics = per_layer(reps, traced) if args.trace else end_to_end(reps, setups)
    everything = reps + traced
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
