"""One cold repetition of a workload, in its own process.

Usage: python3 perfbench/rep.py --workload NAME --seed N --trace 0|1
       --checks 0|1 --spawned-at EPOCH --workdir DIR

Prints one JSON object (see ``workloads``).  With ``--trace 1`` the
spans are written at exit to ``DIR/spans.jsonl`` in the Chrome
trace-event vocabulary.  ``--setup-only`` stops once set-up is done
and reports only its time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checks", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)

    import numpy

    import workloads
    from spans import SpanRecorder

    recorder = SpanRecorder(enabled=bool(args.trace))
    checks = bool(args.checks)
    if args.workload == "fig11-quick":
        result = workloads.run_sim(workloads.FIG11, args.seed, recorder, checks, args.setup_only)
    elif args.workload == "fastpath-long":
        result = workloads.run_sim(workloads.FASTPATH, args.seed, recorder, checks, args.setup_only)
    elif args.workload == "offline-train":
        result = workloads.run_train(args.seed, recorder, args.setup_only)
    elif args.workload == "serve-glider":
        result = workloads.run_serve(args.seed, recorder, checks, args.workdir, args.setup_only)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    if "setup_s" not in result:
        result["setup_s"] = result.pop("ready") - args.spawned_at
    result["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    if recorder.enabled:
        path = os.path.join(args.workdir, "spans.jsonl")
        recorder.write_jsonl(path, run_id=f"{args.workload}-seed{args.seed}")
        result["spans_file"] = os.path.relpath(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
