"""The four workloads, one cold repetition each, plus their checks.

Each ``run_*`` function is called in a fresh process (so the trace
cache, the artifact cache and the interpreter start cold, as a user's
run does).  It returns a JSON-safe dict: ``ready`` (epoch time when
set-up ended) or ``setup_s``; ``wall_s`` of the timed region and the
``work`` items done in it; ``attempted``/``failed`` operations; exact
``counts``; per-layer ``layer`` figures from the spans; and
``problems`` (failed checks).
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import replace

from layers import instrument
from spans import LAYER_PREFIXES, SpanRecorder, layer_self_seconds, name_totals
import stats

#: Fig. 11 headline run (reference engine dominates: mpppb and MIN).
FIG11 = dict(
    benchmarks=("mcf", "lbm", "omnetpp", "bfs"),
    policies=("hawkeye", "mpppb", "ship++", "glider"),
    include_belady=True,
    trace_length=None,
)
#: Every replay on the NumPy kernels: streaming, irregular, graph, mixed.
FASTPATH = dict(
    benchmarks=("libquantum", "xalancbmk", "pr", "gcc"),
    policies=("srrip", "drrip", "ship++", "hawkeye", "glider"),
    include_belady=False,
    trace_length=100_000,
)
#: Fig. 9 offline path: Belady labels then four models, 2 epochs each.
TRAIN_BENCHMARKS = ("mcf", "omnetpp")
TRAIN_EPOCHS = 2

#: Accesses of each stream checked access-by-access against the
#: reference engine (the full streams would take minutes).
PARITY_PREFIX = 4000

FAST_POLICIES = ("lru", "srrip", "drrip", "ship++", "hawkeye", "glider")
COUNTED_POLICIES = FAST_POLICIES + ("mpppb", "min")
FALLBACK_MARK = "falling back to the reference engine"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_key(policy: str) -> str:
    """Policy name as a metric-name component (no ``+``)."""
    return policy.replace("+", "p")


# -- layer figures from one traced repetition --------------------------------


def layer_figures(recorder: SpanRecorder, wall_s: float) -> dict:
    """Per-layer shares and throughputs of one repetition."""
    spans = recorder.spans
    shares = layer_self_seconds(spans)
    totals = name_totals(spans)
    out = {f"{layer}.share": shares.get(layer, 0.0) / wall_s
           for layer in LAYER_PREFIXES.values()}
    out["unattributed_share"] = shares.get(None, 0.0) / wall_s

    def rate(name: str) -> float:
        seconds, items = totals.get(name, (0.0, 0))
        return items / seconds if seconds > 0 else 0.0

    out["traces.gen_accesses_per_s"] = rate("traces.get_trace")
    out["cache.filter_accesses_per_s"] = rate("cache.filter")
    for policy in FAST_POLICIES:
        out[f"cache.fast.{metric_key(policy)}.accesses_per_s"] = rate(
            f"cache.fast.{policy}")
    out["policies.ref.mpppb.accesses_per_s"] = rate("policies.ref.mpppb")
    out["optgen.belady_build_accesses_per_s"] = rate("optgen.belady_build")
    out["optgen.belady_replay_accesses_per_s"] = rate("optgen.belady_replay")
    out["optgen.belady_replay.share"] = (
        totals.get("optgen.belady_replay", (0.0, 0))[0] / wall_s)
    out["optgen.label_accesses_per_s"] = rate("optgen.label")
    for model in ("lstm", "isvm", "hawkeye", "ordered_svm"):
        out[f"ml.{model}_train_samples_per_s"] = rate(f"ml.{model}_epoch")
    out["ml.lstm_eval_samples_per_s"] = rate("ml.lstm_eval")
    return out


# -- the two simulation sweeps ------------------------------------------------


def run_sim(spec: dict, seed: int, recorder: SpanRecorder, checks: bool,
            setup_only: bool = False) -> dict:
    from repro.eval.missrate import miss_rate_reduction
    from repro.eval.runner import QUICK, ArtifactCache

    config = replace(QUICK, seed=seed)
    if spec["trace_length"]:
        config = replace(config, trace_length=spec["trace_length"])
    ready = time.time()
    if setup_only:
        return {"ready": ready}
    inst = instrument(recorder)
    cache = ArtifactCache(config)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            with recorder.span("run"):
                rows = miss_rate_reduction(
                    config,
                    benchmarks=spec["benchmarks"],
                    policies=spec["policies"],
                    include_belady=spec["include_belady"],
                    cache=cache,
                )
            wall = time.perf_counter() - start
    finally:
        inst.restore()
    rss = peak_rss_mb()
    replays = inst.replays
    problems = fallback_problems(caught)
    problems += replay_problems(replays, spec)
    if checks:
        problems += parity_problems(cache, spec, config)
    counts = {
        "sim.llc_stream_accesses": sum(len(cache.llc_stream(b)) for b in spec["benchmarks"]),
        "sim.glider_reduction_pct": sum(r.reduction("glider") for r in rows) / len(rows),
    }
    for policy in COUNTED_POLICIES:
        mine = [r for r in replays if r.policy == policy]
        key = metric_key(policy)
        counts[f"sim.{key}.accesses"] = sum(r.accesses for r in mine)
        counts[f"sim.{key}.hits"] = sum(r.stats.hits for r in mine)
    return {
        "ready": ready,
        "wall_s": wall,
        "work": sum(r.accesses for r in replays),
        "attempted": len(replays),
        "failed": 0,
        "peak_rss_mb": rss,
        "counts": counts,
        "layer": layer_figures(recorder, wall) if recorder.enabled else {},
        "problems": problems,
    }


def fallback_problems(caught) -> list[str]:
    """A fast replay that fell back to the reference engine would turn a
    fast-path timing into a reference one; any such warning fails."""
    return [
        f"fast-path fallback: {w.message}"
        for w in caught
        if issubclass(w.category, RuntimeWarning) and FALLBACK_MARK in str(w.message)
    ]


def replay_problems(replays, spec: dict) -> list[str]:
    problems = []
    for r in replays:
        if r.stats.hits + r.stats.misses != r.stats.accesses or r.stats.accesses != r.accesses:
            problems.append(
                f"{r.benchmark}/{r.policy}: hits {r.stats.hits} + misses "
                f"{r.stats.misses} != accesses {r.accesses}")
    if spec["include_belady"]:
        best = {r.benchmark: r.stats.hits for r in replays if r.policy == "min"}
        for r in replays:
            if r.benchmark not in best:
                problems.append(f"{r.benchmark}: no MIN replay")
            elif r.stats.hits > best[r.benchmark]:
                problems.append(
                    f"{r.benchmark}/{r.policy}: {r.stats.hits} hits beat MIN's "
                    f"{best[r.benchmark]}")
    else:
        problems += [
            f"{r.benchmark}/{r.policy}: replayed on the reference engine"
            for r in replays if r.engine != "fast"
        ]
    return problems


def parity_problems(cache, spec: dict, config) -> list[str]:
    """Fast and reference engines agree access by access on a prefix."""
    from repro.cache.fastsim import EngineParityError, fast_path_kernel, verify_parity

    problems = []
    policies = [p for p in ("lru",) + spec["policies"] if fast_path_kernel(p)]
    for benchmark in spec["benchmarks"]:
        stream = prefix(cache.llc_stream(benchmark), PARITY_PREFIX)
        for policy in policies:
            try:
                verify_parity(stream, policy, config.hierarchy())
            except EngineParityError as error:
                problems.append(f"parity {benchmark}/{policy}: {error}")
    return problems


def prefix(stream, n: int):
    return replace(
        stream,
        pcs=stream.pcs[:n],
        addresses=stream.addresses[:n],
        kinds=stream.kinds[:n],
        cores=stream.cores[:n],
    )


# -- offline training -----------------------------------------------------------


def run_train(seed: int, recorder: SpanRecorder, setup_only: bool = False) -> dict:
    from repro.eval.accuracy import offline_accuracy
    from repro.eval.runner import QUICK, ArtifactCache

    config = replace(QUICK, seed=seed, lstm_epochs=TRAIN_EPOCHS)
    ready = time.time()
    if setup_only:
        return {"ready": ready}
    inst = instrument(recorder)
    cache = ArtifactCache(config)
    try:
        start = time.perf_counter()
        with recorder.span("run"):
            rows = offline_accuracy(
                config, benchmarks=TRAIN_BENCHMARKS, cache=cache,
                linear_epochs=TRAIN_EPOCHS,
            )
        wall = time.perf_counter() - start
    finally:
        inst.restore()
    rss = peak_rss_mb()
    labelled = sum(len(cache.labelled(b).pcs) for b in TRAIN_BENCHMARKS)
    models = 4
    average = rows[-1]
    accuracies = {
        "ml.lstm_accuracy": average.attention_lstm,
        "ml.isvm_accuracy": average.offline_isvm,
        "ml.hawkeye_accuracy": average.hawkeye,
        "ml.ordered_svm_accuracy": average.perceptron,
    }
    return {
        "ready": ready,
        "wall_s": wall,
        "work": labelled * TRAIN_EPOCHS * models,
        "attempted": models * len(TRAIN_BENCHMARKS),
        "failed": 0,
        "peak_rss_mb": rss,
        "counts": {"ml.labelled_accesses": labelled, **accuracies},
        "layer": layer_figures(recorder, wall) if recorder.enabled else {},
        "problems": [],
    }


# -- Glider serving -------------------------------------------------------------

SERVE_WORKLOAD = "astar"
SERVE_REQUESTS = 12000
SERVE_CONNECTIONS = 2
SERVE_WINDOW = 32
PREDICT_EVERY = 5
#: Client deadline: the caller waits for every decision, so a request
#: is given the server's maximum deadline rather than shed early.
SERVE_DEADLINE_MS = 5000.0
SERVE_TIMEOUT_S = 60.0
MICRO_CALLS = 2000


def serve_messages(seed: int):
    """The astar trace as wire requests, one list per connection.

    Connection ``k`` carries the requests of shard ``k``, in trace
    order, so each shard sees the same sequence on every run and its
    decisions can be replayed exactly in-process.
    """
    from repro.serve.protocol import encode
    from repro.serve.server import PredictionServer, ServeConfig
    from repro.traces import get_trace

    trace = get_trace(SERVE_WORKLOAD, length=SERVE_REQUESTS, seed=seed)
    router = PredictionServer(ServeConfig(policy="glider", shards=SERVE_CONNECTIONS))
    per_shard: list[list[dict]] = [[] for _ in range(SERVE_CONNECTIONS)]
    for i in range(min(SERVE_REQUESTS, len(trace.pcs))):
        address = int(trace.addresses[i])
        per_shard[router.route(address)].append({
            "id": f"r{i}",
            "kind": "predict" if i % PREDICT_EVERY == PREDICT_EVERY - 1 else "access",
            "pc": int(trace.pcs[i]),
            "address": address,
            "write": bool(trace.is_write[i]),
            "deadline_ms": SERVE_DEADLINE_MS,
        })
    lines = [[(m["id"], encode(m)) for m in shard] for shard in per_shard]
    return router, per_shard, lines


def start_server(workdir: str, env: dict) -> tuple[subprocess.Popen, int, float]:
    """Spawn ``serve run``; return it, its data port and the set-up time
    from spawn until its ``listening`` line (every shard ready)."""
    spawned = time.perf_counter()
    with open(os.path.join(workdir, "server.log"), "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.eval", "serve", "run", "--policy", "glider",
             "--shards", str(SERVE_CONNECTIONS),
             "--store", os.path.join(workdir, "store")],
            stdout=subprocess.PIPE,
            stderr=log,
            env=env,
            start_new_session=True,
            text=True,
        )
    line = proc.stdout.readline()
    setup = time.perf_counter() - spawned
    if not line.startswith("serve: listening"):
        stop_server(proc)
        raise RuntimeError(f"server did not start: {line!r}")
    fields = dict(item.split("=", 1) for item in line.split() if "=" in item)
    return proc, int(fields["data"]), setup


def stop_server(proc: subprocess.Popen) -> str:
    """SIGTERM (graceful drain); then SIGKILL whatever is left of the
    server's process group, shards included."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        out = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if out is None:
        out, _ = proc.communicate()
    return out or ""


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def run_serve(seed: int, recorder: SpanRecorder, checks: bool, workdir: str,
              setup_only: bool = False) -> dict:
    import serveload

    router, per_shard, lines = serve_messages(seed)
    env = dict(os.environ, TMPDIR=workdir)
    proc, port, setup = start_server(workdir, env)
    if setup_only:
        try:
            # The server takes SIGTERM as a drain request only once it
            # answers requests; before that SIGTERM simply kills it.
            serveload.request("127.0.0.1", port, {"id": "ping", "kind": "ping"})
        finally:
            stop_server(proc)
        return {"setup_s": setup}
    try:
        start = time.perf_counter()
        with recorder.span("run"), recorder.span("serve.load"):
            acct = serveload.closed_loop(
                "127.0.0.1", port, lines, SERVE_WINDOW, SERVE_TIMEOUT_S)
        wall = time.perf_counter() - start
        state = serveload.request("127.0.0.1", port, {"id": "stats", "kind": "stats"})
        pids = [proc.pid] + [row["pid"] for row in state["shards"]]
        rss = sum(vm_hwm_mb(pid) for pid in pids)
    finally:
        drained = stop_server(proc)
    counters = state.get("counters", {})
    latencies = acct.request_latencies_ms(SERVE_DEADLINE_MS)
    p50, _ = stats.percentile(latencies, 50)
    p99, beyond = stats.percentile(latencies, 99)
    problems = serveload.check_accounting(acct)
    if "clean=True" not in drained:
        problems.append(f"server did not drain cleanly: {drained.strip()!r}")
    access_hits = sum(
        1 for r in acct.responses.values() if r.get("kind") == "access" and r.get("hit"))
    accesses = sum(1 for r in acct.responses.values() if r.get("kind") == "access")
    rps = acct.decisions / wall
    out = {
        "setup_s": setup,
        "wall_s": wall,
        "work": acct.decisions,
        "attempted": acct.sent,
        "failed": acct.failed,
        "peak_rss_mb": rss,
        "counts": {
            "serve.sent": acct.sent,
            "serve.decisions": acct.decisions,
            "serve.typed_errors": acct.typed_errors,
            "serve.lost": acct.lost,
            "serve.duplicates": acct.duplicates,
            "serve.access_hits": access_hits,
            "serve.access_hit_pct": 100.0 * access_hits / max(accesses, 1),
            "serve.shed": counters.get("shed_total", 0),
            "serve.timeouts": counters.get("timeout_total", 0),
        },
        "latency_ms": {"p50": p50, "p99": p99, "samples": len(latencies),
                       "beyond_p99": beyond},
        "layer": {},
        "problems": problems,
    }
    if checks or recorder.enabled:
        engines, handle_us, mismatches = replay_shards(per_shard, acct)
        if checks and not acct.failed:
            problems += mismatches
        if recorder.enabled:
            out["layer"] = {
                **layer_figures(recorder, wall),
                **serve_layer_figures(
                    router, per_shard, acct, engines, handle_us, rps, workdir),
            }
    return out


def replay_shards(per_shard, acct):
    """Replay each shard's requests through an in-process ShardEngine.

    Returns the warmed engines, the mean ``handle`` time per kind (µs),
    and every request whose served decision differs from the replay.
    """
    from repro.cache.config import CacheConfig
    from repro.serve.server import ServeConfig
    from repro.serve.shard import ShardEngine

    cache = CacheConfig(**ServeConfig(policy="glider").cache_params())
    engines = []
    spent = {"access": [0.0, 0], "predict": [0.0, 0]}
    problems = []
    fields = ("hit", "way", "bypassed", "evicted", "prediction", "cached")
    for shard_id, msgs in enumerate(per_shard):
        engine = ShardEngine(shard_id, "glider", {}, cache)
        for msg in msgs:
            t0 = time.perf_counter()
            expected = engine.handle(msg)
            bucket = spent[msg["kind"]]
            bucket[0] += time.perf_counter() - t0
            bucket[1] += 1
            served = acct.responses.get(msg["id"], {})
            if any(served.get(f) != expected.get(f) for f in fields):
                problems.append(
                    f"shard {shard_id} {msg['id']}: served {served} != replay {expected}")
        engines.append(engine)
    handle_us = {k: 1e6 * s / max(n, 1) for k, (s, n) in spent.items()}
    return engines, handle_us, problems[:5]


def serve_layer_figures(router, per_shard, acct, engines, handle_us, rps, workdir) -> dict:
    """Calls per second of each serve stage in isolation, and the share
    of the closed loop's time per request that these stages leave
    unexplained."""
    from repro.serve.protocol import encode, parse_request
    from repro.serve.server import ServeConfig
    from repro.serve.snapshot import SnapshotStore

    msgs = [m for shard in per_shard for m in shard][:MICRO_CALLS]
    raw = [encode(m) for m in msgs]
    responses = [acct.responses[m["id"]] for m in msgs if m["id"] in acct.responses]

    def per_call_us(fn, items) -> float:
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        return 1e6 * (time.perf_counter() - t0) / max(len(items), 1)

    parse_us = per_call_us(parse_request, raw)
    encode_us = per_call_us(encode, responses)
    route_us = per_call_us(router.route, [m["address"] for m in msgs])
    store = SnapshotStore(os.path.join(workdir, "micro.snapshot"))
    saves = []
    for _ in range(3):
        t0 = time.perf_counter()
        store.save(engines[0], meta={"shard": 0})
        saves.append(time.perf_counter() - t0)
    snapshot_us = 1e6 * stats.median(saves)
    predict_share = 1.0 / PREDICT_EVERY
    handle = (1 - predict_share) * handle_us["access"] + predict_share * handle_us["predict"]
    attributed = (parse_us + encode_us + route_us + handle
                  + snapshot_us / ServeConfig().snapshot_every)
    return {
        "serve.parse_per_s": 1e6 / parse_us,
        "serve.encode_per_s": 1e6 / encode_us,
        "serve.route_per_s": 1e6 / route_us,
        "serve.handle_access_per_s": 1e6 / handle_us["access"],
        "serve.handle_predict_per_s": 1e6 / handle_us["predict"],
        "serve.snapshots_per_s": 1e6 / snapshot_us,
        "serve.unattributed_share": 1.0 - attributed * rps / 1e6,
    }
