"""Edge-case parity for the learned-policy and Belady-MIN fast kernels.

The conformance fuzzer sweeps the six trace families at the default
geometry; these tests pin the corners it is least likely to hit — the
OPTgen occupancy window wrapping many times over, ISVM and MPPPB
weights driven into their clamps, SHCT signature collisions, DRRIP
leader-set assignment and MPPPB sampled-set strides under clamped
geometries, MPPPB's global history across stream start and chunk
boundaries, and MIN's next-use ties, writeback refreshes and stream
bounds.  Every test compares the kernel against the reference engine
access-by-access via the recorded event stream, not just end-of-run
counters.
"""

from __future__ import annotations

import pickle
from collections import deque

import numpy as np
import pytest

import repro.cache.fastpolicies as fp
from repro.cache.config import CacheConfig
from repro.cache.fastsim import _KERNELS, make_stream_kernel, reference_replay, replay
from repro.cache.hierarchy import LLCStream
from repro.conformance.generators import CaseSpec, generate_stream, spec_config
from repro.optgen.sampler import OptGenSampler
from repro.policies.belady_policy import BeladyPolicy
from repro.policies.mpppb import MPPPBPolicy
from repro.policies.perceptron import _mix
from repro.policies.rrip import DRRIPPolicy
from repro.policies.ship import SHiPPlusPlusPolicy, SHiPPolicy, pc_signature


def _ref(stream, config, policy):
    events: list = []
    stats = reference_replay(stream, policy, config, record=events)
    return stats, events


def _fast(stream, config, policy):
    """One-shot replay on the kernel that ``policy``'s class binds."""
    kind, params = policy.fast_kernel()
    kernel = _KERNELS[kind](config, **params)
    events: list = []
    kernel.feed(stream, events)
    return kernel.finish(), events


def _counters(stats):
    return (
        stats.demand_hits,
        stats.demand_misses,
        stats.writeback_hits,
        stats.writeback_misses,
        stats.bypasses,
        stats.evictions,
        stats.dirty_evictions,
    )


# -- OPTgen sampler window wraparound ----------------------------------------


def test_flat_sampler_matches_reference_across_window_wraparound():
    """Event-for-event sampler agreement long after the occupancy
    window has wrapped (base_time >> window), covering the trim,
    stale-sweep, and tracker-overflow paths."""
    num_sets, assoc, window_factor = 4, 2, 2
    window = window_factor * assoc  # 4: tiny, wraps every few accesses
    ref = OptGenSampler(
        num_sets=num_sets,
        associativity=assoc,
        num_sampled_sets=num_sets,
        window_factor=window_factor,
    )
    flat = fp._FlatOptGenSampler(
        num_sets=num_sets,
        associativity=assoc,
        num_sampled_sets=num_sets,
        window_factor=window_factor,
    )
    # Deterministic mix of tight reuse, window-straddling reuse, and
    # fresh lines (tracker churn), all folding onto the 4 sets.
    lines = []
    for i in range(400):
        lines.append(i % 7)          # reuse distance 7 > window
        lines.append(i % 3)          # reuse distance 3 < window
        lines.append(100 + i)        # never reused: pure tracker churn
    accesses_per_set = len(lines) // num_sets
    assert accesses_per_set > 10 * window, "stream must wrap the window"
    for i, line in enumerate(lines):
        pc = (line * 17 + 3) & 0xFFFF
        got = flat.access(line, pc, ("ctx", line))
        want = [
            (e.pc, e.context, e.label)
            for e in ref.access(line, pc, ("ctx", line))
        ]
        assert got == want, f"sampler events diverge at access {i} (line {line})"


def test_hawkeye_parity_under_heavy_window_wraparound():
    """Full Hawkeye kernel vs reference on a geometry whose occupancy
    window (window_factor=2, assoc=2 -> 4 steps) wraps hundreds of
    times, with every set sampled."""
    spec = CaseSpec(
        family="pointer-chase", seed=11, length=2000, num_sets=8, associativity=2
    )
    stream = generate_stream(spec)
    config = spec_config(spec)
    from repro.policies.hawkeye import HawkeyePolicy

    policy = HawkeyePolicy(table_bits=8, num_sampled_sets=8, window_factor=2)
    ref_stats, ref_events = _ref(stream, config, policy)
    fast_stats, fast_events = _fast(stream, config, policy)
    assert policy.sampler.events_produced > 0, "sampler must actually train"
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)


# -- ISVM weight saturation ---------------------------------------------------


def test_glider_parity_with_saturated_isvm_weights():
    """A high threshold keeps the ISVM training gate open, so a thrash
    stream with few PCs drives weights into the [-128, 127] clamps; the
    kernel must clamp at exactly the same accesses as the reference."""
    from repro.core.glider import GliderConfig, GliderPolicy

    spec = CaseSpec(
        family="zipf", seed=5, length=8000, num_sets=8, associativity=2
    )
    stream = generate_stream(spec)
    config = spec_config(spec)
    # Tiny tables concentrate every training event onto a handful of
    # weights, and a threshold above the maximum |sum| (k * 127) keeps
    # the training gate open, so zipf's friendly-heavy labels march the
    # hot weights into the clamp within the stream.
    glider_config = GliderConfig(
        table_bits=2,
        weight_hash_bits=1,
        threshold=1000,
        num_sampled_sets=8,
        window_factor=2,
    )
    policy = GliderPolicy(glider_config)
    ref_stats, ref_events = _ref(stream, config, policy)
    health = policy.isvm.health()
    assert health.max_abs_weight >= 127, (
        f"stream failed to saturate any ISVM weight "
        f"(max |w| = {health.max_abs_weight}); the test needs the clamp hit"
    )
    fast_stats, fast_events = _fast(stream, config, GliderPolicy(glider_config))
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)


# -- SHiP signature collisions ------------------------------------------------


@pytest.mark.parametrize("plus", [False, True], ids=["ship", "ship++"])
def test_ship_parity_under_signature_collisions(plus):
    """A 2-bit signature table (4 entries) forces many PCs to share
    SHCT counters; kernel training must collide identically."""
    spec = CaseSpec(family="mix", seed=3, length=1500, num_sets=16, associativity=4)
    stream = generate_stream(spec)
    config = spec_config(spec)
    distinct_pcs = {int(pc) for pc in stream.pcs}
    signatures = {pc_signature(pc, 2) for pc in distinct_pcs}
    assert len(distinct_pcs) > 4 >= len(signatures), (
        "stream must have more PCs than SHCT entries to exercise collisions"
    )
    cls = SHiPPlusPlusPolicy if plus else SHiPPolicy
    policy = cls(signature_bits=2, num_sampled_sets=16)
    ref_stats, ref_events = _ref(stream, config, policy)
    fast_stats, fast_events = _fast(stream, config, policy)
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)


# -- DRRIP leader-set assignment ----------------------------------------------


@pytest.mark.parametrize(
    "num_sets,assoc,leaders",
    [
        (4, 2, 32),   # leaders clamped to num_sets // 2
        (8, 2, 8),    # stride 1: adjacent SRRIP/BRRIP leaders
        (16, 4, 32),  # clamp + wraparound in the leader stride walk
        (64, 4, 16),  # sparse leaders, most sets followers
    ],
)
def test_drrip_leader_assignment_parity_across_geometries(num_sets, assoc, leaders):
    """Leader-set roles (and the PSEL duel they drive) must match the
    reference's attach() assignment on clamped and overlapping
    geometries, not just the default 2048x16 LLC."""
    spec = CaseSpec(
        family="set-camp",
        seed=7,
        length=1200,
        num_sets=num_sets,
        associativity=assoc,
    )
    stream = generate_stream(spec)
    config = spec_config(spec)
    policy = DRRIPPolicy(num_leader_sets=leaders, seed=0)
    ref_stats, ref_events = _ref(stream, config, policy)
    fast_stats, fast_events = _fast(stream, config, policy)
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)


# -- MPPPB --------------------------------------------------------------------

#: Kernel parameters of a default MPPPBPolicy (as fast_path_kernel).
_MPPPB_DEFAULTS = dict(
    table_bits=12,
    theta=68,
    max_rrpv=7,
    num_sampler_sets=64,
    sampler_assoc=16,
    bypass_threshold=50,
    dead_threshold=10,
)


def _stream(lines, pcs=None, kinds=None, offsets=None) -> LLCStream:
    """An LLC stream over the given line numbers (loads unless ``kinds``)."""
    n = len(lines)
    lines = np.asarray(lines, dtype=np.uint64)
    addresses = lines * np.uint64(64)
    if offsets is not None:
        addresses = addresses + np.asarray(offsets, dtype=np.uint64)
    return LLCStream(
        name="edge",
        pcs=np.asarray(
            pcs if pcs is not None else [0x400000 + 4 * (i % 5) for i in range(n)],
            dtype=np.uint64,
        ),
        addresses=addresses,
        kinds=np.asarray(kinds if kinds is not None else [0] * n, dtype=np.int8),
        cores=np.zeros(n, dtype=np.int16),
        line_size=64,
        source_accesses=n,
        source_instructions=4 * n,
        l1_hits=0,
        l2_hits=0,
    )


def _llc(num_sets: int, assoc: int) -> CacheConfig:
    return CacheConfig("LLC", num_sets * assoc * 64, assoc, latency=26)


def _flat_weights(policy: MPPPBPolicy) -> list[int]:
    return [w for feature in policy.predictor.features for w in feature.weights]


def _mpppb_kernel(config, events, stream, **overrides):
    kernel = fp._MPPPBKernel(config, **{**_MPPPB_DEFAULTS, **overrides})
    kernel.feed(stream, events)
    return kernel


def test_mpppb_feature_rows_match_reference_hashes_from_stream_start():
    """The first accesses see a global history shorter than 8 PCs; every
    row's nine indices must equal the reference's per-feature ``_mix``
    of the live (short) history, and the tenth column the sampler tag."""
    rng = np.random.default_rng(4)
    n = 40
    pcs = rng.integers(0, 2**63, size=n, dtype=np.uint64)
    addresses = rng.integers(0, 2**40, size=n, dtype=np.uint64)
    rows = fp._mpppb_features(
        pcs, addresses, np.zeros(8, dtype=np.uint64), 12
    ).tolist()
    predictor = MPPPBPolicy().predictor
    history: deque[int] = deque(maxlen=8)
    for j in range(n):
        pc, address = int(pcs[j]), int(addresses[j])
        hist = tuple(history)
        want = [
            (f << 12) + _mix(feature.extract(pc, hist, address), feature.salt, 12)
            for f, feature in enumerate(predictor.features)
        ]
        assert rows[j] == want + [address >> 6], f"row {j} (history {len(hist)})"
        history.appendleft(pc)


def test_mpppb_parity_with_weights_clamped_at_both_ends():
    """A training gate wider than any reachable sum keeps every sampler
    event updating; one PC's reused hot lines march its weights to -128
    while another PC's one-shot stream marches its weights to +127."""
    hot = [0x400100] * 4
    lines, pcs = [], []
    for i in range(6000):
        lines.append(i % 8)              # 8 hot lines: reused (friendly)
        pcs.append(hot[i % 4])
        lines.append(1000 + i)           # never reused (dead)
        pcs.append(0x400900)
    stream = _stream(lines, pcs)
    config = _llc(4, 4)
    policy = MPPPBPolicy(theta=5000)
    ref_stats, ref_events = _ref(stream, config, policy)
    weights = _flat_weights(policy)
    assert max(weights) == 127 and min(weights) == -128, (
        "stream failed to drive weights into both clamps"
    )
    events: list = []
    kernel = _mpppb_kernel(config, events, stream, theta=5000)
    assert kernel.weights == weights
    assert events == ref_events
    assert _counters(kernel.finish()) == _counters(ref_stats)


@pytest.mark.parametrize(
    "num_sets,assoc,sampler_sets",
    [
        (16, 4, 64),   # fewer sets than sampler sets: every set sampled
        (64, 2, 64),   # exactly one sampler per set
        (256, 2, 64),  # stride 4
        (128, 4, 24),  # stride 5, sampled sets not a divisor pattern
    ],
)
def test_mpppb_sampled_set_stride_parity(num_sets, assoc, sampler_sets):
    spec = CaseSpec(
        family="zipf", seed=3, length=3000, num_sets=num_sets, associativity=assoc
    )
    stream = generate_stream(spec)
    config = spec_config(spec)
    policy = MPPPBPolicy(num_sampler_sets=sampler_sets)
    ref_stats, ref_events = _ref(stream, config, policy)
    events: list = []
    kernel = _mpppb_kernel(config, events, stream, num_sampler_sets=sampler_sets)
    sampled = {s: i for s, i in enumerate(kernel.sampled) if i >= 0}
    assert sampled == policy._sampled_sets
    assert kernel.weights == _flat_weights(policy)
    assert events == ref_events
    assert _counters(kernel.finish()) == _counters(ref_stats)


def test_mpppb_chunk_boundaries_split_the_history():
    """Chunks of 1..7 accesses (writebacks included, so demand rows and
    accesses drift apart) cut the 8-PC history at every offset; the
    carried history must make chunked replay equal one shot, event by
    event and weight by weight — also across a pickle round trip."""
    spec = CaseSpec(family="mix", seed=8, length=1500, num_sets=16, associativity=4)
    stream = generate_stream(spec)
    assert (stream.kinds == LLCStream.KIND_WRITEBACK).any()
    config = spec_config(spec)
    whole_events: list = []
    whole = _mpppb_kernel(config, whole_events, stream)
    chunked = fp._MPPPBKernel(config, **_MPPPB_DEFAULTS)
    events: list = []
    start, size = 0, 1
    while start < len(stream):
        stop = min(start + size, len(stream))
        chunked.feed(_View(stream, start, stop), events)
        if start < 40:
            chunked = pickle.loads(pickle.dumps(chunked))
        start, size = stop, size % 7 + 1
    assert events == whole_events
    assert chunked.weights == whole.weights
    assert chunked.finish() == whole.finish()


def test_mpppb_never_bypasses_while_the_set_has_an_invalid_way():
    """With a bypass threshold every prediction clears, a full set
    bypasses every demand miss — but a set with an invalid way must
    still fill it (the reference checks for an invalid way first)."""
    spec = CaseSpec(family="scan", seed=2, length=800, num_sets=8, associativity=4)
    stream = generate_stream(spec)
    config = spec_config(spec)
    policy = MPPPBPolicy(bypass_threshold=-10_000)
    ref_stats, ref_events = _ref(stream, config, policy)
    events: list = []
    kernel = _mpppb_kernel(config, events, stream, bypass_threshold=-10_000)
    assert events == ref_events
    assert _counters(kernel.finish()) == _counters(ref_stats)
    sets = (stream.addresses // np.uint64(64) % np.uint64(8)).astype(int).tolist()
    fills = [0] * 8
    for s, kind, (hit, bypassed, way, _, _) in zip(sets, stream.kinds.tolist(), events):
        if hit:
            continue
        if fills[s] < 4:
            assert not bypassed, "bypassed although the set had an invalid way"
            fills[s] += 1
        elif kind != LLCStream.KIND_WRITEBACK:
            assert bypassed, "a full set must bypass under this threshold"
    assert ref_stats.bypasses > 0


# -- Belady MIN -----------------------------------------------------------------


def _min_events(stream, config, policy=None):
    policy = policy or BeladyPolicy.from_stream(stream)
    ref_events: list = []
    ref_stats = reference_replay(stream, policy, config, record=ref_events)
    fast_events: list = []
    fast_stats = replay(stream, policy, config, engine="fast", record=fast_events)
    return ref_stats, ref_events, fast_stats, fast_events


def test_min_ties_on_never_used_lines_evict_the_first_way():
    """a, b, a, b leaves both ways with next use INF; c then evicts the
    *first* way holding the (tied) maximum, and a never-reused line
    bypasses even though nothing else competes for the set."""
    a, b, c, d = 0, 1, 2, 3
    stream = _stream([d, a, b, a, b, c, c])
    config = _llc(1, 2)
    ref_stats, ref_events, fast_stats, fast_events = _min_events(stream, config)
    assert fast_events == ref_events
    assert fast_events[0] == (0, 1, -1, -1, 0)  # d: INF next use, empty set
    assert fast_events[5] == (0, 0, 0, a, 0)    # tie a/b: way 0 (a) goes
    assert _counters(fast_stats) == _counters(ref_stats)


def test_min_writeback_hit_refreshes_next_use():
    """The writeback hit on ``a`` moves its next use from 2 to 7, which
    makes ``a`` (not ``b``) the furthest line when ``c`` arrives; a
    kernel that ignored writeback hits would evict ``b``."""
    a, b, c, x = 0, 1, 2, 3
    stream = _stream([a, b, a, c, x, c, b, a], kinds=[0, 0, 2, 0, 0, 0, 0, 0])
    config = _llc(1, 2)
    ref_stats, ref_events, fast_stats, fast_events = _min_events(stream, config)
    assert fast_events == ref_events
    assert fast_events[3] == (0, 0, 0, a, 1)  # evicts the (dirty) a
    assert _counters(fast_stats) == _counters(ref_stats)


def test_min_stream_longer_than_next_use_raises():
    spec = CaseSpec(family="thrash", seed=1, length=300, num_sets=4, associativity=2)
    stream = generate_stream(spec)
    config = spec_config(spec)
    short = BeladyPolicy(stream.lines()[:-5].astype(np.int64))
    with pytest.raises(IndexError, match="beyond the pre-recorded stream"):
        reference_replay(stream, short, config)
    with pytest.raises(IndexError, match="beyond the pre-recorded stream"):
        replay(stream, short, config, engine="fast")
    kernel = make_stream_kernel(short, config)
    kernel.feed(_View(stream, 0, 200))
    with pytest.raises(IndexError):
        kernel.feed(_View(stream, 200, len(stream)))


@pytest.mark.parametrize("chunk", [1, 7, 128])
def test_min_chunked_feed_matches_one_shot(chunk):
    spec = CaseSpec(family="mix", seed=6, length=1200, num_sets=8, associativity=4)
    stream = generate_stream(spec)
    config = spec_config(spec)
    policy = BeladyPolicy.from_stream(stream)
    whole_events: list = []
    whole = replay(stream, policy, config, engine="fast", record=whole_events)
    kernel = make_stream_kernel(policy, config, engine="fast")
    events: list = []
    for start in range(0, len(stream), chunk):
        kernel.feed(_View(stream, start, min(start + chunk, len(stream))), events)
    assert events == whole_events
    assert kernel.finish() == whole


class _View:
    """Column slice duck-typing the kernel feed contract."""

    def __init__(self, stream, start, stop):
        self.name = stream.name
        self.pcs = stream.pcs[start:stop]
        self.addresses = stream.addresses[start:stop]
        self.kinds = stream.kinds[start:stop]
        self.cores = stream.cores[start:stop]

    def __len__(self):
        return len(self.pcs)
