"""Unit tests for the forward reuse-distance family (frd/mustache/deap)."""

import pickle

from repro.cache import (
    AccessType,
    CacheConfig,
    CacheRequest,
    SetAssociativeCache,
)
from repro.policies import (
    DEAPPolicy,
    FRDPolicy,
    MustachePolicy,
    SetFRDPredictor,
    bucket_midpoint,
    quantize_distance,
)
from repro.policies.frd import BUCKET_KEY, DEAD_BUCKET, NUM_BUCKETS, TOUCH_KEY


def req(pc=1, line=0, kind=AccessType.LOAD):
    return CacheRequest(pc, line * 64, kind)


def new_cache(policy, sets=4, ways=4):
    return SetAssociativeCache(CacheConfig("t", sets * ways * 64, ways), policy)


class TestQuantizer:
    def test_log2_buckets(self):
        assert quantize_distance(1) == 0
        assert quantize_distance(2) == 1
        assert quantize_distance(3) == 1
        assert quantize_distance(4) == 2
        assert quantize_distance(1 << 30) == NUM_BUCKETS - 1

    def test_clamps_below_one(self):
        assert quantize_distance(0) == 0
        assert quantize_distance(-3) == 0

    def test_midpoint_of_dead_bucket_is_beyond_all(self):
        assert bucket_midpoint(DEAD_BUCKET) > bucket_midpoint(DEAD_BUCKET - 1)


class TestSetFRDPredictor:
    def test_untrained_predicts_imminent_reuse(self):
        predictor = SetFRDPredictor()
        assert predictor.predict(pc=1, address=64) == 0

    def test_perceptron_converges_on_a_stable_label(self):
        predictor = SetFRDPredictor()
        for _ in range(8):
            predictor.train(pc=1, address=64, bucket=5)
        assert predictor.predict(pc=1, address=64) == 5

    def test_weights_saturate(self):
        predictor = SetFRDPredictor()
        for _ in range(200):
            predictor.train(pc=1, address=64, bucket=DEAD_BUCKET)
        rows = predictor._rows(1, 64)
        assert all(abs(w) <= 31 for row in rows for w in row)


class TestFRDPolicy:
    def test_learns_realized_reuse_distance(self):
        policy = FRDPolicy()
        cache = new_cache(policy, sets=1, ways=4)
        # Lines 0..3 cycle: each reuse distance is 4 set-local accesses.
        for _ in range(20):
            for line in range(4):
                cache.access(req(pc=line, line=line * 1))
        assert policy.prediction_checks > 0
        assert policy.online_accuracy > 0.8
        assert policy.realized_hist[quantize_distance(4)] > 0

    def test_evicts_the_most_distant_prediction(self):
        policy = FRDPolicy()
        cache = new_cache(policy, sets=1, ways=2)
        cache.access(req(pc=1, line=0))
        cache.access(req(pc=2, line=1))
        # Force line 1's prediction distant, keep line 0 near.
        ways = cache.sets[0]
        near, far = sorted(ways, key=lambda l: l.tag)
        near.policy_state[BUCKET_KEY] = 0
        far.policy_state[BUCKET_KEY] = DEAD_BUCKET
        near.policy_state[TOUCH_KEY] = far.policy_state[TOUCH_KEY] = 2
        result = cache.access(req(pc=3, line=2))
        assert result.evicted_tag == far.tag or not result.hit

    def test_writeback_fill_is_inserted_distant(self):
        policy = FRDPolicy()
        cache = new_cache(policy, sets=1, ways=2)
        cache.access(req(pc=1, line=0, kind=AccessType.WRITEBACK))
        line = next(l for l in cache.sets[0] if l.valid)
        assert line.policy_state[BUCKET_KEY] == DEAD_BUCKET

    def test_reset_clears_learned_state(self):
        policy = FRDPolicy()
        cache = new_cache(policy)
        for i in range(40):
            cache.access(req(pc=i % 3, line=i % 8))
        assert policy._sets
        cache.flush()
        assert not policy._sets and policy.prediction_checks == 0

    def test_introspect_is_json_safe(self):
        import json

        policy = FRDPolicy()
        cache = new_cache(policy)
        for i in range(30):
            cache.access(req(pc=i % 3, line=i % 6))
        json.dumps(policy.introspect())

    def test_predict_reuse_has_no_side_effects(self):
        policy = FRDPolicy()
        cache = new_cache(policy)
        for i in range(30):
            cache.access(req(pc=i % 3, line=i % 6))
        before = pickle.dumps(policy._sets)
        first = policy.predict(2, 6 * 64, 0)
        assert policy.predict(2, 6 * 64, 0) == first
        assert pickle.dumps(policy._sets) == before

    def test_policy_pickles_with_state(self):
        policy = FRDPolicy()
        cache = new_cache(policy)
        for i in range(30):
            cache.access(req(pc=i % 3, line=i % 6))
        cache.policy = None  # pickle the policy alone, like snapshots do
        policy.cache = None
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.prediction_checks == policy.prediction_checks
        assert sorted(clone._sets) == sorted(policy._sets)


class TestMustachePolicy:
    def test_learns_periodic_gap(self):
        policy = MustachePolicy()
        cache = new_cache(policy, sets=1, ways=4)
        for _ in range(12):
            for line in range(3):
                cache.access(req(pc=7, line=line))
        state = policy._state(0)
        assert state.gaps[policy._pc_index(7)] == 3
        resident = next(l for l in cache.sets[0] if l.valid)
        # Next access extrapolates one learned gap past the last touch.
        assert (
            policy.predict_next(0, resident) - resident.policy_state["mu_last"]
        ) % 3 == 0

    def test_prefetch_hint_on_hot_eviction(self):
        policy = MustachePolicy()
        cache = new_cache(policy, sets=1, ways=2)
        # Three lines with gap 3 fighting over 2 ways: every eviction
        # displaces a line predicted to return within the horizon.
        for _ in range(15):
            for line in range(3):
                cache.access(req(pc=5, line=line))
        assert policy.prefetch_hints > 0
        assert policy.introspect()["prefetch_hints"] == policy.prefetch_hints
        assert policy.recent_hints

    def test_unknown_lines_rank_distant(self):
        policy = MustachePolicy()
        cache = new_cache(policy, sets=1, ways=2)
        # Line 0 establishes a tight gap; line 1 is a one-shot scan line.
        cache.access(req(pc=1, line=0))
        cache.access(req(pc=1, line=0))
        cache.access(req(pc=9, line=1))
        result = cache.access(req(pc=9, line=2))
        # The never-reused scan line is the victim, not the hot line.
        assert result.evicted_tag == cache.tag(1 * 64)

    def test_reset_clears_state(self):
        policy = MustachePolicy()
        cache = new_cache(policy)
        for i in range(20):
            cache.access(req(pc=2, line=i % 5))
        cache.flush()
        assert not policy._sets and policy.prefetch_hints == 0


class TestDEAPPolicy:
    def test_cold_cache_admits_until_evidence(self):
        """An untrained predictor ties toward bucket 0, so the first
        full-set miss is admitted; bypass needs real dead-block
        evidence (evictions-without-reuse) first."""
        policy = DEAPPolicy()
        cache = new_cache(policy, sets=1, ways=2)
        for line in range(3):
            result = cache.access(req(pc=1, line=line))
            assert not result.bypassed
        assert policy.admissions == 3 and policy.bypasses == 0

    def test_bypasses_learned_dead_insertions(self):
        policy = DEAPPolicy()
        cache = new_cache(policy, sets=1, ways=2)
        # A long one-shot scan from a single PC: every line dies without
        # reuse, training the PC dead; eventually admissions stop.
        for line in range(64):
            cache.access(req(pc=3, line=line))
        assert policy.bypasses > 0
        assert cache.stats.bypasses == policy.bypasses

    def test_writebacks_are_never_bypassed(self):
        policy = DEAPPolicy()
        cache = new_cache(policy, sets=1, ways=2)
        for line in range(64):
            cache.access(req(pc=3, line=line))
        assert policy.bypasses > 0
        result = cache.access(req(pc=3, line=99, kind=AccessType.WRITEBACK))
        assert not result.bypassed and cache.probe(99 * 64)

    def test_predict_reuse_reports_admission(self):
        policy = DEAPPolicy()
        cache = new_cache(policy, sets=1, ways=2)
        for line in range(64):
            cache.access(req(pc=3, line=line))
        prediction = policy.predict(3, 999 * 64 * 1, 0)
        assert prediction["admit"] == (prediction["bucket"] < policy.bypass_bucket)
