"""``ShardEngine.handle`` prediction payloads, pinned per policy family.

The shard asks the policy once (``ReplacementPolicy.predict``); these
literals pin what each family answers on ``access`` and ``predict``
messages after a deterministic warm-up: nothing for a predictor-less
policy (LRU), Hawkeye's counter-table verdict, Glider's ISVM verdict
over the core's PCHR, and the frd head's reuse-distance bucket.
"""

from __future__ import annotations

import pytest

from repro.cache.config import CacheConfig
from repro.serve.shard import ShardEngine


def _messages():
    for i in range(400):
        yield {
            "id": f"a{i}",
            "kind": "access",
            "pc": 0x400 + 8 * (i % 7),
            "address": 64 * ((i * 5) % 97),
            "core": i % 2,
            "write": i % 11 == 0,
        }
    for i in range(4):
        yield {
            "id": f"p{i}",
            "kind": "predict",
            "pc": 0x400 + 8 * i,
            "address": 64 * (3 * i),
            "core": i % 2,
        }


def _glider(friendly, confidence, weight_sum):
    return {"friendly": friendly, "confidence": confidence, "weight_sum": weight_sum}


def _frd(bucket, distance):
    return {"friendly": True, "bucket": bucket, "distance": distance}


#: Payloads of the last two ``access`` and all four ``predict`` responses.
EXPECTED = {
    "lru": [None] * 6,
    "hawkeye": [
        {"friendly": False},
        {"friendly": True},
        {"friendly": True},
        {"friendly": False},
        {"friendly": False},
        {"friendly": False},
    ],
    "glider": [
        _glider(True, "friendly_low", 0),
        _glider(False, "averse", -16),
        _glider(False, "averse", -12),
        _glider(True, "friendly_low", 6),
        _glider(False, "averse", -6),
        _glider(False, "averse", -9),
    ],
    "frd": [_frd(2, 6)] * 4 + [_frd(0, 1), _frd(2, 6)],
}


@pytest.mark.parametrize("policy", sorted(EXPECTED))
def test_handle_pins_prediction_payload(policy):
    engine = ShardEngine(0, policy, {}, CacheConfig("LLC", 16 * 4 * 64, 4, latency=26))
    responses = [engine.handle(msg) for msg in _messages()]
    assert all(r["ok"] for r in responses)
    tail = responses[-6:]
    assert [r["kind"] for r in tail] == ["access"] * 2 + ["predict"] * 4
    assert [r["prediction"] for r in tail] == EXPECTED[policy]


def test_a_raising_predictor_degrades_to_no_prediction():
    engine = ShardEngine(0, "hawkeye", {}, CacheConfig("LLC", 16 * 4 * 64, 4, latency=26))

    def broken(pc, address, core):
        raise RuntimeError("predictor failure")

    engine.policy.predict = broken
    msg = {"id": "x", "kind": "predict", "pc": 4, "address": 64, "core": 0}
    response = engine.handle(msg)
    assert response["ok"] and response["prediction"] is None
