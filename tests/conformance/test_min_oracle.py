"""Belady-MIN kernel against two independent references.

The MIN fast kernel must agree access-by-access with the reference
engine's ``BeladyPolicy`` (:func:`~repro.cache.fastsim.verify_min_parity`)
*and* reach exactly the hit count of
:func:`~repro.optgen.belady.simulate_belady`, a brute-force MIN that
shares no replay code with either engine.  Both checks run on every
generator family, in every fuzz case (:func:`run_case`) and on every
corpus entry; the tests below also prove each gate can fail.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.cache.fastsim as fastsim
import repro.conformance.differential as differential
from repro.cache.fastsim import EngineParityError, replay, verify_min_parity
from repro.conformance.differential import check_min_kernel, run_case
from repro.conformance.generators import (
    GENERATOR_FAMILIES,
    CaseSpec,
    generate_stream,
    spec_config,
)
from repro.conformance.shrink import failure_predicate
from repro.optgen.belady import simulate_belady
from repro.policies.belady_policy import BeladyPolicy


def _case(family: str, num_sets: int = 16, assoc: int = 4, seed: int = 3):
    spec = CaseSpec(
        family=family, seed=seed, length=1500, num_sets=num_sets,
        associativity=assoc,
    )
    return generate_stream(spec), spec_config(spec)


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
@pytest.mark.parametrize("geometry", [(16, 4), (4, 8), (64, 1)], ids=str)
def test_min_kernel_hits_equal_brute_force_min(family, geometry):
    stream, config = _case(family, *geometry)
    kernel = replay(stream, BeladyPolicy.from_stream(stream), config, engine="fast")
    oracle = simulate_belady(
        stream.lines().astype(np.int64), config.num_sets, config.associativity
    )
    assert kernel.hits == oracle.num_hits
    verify_min_parity(stream, config)
    assert check_min_kernel(stream, config) == []


def test_run_case_counts_the_min_check():
    spec = CaseSpec(family="thrash", seed=4, length=400)
    with_min = run_case(spec, policies=("lru",))
    assert with_min.ok
    # lru parity + lru MIN bound + MIN kernel + OPTgen cross-validation.
    assert with_min.checks == 4


def _lru_kernel(cfg, next_use):
    return fastsim._KERNELS["lru"](cfg)


def test_min_parity_gate_fails_on_a_wrong_kernel(monkeypatch):
    stream, config = _case("pointer-chase")
    monkeypatch.setitem(fastsim._KERNELS, "belady", _lru_kernel)
    with pytest.raises(EngineParityError) as error:
        verify_min_parity(stream, config)
    assert error.value.policy == "belady"
    assert error.value.set_state is not None
    problems = check_min_kernel(stream, config)
    assert len(problems) == 1 and problems[0].startswith("min-parity:")
    assert failure_predicate("min-parity", None, config)(stream)
    result = run_case(CaseSpec(family="pointer-chase", seed=3), policies=("lru",))
    assert [d.kind for d in result.divergences] == ["min-parity"]


def test_min_oracle_gate_fails_on_a_miscount(monkeypatch):
    stream, config = _case("zipf")
    real = differential.verify_min_parity

    def overcounting(stream, config):
        ref, fast = real(stream, config)
        fast.demand_hits += 1
        return ref, fast

    monkeypatch.setattr(differential, "verify_min_parity", overcounting)
    problems = check_min_kernel(stream, config)
    assert len(problems) == 1 and problems[0].startswith("min-oracle:")
    assert failure_predicate("min-oracle", None, config)(stream)
