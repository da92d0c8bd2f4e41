"""Kernel bindings: fast-path dispatch derived from ``fast_kernel()``.

Each policy class with a flat kernel declares it once
(:meth:`ReplacementPolicy.fast_kernel`); :func:`fast_path_kernel` and
the fast/reference split are derived from those declarations.  These
tests hold the derivation to the hand-written dispatch it replaced:
the same kernel and parameters for every registry name, exact-type
instance dispatch, and name-only dispatch for the learned policies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import fastsim
from repro.cache.fastsim import (
    FAST_PATH_POLICIES,
    REFERENCE_ONLY_POLICIES,
    fast_path_kernel,
    replay,
    verify_parity,
)
from repro.conformance.generators import CaseSpec, generate_stream, spec_config
from repro.core.glider import GliderConfig, GliderPolicy
from repro.policies.belady_policy import BeladyPolicy
from repro.policies.deap import DEAPPolicy
from repro.policies.frd import FRDPolicy
from repro.policies.hawkeye import HawkeyePolicy
from repro.policies.lru import LRUPolicy, MRUPolicy
from repro.policies.mpppb import MPPPBPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.registry import _FACTORIES
from repro.policies.rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.policies.ship import SHiPPlusPlusPolicy, SHiPPolicy

#: The hand-written name -> (kernel, params) table that the bindings
#: replaced, frozen verbatim.
GOLDEN = {
    "lru": ("lru", {}),
    "mru": ("mru", {}),
    "random": ("random", {"seed": 0}),
    "srrip": ("rrip", {"max_rrpv": 3, "long_prob": None, "seed": 0}),
    "brrip": ("rrip", {"max_rrpv": 3, "long_prob": 1 / 32, "seed": 0}),
    "drrip": (
        "drrip",
        {
            "max_rrpv": 3,
            "num_leader_sets": 32,
            "psel_max": 1023,
            "long_prob": 1 / 32,
            "seed": 0,
        },
    ),
    "ship": (
        "ship",
        {
            "plus": False,
            "max_rrpv": 3,
            "signature_bits": 14,
            "counter_max": 7,
            "num_sampled_sets": 64,
        },
    ),
    "ship++": (
        "ship",
        {
            "plus": True,
            "max_rrpv": 3,
            "signature_bits": 14,
            "counter_max": 7,
            "num_sampled_sets": 64,
        },
    ),
    "hawkeye": (
        "hawkeye",
        {
            "table_bits": 11,
            "counter_max": 7,
            "num_sampled_sets": 64,
            "window_factor": 8,
        },
    ),
    "glider": (
        "glider",
        {
            "k": 5,
            "table_bits": 11,
            "weight_hash_bits": 4,
            "threshold": 30,
            "adaptive": False,
            "adapt_interval": 512,
            "num_sampled_sets": 64,
            "window_factor": 8,
            "tracker_ways": None,
            "detrain": True,
            "confidence_insertion": True,
        },
    ),
    "mpppb": (
        "mpppb",
        {
            "table_bits": 12,
            "theta": 68,
            "max_rrpv": 7,
            "num_sampler_sets": 64,
            "sampler_assoc": 16,
            "bypass_threshold": 50,
            "dead_threshold": 10,
        },
    ),
}

#: Classes whose instances keep trained state: fast by registry name only.
NAME_ONLY = (
    DRRIPPolicy,
    SHiPPolicy,
    SHiPPlusPlusPolicy,
    HawkeyePolicy,
    GliderPolicy,
    MPPPBPolicy,
)
#: Classes whose exact instances take their kernel.
INSTANCE_FAST = (
    LRUPolicy,
    MRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    BRRIPPolicy,
    BeladyPolicy,
)


def _make(cls):
    return cls(np.arange(8)) if issubclass(cls, BeladyPolicy) else cls()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_name_dispatch_matches_the_frozen_table(name):
    assert fast_path_kernel(name) == GOLDEN[name]


def test_split_is_the_registry_partition():
    assert FAST_PATH_POLICIES == tuple(GOLDEN)
    assert REFERENCE_ONLY_POLICIES == ("sdbp", "perceptron", "frd", "mustache", "deap")


@pytest.mark.parametrize("cls", INSTANCE_FAST, ids=lambda c: c.__name__)
def test_exact_instances_take_their_kernel(cls):
    policy = _make(cls)
    assert fast_path_kernel(policy) == policy.fast_kernel() is not None


@pytest.mark.parametrize("cls", NAME_ONLY, ids=lambda c: c.__name__)
def test_learned_instances_take_the_reference_engine(cls):
    policy = cls()
    assert policy.fast_kernel() is not None
    assert fast_path_kernel(policy) is None


@pytest.mark.parametrize(
    "cls", INSTANCE_FAST + NAME_ONLY + (FRDPolicy, DEAPPolicy), ids=lambda c: c.__name__
)
def test_subclass_without_its_own_binding_resolves_to_none(cls, monkeypatch):
    """Exact type only: BRRIP/DRRIP (from SRRIP), SHiP++ (from SHiP) and
    DEAP (from FRD) each resolve by their own declaration, and any
    subclass that declares none takes the reference engine — as an
    instance and under a registry name alike."""
    sub = type(f"Sub{cls.__name__}", (cls,), {})
    assert fast_path_kernel(_make(sub)) is None
    if cls is not BeladyPolicy:
        monkeypatch.setitem(_FACTORIES, "sub-under-test", sub)
        assert fast_path_kernel("sub-under-test") is None


def test_subclass_with_its_own_binding_takes_it():
    class Declared(LRUPolicy):
        def fast_kernel(self):
            return "mru", {}

    assert fast_path_kernel(Declared()) == ("mru", {})


def test_unsupported_configuration_takes_the_reference_engine(monkeypatch):
    """The mpppb kernel fixes the history at 8 PCs: any other length
    must resolve to the reference engine, even by registry name."""
    assert MPPPBPolicy(history_length=4).fast_kernel() is None
    monkeypatch.setitem(_FACTORIES, "mpppb-h4", lambda: MPPPBPolicy(history_length=4))
    assert fast_path_kernel("mpppb-h4") is None
    assert "mpppb-h4" in fastsim.REFERENCE_ONLY_POLICIES
    spec = CaseSpec(family="zipf", seed=2, length=600, num_sets=16, associativity=4)
    stream, config = generate_stream(spec), spec_config(spec)
    with pytest.raises(ValueError, match="no fast-path kernel"):
        replay(stream, "mpppb-h4", config, engine="fast")
    assert replay(stream, "mpppb-h4", config) == replay(
        stream, MPPPBPolicy(history_length=4), config, engine="reference"
    )


#: Non-default constructions: each binding must carry every parameter
#: its kernel depends on, or parity breaks.
NON_DEFAULT = {
    "random": lambda: RandomPolicy(seed=7),
    "srrip": lambda: SRRIPPolicy(bits=3),
    "brrip": lambda: BRRIPPolicy(bits=3, long_probability=0.25, seed=5),
    "drrip": lambda: DRRIPPolicy(
        bits=3, num_leader_sets=4, psel_bits=6, long_probability=0.25, seed=3
    ),
    "ship": lambda: SHiPPolicy(
        rrpv_bits=3, signature_bits=6, counter_bits=2, num_sampled_sets=4
    ),
    "ship++": lambda: SHiPPlusPlusPolicy(
        rrpv_bits=3, signature_bits=6, counter_bits=2, num_sampled_sets=4
    ),
    "hawkeye": lambda: HawkeyePolicy(table_bits=6, num_sampled_sets=4, window_factor=2),
    "glider": lambda: GliderPolicy(
        GliderConfig(
            k=3,
            table_bits=6,
            weight_hash_bits=3,
            threshold=100,
            adaptive_threshold=True,
            num_sampled_sets=4,
            window_factor=2,
            tracker_ways=3,
            detrain_on_eviction=False,
            confidence_insertion=False,
        )
    ),
    "mpppb": lambda: MPPPBPolicy(
        table_bits=8,
        theta=20,
        rrpv_bits=2,
        num_sampler_sets=4,
        sampler_assoc=4,
        bypass_threshold=30,
        dead_threshold=6,
    ),
}


@pytest.mark.parametrize("name", sorted(NON_DEFAULT))
def test_bindings_carry_non_default_parameters(name, monkeypatch):
    factory = NON_DEFAULT[name]
    assert factory().fast_kernel() != GOLDEN[name]
    monkeypatch.setitem(_FACTORIES, "custom-under-test", factory)
    spec = CaseSpec(family="mix", seed=9, length=1500, num_sets=16, associativity=4)
    verify_parity(generate_stream(spec), "custom-under-test", spec_config(spec))
