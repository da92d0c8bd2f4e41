"""Registry-drift guard: fastsim must classify every registry policy.

The conformance fuzzer derives its policy list from
``FAST_PATH_POLICIES + REFERENCE_ONLY_POLICIES`` (deliberately *not*
from the registry), so this test is the single point that fails when a
new policy is registered without deciding its engine story.  Fix a
failure here by either adding a fast kernel (and FAST_PATH_POLICIES
entry) or appending the name to REFERENCE_ONLY_POLICIES in fastsim.py —
both routes put the policy under differential fuzz coverage.
"""

from __future__ import annotations

import pytest

from repro.cache.fastsim import FAST_PATH_POLICIES, REFERENCE_ONLY_POLICIES
from repro.conformance.differential import default_policies
from repro.policies.lru import LRUPolicy
from repro.policies.registry import (
    _FACTORIES,
    available_policies,
    register_policy,
)


def test_every_registry_policy_is_classified():
    covered = set(FAST_PATH_POLICIES) | set(REFERENCE_ONLY_POLICIES)
    missing = sorted(set(available_policies()) - covered)
    assert not missing, (
        f"policies registered but unclassified in fastsim.py: {missing} — "
        "add a fast kernel to FAST_PATH_POLICIES or list them in "
        "REFERENCE_ONLY_POLICIES so the conformance fuzzer covers them"
    )


def test_no_stale_classifications():
    """Names listed in fastsim must still exist in the registry."""
    registered = set(available_policies())
    stale = sorted(
        (set(FAST_PATH_POLICIES) | set(REFERENCE_ONLY_POLICIES)) - registered
    )
    assert not stale, f"fastsim lists policies no longer registered: {stale}"


def test_classifications_are_disjoint():
    overlap = sorted(set(FAST_PATH_POLICIES) & set(REFERENCE_ONLY_POLICIES))
    assert not overlap, f"policies in both engine classes: {overlap}"


def test_fuzzer_default_covers_whole_registry():
    assert set(default_policies()) == set(available_policies())


def test_reuse_distance_family_is_reference_classified():
    """The frd family ships without fast kernels: its per-set predictor
    heads live entirely in hook-level state, so the reference engine
    (plus invariant checks) is its conformance story."""
    missing = sorted({"frd", "mustache", "deap"} - set(REFERENCE_ONLY_POLICIES))
    assert not missing, (
        f"reuse-distance policies missing from REFERENCE_ONLY_POLICIES: "
        f"{missing}"
    )


def test_unclassified_registration_fails_loudly():
    """Registering a policy without a conformance classification must
    trip the drift guard — the failure mode this file exists to catch
    cannot itself regress silently."""
    register_policy("totally-unclassified", LRUPolicy)
    try:
        assert "totally-unclassified" in available_policies()
        assert "totally-unclassified" not in default_policies()
        with pytest.raises(AssertionError, match="unclassified"):
            test_every_registry_policy_is_classified()
        with pytest.raises(AssertionError):
            test_fuzzer_default_covers_whole_registry()
    finally:
        _FACTORIES.pop("totally-unclassified")


def test_learned_policies_stay_fast_pathed():
    """The paper's evaluated policies must not silently lose their
    kernels — demoting one to REFERENCE_ONLY_POLICIES is a deliberate
    (and benchmark-visible) decision, not a refactor side effect."""
    demoted = sorted(
        {"drrip", "ship", "ship++", "hawkeye", "glider", "mpppb"}
        - set(FAST_PATH_POLICIES)
    )
    assert not demoted, (
        f"learned policies missing from FAST_PATH_POLICIES: {demoted} — "
        "their kernels live in repro.cache.fastpolicies; see "
        "EXPERIMENTS.md 'Performance' for the fast-path recipe"
    )
