"""Registry guard: engine classification decisions that must not drift.

``FAST_PATH_POLICIES`` and ``REFERENCE_ONLY_POLICIES`` are derived from
the kernel bindings the policy classes declare (``fast_kernel()``), so
they always partition the registry.  What can still go wrong is a
binding naming no kernel, a kernel no class binds, a binding silently
appearing or disappearing, or the fuzzer not covering every registered
policy; those are the checks here.
"""

from __future__ import annotations

from repro.cache.fastsim import (
    _KERNELS,
    FAST_PATH_POLICIES,
    REFERENCE_ONLY_POLICIES,
    fast_path_kernel,
)
from repro.conformance.differential import default_policies
from repro.policies.belady_policy import BeladyPolicy
from repro.policies.registry import available_policies


def test_every_registry_policy_is_classified():
    """Each registered policy resolves to a kernel in the table or to
    the reference engine — a binding naming an unknown kind would only
    fail at replay time."""
    unknown = {
        name: binding[0]
        for name in available_policies()
        if (binding := fast_path_kernel(name)) is not None
        and binding[0] not in _KERNELS
    }
    assert not unknown, f"bindings naming no fastsim kernel: {unknown}"


def test_no_stale_classifications():
    """Every kernel in the table is bound by some policy class: by a
    registry name, or by Belady-MIN (an instance, not a registry name)."""
    bound = {fast_path_kernel(name)[0] for name in FAST_PATH_POLICIES}
    bound.add(BeladyPolicy([0]).fast_kernel()[0])
    stale = sorted(set(_KERNELS) - bound)
    assert not stale, f"fastsim kernels no policy binds: {stale}"


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


def test_learned_policies_stay_fast_pathed():
    """The paper's evaluated policies must not silently lose their
    kernels — dropping a binding is a deliberate (and benchmark-visible)
    decision, not a refactor side effect."""
    demoted = sorted(
        {"drrip", "ship", "ship++", "hawkeye", "glider", "mpppb"}
        - set(FAST_PATH_POLICIES)
    )
    assert not demoted, (
        f"learned policies missing from FAST_PATH_POLICIES: {demoted} — "
        "their kernels live in repro.cache.fastpolicies; see "
        "EXPERIMENTS.md 'Performance' for the fast-path recipe"
    )
