"""Policy registry: build any registered replacement policy by name."""

from __future__ import annotations

import difflib
from typing import Callable

from ..cache.policy import ReplacementPolicy
from ..core.glider import GliderConfig, GliderPolicy
from .deap import DEAPPolicy
from .frd import FRDPolicy
from .hawkeye import HawkeyePolicy
from .lru import LRUPolicy, MRUPolicy
from .mpppb import MPPPBPolicy
from .mustache import MustachePolicy
from .perceptron import PerceptronPolicy
from .random_policy import RandomPolicy
from .rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from .sdbp import SDBPPolicy
from .ship import SHiPPlusPlusPolicy, SHiPPolicy

#: Registration order is the order of the derived
#: ``fastsim.FAST_PATH_POLICIES`` / ``REFERENCE_ONLY_POLICIES``, which
#: seeded corpus entries record.
_FACTORIES: dict[str, Callable[[], ReplacementPolicy]] = {
    "lru": LRUPolicy,
    "mru": MRUPolicy,
    "random": RandomPolicy,
    "srrip": SRRIPPolicy,
    "brrip": BRRIPPolicy,
    "drrip": DRRIPPolicy,
    "ship": SHiPPolicy,
    "ship++": SHiPPlusPlusPolicy,
    "sdbp": SDBPPolicy,
    "perceptron": PerceptronPolicy,
    "hawkeye": HawkeyePolicy,
    "glider": lambda: GliderPolicy(GliderConfig()),
    "mpppb": MPPPBPolicy,
    "frd": FRDPolicy,
    "mustache": MustachePolicy,
    "deap": DEAPPolicy,
}

#: The policies compared in the paper's online evaluation (Figures 11-13).
PAPER_POLICIES = ("lru", "hawkeye", "mpppb", "ship++", "glider")


class UnknownPolicyError(KeyError):
    """Lookup of a policy name that is not registered.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working; the message lists every registered name plus the
    closest matches to the typo.
    """

    def __init__(self, name: str, available: list[str]) -> None:
        suggestions = difflib.get_close_matches(name, available, n=3, cutoff=0.5)
        message = f"unknown policy {name!r}; available: {available}"
        if suggestions:
            message += f" (did you mean {' or '.join(map(repr, suggestions))}?)"
        super().__init__(message)
        self.policy_name = name
        self.available = available
        self.suggestions = suggestions

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0]


def available_policies() -> list[str]:
    """Names of all constructible policies."""
    return sorted(_FACTORIES)


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Construct a fresh policy instance by registry name.

    ``kwargs`` are forwarded to the policy constructor, except for the
    parameterless registry entries (which reject them).
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownPolicyError(name, available_policies()) from None
    if kwargs:
        # Resolve the class to forward kwargs (lambdas wrap defaults only).
        if name == "glider":
            return GliderPolicy(GliderConfig(**kwargs))
        return factory.__call__(**kwargs)  # type: ignore[call-arg]
    return factory()


def register_policy(name: str, factory: Callable[[], ReplacementPolicy]) -> None:
    """Register a custom policy factory (for user extensions and tests)."""
    if name in _FACTORIES:
        raise ValueError(f"policy {name!r} is already registered")
    _FACTORIES[name] = factory
