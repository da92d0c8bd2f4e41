"""Cache-simulator substrate: configs, cache structures, hierarchy."""

from .block import AccessResult, AccessType, CacheLine, CacheRequest
from .cache import SetAssociativeCache
from .config import (
    CacheConfig,
    DramConfig,
    HierarchyConfig,
    paper_hierarchy,
    scaled_hierarchy,
)
from .fastsim import EngineParityError, fast_filter_to_llc_stream, verify_parity
from .hierarchy import (
    CacheHierarchy,
    LLCStream,
    filter_to_llc_stream,
    simulate_llc,
)
from .policy import BYPASS, ReplacementPolicy
from .stats import CacheStats

__all__ = [
    "AccessResult",
    "AccessType",
    "BYPASS",
    "CacheConfig",
    "CacheHierarchy",
    "CacheLine",
    "CacheRequest",
    "CacheStats",
    "DramConfig",
    "EngineParityError",
    "FAST_PATH_POLICIES",
    "HierarchyConfig",
    "LLCStream",
    "ReplacementPolicy",
    "SetAssociativeCache",
    "fast_filter_to_llc_stream",
    "filter_to_llc_stream",
    "paper_hierarchy",
    "scaled_hierarchy",
    "simulate_llc",
    "verify_parity",
]


def __getattr__(name: str):
    # Derived from the policy registry, which imports this package.
    if name == "FAST_PATH_POLICIES":
        from . import fastsim

        return fastsim.FAST_PATH_POLICIES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
