"""Least-recently-used replacement — the paper's normalisation baseline."""

from __future__ import annotations

from typing import Sequence

from ..cache.block import CacheLine, CacheRequest
from ..cache.policy import ReplacementPolicy


class LRUPolicy(ReplacementPolicy):
    """True LRU using the cache's per-line ``last_touch`` timestamps."""

    name = "lru"

    def fast_kernel(self) -> tuple[str, dict]:
        return "lru", {}

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        oldest_way = 0
        oldest_touch = ways[0].last_touch
        for way in range(1, len(ways)):
            if ways[way].last_touch < oldest_touch:
                oldest_touch = ways[way].last_touch
                oldest_way = way
        return oldest_way


class MRUPolicy(ReplacementPolicy):
    """Most-recently-used eviction: optimal for cyclic scans, poor otherwise.

    Included as the classic heuristic counterpoint to LRU (Section 2.1's
    "variations of the LRU policy, the MRU policy, and combinations").
    """

    name = "mru"

    def fast_kernel(self) -> tuple[str, dict]:
        return "mru", {}

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        newest_way = 0
        newest_touch = ways[0].last_touch
        for way in range(1, len(ways)):
            if ways[way].last_touch > newest_touch:
                newest_touch = ways[way].last_touch
                newest_way = way
        return newest_way
