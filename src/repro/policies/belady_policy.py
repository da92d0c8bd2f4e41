"""Belady's MIN as a pluggable (offline, oracle) replacement policy.

Usable only when the full future access stream is known — i.e. when
replaying a recorded LLC stream — this policy evicts the line whose next
use is furthest away and bypasses lines that are re-referenced later
than every resident line.  It provides the optimal bound plotted as
"MIN" in the paper's single-core figures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cache.block import CacheLine, CacheRequest
from ..cache.policy import BYPASS, ReplacementPolicy
from ..optgen.belady import INF, compute_next_use

_NEXT_USE = "belady_next_use"


class BeladyPolicy(ReplacementPolicy):
    """Oracle MIN replacement over a pre-recorded access stream.

    Args:
        lines: The full sequence of line numbers the cache will see, in
            order; ``request.access_index`` must index into it.
    """

    name = "belady"

    def __init__(self, lines: np.ndarray) -> None:
        super().__init__()
        self._next_use = compute_next_use(np.asarray(lines, dtype=np.int64))

    @classmethod
    def from_stream(cls, stream) -> "BeladyPolicy":
        """Build from an :class:`~repro.cache.hierarchy.LLCStream`."""
        return cls(stream.lines().astype(np.int64))

    def fast_kernel(self) -> tuple[str, dict]:
        # No trained state to read back: an instance takes the kernel.
        return "belady", {"next_use": self._next_use}

    def _incoming_next_use(self, request: CacheRequest) -> int:
        if request.access_index >= len(self._next_use):
            raise IndexError(
                "access_index beyond the pre-recorded stream; BeladyPolicy "
                "must be replayed on exactly the stream it was built from"
            )
        return int(self._next_use[request.access_index])

    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        line = self.cache.sets[set_index][way]
        line.policy_state[_NEXT_USE] = self._incoming_next_use(request)

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        incoming = self._incoming_next_use(request)
        if incoming == INF:
            return BYPASS
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        victim_way = max(
            range(len(ways)),
            key=lambda w: ways[w].policy_state.get(_NEXT_USE, INF),
        )
        if ways[victim_way].policy_state.get(_NEXT_USE, INF) <= incoming:
            return BYPASS  # the newcomer is the furthest-reused line
        return victim_way

    def on_fill(self, set_index: int, way: int, request: CacheRequest) -> None:
        line = self.cache.sets[set_index][way]
        line.policy_state[_NEXT_USE] = self._incoming_next_use(request)
