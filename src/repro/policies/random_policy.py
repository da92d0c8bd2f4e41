"""Random replacement — the zero-information baseline."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cache.block import CacheLine, CacheRequest
from ..cache.policy import ReplacementPolicy


class RandomPolicy(ReplacementPolicy):
    """Evicts a uniformly random way (deterministic under a fixed seed)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def fast_kernel(self) -> tuple[str, dict]:
        # The kernel replays the draws of a fresh RNG from this seed.
        return "random", {"seed": self._seed}

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        return int(self._rng.integers(len(ways)))

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)
