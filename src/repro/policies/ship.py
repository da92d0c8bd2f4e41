"""SHiP and SHiP++: signature-based hit prediction.

SHiP [Wu et al., MICRO 2011] learns, per load-PC signature, whether the
lines it inserts get re-referenced.  A Signature History Counter Table
(SHCT) of saturating counters is trained on sampled sets: a line that
hits sets its outcome bit and increments its signature's counter; a line
evicted without reuse decrements it.  On insertion, a zero counter
predicts no reuse (insert at distant RRPV), otherwise insert at long.

SHiP++ [Young et al., CRC2 2017 — the paper's 2nd-place finisher] adds
the refinements that matter at LLC scale: writebacks neither train nor
get optimistic insertion, hits by writebacks do not promote, saturated-
high signatures insert at RRPV 0, and cold (never-seen) signatures
insert at long rather than distant.
"""

from __future__ import annotations

from typing import Sequence

from ..cache.block import AccessType, CacheLine, CacheRequest
from ..cache.policy import ReplacementPolicy
from .rrip import RRPV_KEY, rrip_victim

#: policy_state keys.
_SIG = "ship_sig"
_OUTCOME = "ship_outcome"


def pc_signature(pc: int, bits: int) -> int:
    """Hash a PC into a ``bits``-wide SHiP signature."""
    x = pc & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 17
    x = (x * 0xED5AD4BB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 11
    return x & ((1 << bits) - 1)


class SHiPPolicy(ReplacementPolicy):
    """Original SHiP-PC with set sampling over a 2-bit RRIP substrate."""

    name = "ship"
    kernel_by_name_only = True

    def __init__(
        self,
        rrpv_bits: int = 2,
        signature_bits: int = 14,
        counter_bits: int = 3,
        num_sampled_sets: int = 64,
    ) -> None:
        super().__init__()
        self.max_rrpv = (1 << rrpv_bits) - 1
        self.signature_bits = signature_bits
        self.counter_max = (1 << counter_bits) - 1
        self.num_sampled_sets = num_sampled_sets
        self.shct = [self.counter_max // 2] * (1 << signature_bits)
        self._sampled: set[int] = set()

    def fast_kernel(self) -> tuple[str, dict]:
        return "ship", {
            "plus": False,
            "max_rrpv": self.max_rrpv,
            "signature_bits": self.signature_bits,
            "counter_max": self.counter_max,
            "num_sampled_sets": self.num_sampled_sets,
        }

    def attach(self, cache) -> None:
        super().attach(cache)
        stride = max(1, cache.num_sets // min(self.num_sampled_sets, cache.num_sets))
        self._sampled = {
            i * stride
            for i in range(min(self.num_sampled_sets, cache.num_sets))
        }

    # -- helpers -----------------------------------------------------------
    def _is_sampled(self, set_index: int) -> bool:
        return set_index in self._sampled

    def _train_hit(self, line: CacheLine) -> None:
        sig = line.policy_state.get(_SIG)
        if sig is None:
            return
        if not line.policy_state.get(_OUTCOME, False):
            line.policy_state[_OUTCOME] = True
            self.shct[sig] = min(self.counter_max, self.shct[sig] + 1)

    def _train_evict(self, line: CacheLine) -> None:
        sig = line.policy_state.get(_SIG)
        if sig is None:
            return
        if not line.policy_state.get(_OUTCOME, False):
            self.shct[sig] = max(0, self.shct[sig] - 1)

    # -- hooks ---------------------------------------------------------------
    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        line = self.cache.sets[set_index][way]
        line.policy_state[RRPV_KEY] = 0
        if self._is_sampled(set_index):
            self._train_hit(line)

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        return rrip_victim(ways, self.max_rrpv)

    def insertion_rrpv(self, request: CacheRequest) -> int:
        sig = pc_signature(request.pc, self.signature_bits)
        if self.shct[sig] == 0:
            return self.max_rrpv
        return self.max_rrpv - 1

    def on_fill(self, set_index: int, way: int, request: CacheRequest) -> None:
        line = self.cache.sets[set_index][way]
        line.policy_state[RRPV_KEY] = self.insertion_rrpv(request)
        if self._is_sampled(set_index):
            line.policy_state[_SIG] = pc_signature(request.pc, self.signature_bits)
            line.policy_state[_OUTCOME] = False

    def on_evict(
        self, set_index: int, way: int, line: CacheLine, request: CacheRequest
    ) -> None:
        if self._is_sampled(set_index):
            self._train_evict(line)

    def reset(self) -> None:
        self.shct = [self.counter_max // 2] * len(self.shct)


class SHiPPlusPlusPolicy(SHiPPolicy):
    """SHiP++: writeback-aware training and confidence-scaled insertion."""

    name = "ship++"

    def fast_kernel(self) -> tuple[str, dict]:
        kind, params = super().fast_kernel()
        return kind, {**params, "plus": True}

    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        line = self.cache.sets[set_index][way]
        if request.access_type is AccessType.WRITEBACK:
            # Writeback hits neither promote nor train (SHiP++ rule).
            return
        line.policy_state[RRPV_KEY] = 0
        if self._is_sampled(set_index):
            self._train_hit(line)

    def insertion_rrpv(self, request: CacheRequest) -> int:
        if request.access_type is AccessType.WRITEBACK:
            return self.max_rrpv
        sig = pc_signature(request.pc, self.signature_bits)
        counter = self.shct[sig]
        if counter == 0:
            return self.max_rrpv
        if counter == self.counter_max:
            return 0  # high-confidence reuse: protect immediately
        return self.max_rrpv - 1

    def on_fill(self, set_index: int, way: int, request: CacheRequest) -> None:
        line = self.cache.sets[set_index][way]
        line.policy_state[RRPV_KEY] = self.insertion_rrpv(request)
        if self._is_sampled(set_index) and request.access_type is not AccessType.WRITEBACK:
            line.policy_state[_SIG] = pc_signature(request.pc, self.signature_bits)
            line.policy_state[_OUTCOME] = False
