"""MPPPB: Multiperspective Placement, Promotion and Bypass
[Jiménez & Teran, MICRO 2017] — the CRC2 4th-place finisher.

MPPPB generalises the perceptron reuse predictor with a *multiperspective*
feature set chosen offline by a genetic algorithm; each feature has its
own weight table and the summed weights are compared against several
thresholds to choose between bypassing, distant placement, intermediate
placement and MRU placement, as well as promotion on hits.

We implement the published feature families (PC history at several
depths, PC xor address bits, page address, compressed tag bits, an
"offset" feature and a burstiness bit) with the perceptron update rule
and two decision thresholds (bypass and dead-on-arrival).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from ..cache.block import AccessType, CacheLine, CacheRequest
from ..cache.policy import BYPASS, ReplacementPolicy
from .perceptron import _SamplerEntry, _mix
from .rrip import RRPV_KEY, rrip_victim


@dataclass
class _Feature:
    name: str
    extract: Callable[[int, Sequence[int], int], int]
    salt: int
    weights: list[int]


# Feature extractors are module-level functions (not closures/lambdas) so
# a predictor — and any policy or streaming-replay checkpoint holding one
# — pickles cleanly.
def _x_pc(pc, hist, addr):
    return pc


def _x_pc_hist_1(pc, hist, addr):
    return hist[0] if hist else 0


def _x_pc_hist_2(pc, hist, addr):
    return hist[1] if len(hist) > 1 else 0


def _x_pc_hist_4(pc, hist, addr):
    return _fold(hist[:4])


def _x_pc_hist_8(pc, hist, addr):
    return _fold(hist[:8])


def _x_pc_xor_page(pc, hist, addr):
    return pc ^ (addr >> 12)


def _x_page(pc, hist, addr):
    return addr >> 12


def _x_tag_bits(pc, hist, addr):
    return (addr >> 6) & 0xFFFF


def _x_offset(pc, hist, addr):
    return (addr >> 6) & 0x3F


class MultiperspectivePredictor:
    """Perceptron over MPPPB's multiperspective feature set."""

    def __init__(
        self,
        table_bits: int = 12,
        theta: int = 68,
        weight_min: int = -128,
        weight_max: int = 127,
    ) -> None:
        self.table_bits = table_bits
        self.theta = theta
        self.weight_min = weight_min
        self.weight_max = weight_max
        size = 1 << table_bits

        def feat(name: str, salt: int, extract) -> _Feature:
            return _Feature(name, extract, salt, [0] * size)

        self.features: list[_Feature] = [
            feat("pc", 11, _x_pc),
            feat("pc_hist_1", 13, _x_pc_hist_1),
            feat("pc_hist_2", 17, _x_pc_hist_2),
            feat("pc_hist_4", 19, _x_pc_hist_4),
            feat("pc_hist_8", 23, _x_pc_hist_8),
            feat("pc_xor_page", 29, _x_pc_xor_page),
            feat("page", 31, _x_page),
            feat("tag_bits", 37, _x_tag_bits),
            feat("offset", 41, _x_offset),
        ]

    def _sum(self, pc: int, history: Sequence[int], address: int) -> int:
        total = 0
        for f in self.features:
            idx = _mix(f.extract(pc, history, address), f.salt, self.table_bits)
            total += f.weights[idx]
        return total

    def predict(self, pc: int, history: Sequence[int], address: int) -> int:
        return self._sum(pc, history, address)

    def train(self, pc: int, history: Sequence[int], address: int, reused: bool) -> None:
        total = self._sum(pc, history, address)
        predicted_dead = total > 0
        actually_dead = not reused
        if predicted_dead != actually_dead or abs(total) < self.theta:
            delta = 1 if actually_dead else -1
            for f in self.features:
                idx = _mix(f.extract(pc, history, address), f.salt, self.table_bits)
                w = f.weights[idx] + delta
                f.weights[idx] = max(self.weight_min, min(self.weight_max, w))

    def reset(self) -> None:
        for f in self.features:
            f.weights = [0] * len(f.weights)


def _fold(values: Sequence[int]) -> int:
    folded = 0
    for i, v in enumerate(values):
        folded ^= (v << (i % 7)) & 0xFFFFFFFFFFFFFFFF
    return folded


class MPPPBPolicy(ReplacementPolicy):
    """MPPPB LLC policy: multiperspective perceptron + graded insertion."""

    name = "mpppb"
    kernel_by_name_only = True

    def __init__(
        self,
        table_bits: int = 12,
        theta: int = 68,
        rrpv_bits: int = 3,
        num_sampler_sets: int = 64,
        sampler_assoc: int = 16,
        bypass_threshold: int = 50,
        dead_threshold: int = 10,
        history_length: int = 8,
    ) -> None:
        super().__init__()
        self.predictor = MultiperspectivePredictor(table_bits=table_bits, theta=theta)
        self.max_rrpv = (1 << rrpv_bits) - 1
        self.bypass_threshold = bypass_threshold
        self.dead_threshold = dead_threshold
        self.num_sampler_sets = num_sampler_sets
        self.sampler_assoc = sampler_assoc
        self.history: deque[int] = deque(maxlen=history_length)
        # Pre-append history snapshot for the in-flight access, so that
        # prediction (on_hit/victim/on_fill) sees exactly the context the
        # sampler trains with.
        self._inflight_history: tuple[int, ...] = ()
        self._sampler: list[list[_SamplerEntry]] = []
        self._sampled_sets: dict[int, int] = {}
        self._clock = 0

    def fast_kernel(self) -> tuple[str, dict] | None:
        predictor = self.predictor
        # The kernel fixes the history at 8 PCs and the weights at int8.
        if (
            self.history.maxlen != 8
            or predictor.weight_min != -128
            or predictor.weight_max != 127
        ):
            return None
        return "mpppb", {
            "table_bits": predictor.table_bits,
            "theta": predictor.theta,
            "max_rrpv": self.max_rrpv,
            "num_sampler_sets": self.num_sampler_sets,
            "sampler_assoc": self.sampler_assoc,
            "bypass_threshold": self.bypass_threshold,
            "dead_threshold": self.dead_threshold,
        }

    def attach(self, cache) -> None:
        super().attach(cache)
        count = min(self.num_sampler_sets, cache.num_sets)
        stride = max(1, cache.num_sets // count)
        self._sampled_sets = {i * stride: i for i in range(count)}
        self._sampler = [
            [_SamplerEntry() for _ in range(self.sampler_assoc)] for _ in range(count)
        ]

    def _sampler_access(self, sampler_index: int, request: CacheRequest) -> None:
        self._clock += 1
        entries = self._sampler[sampler_index]
        tag = request.address >> 6
        for entry in entries:
            if entry.valid and entry.tag == tag:
                self.predictor.train(entry.pc, entry.history, entry.address, reused=True)
                entry.pc = request.pc
                entry.history = self._inflight_history
                entry.address = request.address
                entry.lru = self._clock
                return
        victim = min(entries, key=lambda e: (e.valid, e.lru))
        if victim.valid:
            self.predictor.train(victim.pc, victim.history, victim.address, reused=False)
        victim.valid = True
        victim.tag = tag
        victim.pc = request.pc
        victim.history = self._inflight_history
        victim.address = request.address
        victim.lru = self._clock

    # -- hooks ------------------------------------------------------------------
    def on_access(self, set_index: int, request: CacheRequest) -> None:
        if request.access_type is AccessType.WRITEBACK:
            return
        self._inflight_history = tuple(self.history)
        sampler_index = self._sampled_sets.get(set_index)
        if sampler_index is not None:
            self._sampler_access(sampler_index, request)
        self.history.appendleft(request.pc)

    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        if request.access_type is AccessType.WRITEBACK:
            return
        line = self.cache.sets[set_index][way]
        yout = self.predictor.predict(request.pc, self._inflight_history, request.address)
        # Graded promotion: strong-reuse predictions promote fully.
        if yout <= 0:
            line.policy_state[RRPV_KEY] = 0
        elif yout < self.dead_threshold:
            line.policy_state[RRPV_KEY] = min(
                self.max_rrpv - 1, line.policy_state.get(RRPV_KEY, 0)
            )
        else:
            line.policy_state[RRPV_KEY] = self.max_rrpv

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        if request.access_type is not AccessType.WRITEBACK:
            yout = self.predictor.predict(
                request.pc, self._inflight_history, request.address
            )
            if yout > self.bypass_threshold:
                return BYPASS
        return rrip_victim(ways, self.max_rrpv)

    def on_fill(self, set_index: int, way: int, request: CacheRequest) -> None:
        line = self.cache.sets[set_index][way]
        if request.access_type is AccessType.WRITEBACK:
            line.policy_state[RRPV_KEY] = self.max_rrpv
            return
        yout = self.predictor.predict(
            request.pc, self._inflight_history, request.address
        )
        # Graded placement: confident-dead at distant, uncertain at a
        # middle priority (so a borderline prediction still gets an
        # ageing window's worth of chances), confident-live near MRU.
        if yout > self.dead_threshold:
            line.policy_state[RRPV_KEY] = self.max_rrpv
        elif yout > self.dead_threshold // 2:
            line.policy_state[RRPV_KEY] = self.max_rrpv - 1
        elif yout > 0:
            line.policy_state[RRPV_KEY] = self.max_rrpv // 2
        else:
            line.policy_state[RRPV_KEY] = 0

    def reset(self) -> None:
        self.predictor.reset()
        self.history.clear()
        self._inflight_history = ()
        if self.cache is not None:
            self.attach(self.cache)
        self._clock = 0
