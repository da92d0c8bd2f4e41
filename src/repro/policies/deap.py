"""DEAP-style combined admission + eviction (``deap``).

DEAP Cache (PAPERS.md) couples two learned decisions that most policies
make independently: **admission** — should a missing line be cached at
all? — and **eviction** — which resident line goes?  This implementation
layers admission on top of the :class:`~repro.policies.frd.FRDPolicy`
reuse-distance head:

* **Eviction** is inherited unchanged from ``frd``: evict the line with
  the largest predicted forward reuse distance.
* **Admission**: on a demand miss into a full set, the same per-set
  predictor scores the incoming ``(PC, address)``; a line predicted
  dead-on-arrival (top bucket) is bypassed — ``victim`` returns
  :data:`~repro.cache.policy.BYPASS` and the set is left untouched.
  Because the untrained predictor ties toward bucket 0 (imminent reuse),
  bypass only triggers after the dead bucket has accumulated real
  evidence; a cold cache admits everything.

Writebacks are never bypassed (write-allocate must hold for them) and
never consult the predictor, per the policy event-stream contract.
Bypass can only *reduce* occupancy pressure — the occupancy-vs-capacity
invariant the Hypothesis suite checks — since declining to fill leaves
strictly fewer lines resident than filling would.
"""

from __future__ import annotations

from typing import Sequence

from ..cache.block import AccessType, CacheLine, CacheRequest
from ..cache.policy import BYPASS
from .frd import DEAD_BUCKET, FRDPolicy


class DEAPPolicy(FRDPolicy):
    """frd eviction plus learned dead-on-admission bypass."""

    name = "deap"

    def __init__(self, table_bits: int = 6, bypass_bucket: int = DEAD_BUCKET) -> None:
        super().__init__(table_bits=table_bits)
        self.bypass_bucket = bypass_bucket
        self.bypasses = 0
        self.admissions = 0

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            self.admissions += 1
            return invalid
        if request.access_type is not AccessType.WRITEBACK:
            state = self._state(set_index)
            bucket = state.predictor.predict(request.pc, request.address)
            if bucket >= self.bypass_bucket:
                self.bypasses += 1
                return BYPASS
        self.admissions += 1
        return super().victim(set_index, request, ways)

    def predict(self, pc: int, address: int, core: int) -> dict:
        prediction = super().predict(pc, address, core)
        prediction["admit"] = prediction["bucket"] < self.bypass_bucket
        return prediction

    def reset(self) -> None:
        super().reset()
        self.bypasses = 0
        self.admissions = 0

    def introspect(self) -> dict:
        payload = super().introspect()
        payload["bypasses"] = self.bypasses
        payload["admissions"] = self.admissions
        return payload
