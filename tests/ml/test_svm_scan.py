"""The flat linear-model scans equal the method-per-access scans they replace.

``OfflineISVM._scan`` and ``OrderedHistorySVM._scan`` are inlined loops;
the reference scans below are the original formulation, one
``predict``/``_update`` (or ``_features``/``_score``) call per access.
The two must agree bit for bit: return tuples, weight tables, and the
set of table keys touched (which ``storage_entries`` counts).
"""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import PCHistoryRegister
from repro.ml import LabelledTrace, OfflineISVM, OrderedHistorySVM


def reference_isvm_scan(self, data, train):
    register = PCHistoryRegister(self.k)
    correct = 0
    updates = 0
    pcs, labels = data.pcs, data.labels
    for i in range(len(pcs)):
        pc = int(pcs[i])
        label = bool(labels[i])
        history = register.snapshot()
        if self.predict(pc, history) == label:
            correct += 1
        if train and self._update(pc, history, label):
            updates += 1
        register.insert(pc)
    return correct, len(pcs), updates


def reference_ordered_scan(self, data, train):
    history = deque(maxlen=self.history_length)
    correct = 0
    updates = 0
    pcs, labels = data.pcs, data.labels
    for i in range(len(pcs)):
        pc = int(pcs[i])
        label = bool(labels[i])
        features = self._features(pc, tuple(history))
        score = self._score(features)
        if (score >= 0) == label:
            correct += 1
        if train:
            if not (
                (label and score > self.threshold)
                or (not label and score < -self.threshold)
            ):
                delta = 1 if label else -1
                for f in features:
                    self.weights[f] += delta
                updates += 1
        history.appendleft(pc)
    return correct, len(pcs), updates


traces = st.lists(
    st.tuples(st.integers(0, 9), st.booleans()), min_size=0, max_size=120
)
# A few passes, each training or evaluating: later passes start from
# the weights earlier ones left behind.
passes = st.lists(st.booleans(), min_size=1, max_size=3)
# Small thresholds so the hinge gate (no update once confident) fires.
thresholds = st.integers(0, 6)


def to_labelled(pairs):
    pcs = np.array([pc for pc, _ in pairs], dtype=np.int32)
    labels = np.array([label for _, label in pairs], dtype=bool)
    return LabelledTrace("t", pcs, labels, np.arange(10, dtype=np.uint64))


def isvm_state(model):
    return {pc: dict(entry) for pc, entry in model.weights.items()}, dict(model.bias)


@given(traces, passes, st.integers(1, 6), thresholds)
@settings(max_examples=60, deadline=None)
def test_isvm_scan_matches_reference(pairs, trains, k, threshold):
    data = to_labelled(pairs)
    model = OfflineISVM(k=k, threshold=threshold)
    reference = OfflineISVM(k=k, threshold=threshold)
    for train in trains:
        assert model._scan(data, train) == reference_isvm_scan(reference, data, train)
        assert isvm_state(model) == isvm_state(reference)
        assert model.storage_entries() == reference.storage_entries()


@given(traces, passes, st.integers(0, 5), thresholds)
@settings(max_examples=60, deadline=None)
def test_ordered_scan_matches_reference(pairs, trains, history_length, threshold):
    data = to_labelled(pairs)
    model = OrderedHistorySVM(history_length=history_length, threshold=threshold)
    reference = OrderedHistorySVM(history_length=history_length, threshold=threshold)
    for train in trains:
        assert model._scan(data, train) == reference_ordered_scan(reference, data, train)
        assert dict(model.weights) == dict(reference.weights)
