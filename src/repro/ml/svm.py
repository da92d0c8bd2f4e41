"""Offline linear models: the ISVM and the ordered-history "Perceptron".

Section 4.3 derives Glider's offline ISVM: per current PC, an integer
SVM over the k-sparse unordered feature of the last ``k`` unique PCs,
trained with hinge loss.  By Fact 1, gradient descent with learning rate
1/n on the unit-margin hinge loss is equivalent to integer updates with
margin ``n`` — so training uses ±1 integer updates gated by a threshold
(the reciprocal of the paper's "step size" in Table 5).

The ordered-history SVM reproduces the paper's "Perceptron" comparator
(Section 5.1, "Baseline Replacement Policies"): same hinge loss and
labels, but the feature is the *ordered* history of the last ``h`` PCs
with duplicates, each conditioned on its position — the representation
whose accuracy saturates at h≈4 in Figure 14.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabelledTrace


@dataclass
class LinearEpochResult:
    """Telemetry for one pass over the training set."""

    epoch: int
    train_accuracy: float
    updates: int


class OfflineISVM:
    """Per-PC integer SVM over the unordered last-k-unique-PCs feature.

    Unlike the hardware :class:`~repro.core.isvm.ISVMTable`, the offline
    model keys weights exactly (no 4-bit hashing, no 2048-entry table) —
    it is the *unconstrained* version whose accuracy the hardware model
    approaches from below.
    """

    name = "offline_isvm"

    def __init__(self, k: int = 5, threshold: int = 1000) -> None:
        self.k = k
        self.threshold = threshold
        # weights[current_pc][history_pc] -> int; bias per current PC.
        self.weights: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.bias: dict[int, int] = defaultdict(int)

    # -- scoring ------------------------------------------------------------
    def _score(self, pc: int, history: tuple[int, ...]) -> int:
        entry = self.weights[pc]
        return self.bias[pc] + sum(entry[h] for h in history)

    def predict(self, pc: int, history: tuple[int, ...]) -> bool:
        return self._score(pc, history) >= 0

    def _update(self, pc: int, history: tuple[int, ...], label: bool) -> bool:
        """Hinge-gated integer update; returns True if weights changed."""
        score = self._score(pc, history)
        if label and score > self.threshold:
            return False
        if not label and score < -self.threshold:
            return False
        delta = 1 if label else -1
        entry = self.weights[pc]
        for h in history:
            entry[h] += delta
        self.bias[pc] += delta
        return True

    # -- passes over a labelled trace ----------------------------------------
    def _scan(self, data: LabelledTrace, train: bool) -> tuple[int, int, int]:
        """One pass; returns (correct, total, updates).

        The flat form of ``predict`` then ``_update`` per access, with
        the history held the way
        :class:`~repro.core.features.PCHistoryRegister` holds it
        (unique PCs, most recent first): each access is scored once and
        updated from that score, touching the same table keys.
        """
        k, threshold = self.k, self.threshold
        weights, bias = self.weights, self.bias
        history: list[int] = []
        correct = 0
        updates = 0
        for pc, label in zip(data.pcs.tolist(), data.labels.astype(bool).tolist()):
            entry = weights[pc]
            score = bias[pc] + sum(map(entry.__getitem__, history))
            if (score >= 0) == label:
                correct += 1
            if train and (score <= threshold if label else score >= -threshold):
                delta = 1 if label else -1
                for h in history:
                    entry[h] += delta
                bias[pc] += delta
                updates += 1
            if pc in history:
                history.remove(pc)
            history.insert(0, pc)
            if len(history) > k:
                history.pop()
        return correct, len(data.pcs), updates

    def fit_epoch(self, train_data: LabelledTrace, epoch: int = 0) -> LinearEpochResult:
        correct, total, updates = self._scan(train_data, train=True)
        return LinearEpochResult(
            epoch=epoch, train_accuracy=correct / max(1, total), updates=updates
        )

    def fit(self, train_data: LabelledTrace, epochs: int = 1) -> list[LinearEpochResult]:
        return [self.fit_epoch(train_data, e) for e in range(epochs)]

    def evaluate(self, data: LabelledTrace) -> float:
        correct, total, _ = self._scan(data, train=False)
        return correct / max(1, total)

    def storage_entries(self) -> int:
        return sum(len(entry) for entry in self.weights.values()) + len(self.bias)


class OrderedHistorySVM:
    """The paper's "Perceptron" comparator: ordered PC history, hinge loss.

    Features: the current PC plus (position, PC) pairs for the last ``h``
    accesses *including duplicates and order*.
    """

    name = "ordered_svm"

    def __init__(self, history_length: int = 3, threshold: int = 1000) -> None:
        self.history_length = history_length
        self.threshold = threshold
        self.weights: dict[tuple, int] = defaultdict(int)

    def _features(self, pc: int, history: tuple[int, ...]) -> list[tuple]:
        features: list[tuple] = [("pc", pc)]
        for position, past_pc in enumerate(history):
            features.append(("hist", pc, position, past_pc))
        return features

    def _score(self, features: list[tuple]) -> int:
        return sum(self.weights[f] for f in features)

    def predict(self, pc: int, history: tuple[int, ...]) -> bool:
        return self._score(self._features(pc, history)) >= 0

    def _scan(self, data: LabelledTrace, train: bool) -> tuple[int, int, int]:
        """One pass; returns (correct, total, updates).

        Builds the same features as :meth:`_features` inline and scores
        each access once.
        """
        threshold = self.threshold
        weights = self.weights
        lookup = weights.__getitem__
        history: deque[int] = deque(maxlen=self.history_length)
        correct = 0
        updates = 0
        for pc, label in zip(data.pcs.tolist(), data.labels.astype(bool).tolist()):
            features = [("pc", pc)]
            features += [("hist", pc, pos, past) for pos, past in enumerate(history)]
            score = sum(map(lookup, features))
            if (score >= 0) == label:
                correct += 1
            if train and (score <= threshold if label else score >= -threshold):
                delta = 1 if label else -1
                for f in features:
                    weights[f] += delta
                updates += 1
            history.appendleft(pc)
        return correct, len(data.pcs), updates

    def fit_epoch(self, train_data: LabelledTrace, epoch: int = 0) -> LinearEpochResult:
        correct, total, updates = self._scan(train_data, train=True)
        return LinearEpochResult(
            epoch=epoch, train_accuracy=correct / max(1, total), updates=updates
        )

    def fit(self, train_data: LabelledTrace, epochs: int = 1) -> list[LinearEpochResult]:
        return [self.fit_epoch(train_data, e) for e in range(epochs)]

    def evaluate(self, data: LabelledTrace) -> float:
        correct, total, _ = self._scan(data, train=False)
        return correct / max(1, total)


class OfflineHawkeye:
    """Hawkeye's per-PC 3-bit counters as an offline model (Figure 9 bar 1)."""

    name = "offline_hawkeye"

    def __init__(self, counter_bits: int = 3) -> None:
        self.counter_max = (1 << counter_bits) - 1
        self.counters: dict[int, int] = defaultdict(lambda: (self.counter_max + 1) // 2)

    def predict(self, pc: int) -> bool:
        return self.counters[pc] >= (self.counter_max + 1) // 2

    def _scan(self, data: LabelledTrace, train: bool) -> tuple[int, int]:
        correct = 0
        pcs, labels = data.pcs, data.labels
        for i in range(len(pcs)):
            pc = int(pcs[i])
            label = bool(labels[i])
            if self.predict(pc) == label:
                correct += 1
            if train:
                if label:
                    self.counters[pc] = min(self.counter_max, self.counters[pc] + 1)
                else:
                    self.counters[pc] = max(0, self.counters[pc] - 1)
        return correct, len(pcs)

    def fit_epoch(self, train_data: LabelledTrace, epoch: int = 0) -> LinearEpochResult:
        correct, total = self._scan(train_data, train=True)
        return LinearEpochResult(
            epoch=epoch, train_accuracy=correct / max(1, total), updates=total
        )

    def fit(self, train_data: LabelledTrace, epochs: int = 1) -> list[LinearEpochResult]:
        return [self.fit_epoch(train_data, e) for e in range(epochs)]

    def evaluate(self, data: LabelledTrace) -> float:
        correct, total = self._scan(data, train=False)
        return correct / max(1, total)
