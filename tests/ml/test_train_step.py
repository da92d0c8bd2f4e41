"""The training step: one forward per batch, shared by both training loops."""

import numpy as np

from repro.ml import AttentionLSTM, LabelledTrace, LSTMConfig, SequenceDataset
from repro.ml.ops import binary_cross_entropy_with_logits, clip_gradients


def toy_dataset(n=300, vocab=6, seed=0):
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, vocab, size=n).astype(np.int32)
    labels = (pcs % 2 == 0) ^ (rng.random(n) < 0.1)
    labelled = LabelledTrace("toy", pcs, labels, np.arange(vocab).astype(np.uint64))
    return SequenceDataset.from_labelled(labelled, history=4)


def toy_model():
    return AttentionLSTM(
        LSTMConfig(vocab_size=6, embedding_dim=6, hidden_dim=6, history=4, batch_size=8)
    )


def two_pass_epoch(model, dataset, epoch):
    """The epoch loop as it was first written: a telemetry forward, then
    a full forward/backward/clip/Adam step on the same batch."""
    rng = np.random.default_rng(model.config.seed + epoch + 1)
    losses, correct, total = [], 0, 0
    for batch in dataset.batches(model.config.batch_size, rng):
        logits, _ = model.forward(batch.inputs)
        labelled = batch.mask > 0
        correct += int(np.sum(((logits >= 0.0) == (batch.targets > 0.5)) & labelled))
        total += int(np.sum(labelled))
        logits, cache = model.forward(batch.inputs)
        loss, grad = binary_cross_entropy_with_logits(logits, batch.targets, batch.mask)
        grads = model.backward(grad, cache)
        clip_gradients(grads, model.config.grad_clip)
        model.optimizer.step(grads)
        losses.append(loss)
    return float(np.mean(losses)), correct / max(1, total)


def test_train_epoch_runs_one_forward_per_batch():
    dataset = toy_dataset()
    model = toy_model()
    calls = []
    original = model.forward

    def counting_forward(inputs):
        calls.append(inputs.shape)
        return original(inputs)

    model.forward = counting_forward
    batches = sum(1 for _ in dataset.batches(model.config.batch_size))
    assert batches > 1
    for epoch in range(2):
        calls.clear()
        model.train_epoch(dataset, epoch)
        assert len(calls) == batches


def test_train_epoch_telemetry_equals_two_pass_loop():
    dataset = toy_dataset(seed=1)
    model, reference = toy_model(), toy_model()
    for epoch in range(3):
        result = model.train_epoch(dataset, epoch)
        loss, accuracy = two_pass_epoch(reference, dataset, epoch)
        assert result.train_loss == loss
        assert result.train_accuracy == accuracy
    for name, value in reference._all_params().items():
        np.testing.assert_array_equal(model._all_params()[name], value, err_msg=name)


def test_batch_gradients_leaves_parameters_untouched():
    dataset = toy_dataset(seed=2)
    model = toy_model()
    batch = next(iter(dataset.batches(model.config.batch_size)))
    before = {k: v.copy() for k, v in model._all_params().items()}
    loss, logits, grads = model.batch_gradients(batch)
    assert logits.shape == batch.inputs.shape
    assert grads.keys() == before.keys()
    for name, value in model._all_params().items():
        np.testing.assert_array_equal(value, before[name])
    train_loss, train_logits = model.train_batch(batch)
    assert train_loss == loss
    np.testing.assert_array_equal(train_logits, logits)
    assert any(
        not np.array_equal(value, before[name])
        for name, value in model._all_params().items()
    )
