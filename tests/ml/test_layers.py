"""Gradient checks and behavioural tests for every NN layer."""

import numpy as np
import pytest

from repro.ml import (
    AttentionLSTM,
    Embedding,
    Linear,
    LSTMConfig,
    LSTMLayer,
    ScaledDotAttention,
)
from repro.ml.ops import (
    binary_cross_entropy_with_logits,
    sigmoid,
    softmax,
    softmax_backward,
)


def numerical_grad(f, array, eps=1e-6, samples=8, rng=None):
    """Numerical d f / d array at a few random positions."""
    rng = rng or np.random.default_rng(0)
    positions = [
        tuple(rng.integers(0, s) for s in array.shape) for _ in range(samples)
    ]
    grads = {}
    for pos in positions:
        orig = array[pos]
        array[pos] = orig + eps
        up = f()
        array[pos] = orig - eps
        down = f()
        array[pos] = orig
        grads[pos] = (up - down) / (2 * eps)
    return grads


def assert_grad_matches(analytic, numeric, atol=1e-5):
    for pos, num in numeric.items():
        assert analytic[pos] == pytest.approx(num, abs=atol), pos


class TestEmbedding:
    def test_lookup(self):
        rng = np.random.default_rng(0)
        emb = Embedding(4, 3, rng)
        out, _ = emb.forward(np.array([[0, 1], [1, 3]]))
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out[0, 1], emb.params["W_emb"][1])

    def test_out_of_range(self):
        emb = Embedding(4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            emb.forward(np.array([[4]]))

    def test_backward_accumulates_duplicates(self):
        emb = Embedding(4, 2, np.random.default_rng(0))
        indices = np.array([[1, 1]])
        _, cache = emb.forward(indices)
        grads = emb.backward(np.ones((1, 2, 2)), cache)
        np.testing.assert_array_equal(grads["W_emb"][1], [2.0, 2.0])
        np.testing.assert_array_equal(grads["W_emb"][0], [0.0, 0.0])

    def test_gradient_check(self):
        rng = np.random.default_rng(1)
        emb = Embedding(6, 4, rng)
        indices = rng.integers(0, 6, size=(2, 3))
        target = rng.normal(size=(2, 3, 4))

        def loss():
            out, _ = emb.forward(indices)
            return float(np.sum(out * target))

        _, cache = emb.forward(indices)
        grads = emb.backward(target, cache)
        numeric = numerical_grad(loss, emb.params["W_emb"], rng=rng)
        assert_grad_matches(grads["W_emb"], numeric)


class TestLinear:
    def test_shapes(self):
        lin = Linear(3, 2, np.random.default_rng(0))
        out, _ = lin.forward(np.zeros((4, 5, 3)))
        assert out.shape == (4, 5, 2)

    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        lin = Linear(3, 2, rng)
        x = rng.normal(size=(2, 4, 3))
        target = rng.normal(size=(2, 4, 2))

        def loss():
            out, _ = lin.forward(x)
            return float(np.sum(out * target))

        out, cache = lin.forward(x)
        dx, grads = lin.backward(target, cache)
        for name in ("W", "b"):
            numeric = numerical_grad(loss, lin.params[name], rng=rng)
            assert_grad_matches(grads[name], numeric)
        numeric_x = numerical_grad(loss, x, rng=rng)
        assert_grad_matches(dx, numeric_x)


class TestLSTM:
    def test_shapes_and_state(self):
        lstm = LSTMLayer(3, 5, np.random.default_rng(0))
        hs, cache = lstm.forward(np.zeros((2, 7, 3)))
        assert hs.shape == (2, 7, 5)
        # Per-step state lives on the cache's time axis: one fused
        # [i, f, g, o] block and one cell state per step.
        assert cache["gates"].shape == (2, 7, 4 * 5)
        assert cache["cs"].shape == (2, 7, 5)

    def test_forget_bias_initialised(self):
        lstm = LSTMLayer(3, 4, np.random.default_rng(0))
        assert np.all(lstm.params["b"][4:8] == 1.0)

    def test_hidden_state_bounded(self):
        lstm = LSTMLayer(2, 4, np.random.default_rng(1))
        hs, _ = lstm.forward(np.random.default_rng(2).normal(size=(1, 50, 2)) * 10)
        assert np.all(np.abs(hs) <= 1.0)  # o * tanh(c) is in (-1, 1)

    def test_gradient_check_all_params(self):
        rng = np.random.default_rng(3)
        lstm = LSTMLayer(3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        target = rng.normal(size=(2, 5, 4))

        def loss():
            hs, _ = lstm.forward(x)
            return float(np.sum(hs * target))

        hs, cache = lstm.forward(x)
        dx, grads = lstm.backward(target, cache)
        for name in ("W_x", "W_h", "b"):
            numeric = numerical_grad(loss, lstm.params[name], rng=rng, samples=6)
            assert_grad_matches(grads[name], numeric, atol=1e-4)
        numeric_x = numerical_grad(loss, x, rng=rng, samples=6)
        assert_grad_matches(dx, numeric_x, atol=1e-4)

    def test_sequence_dependence(self):
        """Output at step t must depend on input at step t' < t."""
        lstm = LSTMLayer(2, 4, np.random.default_rng(4))
        x = np.zeros((1, 5, 2))
        base, _ = lstm.forward(x)
        x2 = x.copy()
        x2[0, 0, 0] = 1.0
        perturbed, _ = lstm.forward(x2)
        assert not np.allclose(base[0, 4], perturbed[0, 4])


class TestAttention:
    def test_causal_mask(self):
        att = ScaledDotAttention(scale=1.0)
        hs = np.random.default_rng(0).normal(size=(1, 5, 3))
        _, cache = att.forward(hs)
        weights = cache["weights"]
        # Upper triangle (s >= t) must be zero.
        for t in range(5):
            assert np.all(weights[0, t, t:] == 0.0)

    def test_first_row_all_zero(self):
        att = ScaledDotAttention()
        hs = np.random.default_rng(1).normal(size=(2, 4, 3))
        _, cache = att.forward(hs)
        assert np.all(cache["weights"][:, 0, :] == 0.0)

    def test_rows_sum_to_one_after_first(self):
        att = ScaledDotAttention()
        hs = np.random.default_rng(2).normal(size=(1, 6, 3))
        _, cache = att.forward(hs)
        sums = cache["weights"][0].sum(axis=-1)
        np.testing.assert_allclose(sums[1:], 1.0, atol=1e-9)

    def test_scaling_sharpens(self):
        """Larger f concentrates attention (the Figure 4 effect)."""
        hs = np.random.default_rng(3).normal(size=(1, 10, 8))
        flat = ScaledDotAttention(scale=1.0).attention_weights(hs)
        sharp = ScaledDotAttention(scale=5.0).attention_weights(hs)
        assert sharp[0, 9].max() > flat[0, 9].max()

    def test_context_is_convex_combination(self):
        att = ScaledDotAttention()
        hs = np.abs(np.random.default_rng(4).normal(size=(1, 5, 3)))
        contexts, _ = att.forward(hs)
        # Contexts of row t lie within the convex hull bounds of sources.
        for t in range(1, 5):
            assert np.all(contexts[0, t] <= hs[0, :t].max(axis=0) + 1e-9)
            assert np.all(contexts[0, t] >= hs[0, :t].min(axis=0) - 1e-9)

    def test_gradient_check(self):
        rng = np.random.default_rng(5)
        att = ScaledDotAttention(scale=2.0)
        hs = rng.normal(size=(1, 5, 3))
        target = rng.normal(size=(1, 5, 3))

        def loss():
            contexts, _ = att.forward(hs)
            return float(np.sum(contexts * target))

        contexts, cache = att.forward(hs)
        d_hs, _ = att.backward(target, cache)
        numeric = numerical_grad(loss, hs, rng=rng, samples=10)
        assert_grad_matches(d_hs, numeric, atol=1e-4)


# -- reference implementations -------------------------------------------------
# The straightforward per-step LSTM and einsum attention the layers were
# first written as.  The production layers hoist work out of the time
# loop and use batched matmul; these oracles pin them to the same math.


def reference_lstm_forward(self, x, h0=None, c0=None):
    B, T, _ = x.shape
    H = self.hidden_dim
    h = np.zeros((B, H)) if h0 is None else h0
    c = np.zeros((B, H)) if c0 is None else c0
    hs = np.zeros((B, T, H))
    cache = {"x": x, "gates": [], "cs": [], "hs_prev": [], "cs_prev": []}
    W_x, W_h, b = self.params["W_x"], self.params["W_h"], self.params["b"]
    for t in range(T):
        z = x[:, t, :] @ W_x + h @ W_h + b
        i = sigmoid(z[:, 0 * H : 1 * H])
        f = sigmoid(z[:, 1 * H : 2 * H])
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = sigmoid(z[:, 3 * H : 4 * H])
        cache["hs_prev"].append(h)
        cache["cs_prev"].append(c)
        c = f * c + i * g
        h = o * np.tanh(c)
        cache["gates"].append((i, f, g, o))
        cache["cs"].append(c)
        hs[:, t, :] = h
    return hs, cache


def reference_lstm_backward(self, grad_hs, cache):
    x = cache["x"]
    B, T, _ = x.shape
    H = self.hidden_dim
    W_x, W_h = self.params["W_x"], self.params["W_h"]
    dW_x = np.zeros_like(W_x)
    dW_h = np.zeros_like(W_h)
    db = np.zeros_like(self.params["b"])
    dx = np.zeros_like(x)
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        i, f, g, o = cache["gates"][t]
        c = cache["cs"][t]
        c_prev = cache["cs_prev"][t]
        h_prev = cache["hs_prev"][t]
        dh = grad_hs[:, t, :] + dh_next
        tanh_c = np.tanh(c)
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c**2) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_next = dc * f
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g**2), do * o * (1.0 - o)],
            axis=1,
        )
        dW_x += x[:, t, :].T @ dz
        dW_h += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ W_x.T
        dh_next = dz @ W_h.T
    return dx, {"W_x": dW_x, "W_h": dW_h, "b": db}


def reference_attention_forward(self, hs):
    T = hs.shape[1]
    scores = self.scale * np.einsum("bth,bsh->bts", hs, hs)
    mask = np.tril(np.ones((T, T), dtype=bool), k=-1)
    scores = np.where(mask[None, :, :], scores, -np.inf)
    weights = softmax(scores, axis=-1)
    contexts = np.einsum("bts,bsh->bth", weights, hs)
    return contexts, {"hs": hs, "weights": weights}


def reference_attention_backward(self, grad_contexts, cache):
    hs = cache["hs"]
    weights = cache["weights"]
    d_weights = np.einsum("bth,bsh->bts", grad_contexts, hs)
    d_hs = np.einsum("bts,bth->bsh", weights, grad_contexts)
    d_scores = softmax_backward(weights, d_weights)
    d_hs += self.scale * np.einsum("bts,bsh->bth", d_scores, hs)
    d_hs += self.scale * np.einsum("bts,bth->bsh", d_scores, hs)
    return d_hs, {}


ORACLE_TOL = 1e-10


def assert_close(actual, expected, what):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=ORACLE_TOL, err_msg=what)


class TestLSTMOracle:
    """The time-hoisted LSTM equals the per-step reference to 1e-10."""

    @pytest.mark.parametrize(
        "B,T,D,H,with_state",
        [
            (3, 6, 4, 5, False),
            (1, 7, 3, 4, False),  # single sequence
            (4, 1, 3, 4, False),  # single step
            (1, 1, 2, 3, True),
            (2, 5, 3, 4, True),  # non-zero initial h0 and c0
        ],
    )
    def test_matches_per_step_reference(self, B, T, D, H, with_state):
        rng = np.random.default_rng(B * 100 + T * 10 + D + H)
        lstm = LSTMLayer(D, H, rng)
        x = rng.normal(size=(B, T, D))
        grad_hs = rng.normal(size=(B, T, H))
        state = {}
        if with_state:
            state = {"h0": np.tanh(rng.normal(size=(B, H))), "c0": rng.normal(size=(B, H))}

        hs, cache = lstm.forward(x, **state)
        dx, grads = lstm.backward(grad_hs, cache)
        ref_hs, ref_cache = reference_lstm_forward(lstm, x, **state)
        ref_dx, ref_grads = reference_lstm_backward(lstm, grad_hs, ref_cache)

        assert_close(hs, ref_hs, "hs")
        assert_close(dx, ref_dx, "dx")
        assert grads.keys() == ref_grads.keys() == lstm.params.keys()
        for name in ref_grads:
            assert grads[name].shape == lstm.params[name].shape
            assert_close(grads[name], ref_grads[name], name)


class TestAttentionOracle:
    """Matmul attention equals the einsum reference to 1e-10."""

    @pytest.mark.parametrize("B,T,H,scale", [(2, 6, 4, 1.0), (1, 5, 3, 5.0), (3, 1, 4, 2.0)])
    def test_matches_einsum_reference(self, B, T, H, scale):
        rng = np.random.default_rng(B + T + H)
        att = ScaledDotAttention(scale=scale)
        hs = rng.normal(size=(B, T, H))
        grad = rng.normal(size=(B, T, H))

        contexts, cache = att.forward(hs)
        d_hs, _ = att.backward(grad, cache)
        ref_contexts, ref_cache = reference_attention_forward(att, hs)
        ref_d_hs, _ = reference_attention_backward(att, grad, ref_cache)

        assert_close(contexts, ref_contexts, "contexts")
        assert_close(cache["weights"], ref_cache["weights"], "weights")
        assert_close(d_hs, ref_d_hs, "d_hs")


@pytest.mark.parametrize("num_layers", [1, 2])
def test_model_gradients_match_reference_layers(num_layers, monkeypatch):
    """Whole-model logits and every parameter gradient, new vs reference."""
    config = LSTMConfig(
        vocab_size=7, embedding_dim=5, hidden_dim=6, num_layers=num_layers,
        attention_scale=2.0, history=3, seed=num_layers,
    )
    rng = np.random.default_rng(11)
    inputs = rng.integers(0, 7, size=(3, 6))
    targets = rng.integers(0, 2, size=(3, 6)).astype(np.float64)
    mask = np.tile([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], (3, 1))

    def logits_and_grads():
        model = AttentionLSTM(config)
        logits, cache = model.forward(inputs)
        _, grad = binary_cross_entropy_with_logits(logits, targets, mask)
        return logits, model.backward(grad, cache)

    logits, grads = logits_and_grads()
    monkeypatch.setattr(LSTMLayer, "forward", reference_lstm_forward)
    monkeypatch.setattr(LSTMLayer, "backward", reference_lstm_backward)
    monkeypatch.setattr(ScaledDotAttention, "forward", reference_attention_forward)
    monkeypatch.setattr(ScaledDotAttention, "backward", reference_attention_backward)
    ref_logits, ref_grads = logits_and_grads()

    assert_close(logits, ref_logits, "logits")
    assert grads.keys() == ref_grads.keys()
    assert sum(name.startswith("lstm") for name in grads) == 3 * num_layers
    for name in ref_grads:
        assert_close(grads[name], ref_grads[name], name)
