"""Neural-network layers: embedding, LSTM, scaled attention, linear.

Each layer owns its parameters (a dict of named arrays), a ``forward``
that returns outputs plus a cache, and a ``backward`` that consumes the
cache and the output gradient, returning the input gradient and filling
a gradient dict keyed like the parameters.  Shapes follow the batch-time
convention: sequences are ``(B, T, ...)``.

Together these implement the paper's offline model (Figure 3): an
embedding layer, a 1-layer LSTM, and a scaled dot-product attention
layer over the past hidden states (Equation 3).
"""

from __future__ import annotations

import numpy as np

from .ops import softmax, softmax_backward


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Embedding:
    """Learnable embedding table for the (categorical, one-hot) PCs.

    Section 4.1: "to create learnable representations for categorical
    features like the PC, we use an embedding layer before the LSTM".
    """

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator) -> None:
        self.vocab_size = vocab_size
        self.dim = dim
        self.params = {"W_emb": rng.normal(0.0, 0.1, size=(vocab_size, dim))}

    def forward(self, indices: np.ndarray) -> tuple[np.ndarray, dict]:
        if indices.size and (indices.min() < 0 or indices.max() >= self.vocab_size):
            raise ValueError("embedding index out of range")
        out = self.params["W_emb"][indices]
        return out, {"indices": indices}

    def backward(self, grad_out: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        grad = np.zeros_like(self.params["W_emb"])
        np.add.at(grad, cache["indices"], grad_out)
        return {"W_emb": grad}


class LSTMLayer:
    """Single-layer LSTM with full BPTT.

    Gate layout in the fused weight matrices is ``[i, f, g, o]``; the
    forget-gate bias is initialised to +1.0, the standard trick for
    learning long dependences.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        H = hidden_dim
        self.params = {
            "W_x": _glorot(rng, input_dim, 4 * H),
            "W_h": _glorot(rng, H, 4 * H),
            "b": np.zeros(4 * H),
        }
        self.params["b"][H : 2 * H] = 1.0  # forget-gate bias

    def forward(
        self,
        x: np.ndarray,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Run the LSTM over ``x`` of shape (B, T, D); returns H (B, T, Hd).

        The input projection ``x @ W_x + b`` of every step is one GEMM
        before the time loop; the loop does only the recurrent product
        ``h @ W_h``, one tanh over the fused gate block and the cell
        update.  The cache holds per-step state as ``(B, T, .)`` arrays:
        the gate activations ``[i, f, g, o]``, the cell states and their
        tanh.
        """
        B, T, D = x.shape
        H = self.hidden_dim
        # sigmoid(z) = (1 + tanh(z / 2)) / 2, so one tanh over the fused
        # block yields all four gates: the i, f, o pre-activations are
        # halved going in and mapped back by ``* scale + shift``; the g
        # block (a plain tanh) passes through unchanged.  Halving is
        # exact in floating point, and tanh cannot overflow.
        scale = np.full(4 * H, 0.5)
        scale[2 * H : 3 * H] = 1.0
        shift = 1.0 - scale
        h = np.zeros((B, H)) if h0 is None else h0
        c = np.zeros((B, H)) if c0 is None else c0
        cache: dict = {"x": x, "h0": h, "c0": c}
        xw = x.reshape(B * T, D) @ self.params["W_x"]
        xw += self.params["b"]
        xw *= scale
        xw = xw.reshape(B, T, 4 * H)
        W_h = self.params["W_h"] * scale
        gates = np.empty((B, T, 4 * H))
        cs = np.empty((B, T, H))
        tanh_cs = np.empty((B, T, H))
        hs = np.empty((B, T, H))
        for t in range(T):
            gate = np.tanh(xw[:, t] + h @ W_h)
            gate *= scale
            gate += shift
            c = gate[:, H : 2 * H] * c + gate[:, :H] * gate[:, 2 * H : 3 * H]
            tanh_c = np.tanh(c)
            h = gate[:, 3 * H :] * tanh_c
            gates[:, t] = gate
            cs[:, t] = c
            tanh_cs[:, t] = tanh_c
            hs[:, t] = h
        cache.update(gates=gates, cs=cs, tanh_cs=tanh_cs, hs=hs)
        return hs, cache

    def backward(
        self, grad_hs: np.ndarray, cache: dict
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """BPTT; ``grad_hs`` is dLoss/dH with shape (B, T, Hd).

        Everything that does not depend on the recurrence is vectorised
        over time: the local gate derivatives before the loop, and the
        weight, bias and input gradients as single GEMMs after it.  The
        loop carries only ``dh``/``dc`` back through ``W_h`` and ``f``.
        """
        x, gates, tanh_cs = cache["x"], cache["gates"], cache["tanh_cs"]
        B, T, D = x.shape
        H = self.hidden_dim
        gate4 = gates.reshape(B, T, 4, H)
        i, f, g, o = (gate4[:, :, k] for k in range(4))
        c_prev = np.concatenate([cache["c0"][:, None], cache["cs"][:, :-1]], axis=1)
        # Per step, the gate pre-activation gradient is
        # dz = [dc, dc, dc, dh] * local, where ``local`` is the rest of
        # each block's chain rule.  ``dz`` starts out holding ``local``
        # for all steps at once; step t multiplies in its dc and dh.
        dz = (gates * (1.0 - gates)).reshape(B, T, 4, H)  # sigmoid'
        dz[:, :, 0] *= g  # input gate: dc * g
        dz[:, :, 1] *= c_prev  # forget gate: dc * c_prev
        dz[:, :, 2] = i * (1.0 - g * g)  # candidate: dc * i * tanh'
        dz[:, :, 3] *= tanh_cs  # output gate: dh * tanh(c)
        dc_from_h = o * (1.0 - tanh_cs * tanh_cs)
        W_hT = self.params["W_h"].T
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            dh = grad_hs[:, t] + dh_next
            dc = dh * dc_from_h[:, t] + dc_next
            dz[:, t, :3] *= dc[:, None]
            dz[:, t, 3] *= dh
            dc_next = dc * f[:, t]
            dh_next = dz[:, t].reshape(B, 4 * H) @ W_hT
        dz_flat = dz.reshape(B * T, 4 * H)
        h_prev = np.concatenate([cache["h0"][:, None], cache["hs"][:, :-1]], axis=1)
        grads = {
            "W_x": x.reshape(B * T, D).T @ dz_flat,
            "W_h": h_prev.reshape(B * T, H).T @ dz_flat,
            "b": dz_flat.sum(axis=0),
        }
        dx = (dz_flat @ self.params["W_x"].T).reshape(B, T, D)
        return dx, grads


class ScaledDotAttention:
    """Causal scaled dot-product attention over past hidden states.

    Implements Equation 3: for target step t, scores against every
    source step s < t are ``f * (h_t . h_s)``, softmax-normalised into
    the attention weights ``a_t``, which weight the sources into the
    context vector ``c_t`` (Equation 2).  The scaling factor ``f`` is
    the interpretability knob studied in Figure 4: larger ``f`` forces
    sparser attention distributions.

    The layer is parameter-free (dot-product scoring).
    """

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale
        self.params: dict[str, np.ndarray] = {}

    def forward(self, hs: np.ndarray) -> tuple[np.ndarray, dict]:
        """``hs``: (B, T, H) hidden states; returns contexts (B, T, H)."""
        T = hs.shape[1]
        scores = self.scale * (hs @ hs.transpose(0, 2, 1))
        # Causal mask: target t may only attend to sources s < t.
        mask = np.tril(np.ones((T, T), dtype=bool), k=-1)
        scores = np.where(mask, scores, -np.inf)
        weights = softmax(scores, axis=-1)  # row 0 comes out all-zero
        contexts = weights @ hs
        return contexts, {"hs": hs, "weights": weights}

    def backward(
        self, grad_contexts: np.ndarray, cache: dict
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        hs = cache["hs"]
        weights = cache["weights"]
        # contexts = A @ hs  (per batch)
        d_weights = grad_contexts @ hs.transpose(0, 2, 1)
        d_hs = weights.transpose(0, 2, 1) @ grad_contexts
        d_scores = softmax_backward(weights, d_weights)
        # scores = scale * hs hs^T (masked): masked entries have weight 0
        # and d_scores 0 by construction of softmax_backward.  hs enters
        # both sides of the product, so its gradient is (dS + dS^T) hs.
        d_hs += self.scale * ((d_scores + d_scores.transpose(0, 2, 1)) @ hs)
        return d_hs, {}

    def attention_weights(self, hs: np.ndarray) -> np.ndarray:
        """Just the attention weight matrices (B, T, T) — for analysis."""
        _, cache = self.forward(hs)
        return cache["weights"]


class Linear:
    """Fully connected layer y = x @ W + b applied position-wise."""

    def __init__(self, input_dim: int, output_dim: int, rng: np.random.Generator) -> None:
        self.params = {
            "W": _glorot(rng, input_dim, output_dim),
            "b": np.zeros(output_dim),
        }

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        return x @ self.params["W"] + self.params["b"], {"x": x}

    def backward(
        self, grad_out: np.ndarray, cache: dict
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        x = cache["x"]
        flat_x = x.reshape(-1, x.shape[-1])
        flat_g = grad_out.reshape(-1, grad_out.shape[-1])
        grads = {
            "W": flat_x.T @ flat_g,
            "b": flat_g.sum(axis=0),
        }
        return grad_out @ self.params["W"].T, grads
