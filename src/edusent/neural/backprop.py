"""Reverse-mode gradients for the BiLSTM-attention classifier.

Everything is differentiated by hand against the cached forward values:
output head, attention softmax, both LSTM directions (backpropagation
through time), and the embedding lookup, on the forward pass's cells.
Each direction first rebuilds its cells' previous (h, c) from the cached
gates and H, with the forward pass's own expression for c, then walks its
positions in reverse visiting order. Each BPTT step touches only the rows
that had a token at that position, a prefix of the length-ordered batch;
every other row carries its (dh, dc) through unchanged. The step fills its
cells' rows of one (cells, 4h) gate-gradient array, from which the
direction's W, U and b gradients and its input gradient are each one
product. Only real positions scatter into the embedding gradient, so the
padding row always receives an exactly-zero gradient. `backward` returns
the gradients as a dict keyed like `RnnModel.params`."""

from __future__ import annotations

import numpy as np

from .model import ForwardCache, RnnModel, cell_rows, positions


def weighted_bce(probs, labels, w_pos: float, w_neg: float) -> float:
    """Mean class-weighted binary cross-entropy."""
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    y = np.asarray(labels, dtype=np.float64)
    w = np.where(y == 1.0, w_pos, w_neg)
    return float(-np.mean(w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def _direction_backward(
    params: dict,
    side: str,
    cache: ForwardCache,
    H_dir: np.ndarray,
    dH_dir: np.ndarray,
    grads: dict,
) -> np.ndarray:
    """BPTT for direction `side`, whose (cells, h) halves of H and of dH are
    `H_dir` and `dH_dir`. Sets its parameter gradients in `grads` and
    returns the gradient w.r.t. the cells' inputs, (cells, E)."""
    steps, gates = cache.steps, cache.gates[side]
    B, L, h_dim = steps[1], len(steps) - 1, H_dir.shape[1]
    # each cell's (h, c) before its update, rebuilt in visiting order; c
    # takes the forward pass's expression, so it has its values bit for bit
    h_prev, c_prev = np.empty((2, len(gates), h_dim))
    h, c = np.zeros((2, B, h_dim))
    for t in positions(side, L):
        n, rows = steps[t + 1] - steps[t], slice(steps[t], steps[t + 1])
        h_prev[rows], c_prev[rows] = h[:n], c[:n]
        i, f, g = (gates[rows, k * h_dim : (k + 1) * h_dim] for k in (0, 1, 3))
        h[:n], c[:n] = H_dir[rows], f * c[:n] + i * g

    da = np.empty_like(gates)
    dh_carry, dc_carry = np.zeros((2, B, h_dim))
    U = params[f"{side}.U"]
    for t in reversed(positions(side, L)):
        # only the first n rows had a token at t; the others' carries pass
        # through as they are
        n, rows = steps[t + 1] - steps[t], slice(steps[t], steps[t + 1])
        i, f, o, g = (gates[rows, k * h_dim : (k + 1) * h_dim] for k in range(4))
        dh_tilde = dH_dir[rows] + dh_carry[:n]
        tanh_c = np.tanh(f * c_prev[rows] + i * g)
        dc_tilde = dc_carry[:n] + dh_tilde * o * (1.0 - tanh_c ** 2)

        # gradients of the gate pre-activations: through sigma for i, f, o
        # and through tanh for g
        da[rows] = np.concatenate([dc_tilde * g * i * (1.0 - i),
                                   dc_tilde * c_prev[rows] * f * (1.0 - f),
                                   dh_tilde * tanh_c * o * (1.0 - o),
                                   dc_tilde * i * (1.0 - g ** 2)], axis=1)
        dh_carry[:n] = da[rows] @ U
        dc_carry[:n] = dc_tilde * f
    del c_prev

    grads[f"{side}.W"] = da.T @ cache.x
    grads[f"{side}.U"] = da.T @ h_prev
    grads[f"{side}.b"] = da.sum(axis=0)
    return da @ params[f"{side}.W"]


def backward(
    model: RnnModel,
    cache: ForwardCache,
    w_pos: float = 1.0,
    w_neg: float = 1.0,
) -> dict:
    """Exact gradients of the weighted-BCE loss, {name: array} keyed and
    shaped like `model.params`."""
    y = cache.labels  # in length order, like every cached array but probs
    B = len(y)
    w = np.where(y == 1.0, w_pos, w_neg)

    params = model.params
    grads = {name: np.zeros_like(p) for name, p in params.items()}

    # output head: d loss / d logit
    dlogit = w * (cache.probs[cache.order] - y) / B
    grads["out.w"] += cache.context.T @ dlogit
    grads["out.b"] += dlogit.sum()

    # attention: context = sum of alpha H over a row's cells, alpha = softmax(v . tanh(W H))
    alphas, u, H = cache.alphas, cache.u, cache.H
    row = cell_rows(cache.steps)
    dctx = dlogit[row, None] * params["out.w"]
    dalpha = np.einsum("ij,ij->i", H, dctx)
    dH = alphas[:, None] * dctx
    del dctx
    de = alphas * (dalpha - np.bincount(row, alphas * dalpha, B)[row])
    grads["attn.v_a"] += de @ u
    dpre = de[:, None] * params["attn.v_a"] * (1.0 - u ** 2)
    grads["attn.W_a"] += dpre.T @ H
    dH += dpre @ params["attn.W_a"]
    del dpre

    # split the concatenated states and run BPTT per direction
    dx = sum(_direction_backward(params, side, cache, H_dir, dH_dir, grads)
             for side, H_dir, dH_dir in zip(("fwd", "bwd"), np.hsplit(H, 2), np.hsplit(dH, 2)))
    np.add.at(grads["embedding"], cache.ids, dx)
    return grads
