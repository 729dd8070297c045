"""Reverse-mode gradients for the BiLSTM-attention classifier.

Everything is differentiated by hand against the cached forward values:
output head, attention softmax, both LSTM directions (backpropagation
through time), and the embedding lookup. Like the forward pass, each BPTT
step touches only the rows that had a token at that step, a prefix of the
length-ordered batch; every other row carries its (dh, dc) through
unchanged. Only real positions scatter into the embedding gradient, so
the padding row always receives an exactly-zero gradient. `backward`
returns the gradients as a dict keyed like `RnnModel.params`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ValidationError
from .model import DirectionCache, ForwardCache, RnnModel


def weighted_bce(probs, labels, w_pos: float, w_neg: float) -> float:
    """Mean class-weighted binary cross-entropy."""
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    y = np.asarray(labels, dtype=np.float64)
    w = np.where(y == 1.0, w_pos, w_neg)
    return float(-np.mean(w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def _direction_backward(
    params: dict,
    side: str,
    cache: DirectionCache,
    dH_dir: np.ndarray,
    grads: dict,
    dx: np.ndarray,
) -> None:
    """BPTT for direction `side`; adds its parameter gradients into `grads`
    and the gradient w.r.t. its input sequence into `dx` (B, L, E), a view
    in the direction's processing order."""
    B, L, _ = cache.x.shape
    h_dim = cache.c.shape[2]
    dh_carry = np.zeros((B, h_dim))
    dc_carry = np.zeros((B, h_dim))
    W, U = params[f"{side}.W"], params[f"{side}.U"]
    dW, dU, db = grads[f"{side}.W"], grads[f"{side}.U"], grads[f"{side}.b"]

    for s in range(L - 1, -1, -1):
        # only the first n rows had a token at step s; the others' carries
        # pass through as they are
        n = cache.steps[s + 1] - cache.steps[s]
        h_prev = cache.h[:n, s - 1] if s > 0 else np.zeros((n, h_dim))
        c_prev = cache.c[:n, s - 1] if s > 0 else np.zeros((n, h_dim))

        dh_tilde = dH_dir[:n, s] + dh_carry[:n]
        gates = cache.gates[cache.steps[s] : cache.steps[s + 1]]
        i, f, o, g = (gates[:, k * h_dim : (k + 1) * h_dim] for k in range(4))
        tanh_c = np.tanh(cache.c[:n, s])
        dc_tilde = dc_carry[:n] + dh_tilde * o * (1.0 - tanh_c ** 2)

        # gradients of the gate pre-activations: through sigma for i, f, o
        # and through tanh for g
        da = np.concatenate([dc_tilde * g * i * (1.0 - i),
                             dc_tilde * c_prev * f * (1.0 - f),
                             dh_tilde * tanh_c * o * (1.0 - o),
                             dc_tilde * i * (1.0 - g ** 2)], axis=1)

        dW += da.T @ cache.x[:n, s]
        dU += da.T @ h_prev
        db += da.sum(axis=0)
        dx[:n, s] += da @ W
        dh_carry[:n] = da @ U
        dc_carry[:n] = dc_tilde * f


def backward(
    model: RnnModel,
    cache: Optional[ForwardCache],
    w_pos: float = 1.0,
    w_neg: float = 1.0,
) -> dict:
    """Exact gradients of the weighted-BCE loss, {name: array} keyed and
    shaped like `model.params`."""
    if cache is None:
        raise ValidationError("backward needs the cache from a forward pass")
    batch = cache.batch  # in length order, like every cached array but probs
    B = batch.ids.shape[0]
    y = batch.labels
    w = np.where(y == 1.0, w_pos, w_neg)

    params = model.params
    grads = {name: np.zeros_like(p) for name, p in params.items()}

    # output head: d loss / d logit
    dlogit = w * (cache.probs[cache.order] - y) / B
    grads["out.w"] += cache.context.T @ dlogit
    grads["out.b"] += dlogit.sum()
    dcontext = dlogit[:, None] * params["out.w"][None, :]

    # attention: context = sum_t alpha_t H_t with alpha = softmax(v . tanh(W H))
    alphas, u, H = cache.alphas, cache.u, cache.H
    dalpha = (H @ dcontext[:, :, None])[:, :, 0]
    dH = alphas[:, :, None] * dcontext[:, None, :]
    de = alphas * (dalpha - np.sum(alphas * dalpha, axis=1, keepdims=True))
    A = u.shape[2]
    grads["attn.v_a"] += de.reshape(-1) @ u.reshape(-1, A)
    du = de[:, :, None] * params["attn.v_a"][None, None, :]
    dpre = du * (1.0 - u ** 2)
    grads["attn.W_a"] += dpre.reshape(-1, A).T @ H.reshape(-1, H.shape[2])
    dH += dpre @ params["attn.W_a"]

    # split the concatenated states and run BPTT per direction
    h_dim = model.dims.hidden
    dx = np.zeros_like(cache.embedded)
    _direction_backward(params, "fwd", cache.fwd, dH[:, :, :h_dim], grads, dx)
    _direction_backward(params, "bwd", cache.bwd, dH[:, ::-1, h_dim:], grads, dx[:, ::-1])

    real = batch.mask > 0
    np.add.at(grads["embedding"], batch.ids[real], dx[real])
    return grads
