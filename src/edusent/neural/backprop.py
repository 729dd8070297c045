"""Reverse-mode gradients for the BiLSTM-attention classifier.

Everything is differentiated by hand against the cached forward values:
output head, attention softmax, both LSTM directions (backpropagation
through time with mask-gated state carries), and the embedding lookup.
The padding embedding row always receives an exactly-zero gradient.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ValidationError
from .model import DirectionCache, ForwardCache, LstmCellParams, RnnModel


def weighted_bce(probs, labels, w_pos: float, w_neg: float) -> float:
    """Mean class-weighted binary cross-entropy."""
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    y = np.asarray(labels, dtype=np.float64)
    w = np.where(y == 1.0, w_pos, w_neg)
    return float(-np.mean(w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def _direction_backward(
    cell: LstmCellParams,
    cache: DirectionCache,
    dH_dir: np.ndarray,
    grads: dict,
    prefix: str,
) -> np.ndarray:
    """BPTT for one direction; returns gradient w.r.t. its input sequence."""
    B, L, E = cache.x.shape
    h_dim = cache.c_tilde.shape[2]
    dx = np.zeros((B, L, E))
    dh_carry = np.zeros((B, h_dim))
    dc_carry = np.zeros((B, h_dim))
    W, U = cell.W.data, cell.U.data
    dW, dU, db = grads[f"{prefix}.W"], grads[f"{prefix}.U"], grads[f"{prefix}.b"]

    for s in range(L - 1, -1, -1):
        m = cache.mask[:, s : s + 1]
        h_prev = cache.h_state[:, s - 1] if s > 0 else np.zeros((B, h_dim))
        c_prev = cache.c_state[:, s - 1] if s > 0 else np.zeros((B, h_dim))

        # the stored output row is m * h_tilde; the carried state is
        # m * h_tilde + (1 - m) * h_prev (same for c)
        dh_tilde = m * (dH_dir[:, s] + dh_carry)
        dc_tilde = m * dc_carry
        dh_pass = (1.0 - m) * dh_carry
        dc_pass = (1.0 - m) * dc_carry

        gates = cache.gates[:, s]
        i, f, o, g = (gates[:, k * h_dim : (k + 1) * h_dim] for k in range(4))
        tanh_c = np.tanh(cache.c_tilde[:, s])
        dc_tilde = dc_tilde + dh_tilde * o * (1.0 - tanh_c ** 2)

        # gradients of the gate pre-activations: through sigma for i, f, o
        # and through tanh for g
        da = np.concatenate([dc_tilde * g * i * (1.0 - i),
                             dc_tilde * c_prev * f * (1.0 - f),
                             dh_tilde * tanh_c * o * (1.0 - o),
                             dc_tilde * i * (1.0 - g ** 2)], axis=1)

        dW += da.T @ cache.x[:, s]
        dU += da.T @ h_prev
        db += da.sum(axis=0)
        dx[:, s] = da @ W
        dh_carry = dh_pass + da @ U
        dc_carry = dc_pass + dc_tilde * f
    return dx


def backward(
    model: RnnModel,
    cache: Optional[ForwardCache],
    w_pos: float = 1.0,
    w_neg: float = 1.0,
) -> dict:
    """Exact gradients of the weighted-BCE loss for every parameter tensor.

    Fills each Tensor's grad slot and returns {name: gradient array}.
    """
    if cache is None:
        raise ValidationError("backward needs the cache from a forward pass")
    batch = cache.batch
    B = batch.ids.shape[0]
    y = batch.labels
    w = np.where(y == 1.0, w_pos, w_neg)

    grads = {name: np.zeros_like(t.data) for name, t in model.named_parameters()}

    # output head: d loss / d logit
    dlogit = w * (cache.probs - y) / B
    grads["out.w"] += cache.context.T @ dlogit
    grads["out.b"] += dlogit.sum()
    dcontext = dlogit[:, None] * model.out_w.data[None, :]

    # attention: context = sum_t alpha_t H_t with alpha = softmax(v . tanh(W H))
    alphas, u, H = cache.alphas, cache.u, cache.H
    dalpha = (H @ dcontext[:, :, None])[:, :, 0]
    dH = alphas[:, :, None] * dcontext[:, None, :]
    de = alphas * (dalpha - np.sum(alphas * dalpha, axis=1, keepdims=True))
    A = u.shape[2]
    grads["attn.v_a"] += de.reshape(-1) @ u.reshape(-1, A)
    du = de[:, :, None] * model.attention.v_a.data[None, None, :]
    dpre = du * (1.0 - u ** 2)
    grads["attn.W_a"] += dpre.reshape(-1, A).T @ H.reshape(-1, H.shape[2])
    dH += dpre @ model.attention.W_a.data

    # split the concatenated states and run BPTT per direction
    h_dim = model.dims.hidden
    dx_fwd = _direction_backward(model.forward_cell, cache.fwd,
                                 dH[:, :, :h_dim], grads, "fwd")
    dx_bwd = _direction_backward(model.backward_cell, cache.bwd,
                                 dH[:, ::-1, h_dim:], grads, "bwd")
    dx = dx_fwd + dx_bwd[:, ::-1]

    demb = grads["embedding"]
    np.add.at(demb, batch.ids.ravel(), dx.reshape(-1, dx.shape[2]))
    demb[0] = 0.0  # padding row is pinned

    for name, tensor in model.named_parameters():
        tensor.grad = grads[name]
    return grads
