"""Bidirectional LSTM with additive attention, built directly on numpy.

`forward` caches what the hand-written backward pass in `backprop` needs.
Inference (`batch_probs`, and through it `predict_sequences`) runs the
same steps and keeps only the hidden states attention reads.
All math is float64 and deterministic.

Both passes put a batch's rows in length order, longest first, so the rows
that have a token at a position are a prefix of the batch. A batch's real
positions, its cells, are listed once, position-major, and every array
per token (embeddings, gates, H, attention weights) has one row per cell.
Both directions step that one list, `fwd` from the first position to the
last and `bwd` from the last to the first, and each step updates only its
prefix of rows; a row whose tokens have ended (or, for `bwd`, not yet
begun) keeps its (h, c). Attention is a softmax over each row's cells.
Only the B-length probabilities are put back in the caller's row order.

Architecture: trainable embedding (row 0 pinned to zeros for padding),
one LSTM per direction, additive (tanh) attention over the concatenated
hidden states, and a sigmoid output head that is zero-initialized so an
untrained model emits exactly 0.5. Its 11 parameter arrays live in one
dict, `RnnModel.params`, keyed by the names the model file uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ValidationError
from ..linear import sigmoid


@dataclass
class RnnDims:
    vocab_size: int  # number of real terms; embedding has vocab_size + 1 rows
    embed_dim: int = 64
    hidden: int = 64
    attn_dim: int = 64
    max_len: int = 128


@dataclass
class RnnModel:
    """The architecture and its float64 parameter arrays.

    `params` maps each name of `parameter_shapes(dims)`, in that order, to
    its array: the names the model file stores, the gradient names
    `backward` returns and the names `Adam.step` updates.
    """

    dims: RnnDims
    params: dict

    def copy(self) -> "RnnModel":
        return RnnModel(self.dims, {name: p.copy() for name, p in self.params.items()})


@dataclass
class TokenBatch:
    """Padded id matrix with its mask and labels.

    ids uses 0 for padding; mask is 1.0 exactly where ids != 0, every row
    must contain at least one real token, and a row's real tokens come
    first (its mask never rises), as `build_batch` lays them out.
    """

    ids: np.ndarray  # (batch, max_len) int64
    mask: np.ndarray  # (batch, max_len) float64 in {0, 1}
    labels: np.ndarray  # (batch,) float64 in {0, 1}

    def __post_init__(self):
        if self.ids.shape != self.mask.shape or self.ids.shape[0] != self.labels.shape[0]:
            raise ValidationError("TokenBatch shapes are inconsistent")
        if np.any((self.ids == 0) != (self.mask == 0.0)):
            raise ValidationError("mask must be 0 exactly at padding ids")
        if np.any(self.mask.sum(axis=1) < 1):
            raise ValidationError("every batch row needs at least one unmasked token")
        if np.any(np.diff(self.mask, axis=1) > 0.0):
            raise ValidationError("padding must follow a row's real tokens")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


#: most float64 values one array can hold: its bytes must fit in an intp
_MAX_ARRAY_SIZE = np.iinfo(np.intp).max // 8


def init_model(dims: RnnDims, seed: int) -> RnnModel:
    """A fresh model: Glorot-uniform weights drawn from `seed` in the order
    embedding, fwd, bwd, attention, and a zero output head.

    Dimensions that would make a parameter array larger than any array can
    be are a ValidationError naming the largest dimension.
    """
    for name, shape in parameter_shapes(dims).items():
        if math.prod(shape) > _MAX_ARRAY_SIZE:
            field, value = max(((f, getattr(dims, f)) for f in
                                ("vocab_size", "embed_dim", "hidden", "attn_dim")),
                               key=lambda fv: fv[1])
            raise ValidationError(f"{field} {value} is too large: parameter {name!r} "
                                  f"would be a {shape} array, past numpy's largest")
    rng = np.random.default_rng(seed)
    h, e, a = dims.hidden, dims.embed_dim, dims.attn_dim
    emb = _glorot(rng, dims.vocab_size + 1, e, (dims.vocab_size + 1, e))
    emb[0] = 0.0
    params = {"embedding": emb}
    for side in ("fwd", "bwd"):
        W, U = [], []
        for _gate in "ifog":  # draws interleave per gate: W_i, U_i, W_f, U_f, ...
            W.append(_glorot(rng, e, h, (h, e)))
            U.append(_glorot(rng, h, h, (h, h)))
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget-gate bias 1.0 keeps early cell memory alive
        params.update({f"{side}.W": np.concatenate(W), f"{side}.U": np.concatenate(U),
                       f"{side}.b": b})
    params["attn.W_a"] = _glorot(rng, 2 * h, a, (a, 2 * h))
    params["attn.v_a"] = _glorot(rng, a, 1, (a,))
    params["out.w"] = np.zeros(2 * h)
    params["out.b"] = np.zeros(())
    return RnnModel(dims, params)


def parameter_shapes(dims: RnnDims) -> dict:
    """name -> shape of each parameter of a model of `dims`, in
    `RnnModel.params` order, without allocating any. A side's fused gate
    weights are input W (4h x embed), recurrent U (4h x h) and bias b (4h,),
    with the gate row blocks in the order i, f, o, g."""
    h, e, a = dims.hidden, dims.embed_dim, dims.attn_dim
    cell = {"W": (4 * h, e), "U": (4 * h, h), "b": (4 * h,)}
    return {
        "embedding": (dims.vocab_size + 1, e),
        **{f"{side}.{name}": shape for side in ("fwd", "bwd") for name, shape in cell.items()},
        "attn.W_a": (a, 2 * h),
        "attn.v_a": (a,),
        "out.w": (2 * h,),
        "out.b": (),
    }


def embed(model: RnnModel, ids: np.ndarray) -> np.ndarray:
    """Row lookup, ids.shape + (embed_dim,); pads hit the pinned zero row."""
    table = model.params["embedding"]
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise ValidationError(f"token id outside embedding table of {table.shape[0]} rows")
    return table[ids]


def lstm_step(
    xw_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    params: dict,
    side: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM update of direction `side` ("fwd" or "bwd") from the step's
    input projection xw_t = x_t . W^T.

    Accepts (batch, dim) or bare (dim,) arrays. Returns (h_t, c_t, gates),
    where gates holds sigma(i), sigma(f), sigma(o), tanh(g) side by side.
    """
    try:
        gates = xw_t + h_prev @ params[f"{side}.U"].T + params[f"{side}.b"]
        n = h_prev.shape[-1]
        gates[..., : 3 * n] = sigmoid(gates[..., : 3 * n])
        np.tanh(gates[..., 3 * n :], out=gates[..., 3 * n :])
        i, f, o, g = (gates[..., k * n : (k + 1) * n] for k in range(4))
        c_t = f * c_prev + i * g
    except ValueError as exc:
        raise ValidationError(f"lstm_step shape mismatch: {exc}") from exc
    h_t = o * np.tanh(c_t)
    return h_t, c_t, gates


@dataclass
class ForwardCache:
    """Every array is in length order (the caller's rows reordered by
    `order`) except `probs`, which is in the caller's order.

    The batch's real positions are its cells, listed position-major:
    position t holds cells steps[t]:steps[t + 1], rows 0 ... n_t - 1."""

    order: np.ndarray  # (B,) caller row of each length-ordered row
    labels: np.ndarray  # (B,)
    steps: np.ndarray  # (L + 1,) cell offset of each position
    ids: np.ndarray  # (cells,) token id of each cell
    x: np.ndarray  # (cells, E) embedded cells
    gates: dict  # side -> (cells, 4h): sigma(i), sigma(f), sigma(o), tanh(g)
    H: np.ndarray  # (cells, 2 * hidden): fwd states, then bwd states
    u: np.ndarray  # tanh(W_a . h), (cells, attn_dim)
    alphas: np.ndarray  # (cells,)
    context: np.ndarray  # (B, 2 * hidden)
    probs: np.ndarray  # (B,)


def positions(side: str, length: int) -> range:
    """The order in which direction `side` visits a batch's positions."""
    return range(length) if side == "fwd" else range(length - 1, -1, -1)


def cell_rows(steps: np.ndarray) -> np.ndarray:
    """The batch row of each cell, given the cell offsets `steps` of rows in
    length order, each with a cell at position 0."""
    counts = np.diff(steps)
    if len(counts) == 0 or counts[0] < 1 or np.any(np.diff(counts) > 0):
        raise ValidationError("cells must list rows in length order, each from position 0")
    return np.arange(steps[-1]) - np.repeat(steps[:-1], counts)


def _cells(model: RnnModel, batch: TokenBatch):
    """(order, steps, ids, x): the batch's length order (longest row first,
    stable on ties), the (L + 1,) offset of each position's cells, and the
    cells' ids and embeddings, position-major."""
    order = np.argsort(-np.count_nonzero(batch.ids, axis=1), kind="stable")
    real = batch.mask[order].T > 0.0
    steps = np.concatenate(([0], np.cumsum(np.count_nonzero(real, axis=1))))
    ids = batch.ids[order].T[real]
    return order, steps, ids, embed(model, ids)


def _run_direction(params: dict, side: str, x: np.ndarray, steps: np.ndarray):
    """Run direction `side` over the cells `x`. Returns their (cells, 4h)
    gates and (cells, hidden) hidden states.

    Position t updates only rows 0 ... n_t - 1, the rows that have a token
    there. `fwd` visits t = 0 ... L - 1, so a row stops at its last token;
    `bwd` visits t = L - 1 ... 0, so a row joins at its last token, from
    zero state. Every other row keeps its (h, c), so padding never alters
    real positions.
    """
    # the input projection of every cell in one GEMM; each step then
    # overwrites its cells' rows with the activations
    gates = x @ params[f"{side}.W"].T
    h = np.zeros((steps[1], gates.shape[1] // 4))  # every row has a cell at position 0
    c = np.zeros_like(h)
    states = np.empty((len(x), h.shape[1]))
    for t in positions(side, len(steps) - 1):
        n, rows = steps[t + 1] - steps[t], slice(steps[t], steps[t + 1])
        h[:n], c[:n], gates[rows] = lstm_step(gates[rows], h[:n], c[:n], params, side)
        states[rows] = h[:n]
    return gates, states


def attention(model: RnnModel, H: np.ndarray, steps: np.ndarray):
    """Additive attention pooling over each row's cells, whose states `H`
    are laid out by the cell offsets `steps`. Returns (context (B, 2h),
    alphas (cells,), u (cells, A)); a row's alphas are a softmax over its cells."""
    row, B = cell_rows(steps), steps[1]
    u = np.tanh(H @ model.params["attn.W_a"].T)
    e = u @ model.params["attn.v_a"]
    e_max = np.full(B, -np.inf)
    np.maximum.at(e_max, row, e)
    exps = np.exp(e - e_max[row])
    alphas = exps / np.bincount(row, exps, B)[row]
    weighted = alphas[:, None] * H
    context = np.zeros((B, H.shape[1]))
    # position t's cells are rows 0 ... n_t - 1, the slices the LSTM steps
    for t in range(len(steps) - 1):
        context[: steps[t + 1] - steps[t]] += weighted[steps[t] : steps[t + 1]]
    return context, alphas, u


def forward(model: RnnModel, batch: TokenBatch) -> ForwardCache:
    """Full forward pass over the rows in length order; the returned cache
    feeds `backprop.backward`, and its `probs` are in the caller's order."""
    order, steps, ids, x = _cells(model, batch)
    runs = {side: _run_direction(model.params, side, x, steps) for side in ("fwd", "bwd")}
    H = np.hstack([states for _, states in runs.values()])
    context, alphas, u = attention(model, H, steps)
    probs = np.empty(len(order))
    probs[order] = sigmoid(context @ model.params["out.w"] + model.params["out.b"])
    return ForwardCache(order=order, labels=batch.labels[order], steps=steps, ids=ids, x=x,
                        gates={side: gates for side, (gates, _) in runs.items()}, H=H, u=u,
                        alphas=alphas, context=context, probs=probs)


def batch_probs(model: RnnModel, batch: TokenBatch) -> np.ndarray:
    """`forward(model, batch).probs`, bit for bit, keeping only H: each
    side's gates are dropped as soon as that side has run."""
    order, steps, _, x = _cells(model, batch)
    H = np.hstack([_run_direction(model.params, side, x, steps)[1] for side in ("fwd", "bwd")])
    context, _, _ = attention(model, H, steps)
    probs = np.empty(len(order))
    probs[order] = sigmoid(context @ model.params["out.w"] + model.params["out.b"])
    return probs


def predict_sequences(
    model: RnnModel,
    sequences: Sequence[Sequence[int]],
    chunk: int = 256,
) -> np.ndarray:
    """Probabilities for raw id sequences, in input order.

    Rows are scored in chunks of up to `chunk` rows of similar clipped
    length, so a chunk pads little. Empty sequences cannot enter a
    TokenBatch; they fall back to the bias-only path sigma(out_b), i.e. the
    model's prior. So does every row when the output head is all zero: H is
    bounded, so each logit is then exactly out_b, and no pass is run.
    """
    probs = np.full(len(sequences), sigmoid(model.params["out.b"]))
    if not model.params["out.w"].any():
        return probs
    max_len = model.dims.max_len
    lengths = np.array([min(len(seq), max_len) for seq in sequences], dtype=np.int64)
    rows = np.flatnonzero(lengths)
    rows = rows[np.argsort(lengths[rows], kind="stable")]
    for start in range(0, len(rows), chunk):
        part = rows[start : start + chunk]
        batch = build_batch([sequences[r] for r in part], np.zeros(len(part)), max_len)
        probs[part] = batch_probs(model, batch)
    return probs


def build_batch(
    sequences: Sequence[Sequence[int]],
    labels: Sequence[float],
    max_len: int,
) -> TokenBatch:
    """Pad id sequences to the longest row (capped at max_len) and mask them."""
    if len(sequences) == 0:
        raise ValidationError("cannot build an empty batch")
    clipped = [list(seq[:max_len]) for seq in sequences]
    if any(len(seq) == 0 for seq in clipped):
        raise ValidationError("batch rows must contain at least one token id")
    width = max(len(seq) for seq in clipped)
    ids = np.zeros((len(clipped), width), dtype=np.int64)
    for r, seq in enumerate(clipped):
        ids[r, : len(seq)] = seq
    mask = (ids != 0).astype(np.float64)
    return TokenBatch(ids=ids, mask=mask, labels=np.asarray(labels, dtype=np.float64))
