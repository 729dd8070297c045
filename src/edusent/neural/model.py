"""Bidirectional LSTM with additive attention, built directly on numpy.

`forward` caches every intermediate the hand-written backward pass in
`backprop` needs. Inference (`batch_probs`, and through it
`predict_sequences`) runs the same steps without a cache: each direction
keeps only its current (h, c) and the output rows attention reads.
All math is float64 and deterministic.

Both passes put a batch's rows in length order, longest first, so the rows
that still have a token at a step are a prefix of the batch. Each LSTM step
updates only that prefix; a row whose tokens have ended (or, for the
backward direction, not yet begun) keeps its (h, c), and its padded
positions get zero output rows without any work. Only the B-length
probabilities are put back in the caller's row order.

Architecture: trainable embedding (row 0 pinned to zeros for padding),
one LSTM per direction, additive (tanh) attention over the concatenated
hidden states, and a sigmoid output head that is zero-initialized so an
untrained model emits exactly 0.5. Its 11 parameter arrays live in one
dict, `RnnModel.params`, keyed by the names the model file uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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

    def in_length_order(self) -> tuple[np.ndarray, "TokenBatch"]:
        """(order, batch of rows order[0], order[1], ...): longest row first,
        stable on ties."""
        order = np.argsort(-np.count_nonzero(self.ids, axis=1), kind="stable")
        return order, TokenBatch(ids=self.ids[order], mask=self.mask[order],
                                 labels=self.labels[order])


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_model(dims: RnnDims, seed: int) -> RnnModel:
    """A fresh model: Glorot-uniform weights drawn from `seed` in the order
    embedding, fwd, bwd, attention, and a zero output head."""
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


def embed(model: RnnModel, batch: TokenBatch) -> np.ndarray:
    """Row lookup, (batch, max_len, embed_dim); pads hit the pinned zero row."""
    table = model.params["embedding"]
    if np.any(batch.ids < 0) or np.any(batch.ids >= table.shape[0]):
        raise ValidationError(f"token id outside embedding table of {table.shape[0]} rows")
    return table[batch.ids]


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
        a = xw_t + h_prev @ params[f"{side}.U"].T + params[f"{side}.b"]
        n = h_prev.shape[-1]
        gates = np.empty_like(a)
        gates[..., : 3 * n] = sigmoid(a[..., : 3 * n])
        gates[..., 3 * n :] = np.tanh(a[..., 3 * n :])
        i, f, o, g = (gates[..., k * n : (k + 1) * n] for k in range(4))
        c_t = f * c_prev + i * g
    except ValueError as exc:
        raise ValidationError(f"lstm_step shape mismatch: {exc}") from exc
    h_t = o * np.tanh(c_t)
    return h_t, c_t, gates


@dataclass
class DirectionCache:
    """Per-timestep values of one direction, in processing order, for rows
    in length order. Step s updates the first steps[s + 1] - steps[s] rows;
    `gates` holds exactly those rows, step after step."""

    x: np.ndarray  # (B, L, E) inputs as consumed (reversed for the backward cell)
    steps: np.ndarray  # (L + 1,) step s has rows steps[s]:steps[s + 1] of gates
    gates: np.ndarray  # (real positions, 4h): sigma(i), sigma(f), sigma(o), tanh(g)
    h: np.ndarray  # (B, L, hidden) hidden state, the direction's half of H
    c: np.ndarray  # (B, L, hidden) cell state, zero where a row has not begun


@dataclass
class ForwardCache:
    """Every array is in length order (`batch` is the caller's batch
    reordered by `order`) except `probs`, which is in the caller's order."""

    batch: TokenBatch
    order: np.ndarray  # (B,) caller row of each length-ordered row
    embedded: np.ndarray
    fwd: DirectionCache
    bwd: DirectionCache
    H: np.ndarray  # (B, L, 2 * hidden), zero rows at masked positions
    u: np.ndarray  # tanh(W_a . h), (B, L, attn_dim)
    alphas: np.ndarray  # (B, L)
    context: np.ndarray  # (B, 2 * hidden)
    logits: np.ndarray  # (B,)
    probs: np.ndarray  # (B,)


def _run_direction(params: dict, side: str, x: np.ndarray, mask: np.ndarray,
                   out: np.ndarray, cache: bool = True) -> Optional[DirectionCache]:
    """Run direction `side` over already time-ordered inputs, writing each
    step's hidden state into `out` (B, L, hidden), a zeroed view of H.

    The rows with a token at a step must be a prefix of the batch: rows in
    length order, longest first, padded after (forward) or before (reversed)
    their tokens. A step updates only that prefix; every other row keeps its
    (h, c) state, and its output row stays zero, so padding never alters real
    positions. With `cache` off only the current (h, c) is kept and None is
    returned.
    """
    B, L, _ = x.shape
    h_dim = out.shape[2]
    steps = np.concatenate(([0], np.cumsum(np.count_nonzero(mask, axis=0))))
    # the input projection of every real position in one GEMM, in step order;
    # with a cache, each step then overwrites its rows with the activations
    gates_all = x.transpose(1, 0, 2)[mask.T > 0.0] @ params[f"{side}.W"].T
    if cache:
        c_all = np.zeros((B, L, h_dim))  # backprop reads c before a row's first token as 0
    h = np.zeros((B, h_dim))
    c = np.zeros((B, h_dim))
    for s in range(L):
        n = steps[s + 1] - steps[s]
        rows = slice(steps[s], steps[s + 1])
        h[:n], c[:n], gates = lstm_step(gates_all[rows], h[:n], c[:n], params, side)
        out[:n, s] = h[:n]
        if cache:
            gates_all[rows] = gates
            c_all[:n, s] = c[:n]
    if not cache:
        return None
    return DirectionCache(x=x, steps=steps, gates=gates_all, h=out, c=c_all)


def bilstm(model: RnnModel, embedded: np.ndarray, mask: np.ndarray, cache: bool = True):
    """Concatenated per-position hidden states, (B, L, 2 * hidden).

    Rows must be in length order, longest first (`TokenBatch.in_length_order`).
    Returns (H, fwd_cache, bwd_cache); masked positions are zero rows. With
    `cache` off both caches are None.
    """
    if np.any(np.diff(np.count_nonzero(mask, axis=1)) > 0):
        raise ValidationError("bilstm needs rows in length order, longest first")
    B, L, _ = embedded.shape
    h_dim = model.dims.hidden
    H = np.zeros((B, L, 2 * h_dim))
    fwd = _run_direction(model.params, "fwd", embedded, mask, H[:, :, :h_dim], cache)
    bwd = _run_direction(model.params, "bwd", embedded[:, ::-1], mask[:, ::-1],
                         H[:, ::-1, h_dim:], cache)
    return H, fwd, bwd


def attention(model: RnnModel, H: np.ndarray, mask: np.ndarray):
    """Additive attention pooling.

    Returns (context (B, 2h), alphas (B, L), u) where alphas are a softmax
    over unmasked positions only.
    """
    if np.any(mask.sum(axis=1) < 1):
        raise ValidationError("attention needs at least one unmasked position per row")
    u = np.tanh(H @ model.params["attn.W_a"].T)  # (B, L, A)
    e = u @ model.params["attn.v_a"]  # (B, L)
    e_masked = np.where(mask > 0, e, -np.inf)
    e_shift = e_masked - e_masked.max(axis=1, keepdims=True)
    exps = np.where(mask > 0, np.exp(e_shift), 0.0)
    alphas = exps / exps.sum(axis=1, keepdims=True)
    context = (alphas[:, None, :] @ H)[:, 0]
    return context, alphas, u


def forward(model: RnnModel, batch: TokenBatch) -> ForwardCache:
    """Full forward pass over the rows in length order; the returned cache
    feeds `backprop.backward`, and its `probs` are in the caller's order."""
    order, batch = batch.in_length_order()
    embedded = embed(model, batch)
    H, fwd, bwd = bilstm(model, embedded, batch.mask)
    context, alphas, u = attention(model, H, batch.mask)
    logits = context @ model.params["out.w"] + model.params["out.b"]
    probs = np.empty_like(logits)
    probs[order] = sigmoid(logits)
    return ForwardCache(batch=batch, order=order, embedded=embedded, fwd=fwd, bwd=bwd,
                        H=H, u=u, alphas=alphas, context=context, logits=logits,
                        probs=probs)


def batch_probs(model: RnnModel, batch: TokenBatch) -> np.ndarray:
    """`forward(model, batch).probs`, bit for bit, without building a cache."""
    order, batch = batch.in_length_order()
    H, _, _ = bilstm(model, embed(model, batch), batch.mask, cache=False)
    context, _, _ = attention(model, H, batch.mask)
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


def encode_tokens(tokens: Sequence[str], term_to_index: dict, max_len: int) -> list:
    """Map tokens to 1-based ids (0 is padding); out-of-vocabulary drops out."""
    ids = [term_to_index[t] + 1 for t in tokens if t in term_to_index]
    return ids[:max_len]

