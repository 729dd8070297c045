"""Bidirectional LSTM with additive attention, built directly on numpy.

`forward` caches every intermediate the hand-written backward pass in
`backprop` needs. Inference (`batch_probs`, and through it
`predict_sequences`) runs the same steps without a cache: each direction
keeps only its current (h, c) and the masked output rows attention reads.
All math is float64 and deterministic.

Architecture: trainable embedding (row 0 pinned to zeros for padding),
one LSTM per direction, additive (tanh) attention over the concatenated
hidden states, and a sigmoid output head that is zero-initialized so an
untrained model emits exactly 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ValidationError
from ..linear import sigmoid


class Tensor:
    """A dense parameter array with an attached gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())


@dataclass
class RnnDims:
    vocab_size: int  # number of real terms; embedding has vocab_size + 1 rows
    embed_dim: int = 64
    hidden: int = 64
    attn_dim: int = 64
    max_len: int = 128


@dataclass
class LstmCellParams:
    """Fused gate weights: input W (4h x embed), recurrent U (4h x h) and
    bias b (4h,), with the gate row blocks in the order i, f, o, g."""

    W: Tensor
    U: Tensor
    b: Tensor

    def named_tensors(self, prefix: str):
        yield f"{prefix}.W", self.W
        yield f"{prefix}.U", self.U
        yield f"{prefix}.b", self.b


@dataclass
class AttentionParams:
    W_a: Tensor  # (attn_dim, 2 * hidden)
    v_a: Tensor  # (attn_dim,)


@dataclass
class RnnModel:
    dims: RnnDims
    embedding: Tensor  # (vocab_size + 1, embed_dim); row 0 stays zero
    forward_cell: LstmCellParams
    backward_cell: LstmCellParams
    attention: AttentionParams
    out_w: Tensor  # (2 * hidden,)
    out_b: Tensor  # scalar, shape ()

    def named_parameters(self):
        """Fixed-order (name, Tensor) pairs covering every trainable array."""
        yield "embedding", self.embedding
        yield from self.forward_cell.named_tensors("fwd")
        yield from self.backward_cell.named_tensors("bwd")
        yield "attn.W_a", self.attention.W_a
        yield "attn.v_a", self.attention.v_a
        yield "out.w", self.out_w
        yield "out.b", self.out_b

    def copy(self) -> "RnnModel":
        model = init_model(self.dims, seed=0)
        for (_, dst), (_, src) in zip(model.named_parameters(), self.named_parameters()):
            dst.data = src.data.copy()
        return model


@dataclass
class TokenBatch:
    """Padded id matrix with its mask and labels.

    ids uses 0 for padding; mask is 1.0 exactly where ids != 0, and every
    row must contain at least one real token.
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


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _init_cell(rng: np.random.Generator, dims: RnnDims) -> LstmCellParams:
    h, e = dims.hidden, dims.embed_dim
    W, U = [], []
    for _gate in "ifog":  # draws interleave per gate: W_i, U_i, W_f, U_f, ...
        W.append(_glorot(rng, e, h, (h, e)))
        U.append(_glorot(rng, h, h, (h, h)))
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0  # forget-gate bias 1.0 keeps early cell memory alive
    return LstmCellParams(W=Tensor(np.concatenate(W)), U=Tensor(np.concatenate(U)),
                          b=Tensor(b))


def init_model(dims: RnnDims, seed: int) -> RnnModel:
    rng = np.random.default_rng(seed)
    emb = _glorot(rng, dims.vocab_size + 1, dims.embed_dim,
                  (dims.vocab_size + 1, dims.embed_dim))
    emb[0] = 0.0
    fwd = _init_cell(rng, dims)
    bwd = _init_cell(rng, dims)
    attn = AttentionParams(
        W_a=Tensor(_glorot(rng, 2 * dims.hidden, dims.attn_dim,
                           (dims.attn_dim, 2 * dims.hidden))),
        v_a=Tensor(_glorot(rng, dims.attn_dim, 1, (dims.attn_dim,))),
    )
    return RnnModel(
        dims=dims,
        embedding=Tensor(emb),
        forward_cell=fwd,
        backward_cell=bwd,
        attention=attn,
        out_w=Tensor(np.zeros(2 * dims.hidden)),
        out_b=Tensor(np.zeros(())),
    )


def parameter_shapes(dims: RnnDims) -> dict:
    """name -> shape of each parameter of `init_model(dims, ...)`, in
    `named_parameters` order, without allocating any."""
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
    n_rows = model.embedding.data.shape[0]
    if np.any(batch.ids < 0) or np.any(batch.ids >= n_rows):
        raise ValidationError(f"token id outside embedding table of {n_rows} rows")
    return model.embedding.data[batch.ids]


def lstm_step(
    xw_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    cell: LstmCellParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM update from the step's input projection xw_t = x_t . W^T.

    Accepts (batch, dim) or bare (dim,) arrays. Returns (h_t, c_t, gates),
    where gates holds sigma(i), sigma(f), sigma(o), tanh(g) side by side.
    """
    try:
        a = xw_t + h_prev @ cell.U.data.T + cell.b.data
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
    """Per-timestep values of one direction, in processing order."""

    x: np.ndarray  # (B, L, E) inputs as consumed (reversed for the backward cell)
    mask: np.ndarray  # (B, L)
    gates: np.ndarray  # (B, L, 4h): sigma(i), sigma(f), sigma(o), tanh(g)
    c_tilde: np.ndarray  # candidate cell value before mask gating
    h_state: np.ndarray  # carried hidden state after mask gating
    c_state: np.ndarray


@dataclass
class ForwardCache:
    batch: TokenBatch
    embedded: np.ndarray
    fwd: DirectionCache
    bwd: DirectionCache
    H: np.ndarray  # (B, L, 2 * hidden), zero rows at masked positions
    u: np.ndarray  # tanh(W_a . h), (B, L, attn_dim)
    alphas: np.ndarray  # (B, L)
    context: np.ndarray  # (B, 2 * hidden)
    logits: np.ndarray  # (B,)
    probs: np.ndarray  # (B,)


def _run_direction(cell: LstmCellParams, x: np.ndarray, mask: np.ndarray,
                   out: np.ndarray, cache: bool = True) -> Optional[DirectionCache]:
    """Run one direction over already time-ordered inputs, writing each
    step's output row m * h_tilde into `out` (B, L, hidden), a view of H.

    Masked steps compute gates but pass the carried (h, c) state through
    unchanged and contribute zero rows to the output, so a padded tail never
    alters real positions. With `cache` off only the current (h, c) is kept
    and None is returned.
    """
    B, L, E = x.shape
    h_dim = cell.U.data.shape[1]
    # the input projection of every timestep in one GEMM; with a cache, each
    # step then overwrites its slice with the gate activations
    gates_all = (x.reshape(B * L, E) @ cell.W.data.T).reshape(B, L, 4 * h_dim)
    if cache:
        ct_all, hs_all, cs_all = (np.empty((B, L, h_dim)) for _ in range(3))
    h = np.zeros((B, h_dim))
    c = np.zeros((B, h_dim))
    for s in range(L):
        m = mask[:, s : s + 1]
        h_tilde, c_tilde, gates = lstm_step(gates_all[:, s], h, c, cell)
        h = m * h_tilde + (1.0 - m) * h
        c = m * c_tilde + (1.0 - m) * c
        out[:, s] = m * h_tilde
        if cache:
            gates_all[:, s] = gates
            ct_all[:, s], hs_all[:, s], cs_all[:, s] = c_tilde, h, c
    if not cache:
        return None
    return DirectionCache(x=x, mask=mask, gates=gates_all, c_tilde=ct_all,
                          h_state=hs_all, c_state=cs_all)


def bilstm(model: RnnModel, embedded: np.ndarray, mask: np.ndarray, cache: bool = True):
    """Concatenated per-position hidden states, (B, L, 2 * hidden).

    Returns (H, fwd_cache, bwd_cache); masked positions are zero rows. With
    `cache` off both caches are None.
    """
    B, L, _ = embedded.shape
    h_dim = model.dims.hidden
    H = np.empty((B, L, 2 * h_dim))
    fwd = _run_direction(model.forward_cell, embedded, mask, H[:, :, :h_dim], cache)
    bwd = _run_direction(model.backward_cell, embedded[:, ::-1], mask[:, ::-1],
                         H[:, ::-1, h_dim:], cache)
    return H, fwd, bwd


def attention(model: RnnModel, H: np.ndarray, mask: np.ndarray):
    """Additive attention pooling.

    Returns (context (B, 2h), alphas (B, L), u) where alphas are a softmax
    over unmasked positions only.
    """
    if np.any(mask.sum(axis=1) < 1):
        raise ValidationError("attention needs at least one unmasked position per row")
    u = np.tanh(H @ model.attention.W_a.data.T)  # (B, L, A)
    e = u @ model.attention.v_a.data  # (B, L)
    e_masked = np.where(mask > 0, e, -np.inf)
    e_shift = e_masked - e_masked.max(axis=1, keepdims=True)
    exps = np.where(mask > 0, np.exp(e_shift), 0.0)
    alphas = exps / exps.sum(axis=1, keepdims=True)
    context = (alphas[:, None, :] @ H)[:, 0]
    return context, alphas, u


def forward(model: RnnModel, batch: TokenBatch) -> ForwardCache:
    """Full forward pass; the returned cache feeds `backprop.backward`."""
    embedded = embed(model, batch)
    H, fwd, bwd = bilstm(model, embedded, batch.mask)
    context, alphas, u = attention(model, H, batch.mask)
    logits = context @ model.out_w.data + model.out_b.data
    probs = sigmoid(logits)
    return ForwardCache(batch=batch, embedded=embedded, fwd=fwd, bwd=bwd, H=H,
                        u=u, alphas=alphas, context=context, logits=logits, probs=probs)


def batch_probs(model: RnnModel, batch: TokenBatch) -> np.ndarray:
    """`forward(model, batch).probs`, bit for bit, without building a cache."""
    H, _, _ = bilstm(model, embed(model, batch), batch.mask, cache=False)
    context, _, _ = attention(model, H, batch.mask)
    return sigmoid(context @ model.out_w.data + model.out_b.data)


def predict_sequences(
    model: RnnModel,
    sequences: Sequence[Sequence[int]],
    chunk: int = 256,
) -> np.ndarray:
    """Probabilities for raw id sequences, in input order.

    Rows are scored in chunks of up to `chunk` rows of similar clipped
    length, so a chunk pads little. Empty sequences cannot enter a
    TokenBatch; they fall back to the bias-only path sigma(out_b), i.e. the
    model's prior.
    """
    max_len = model.dims.max_len
    lengths = np.array([min(len(seq), max_len) for seq in sequences], dtype=np.int64)
    rows = np.flatnonzero(lengths)
    rows = rows[np.argsort(lengths[rows], kind="stable")]
    probs = np.full(len(sequences), sigmoid(model.out_b.data))
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

