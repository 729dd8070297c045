"""Logistic regression baseline trained by full-batch gradient descent.

The objective is mean binary cross-entropy plus an L2 penalty (l2/2)*||w||^2
on the weights (never the bias). Weights start at zero, so an untrained
model emits probability 0.5 for every input. If a step ever increases the
objective the step is retried at half the learning rate, which keeps the
recorded loss history non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .features import SparseVector, pack_rows
from .ingest import SentimentLabel


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float

    @property
    def dim(self) -> int:
        return int(self.weights.shape[0])


@dataclass
class LinearTrainConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 1 or self.l2 < 0:
            raise ValidationError(f"bad linear training config: {self}")


@dataclass
class LinearTrainResult:
    model: LinearModel
    loss_history: list  # objective before training, then after each epoch


def sigmoid(z):
    """Numerically stable logistic function, elementwise on arrays."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


@dataclass
class _Packed:
    """Training rows as CSR-style arrays, with each entry's row and the 0/1 labels."""

    indices: np.ndarray
    values: np.ndarray
    rows: np.ndarray
    y: np.ndarray


def _pack(X: Sequence[SparseVector], y: Sequence[SentimentLabel], dim: int) -> _Packed:
    indptr, indices, values = pack_rows(X)
    if indices.size and indices.max() >= dim:
        raise ValidationError(
            f"feature index {indices.max()} exceeds model dimension {dim}")
    rows = np.repeat(np.arange(len(X)), np.diff(indptr))
    return _Packed(indices, values, rows, np.array([float(int(lab)) for lab in y]))


def _logits(d: _Packed, w: np.ndarray, b: float) -> np.ndarray:
    # bincount sums each row's products in entry order
    return np.bincount(d.rows, weights=d.values * w[d.indices], minlength=len(d.y)) + b


def _objective(d: _Packed, w: np.ndarray, b: float, l2: float) -> float:
    z = _logits(d, w, b)
    return float(np.mean(_softplus(z) - d.y * z)) + 0.5 * l2 * float(w @ w)


def _gradient(d: _Packed, w: np.ndarray, b: float, l2: float) -> tuple[np.ndarray, float]:
    resid = (sigmoid(_logits(d, w, b)) - d.y) / len(d.y)
    gw = np.bincount(d.indices, weights=d.values * resid[d.rows], minlength=w.shape[0])
    gw += l2 * w
    return gw, float(np.sum(resid))


def lr_objective(
    X: Sequence[SparseVector],
    y: Sequence[SentimentLabel],
    w: np.ndarray,
    b: float,
    l2: float,
) -> float:
    """Mean BCE + (l2/2)*||w||^2 at (w, b), computed from logits stably."""
    return _objective(_pack(X, y, w.shape[0]), w, b, l2)


def lr_gradient(
    X: Sequence[SparseVector],
    y: Sequence[SentimentLabel],
    w: np.ndarray,
    b: float,
    l2: float,
) -> tuple[np.ndarray, float]:
    """Exact gradient of lr_objective: mean (sigma(z) - y) x + l2 w, and the
    bias part mean (sigma(z) - y)."""
    return _gradient(_pack(X, y, w.shape[0]), w, b, l2)


def train_lr(
    X: Sequence[SparseVector],
    y: Sequence[SentimentLabel],
    cfg: LinearTrainConfig,
    dim: Optional[int] = None,
    initial: Optional[LinearModel] = None,
) -> LinearTrainResult:
    """Fit the baseline on sparse TF-IDF rows.

    `dim` is the frozen vocabulary size; when omitted it is inferred from
    the largest feature index present. `initial` warm-starts from an
    existing model instead of the zero init.
    """
    if not X or len(X) != len(y):
        raise ValidationError("X and y must be non-empty and equal-length")
    labels = {int(lab) for lab in y}
    if labels != {0, 1}:
        raise ValidationError("training requires both classes present")
    if dim is None:
        dim = 1 + max((x.pairs[-1][0] for x in X if x.pairs), default=-1)
        if initial is not None:
            dim = max(dim, initial.dim)
    if dim < 1:
        raise ValidationError("cannot infer a positive feature dimension")
    if initial is not None and initial.dim != dim:
        raise ValidationError(
            f"initial model dimension {initial.dim} does not match {dim}")

    data = _pack(X, y, dim)

    if initial is not None:
        w = initial.weights.copy()
        b = float(initial.bias)
    else:
        w = np.zeros(dim)
        b = 0.0
    lr = cfg.learning_rate
    loss = _objective(data, w, b, cfg.l2)
    history = [loss]
    for _ in range(cfg.epochs):
        gw, gb = _gradient(data, w, b, cfg.l2)
        for _attempt in range(64):
            w_new = w - lr * gw
            b_new = b - lr * gb
            new_loss = _objective(data, w_new, b_new, cfg.l2)
            if new_loss <= loss + 1e-9:
                break
            lr *= 0.5
        w, b, loss = w_new, b_new, new_loss
        history.append(loss)
    return LinearTrainResult(model=LinearModel(weights=w, bias=b), loss_history=history)


def predict_proba(model: LinearModel, x: SparseVector) -> float:
    """sigma(w . x + b); an empty sparse vector scores sigma(b)."""
    z = model.bias
    for idx, value in x.pairs:
        if idx >= model.dim or idx < 0:
            raise ValidationError(f"feature index {idx} outside model dimension {model.dim}")
        z += model.weights[idx] * value
    return float(sigmoid(z))


def classify(p: float, threshold: float = 0.5) -> SentimentLabel:
    """Probability >= threshold reads as Positive (ties resolve Positive)."""
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"probability {p} outside [0, 1]")
    return SentimentLabel.POSITIVE if p >= threshold else SentimentLabel.NEGATIVE

