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
from .features import Csr
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

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 1 or self.l2 < 0:
            raise ValidationError(f"bad linear training config: {self}")


@dataclass
class LinearTrainResult:
    model: LinearModel
    loss_history: list  # objective before training, then after each epoch


def sigmoid(z):
    """Logistic function, elementwise on arrays; a 0-d input gives a float.

    The stable forms 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) for
    z < 0 share the denominator 1 + e, with e = exp(-|z|), and differ only
    in the numerator, 1 or e. Picking the numerator elementwise gives each
    form's exact bits in one pass, with no masked gather and no exp of a
    positive argument, so nothing overflows.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    out = np.maximum(e, z >= 0)  # 1 where z >= 0 (e <= 1 there), else e
    out /= 1.0 + e
    return float(out) if out.ndim == 0 else out


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _check_width(X: Csr, dim: int) -> None:
    if X.indices.size and X.indices.max() >= dim:
        raise ValidationError(
            f"feature index {X.indices.max()} exceeds model dimension {dim}")


def _targets(X: Csr, y: Sequence[SentimentLabel], dim: int) -> np.ndarray:
    """The 0/1 labels as floats, once X is checked to fit `dim` columns."""
    _check_width(X, dim)
    return np.array([float(int(lab)) for lab in y])


def _logits(X: Csr, w: np.ndarray, b: float) -> np.ndarray:
    # bincount sums each row's products in entry order
    return np.bincount(X.rows, weights=X.values * w[X.indices], minlength=len(X)) + b


def _objective(X: Csr, y: np.ndarray, w: np.ndarray, b: float, l2: float) -> float:
    z = _logits(X, w, b)
    return float(np.mean(_softplus(z) - y * z)) + 0.5 * l2 * float(w @ w)


def _gradient(X: Csr, y: np.ndarray, w: np.ndarray, b: float,
              l2: float) -> tuple[np.ndarray, float]:
    resid = (sigmoid(_logits(X, w, b)) - y) / len(y)
    gw = np.bincount(X.indices, weights=X.values * resid[X.rows], minlength=w.shape[0])
    gw += l2 * w
    return gw, float(np.sum(resid))


def lr_objective(
    X: Csr,
    y: Sequence[SentimentLabel],
    w: np.ndarray,
    b: float,
    l2: float,
) -> float:
    """Mean BCE + (l2/2)*||w||^2 at (w, b), computed from logits stably."""
    return _objective(X, _targets(X, y, w.shape[0]), w, b, l2)


def lr_gradient(
    X: Csr,
    y: Sequence[SentimentLabel],
    w: np.ndarray,
    b: float,
    l2: float,
) -> tuple[np.ndarray, float]:
    """Exact gradient of lr_objective: mean (sigma(z) - y) x + l2 w, and the
    bias part mean (sigma(z) - y)."""
    return _gradient(X, _targets(X, y, w.shape[0]), w, b, l2)


def train_lr(
    X: Csr,
    y: Sequence[SentimentLabel],
    cfg: LinearTrainConfig,
    dim: int,
    initial: Optional[LinearModel] = None,
) -> LinearTrainResult:
    """Fit the baseline on TF-IDF rows of width `dim`, the frozen
    vocabulary size. `initial` warm-starts from an existing model instead
    of the zero init.
    """
    if not len(X) or len(X) != len(y):
        raise ValidationError("X and y must be non-empty and equal-length")
    labels = {int(lab) for lab in y}
    if labels != {0, 1}:
        raise ValidationError("training requires both classes present")
    if initial is not None and initial.dim != dim:
        raise ValidationError(
            f"initial model dimension {initial.dim} does not match {dim}")

    targets = _targets(X, y, dim)

    if initial is not None:
        w = initial.weights.copy()
        b = float(initial.bias)
    else:
        w = np.zeros(dim)
        b = 0.0
    lr = cfg.learning_rate
    loss = _objective(X, targets, w, b, cfg.l2)
    history = [loss]
    for _ in range(cfg.epochs):
        gw, gb = _gradient(X, targets, w, b, cfg.l2)
        for _attempt in range(64):
            w_new = w - lr * gw
            b_new = b - lr * gb
            new_loss = _objective(X, targets, w_new, b_new, cfg.l2)
            if new_loss <= loss + 1e-9:
                break
            lr *= 0.5
        w, b, loss = w_new, b_new, new_loss
        history.append(loss)
    return LinearTrainResult(model=LinearModel(weights=w, bias=b), loss_history=history)


def predict_proba(model: LinearModel, X: Csr) -> np.ndarray:
    """sigma(b + w . x) for every row x of X; an empty row scores sigma(b).

    Each row's logit starts from the bias and adds its products in entry
    order, the same sum as scoring one row at a time.
    """
    _check_width(X, model.dim)
    n = len(X)
    # row i's summands: the bias, then its products; bincount adds them in order
    terms = np.empty(n + len(X.indices))
    terms[X.indptr[:-1] + np.arange(n)] = model.bias
    terms[np.arange(len(X.indices)) + X.rows + 1] = model.weights[X.indices] * X.values
    return sigmoid(np.bincount(np.repeat(np.arange(n), np.diff(X.indptr) + 1),
                               weights=terms, minlength=n))


def classify(p: float, threshold: float = 0.5) -> SentimentLabel:
    """Probability >= threshold reads as Positive (ties resolve Positive)."""
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"probability {p} outside [0, 1]")
    return SentimentLabel.POSITIVE if p >= threshold else SentimentLabel.NEGATIVE

