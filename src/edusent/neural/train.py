"""Mini-batch Adam training for the sequence model.

Class imbalance is handled through the loss weights (synthetic
oversampling has no meaning for token sequences), and early stopping
tracks validation F1. The returned model is the best-validation snapshot.

Each epoch's batches come from `batch_order`, a seeded "sortish" order
(Khomenko et al., arXiv:1708.05604): the rows are shuffled, cut into pools
of `POOL_BATCHES` batches, each pool is sorted by clipped length and cut
into batches, and the batch order is shuffled. Every LSTM step of a batch
runs to its longest row, so batches of rows of similar length take far
fewer steps for the same cells, while the pools and the two shuffles keep
the batches' contents and order random.

Each batch's forward cache lives only inside `_loss_and_grads`, which
hands back the loss and the gradient dict for `Adam.step`; so one cache is
alive at a time, and none is alive while the next batch's forward runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ValidationError
from ..evalmetrics import classification_metrics, confusion
from ..ingest import SentimentLabel
from .backprop import backward, weighted_bce
from .model import (
    RnnDims,
    RnnModel,
    TokenBatch,
    build_batch,
    forward,
    init_model,
    predict_sequences,
)


@dataclass
class NeuralTrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_pos: float = 1.0
    weight_neg: float = 1.0
    seed: int = 0
    patience: int = 3  # 0 disables early stopping

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ValidationError(f"bad neural training config: {self}")


@dataclass
class SequenceDataset:
    """Encoded id sequences with {0,1} labels. Training rows must be non-empty."""

    sequences: list
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if len(self.sequences) != self.labels.shape[0]:
            raise ValidationError("sequences and labels lengths differ")

    def __len__(self) -> int:
        return len(self.sequences)


@dataclass
class RnnTrainResult:
    model: RnnModel
    initial_loss: float
    epoch_losses: list = field(default_factory=list)
    val_f1s: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = -1


#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over a model's parameter dict, which
    `step` updates in place from a gradient dict with the same names."""

    def __init__(self, model: RnnModel, learning_rate: float):
        self.params = model.params
        self.learning_rate = learning_rate
        self.m = {name: np.zeros_like(p) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p) for name, p in self.params.items()}
        self.t = 0

    def step(self, grads: dict):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)


#: batches per pool that `batch_order` sorts by length; a larger pool gives
#: batches of closer lengths and a less random batch composition
POOL_BATCHES = 100


def batch_order(lengths: np.ndarray, batch_size: int, rng: np.random.Generator) -> list:
    """One epoch's batches, as arrays of row indices, from the rows' clipped
    lengths.

    The rows are permuted by `rng` and cut into pools of `POOL_BATCHES`
    batches; each pool is stable-sorted by length, longest first, and cut
    into batches of `batch_size` rows; then `rng` shuffles the batch order.
    Every row is in exactly one batch, and there are ceil(n / batch_size)
    batches, as in plain shuffled batching; only the last pool's last batch
    can be short.
    """
    perm = rng.permutation(len(lengths))
    pool = POOL_BATCHES * batch_size
    batches = []
    for start in range(0, len(perm), pool):
        part = perm[start : start + pool]
        part = part[np.argsort(-lengths[part], kind="stable")]
        batches.extend(part[i : i + batch_size] for i in range(0, len(part), batch_size))
    return [batches[i] for i in rng.permutation(len(batches))]


def _loss_and_grads(model: RnnModel, batch: TokenBatch, cfg: NeuralTrainConfig):
    """(loss, gradient dict) of one batch, or (loss, None) when the loss is
    not finite. The forward cache is freed on return, before the caller
    steps and before the next batch's forward allocates its own."""
    cache = forward(model, batch)
    loss = weighted_bce(cache.probs, batch.labels, cfg.weight_pos, cfg.weight_neg)
    if not np.isfinite(loss):
        return loss, None
    return loss, backward(model, cache, cfg.weight_pos, cfg.weight_neg)


def _val_f1(labels: np.ndarray, probs: np.ndarray) -> float:
    """F1 of the positive class at threshold 0.5, as `evalmetrics` reports it."""
    y_true = [SentimentLabel(int(v)) for v in labels]
    y_pred = [SentimentLabel.POSITIVE if p >= 0.5 else SentimentLabel.NEGATIVE
              for p in probs]
    return classification_metrics(confusion(y_true, y_pred))["f1"]


def dataset_loss(model: RnnModel, ds: SequenceDataset, cfg: NeuralTrainConfig) -> float:
    """Weighted-BCE of the whole dataset under the current parameters."""
    probs = predict_sequences(model, ds.sequences)
    return weighted_bce(probs, ds.labels, cfg.weight_pos, cfg.weight_neg)


def train_rnn(
    train: SequenceDataset,
    valid: SequenceDataset,
    cfg: NeuralTrainConfig,
    dims: RnnDims,
    initial: Optional[RnnModel] = None,
) -> RnnTrainResult:
    """Train from scratch (or resume from `initial`); fully deterministic
    for a fixed config seed."""
    if len(train) == 0:
        raise ValidationError("empty training set")
    if len(valid) == 0:
        raise ValidationError("empty validation set")
    if any(len(seq) == 0 for seq in train.sequences):
        raise ValidationError("training sequences must be non-empty; filter them upstream")
    label_set = set(np.unique(train.labels))
    if label_set != {0.0, 1.0}:
        raise ValidationError("training requires both classes present")

    if initial is not None:
        if initial.dims != dims:
            raise ValidationError(
                f"initial model dims {initial.dims} do not match requested {dims}")
        model = initial.copy()
    else:
        model = init_model(dims, cfg.seed)
    opt = Adam(model, cfg.learning_rate)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])

    result = RnnTrainResult(model=model, initial_loss=dataset_loss(model, train, cfg))
    # best snapshot by validation F1; ties break towards lower validation loss
    best_key = (-1.0, -np.inf)
    best_model = model.copy()
    stall = 0
    n = len(train)
    lengths = np.array([min(len(seq), dims.max_len) for seq in train.sequences])
    for epoch in range(cfg.epochs):
        total = 0.0
        for bi, idx in enumerate(batch_order(lengths, cfg.batch_size, shuffle_rng)):
            batch = build_batch([train.sequences[j] for j in idx],
                                train.labels[idx], dims.max_len)
            loss, grads = _loss_and_grads(model, batch, cfg)
            if grads is None:
                raise ValidationError(f"training diverged (loss not finite) at epoch {epoch}, batch {bi}")
            opt.step(grads)
            model.params["embedding"][0] = 0.0
            total += loss * len(idx)
        result.epoch_losses.append(total / n)

        val_probs = predict_sequences(model, valid.sequences)
        f1 = _val_f1(valid.labels, val_probs)
        val_loss = weighted_bce(val_probs, valid.labels, cfg.weight_pos, cfg.weight_neg)
        result.val_f1s.append(f1)
        result.val_losses.append(val_loss)
        key = (f1, -val_loss)
        if key > best_key:
            best_key = key
            best_model = model.copy()
            result.best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if cfg.patience > 0 and stall >= cfg.patience:
                break
    result.model = best_model
    return result
