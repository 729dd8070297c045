"""Bidirectional LSTM + attention classifier with hand-written gradients."""

from .backprop import backward, weighted_bce
from .model import (
    ForwardCache,
    RnnDims,
    RnnModel,
    TokenBatch,
    attention,
    batch_probs,
    build_batch,
    embed,
    forward,
    init_model,
    lstm_step,
    parameter_shapes,
    predict_sequences,
)
from .train import (
    Adam,
    NeuralTrainConfig,
    RnnTrainResult,
    SequenceDataset,
    dataset_loss,
    train_rnn,
)

__all__ = [
    "Adam",
    "ForwardCache",
    "NeuralTrainConfig",
    "RnnDims",
    "RnnModel",
    "RnnTrainResult",
    "SequenceDataset",
    "TokenBatch",
    "attention",
    "backward",
    "batch_probs",
    "build_batch",
    "dataset_loss",
    "embed",
    "forward",
    "init_model",
    "lstm_step",
    "parameter_shapes",
    "predict_sequences",
    "train_rnn",
    "weighted_bce",
]
