"""Confusion matrix, accuracy/precision/recall/F1, ROC curve and AUC.

Positive is the positive class everywhere. Metrics with a zero denominator
come back as 0.0 together with a flag naming them, so report files stay
parseable. The ROC curve sweeps a threshold at every distinct score, which
makes the trapezoidal AUC equal the pair-counting statistic
(concordant + 0.5 * tied) / (P * N) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .ingest import SentimentLabel


@dataclass
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def as_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}


@dataclass
class RocCurve:
    points: list  # (fpr, tpr), threshold descending: (0,0) first, (1,1) last
    auc: float


def confusion(
    y_true: Sequence[SentimentLabel],
    y_pred: Sequence[SentimentLabel],
) -> ConfusionMatrix:
    if len(y_true) != len(y_pred) or not y_true:
        raise ValidationError("y_true and y_pred must be equal-length and non-empty")
    tp = fp = fn = tn = 0
    for truth, pred in zip(y_true, y_pred):
        if pred == SentimentLabel.POSITIVE:
            if truth == SentimentLabel.POSITIVE:
                tp += 1
            else:
                fp += 1
        else:
            if truth == SentimentLabel.POSITIVE:
                fn += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def classification_metrics(cm: ConfusionMatrix) -> dict:
    """accuracy, precision, recall, f1 plus a list of zero-denominator flags."""
    if cm.total <= 0:
        raise ValidationError("confusion matrix is empty")
    flags = []

    def ratio(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    accuracy = (cm.tp + cm.tn) / cm.total
    precision = ratio(cm.tp, cm.tp + cm.fp, "precision")
    recall = ratio(cm.tp, cm.tp + cm.fn, "recall")
    f1 = ratio(2.0 * precision * recall, precision + recall, "f1")
    return {
        "accuracy": accuracy,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "flags": flags,
    }


def roc_auc(
    scores: Sequence[float],
    labels: Sequence[SentimentLabel],
) -> RocCurve:
    """ROC curve over all distinct-score thresholds plus trapezoidal AUC."""
    if len(scores) != len(labels) or not labels:
        raise ValidationError("scores and labels must be equal-length and non-empty")
    y = np.array([int(lab) for lab in labels])
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValidationError("ROC/AUC needs finite scores")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("ROC/AUC undefined with a single class")

    order = np.argsort(-s, kind="stable")
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    n = len(s)
    while i < n:
        threshold = s[order[i]]
        while i < n and s[order[i]] == threshold:
            if y[order[i]] == 1:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / n_neg, tp / n_pos))

    auc = 0.0
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        auc += (x2 - x1) * (y1 + y2) / 2.0
    return RocCurve(points=points, auc=float(auc))


def evaluation_report(
    y_true: Sequence[SentimentLabel],
    y_pred: Sequence[SentimentLabel],
    scores: Sequence[float],
) -> dict:
    """The full evaluation payload serialized by the CLI."""
    cm = confusion(y_true, y_pred)
    metrics = classification_metrics(cm)
    curve = roc_auc(scores, y_true)
    return {
        "version": 1,
        "confusion": cm.as_dict(),
        "metrics": {k: metrics[k] for k in ("accuracy", "precision", "recall", "f1")},
        "zero_denominator_flags": metrics["flags"],
        "roc": [[x, yv] for x, yv in curve.points],
        "auc": curve.auc,
    }
