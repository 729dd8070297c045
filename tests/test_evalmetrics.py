import numpy as np
import pytest

from conftest import auc_pair_counting, make_labels
from edusent.errors import ValidationError
from edusent.evalmetrics import (
    ConfusionMatrix,
    classification_metrics,
    confusion,
    evaluation_report,
    roc_auc,
)

# confusion counts reported for the two models on the held-out test set
RNN_CM = ConfusionMatrix(tp=2184, fp=422, fn=381, tn=1009)
LR_CM = ConfusionMatrix(tp=1387, fp=422, fn=475, tn=1718)


class TestConfusion:
    def test_all_correct(self):
        y = make_labels([1, 0, 1, 0])
        cm = confusion(y, y)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 0, 0, 2)

    def test_mixed(self):
        y_true = make_labels([1, 1, 0, 0, 1])
        y_pred = make_labels([1, 0, 1, 0, 1])
        cm = confusion(y_true, y_pred)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            confusion(make_labels([1]), make_labels([1, 0]))


class TestMetrics:
    def test_reference_rnn_counts(self):
        m = classification_metrics(RNN_CM)
        assert m["accuracy"] == pytest.approx(3193 / 3996, abs=1e-12)
        assert m["precision"] == pytest.approx(2184 / 2606, abs=1e-12)
        assert m["recall"] == pytest.approx(2184 / 2565, abs=1e-12)
        p, r = 2184 / 2606, 2184 / 2565
        assert m["f1"] == pytest.approx(2 * p * r / (p + r), abs=1e-12)
        assert m["flags"] == []

    def test_reference_lr_counts(self):
        m = classification_metrics(LR_CM)
        assert m["accuracy"] == pytest.approx(0.77586, abs=5e-6)
        assert m["precision"] == pytest.approx(0.76672, abs=5e-6)
        assert m["recall"] == pytest.approx(0.74490, abs=5e-6)
        assert m["f1"] == pytest.approx(0.75565, abs=5e-6)

    def test_perfect_predictor(self):
        m = classification_metrics(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5))
        for key in ("accuracy", "precision", "recall", "f1"):
            assert m[key] == 1.0

    def test_zero_denominator_flagged(self):
        m = classification_metrics(ConfusionMatrix(tp=0, fp=0, fn=3, tn=4))
        assert m["precision"] == 0.0
        assert "precision" in m["flags"] and "f1" in m["flags"]

    def test_swap_equals_label_flip(self):
        rng = np.random.default_rng(0)
        y_true = make_labels(rng.integers(0, 2, size=60).tolist())
        y_pred = make_labels(rng.integers(0, 2, size=60).tolist())
        cm = confusion(y_true, y_pred)
        swapped = ConfusionMatrix(tp=cm.tn, fp=cm.fn, fn=cm.fp, tn=cm.tp)
        flip = lambda ys: make_labels([1 - int(y) for y in ys])
        flipped_cm = confusion(flip(y_true), flip(y_pred))
        assert (swapped.tp, swapped.fp, swapped.fn, swapped.tn) == (
            flipped_cm.tp, flipped_cm.fp, flipped_cm.fn, flipped_cm.tn)
        assert classification_metrics(swapped)["accuracy"] == pytest.approx(
            classification_metrics(cm)["accuracy"])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            classification_metrics(ConfusionMatrix(0, 0, 0, 0))


class TestRoc:
    def test_perfect_separation(self):
        labels = make_labels([1, 1, 0, 0])
        curve = roc_auc([0.9, 0.8, 0.2, 0.1], labels)
        assert curve.auc == 1.0

    def test_all_tied_scores(self):
        labels = make_labels([1, 0, 1, 0])
        curve = roc_auc([0.5] * 4, labels)
        assert curve.auc == 0.5
        assert curve.points == [(0.0, 0.0), (1.0, 1.0)]

    def test_curve_shape(self):
        rng = np.random.default_rng(1)
        labels = make_labels(rng.integers(0, 2, size=50).tolist())
        scores = rng.uniform(size=50).tolist()
        curve = roc_auc(scores, labels)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        xs = [p[0] for p in curve.points]
        ys = [p[1] for p in curve.points]
        assert all(a <= b for a, b in zip(xs, xs[1:]))
        assert all(a <= b for a, b in zip(ys, ys[1:]))
        assert 0.0 <= curve.auc <= 1.0

    def test_pair_counting_equivalence(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(5, 200))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(size=n), 2).tolist()
            curve = roc_auc(scores, make_labels(labels.tolist()))
            want = auc_pair_counting(scores, labels)
            assert abs(curve.auc - want) <= 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        labels = make_labels(rng.integers(0, 2, size=40).tolist())
        scores = rng.normal(size=40)
        base = roc_auc(scores.tolist(), labels).auc
        for transform in (np.exp, lambda s: s ** 3, lambda s: 2 * s + 5):
            assert roc_auc(transform(scores).tolist(), labels).auc == pytest.approx(
                base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc([0.4, 0.6], make_labels([1, 1]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, bad):
        # a NaN never equals the threshold it sets, so the sweep would not end
        with pytest.raises(ValidationError, match="finite"):
            roc_auc([0.2, bad, 0.9], make_labels([0, 1, 1]))


class TestReport:
    def test_payload_shape(self):
        y_true = make_labels([1, 0, 1, 0, 1])
        y_pred = make_labels([1, 0, 0, 0, 1])
        report = evaluation_report(y_true, y_pred, [0.9, 0.2, 0.4, 0.3, 0.8])
        assert set(report) == {"version", "confusion", "metrics",
                               "zero_denominator_flags", "roc", "auc"}
        assert report["version"] == 1
        assert report["confusion"]["tp"] == 2
        assert report["roc"][0] == [0.0, 0.0]
