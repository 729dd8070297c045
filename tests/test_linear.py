import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import csr_rows, make_labels
from edusent.errors import ValidationError
from edusent.features import Csr
from edusent.ingest import SentimentLabel
from edusent.linear import (
    LinearModel,
    LinearTrainConfig,
    classify,
    lr_gradient,
    lr_objective,
    predict_proba,
    sigmoid,
    train_lr,
)
from edusent.pipeline import load_model, save_linear_model


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_large_inputs_stable(self):
        with np.errstate(over="raise"):
            assert sigmoid(800.0) == 1.0
            assert sigmoid(-800.0) == 0.0

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_symmetry(self, z):
        assert sigmoid(-z) == pytest.approx(1.0 - sigmoid(z), abs=1e-12)

    def test_vectorized(self):
        out = sigmoid(np.array([0.0, 1.0]))
        assert out[0] == 0.5
        assert out[1] == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_equals_two_branch_formula(self):
        # the masked form: 1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z)) below
        z = np.concatenate([np.linspace(-745.0, 745.0, 200_001), [-0.0, -np.inf, np.inf]])
        ref = np.empty_like(z)
        pos = z >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        ref[~pos] = ez / (1.0 + ez)
        out = sigmoid(z)
        rel = np.abs(out - ref) / np.where(ref > 0, ref, 1.0)
        assert rel.max() <= 4.4e-16
        np.testing.assert_array_equal(out, ref)

    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(np.array([-1e4, 1e4]))
            assert sigmoid(-1e4) == 0.0 and sigmoid(1e4) == 1.0
        assert out[0] == 0.0 and out[1] == 1.0

    def test_zero_dim_input_gives_float(self):
        assert type(sigmoid(np.array(0.25))) is float
        assert type(sigmoid(np.float64(-3.0))) is float


def one_row(*pairs) -> Csr:
    """A single sparse row from (index, value) pairs, zeros included."""
    return Csr(np.array([0, len(pairs)]), np.array([i for i, _ in pairs], dtype=np.int64),
               np.array([v for _, v in pairs], dtype=np.float64))


def _random_batch(seed=0, n=12, dim=5):
    rng = np.random.default_rng(seed)
    X = np.zeros((n, dim))
    for row in X:
        nnz = rng.integers(1, dim + 1)
        idx = sorted(rng.choice(dim, size=nnz, replace=False).tolist())
        row[idx] = rng.normal(size=nnz)
    X = csr_rows(X)
    y = make_labels(rng.integers(0, 2, size=n).tolist())
    if len({int(lab) for lab in y}) == 1:  # force both classes
        y[0] = SentimentLabel.POSITIVE if int(y[0]) == 0 else SentimentLabel.NEGATIVE
    return X, y


class TestTraining:
    def test_zero_init_predicts_half(self):
        model = LinearModel(weights=np.zeros(4), bias=0.0)
        assert predict_proba(model, one_row((0, 0.3), (2, -1.0))).tolist() == [0.5]

    def test_separable_one_dimensional(self):
        X = csr_rows([[-1.0], [1.0]] * 8)
        y = make_labels([0, 1] * 8)
        result = train_lr(X, y, LinearTrainConfig(epochs=200), dim=1)
        preds = [classify(p) for p in predict_proba(result.model, X)]
        assert preds == y

    def test_gradient_matches_finite_differences(self):
        X, y = _random_batch(seed=7)
        rng = np.random.default_rng(1)
        w = rng.normal(size=5) * 0.5
        b = 0.3
        l2 = 1e-2
        gw, gb = lr_gradient(X, y, w, b, l2)
        step = 1e-5
        for k in range(5):
            w[k] += step
            up = lr_objective(X, y, w, b, l2)
            w[k] -= 2 * step
            down = lr_objective(X, y, w, b, l2)
            w[k] += step
            numeric = (up - down) / (2 * step)
            rel = abs(gw[k] - numeric) / max(1e-8, abs(gw[k]) + abs(numeric))
            assert rel <= 1e-6
        numeric_b = (lr_objective(X, y, w, b + step, l2)
                     - lr_objective(X, y, w, b - step, l2)) / (2 * step)
        assert abs(gb - numeric_b) / max(1e-8, abs(gb) + abs(numeric_b)) <= 1e-6

    def test_unit_step_equals_negative_gradient(self):
        X, y = _random_batch(seed=3)
        eta = 0.05
        result = train_lr(X, y, LinearTrainConfig(learning_rate=eta, epochs=1, l2=0.0),
                          dim=5)
        gw, gb = lr_gradient(X, y, np.zeros(5), 0.0, 0.0)
        np.testing.assert_allclose(result.model.weights, -eta * gw, rtol=0, atol=0)
        assert result.model.bias == -eta * gb

    def test_loss_history_non_increasing(self):
        X, y = _random_batch(seed=9, n=30)
        result = train_lr(X, y, LinearTrainConfig(epochs=80), dim=5)
        diffs = np.diff(result.loss_history)
        assert np.all(diffs <= 1e-9)

    def test_gradient_check_after_steps(self):
        # trajectory property: consecutive-epoch weights differ by exactly
        # -lr * gradient at the earlier point (while no halving triggers)
        X, y = _random_batch(seed=5, n=20)
        cfg3 = LinearTrainConfig(learning_rate=0.01, epochs=3, l2=1e-3)
        cfg4 = LinearTrainConfig(learning_rate=0.01, epochs=4, l2=1e-3)
        m3 = train_lr(X, y, cfg3, dim=5).model
        m4 = train_lr(X, y, cfg4, dim=5).model
        gw, gb = lr_gradient(X, y, m3.weights, m3.bias, 1e-3)
        np.testing.assert_allclose(m4.weights, m3.weights - 0.01 * gw, atol=1e-15)
        assert m4.bias == pytest.approx(m3.bias - 0.01 * gb, abs=1e-15)

    def test_history_is_lr_objective(self):
        X, y = _random_batch(seed=11, n=25)
        cfg = LinearTrainConfig(learning_rate=0.5, epochs=6, l2=1e-2)
        result = train_lr(X, y, cfg, dim=5)
        assert result.loss_history[0] == lr_objective(X, y, np.zeros(5), 0.0, cfg.l2)
        assert result.loss_history[-1] == lr_objective(
            X, y, result.model.weights, result.model.bias, cfg.l2)

    def test_index_beyond_dimension_rejected(self):
        X = csr_rows([[1.0, 0, 0, 0, 0], [0, 0.5, 0, 0, 1.0]])
        with pytest.raises(ValidationError, match="feature index 4 exceeds model dimension 3"):
            train_lr(X, make_labels([0, 1]), LinearTrainConfig(), dim=3)
        with pytest.raises(ValidationError, match="exceeds model dimension"):
            lr_objective(X, make_labels([0, 1]), np.zeros(2), 0.0, 0.0)

    def test_single_class_error(self):
        X = csr_rows([[1.0]] * 3)
        with pytest.raises(ValidationError):
            train_lr(X, make_labels([1, 1, 1]), LinearTrainConfig(), dim=1)

    def test_warm_start(self):
        X, y = _random_batch(seed=13)
        first = train_lr(X, y, LinearTrainConfig(epochs=5), dim=5)
        resumed = train_lr(X, y, LinearTrainConfig(epochs=5), dim=5,
                           initial=first.model)
        assert resumed.loss_history[0] == pytest.approx(first.loss_history[-1])


class TestPredict:
    def test_scalar_example(self):
        model = LinearModel(weights=np.array([1.0]), bias=0.0)
        p = predict_proba(model, one_row((0, 1.0)))
        assert p[0] == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_empty_vector_gives_bias(self):
        model = LinearModel(weights=np.array([2.0, 3.0]), bias=-1.0)
        assert predict_proba(model, one_row())[0] == pytest.approx(float(sigmoid(-1.0)))

    def test_dimension_error(self):
        model = LinearModel(weights=np.array([1.0]), bias=0.0)
        with pytest.raises(ValidationError):
            predict_proba(model, one_row((3, 1.0)))

    def test_zero_weight_features_do_not_change_prediction(self):
        model = LinearModel(weights=np.array([1.0, -2.0, 0.5]), bias=0.1)
        x = one_row((0, 0.4))
        x_padded = one_row((0, 0.4), (1, 0.0), (2, 0.0))
        assert predict_proba(model, x) == predict_proba(model, x_padded)

    def test_positive_scaling_never_flips_label(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            model = LinearModel(weights=rng.normal(size=4), bias=float(rng.normal()))
            scaled = LinearModel(weights=3.7 * model.weights, bias=3.7 * model.bias)
            x = one_row(*[(int(i), float(rng.normal()))
                          for i in sorted(rng.choice(4, 2, replace=False))])
            assert classify(predict_proba(model, x)[0]) == classify(
                predict_proba(scaled, x)[0])

    def test_batch_equals_one_row_at_a_time(self):
        rng = np.random.default_rng(10)
        dense = rng.normal(size=(30, 6))
        dense[rng.random(dense.shape) < 0.5] = 0.0
        X = csr_rows(dense)
        model = LinearModel(weights=rng.normal(size=6), bias=float(rng.normal()))
        for i, p in enumerate(predict_proba(model, X)):
            z = model.bias  # the bias first, then the row's products in column order
            for j in np.flatnonzero(dense[i]):
                z += model.weights[j] * dense[i, j]
            assert p == sigmoid(z)


class TestClassify:
    def test_threshold_rules(self):
        assert classify(0.5) == SentimentLabel.POSITIVE
        assert classify(0.49) == SentimentLabel.NEGATIVE
        assert classify(0.68) == SentimentLabel.POSITIVE

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            classify(1.2)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = LinearModel(weights=np.array([0.25, -1.5]), bias=0.75)
        path = tmp_path / "model_logreg.json"
        save_linear_model(model, path, vocab_ref="abc123")
        _, loaded, ref = load_model(path)
        assert ref == "abc123"
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "kind": "rnn"}')
        from edusent.errors import SchemaError

        with pytest.raises(SchemaError):
            load_model(path)
