"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and runtime budget, printing a [PASS]/[FAIL] line (run with `pytest -s` to
see the lines live). Criterion 8 is the optional full-dataset
reproduction: it runs only when the environment variable EDUSENT_RMP_CSV
points at the real review dump, and is skipped otherwise.
"""

import contextlib
import json
import os
import time
import numpy as np
import pytest

from conftest import (
    auc_pair_counting,
    chi2_bruteforce,
    csr_rows,
    dense_rows,
    make_labels,
    negation_pair_corpus,
    reference_smote,
    tfidf_of_tokens,
    toy_template_corpus,
)
from edusent.evalmetrics import ConfusionMatrix, classification_metrics, roc_auc
from edusent.features import (
    build_vocabulary,
    chi2_from_counts,
    fit_tfidf,
)
from edusent.ingest import SentimentLabel, split
from edusent.linear import (
    LinearModel,
    LinearTrainConfig,
    classify,
    lr_gradient,
    lr_objective,
    predict_proba,
    train_lr,
)
from edusent.neural import (
    NeuralTrainConfig,
    RnnDims,
    SequenceDataset,
    backward,
    build_batch,
    forward,
    init_model,
    predict_sequences,
    train_rnn,
    weighted_bce,
)
from edusent.neural.model import cell_rows
from edusent.resample import SmoteConfig, balance_sparse
from edusent.textprep import LemmaRuleTable, StopwordList, lemmatize, preprocess, remove_stopwords

# Reference values being reproduced: confusion counts for both models,
# the reference metric rows, and the reference AUCs.
RNN_COUNTS = dict(tp=2184, fp=422, fn=381, tn=1009)
LR_COUNTS = dict(tp=1387, fp=422, fn=475, tn=1718)
RNN_TABLE = dict(accuracy=0.80, precision=0.83, recall=0.85, f1=0.84)
LR_TABLE = dict(accuracy=0.77, precision=0.77, recall=0.76, f1=0.77)
LR_AUC_REF, RNN_AUC_REF = 0.86, 0.88


@contextlib.contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} "
          f"({elapsed:.2f}s, limit {limit_seconds:.0f}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded its runtime budget"


def _encode_corpus(token_docs):
    vocab = {}
    for doc in token_docs:
        for tok in doc:
            vocab.setdefault(tok, len(vocab))
    return [[vocab[t] + 1 for t in doc] for doc in token_docs], vocab


def test_criterion_1_metric_arithmetic():
    with criterion(1, "metric arithmetic matches the reference table", 1.0):
        rnn = classification_metrics(ConfusionMatrix(**RNN_COUNTS))
        for key, want in RNN_TABLE.items():
            assert abs(rnn[key] - want) <= 0.01, (key, rnn[key], want)

        lr = classification_metrics(ConfusionMatrix(**LR_COUNTS))
        assert abs(lr["accuracy"] - LR_TABLE["accuracy"]) <= 0.01
        assert abs(lr["precision"] - LR_TABLE["precision"]) <= 0.01
        # the LR counts do NOT reproduce the reference recall/F1 row; the
        # derived values are the checkable ground truth
        assert lr["recall"] == pytest.approx(0.745, abs=5e-4)
        assert lr["f1"] == pytest.approx(0.756, abs=5e-4)
        assert abs(lr["recall"] - LR_TABLE["recall"]) > 0.01
        assert abs(lr["f1"] - LR_TABLE["f1"]) > 0.01
        print("  note: LR counts give recall "
              f"{lr['recall']:.4f} and F1 {lr['f1']:.4f}, vs the reference "
              f"{LR_TABLE['recall']:.2f}/{LR_TABLE['f1']:.2f}; the reference "
              "row is internally inconsistent with its own confusion counts.")


def test_criterion_2_gradient_correctness():
    with criterion(2, "analytic gradients match central finite differences", 30.0):
        # logistic regression, tolerance 1e-6
        rng = np.random.default_rng(0)
        X = np.zeros((12, 5))
        for row in X:
            idx = sorted(rng.choice(5, size=int(rng.integers(1, 6)), replace=False))
            row[idx] = [rng.normal() for _ in idx]
        X = csr_rows(X)
        y = make_labels([1, 0] * 6)
        w = rng.normal(size=5) * 0.5
        b = 0.2
        l2 = 1e-3
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
            assert rel <= 1e-6, f"LR weight {k}: rel error {rel}"
        numeric_b = (lr_objective(X, y, w, b + step, l2)
                     - lr_objective(X, y, w, b - step, l2)) / (2 * step)
        assert abs(gb - numeric_b) / max(1e-8, abs(gb) + abs(numeric_b)) <= 1e-6

        # sequence model, every parameter tensor, tolerance 1e-4, step 1e-3
        dims = RnnDims(vocab_size=7, embed_dim=4, hidden=3, attn_dim=3, max_len=5)
        model = init_model(dims, seed=3)
        model.params["out.w"][:] = rng.normal(size=model.params["out.w"].shape) * 0.5
        model.params["out.b"][...] = 0.3
        batch = build_batch([[1, 4, 2, 7, 3], [5, 6]], [1.0, 0.0], dims.max_len)
        w_pos, w_neg = 1.3, 0.7
        cache = forward(model, batch)
        grads = backward(model, cache, w_pos, w_neg)

        def loss():
            c = forward(model, batch)
            return weighted_bce(c.probs, batch.labels, w_pos, w_neg)

        fd_step = 1e-3
        for name, p in model.params.items():
            flat = p.ravel()
            analytic = grads[name].ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + fd_step
                up = loss()
                flat[k] = orig - fd_step
                down = loss()
                flat[k] = orig
                numeric = (up - down) / (2 * fd_step)
                rel = abs(analytic[k] - numeric) / max(
                    1e-8, abs(analytic[k]) + abs(numeric))
                assert rel <= 1e-4, f"{name}[{k}]: rel error {rel}"


def test_criterion_3_overfit_oracle():
    with criterion(3, "sequence model overfits the 20-sentence corpus", 60.0):
        tokens, labels = toy_template_corpus()
        assert len(tokens) == 20
        seqs, vocab = _encode_corpus(tokens)
        ds = SequenceDataset(sequences=seqs, labels=np.array(labels, dtype=float))
        dims = RnnDims(vocab_size=len(vocab), embed_dim=12, hidden=12,
                       attn_dim=8, max_len=16)
        cfg = NeuralTrainConfig(epochs=200, batch_size=8, learning_rate=0.01,
                                seed=1, patience=0)
        result = train_rnn(ds, ds, cfg, dims)
        probs = predict_sequences(result.model, ds.sequences)
        accuracy = float(np.mean((probs >= 0.5) == (ds.labels == 1.0)))
        assert accuracy >= 0.95, f"training accuracy {accuracy}"
        assert result.epoch_losses[-1] < result.initial_loss


def test_criterion_4_sequence_vs_bag_separation():
    with criterion(4, "order-dependent labels defeat the bag model only", 300.0):
        (train_tokens, train_labels), (test_tokens, test_labels) = (
            negation_pair_corpus(n_train_pairs=200, n_test_pairs=100))
        assert len(train_tokens) == 400 and len(test_tokens) == 200

        # bag-of-words baseline: identical bags force <= 0.5 on the pairs
        vocab = build_vocabulary(train_tokens)
        tfidf = fit_tfidf(vocab)
        X_train = tfidf_of_tokens(tfidf, train_tokens)
        y_train = make_labels(train_labels)
        lr = train_lr(X_train, y_train, LinearTrainConfig(epochs=150),
                      dim=len(vocab)).model
        lr_preds = [classify(p) for p in predict_proba(lr, tfidf_of_tokens(tfidf, test_tokens))]
        lr_acc = float(np.mean([int(p) == t for p, t in zip(lr_preds, test_labels)]))
        assert lr_acc <= 0.55, f"LR accuracy {lr_acc} on ambiguous pairs"

        # sequence model must read the word order
        all_docs = train_tokens + test_tokens
        seqs, id_map = _encode_corpus(all_docs)
        train_ds = SequenceDataset(sequences=seqs[: len(train_tokens)],
                                   labels=np.array(train_labels, dtype=float))
        test_seqs = seqs[len(train_tokens):]
        dims = RnnDims(vocab_size=len(id_map), embed_dim=16, hidden=16,
                       attn_dim=8, max_len=8)
        cfg = NeuralTrainConfig(epochs=40, batch_size=32, learning_rate=0.01,
                                seed=0, patience=0)
        result = train_rnn(train_ds, train_ds, cfg, dims)
        probs = predict_sequences(result.model, test_seqs)
        rnn_acc = float(np.mean((probs >= 0.5) == np.array(test_labels, dtype=float)))
        assert rnn_acc >= 0.90, f"RNN accuracy {rnn_acc}"
        print(f"  LR {lr_acc:.3f} vs RNN {rnn_acc:.3f} on the negation pairs")


def test_criterion_5_oracle_equivalences():
    with criterion(5, "closed forms agree with brute-force oracles", 10.0):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b, c, d = (int(v) for v in rng.integers(0, 30, size=4))
            got = float(chi2_from_counts(a, b, c, d))
            assert abs(got - chi2_bruteforce(a, b, c, d)) <= 1e-9

        for trial in range(100):
            n = int(rng.integers(5, 201))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.uniform(size=n), 2).tolist()
            curve = roc_auc(scores, make_labels(labels.tolist()))
            assert abs(curve.auc - auc_pair_counting(scores, labels)) <= 1e-12

        vocab = build_vocabulary([["a", "b"], ["b"]])
        tfidf = fit_tfidf(vocab)
        X = tfidf_of_tokens(tfidf, [["a", "b"]])
        vec = dict(zip(X.indices.tolist(), X.values.tolist()))
        ia, ib = vocab.term_to_index["a"], vocab.term_to_index["b"]
        assert vec[ia] == pytest.approx(0.8148024746671689, abs=1e-12)
        assert vec[ib] == pytest.approx(0.5797386715376657, abs=1e-12)


def test_criterion_6_smote_properties():
    with criterion(6, "SMOTE parity, segment membership, determinism", 5.0):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 8))
        y = make_labels([1] * 29 + [0] * 11)
        cfg = SmoteConfig(k_neighbors=5, seed=13)
        Xb, yb = balance_sparse(csr_rows(X), y, 8, cfg)
        pos = sum(1 for lab in yb if int(lab) == 1)
        assert pos == len(yb) - pos == 29

        # the appended rows are exactly the dense reference SMOTE's samples
        # under the same seed, so the reference's (parent, neighbor, lam)
        # proves every appended point sits on its parent-neighbor segment
        minority = X[[int(lab) == 0 for lab in y]]
        eps = 1e-12
        appended = dense_rows(Xb, 8)[len(X):]
        samples = reference_smote(minority, len(appended), cfg)
        assert len(samples) == 18
        for (parent, neighbor, lam, _), vec in zip(samples, appended):
            p, q = minority[parent], minority[neighbor]
            np.testing.assert_array_equal(vec, p + lam * (q - p))
            assert np.all(vec >= np.minimum(p, q) - eps)
            assert np.all(vec <= np.maximum(p, q) + eps)
        again, y_again = balance_sparse(csr_rows(X), y, 8, cfg)
        assert y_again == yb
        np.testing.assert_array_equal(dense_rows(again, 8), dense_rows(Xb, 8))


def test_criterion_7_invariant_suites():
    with criterion(7, "attention, untrained outputs, splits, idempotence", 10.0):
        # attention weights: one per real token, non-negative, each row's sum to one
        dims = RnnDims(vocab_size=9, embed_dim=4, hidden=3, attn_dim=3, max_len=6)
        model = init_model(dims, seed=2)
        batch = build_batch([[1, 2, 3, 4], [5, 6]], [1.0, 0.0], dims.max_len)
        cache = forward(model, batch)
        assert cache.alphas.shape == (6,)
        np.testing.assert_allclose(np.bincount(cell_rows(cache.steps), cache.alphas), 1.0,
                                   atol=1e-12)
        assert np.all(cache.alphas >= 0.0)

        # untrained models emit exactly 0.5
        np.testing.assert_array_equal(forward(model, batch).probs, 0.5)
        zero_lr = LinearModel(weights=np.zeros(4), bias=0.0)
        assert predict_proba(zero_lr, csr_rows([[0.0, 0.7, 0.0, 0.0]])).tolist() == [0.5]

        # split determinism and partition identity
        labels = [SentimentLabel(i % 2) for i in range(25)]
        s1 = split(labels, 0.8, seed=4)
        s2 = split(labels, 0.8, seed=4)
        assert s1.train_ids == s2.train_ids and s1.test_ids == s2.test_ids
        assert sorted(s1.train_ids + s1.test_ids) == list(range(25))

        # idempotent preprocessing
        sw = StopwordList.load()
        rules = LemmaRuleTable.load()
        texts = [
            "The professors were grading the exams unfairly!",
            "Classes are interesting and the teacher isn't boring.",
            "Don't take this; it was the worst of the classes.",
        ]
        for text in texts:
            tokens = preprocess(text, sw, rules)
            assert remove_stopwords(tokens, sw) == tokens
            assert lemmatize(tokens, rules) == tokens


@pytest.mark.skipif(
    "EDUSENT_RMP_CSV" not in os.environ,
    reason="full-dataset reproduction runs only when EDUSENT_RMP_CSV points "
           "at the review dump (criteria 1-7 constitute acceptance without it)",
)
def test_criterion_8_full_dataset_reproduction(tmp_path):
    from edusent.cli import main

    with criterion(8, "full-dataset run lands near the reference table", 24 * 3600.0):
        data = os.environ["EDUSENT_RMP_CSV"]
        out = tmp_path / "full_run"
        assert main(["prepare", "--data", data, "--out", str(out),
                     "--seed", "0"]) == 0
        assert main(["train", "logreg", "--out", str(out), "--seed", "0"]) == 0
        assert main(["train", "rnn", "--out", str(out), "--seed", "0",
                     "--patience", "3"]) == 0
        for kind in ("logreg", "rnn"):
            assert main(["evaluate", "--out", str(out), "--no-plots",
                         "--model", str(out / f"model_{kind}.json")]) == 0
        lr = json.loads((out / "eval_logreg.json").read_text())
        rnn = json.loads((out / "eval_rnn.json").read_text())
        assert abs(lr["metrics"]["accuracy"] - LR_TABLE["accuracy"]) <= 0.05
        assert abs(rnn["metrics"]["accuracy"] - RNN_TABLE["accuracy"]) <= 0.05
        assert rnn["metrics"]["accuracy"] > lr["metrics"]["accuracy"]
        assert rnn["metrics"]["f1"] > lr["metrics"]["f1"]
        assert rnn["auc"] > lr["auc"]
        print(f"  reference AUCs: LR {LR_AUC_REF}, RNN {RNN_AUC_REF}; "
              f"this run: LR {lr['auc']:.3f}, RNN {rnn['auc']:.3f}")
