import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edusent.neural.train as train_module
from conftest import toy_template_corpus
from edusent.errors import ValidationError
from edusent.neural import (
    Adam,
    NeuralTrainConfig,
    RnnDims,
    SequenceDataset,
    init_model,
    predict_sequences,
    train_rnn,
)
from edusent.neural.train import POOL_BATCHES, batch_order


def _encode(token_docs):
    vocab = {}
    for doc in token_docs:
        for tok in doc:
            vocab.setdefault(tok, len(vocab))
    seqs = [[vocab[t] + 1 for t in doc] for doc in token_docs]
    return seqs, vocab


def _toy_dataset():
    tokens, labels = toy_template_corpus()
    seqs, vocab = _encode(tokens)
    ds = SequenceDataset(sequences=seqs, labels=np.array(labels, dtype=float))
    return ds, vocab


def _dims(vocab, **kw):
    defaults = dict(embed_dim=12, hidden=12, attn_dim=8, max_len=16)
    defaults.update(kw)
    return RnnDims(vocab_size=len(vocab), **defaults)


def test_overfits_toy_corpus_quickly():
    ds, vocab = _toy_dataset()
    cfg = NeuralTrainConfig(epochs=60, batch_size=8, learning_rate=0.01,
                            seed=1, patience=0)
    result = train_rnn(ds, ds, cfg, _dims(vocab))
    probs = predict_sequences(result.model, ds.sequences)
    accuracy = float(np.mean((probs >= 0.5) == (ds.labels == 1.0)))
    assert accuracy >= 0.9
    assert result.epoch_losses[-1] < result.initial_loss


def test_loss_decreases_in_first_epochs():
    ds, vocab = _toy_dataset()
    cfg = NeuralTrainConfig(epochs=3, batch_size=8, learning_rate=0.01,
                            seed=2, patience=0)
    result = train_rnn(ds, ds, cfg, _dims(vocab))
    assert result.epoch_losses[-1] < result.initial_loss


def test_deterministic_given_seed():
    ds, vocab = _toy_dataset()
    cfg = NeuralTrainConfig(epochs=4, batch_size=8, learning_rate=0.01,
                            seed=3, patience=0)
    a = train_rnn(ds, ds, cfg, _dims(vocab))
    b = train_rnn(ds, ds, cfg, _dims(vocab))
    assert list(a.model.params) == list(b.model.params)
    for name, pa in a.model.params.items():
        np.testing.assert_array_equal(pa, b.model.params[name], err_msg=name)
    assert a.epoch_losses == b.epoch_losses


def test_early_stopping_respects_patience():
    ds, vocab = _toy_dataset()
    cfg = NeuralTrainConfig(epochs=50, batch_size=8, learning_rate=1e-6,
                            seed=4, patience=2)
    # learning rate is so small that validation F1/loss barely move, so the
    # stall counter must cut training far before 50 epochs
    result = train_rnn(ds, ds, cfg, _dims(vocab))
    assert len(result.epoch_losses) <= 10


def test_best_validation_model_returned():
    ds, vocab = _toy_dataset()
    cfg = NeuralTrainConfig(epochs=25, batch_size=8, learning_rate=0.01,
                            seed=5, patience=0)
    result = train_rnn(ds, ds, cfg, _dims(vocab))
    assert 0 <= result.best_epoch < len(result.val_f1s)
    best_key = (result.val_f1s[result.best_epoch],
                -result.val_losses[result.best_epoch])
    for f1, vl in zip(result.val_f1s, result.val_losses):
        assert best_key >= (f1, -vl)


def test_single_class_rejected():
    ds = SequenceDataset(sequences=[[1], [2]], labels=np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        train_rnn(ds, ds, NeuralTrainConfig(), RnnDims(vocab_size=2))


def test_empty_sequences_rejected():
    ds = SequenceDataset(sequences=[[1], []], labels=np.array([1.0, 0.0]))
    with pytest.raises(ValidationError, match="non-empty"):
        train_rnn(ds, ds, NeuralTrainConfig(), RnnDims(vocab_size=2))


def test_divergence_reports_epoch_and_batch():
    ds, vocab = _toy_dataset()
    dims = _dims(vocab)
    poisoned = init_model(dims, seed=0)
    poisoned.params["out.w"][0] = np.nan
    cfg = NeuralTrainConfig(epochs=2, batch_size=8, seed=6, patience=0)
    with pytest.raises(ValidationError, match="epoch 0"):
        train_rnn(ds, ds, cfg, dims, initial=poisoned)


def test_resume_requires_matching_dims():
    ds, vocab = _toy_dataset()
    other = init_model(RnnDims(vocab_size=len(vocab), embed_dim=5), seed=0)
    with pytest.raises(ValidationError, match="dims"):
        train_rnn(ds, ds, NeuralTrainConfig(), _dims(vocab), initial=other)


def test_resume_continues_from_initial():
    ds, vocab = _toy_dataset()
    dims = _dims(vocab)
    cfg = NeuralTrainConfig(epochs=3, batch_size=8, learning_rate=0.01,
                            seed=7, patience=0)
    first = train_rnn(ds, ds, cfg, dims)
    resumed = train_rnn(ds, ds, cfg, dims, initial=first.model)
    # warm start begins from the first run's best model, far below a fresh
    # model's ~ln 2 starting loss
    assert resumed.initial_loss < first.initial_loss
    assert resumed.epoch_losses[-1] <= first.epoch_losses[-1]


def _reference_f1(labels, probs, threshold=0.5):
    """The validation F1 `train_rnn` used before it took F1 from evalmetrics."""
    y = np.asarray(labels)
    pred = np.asarray(probs) >= threshold
    tp = float(np.sum(pred & (y == 1.0)))
    fp = float(np.sum(pred & (y == 0.0)))
    fn = float(np.sum(~pred & (y == 1.0)))
    if tp == 0.0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


@pytest.mark.parametrize("case", ["random", "tp_zero", "no_positive_predictions",
                                  "all_positive_predictions", "perfect"])
def test_val_f1_equals_reference_formula(case):
    from edusent.neural.train import _val_f1

    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        labels = rng.integers(0, 2, size=n).astype(float)
        probs = rng.uniform(size=n)
        probs[rng.uniform(size=n) < 0.1] = 0.5  # the threshold reads as positive
        if case == "tp_zero":
            probs = np.where(labels == 1.0, 0.2, probs)
        elif case == "no_positive_predictions":
            probs = probs * 0.49
        elif case == "all_positive_predictions":
            probs = 0.5 + probs * 0.5
        elif case == "perfect":
            probs = labels.copy()
        assert _val_f1(labels, probs) == _reference_f1(labels, probs)


def test_recorded_val_f1_matches_reference_on_best_model():
    ds, vocab = _toy_dataset()
    cfg = NeuralTrainConfig(epochs=3, batch_size=8, learning_rate=0.01,
                            seed=4, patience=0)
    result = train_rnn(ds, ds, cfg, _dims(vocab))
    probs = predict_sequences(result.model, ds.sequences)
    assert result.val_f1s[result.best_epoch] == _reference_f1(ds.labels, probs)


def test_empty_validation_set_rejected():
    ds, vocab = _toy_dataset()
    empty = SequenceDataset(sequences=[], labels=np.array([]))
    with pytest.raises(ValidationError):
        train_rnn(ds, empty, NeuralTrainConfig(epochs=1), _dims(vocab))


def test_adam_two_steps_match_the_bias_corrected_formula():
    model = init_model(RnnDims(vocab_size=3, embed_dim=2, hidden=2, attn_dim=2, max_len=4),
                       seed=0)
    start = model.copy().params
    rng = np.random.default_rng(5)
    grads = [{name: rng.normal(size=p.shape) for name, p in start.items()} for _ in range(2)]
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    opt = Adam(model, learning_rate=lr)
    for g in grads:
        opt.step(g)
    for name, p in start.items():
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        for t, g in enumerate((grads[0][name], grads[1][name]), start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_array_equal(model.params[name], p, err_msg=name)
    assert opt.t == 2


# --- the batch order: shuffled pools, each sorted by length ------------------

def _unsorted_steps(lengths, batch_size, seed):
    """LSTM steps of one epoch of plain shuffled batches from the same first
    permutation: the sum of each batch's longest row."""
    perm = np.random.default_rng(seed).permutation(len(lengths))
    return sum(int(lengths[perm[i : i + batch_size]].max())
               for i in range(0, len(perm), batch_size))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 1000), longest=st.integers(1, 30), batch_size=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_batch_order_is_shuffled_pools_sorted_by_length(n, longest, batch_size, seed):
    # rows up to `longest` tokens: few distinct lengths make many ties; up to
    # 1000 rows in batches of up to 40 make one pool or several
    lengths = np.random.default_rng([seed, 1]).integers(1, longest + 1, size=n)
    batches = batch_order(lengths, batch_size, np.random.default_rng(seed))

    # the batches partition the rows, ceil(n / b) of them, none over b rows
    assert sorted(np.concatenate(batches).tolist()) == list(range(n))
    assert len(batches) == -(-n // batch_size)
    assert all(1 <= len(b) <= batch_size for b in batches)

    # each pool of the first permutation, stable-sorted longest first and cut
    # into batches; the second draw of the same generator orders the batches
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n).tolist()
    pool = POOL_BATCHES * batch_size
    expected = []
    for start in range(0, n, pool):
        part = sorted(perm[start : start + pool], key=lambda r: -lengths[r])
        expected.extend(part[i : i + batch_size] for i in range(0, len(part), batch_size))
    shuffle = rng.permutation(len(expected))
    assert [b.tolist() for b in batches] == [expected[i] for i in shuffle]

    # the same seed gives the same order
    again = batch_order(lengths, batch_size, np.random.default_rng(seed))
    assert [b.tolist() for b in again] == [b.tolist() for b in batches]

    # never more LSTM steps than plain shuffled batches of the same rows
    assert (sum(int(lengths[b].max()) for b in batches)
            <= _unsorted_steps(lengths, batch_size, seed))


def test_one_forward_cache_alive_at_a_time(monkeypatch):
    """Each batch's forward cache is freed before `Adam.step` runs and before
    the next batch's forward: a weak reference to every earlier cache is dead
    by then."""
    real_forward, real_step = train_module.forward, Adam.step
    caches = []

    def assert_earlier_caches_dead():
        assert all(ref() is None for ref in caches), "an earlier forward cache is alive"

    def tracked_forward(model, batch):
        assert_earlier_caches_dead()
        cache = real_forward(model, batch)
        caches.append(weakref.ref(cache))
        return cache

    def tracked_step(opt, grads):
        assert_earlier_caches_dead()
        real_step(opt, grads)

    monkeypatch.setattr(train_module, "forward", tracked_forward)
    monkeypatch.setattr(Adam, "step", tracked_step)
    ds, vocab = _toy_dataset()
    cfg = NeuralTrainConfig(epochs=2, batch_size=8, learning_rate=0.01, seed=8, patience=0)
    train_rnn(ds, ds, cfg, _dims(vocab))
    assert len(caches) == cfg.epochs * -(-len(ds) // cfg.batch_size)
    assert_earlier_caches_dead()
