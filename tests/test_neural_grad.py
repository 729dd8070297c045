"""Finite-difference verification of the hand-written backward pass."""

import numpy as np

from edusent.neural import (
    Adam,
    RnnDims,
    backward,
    build_batch,
    forward,
    init_model,
    weighted_bce,
)

DIMS = RnnDims(vocab_size=7, embed_dim=4, hidden=3, attn_dim=3, max_len=5)
W_POS, W_NEG = 1.3, 0.7


def _batch():
    return build_batch([[1, 4, 2, 7, 3], [5, 6]], [1.0, 0.0], DIMS.max_len)


def _perturb_model(seed):
    """Initialized model with a nonzero output head so every path carries
    gradient signal."""
    model = init_model(DIMS, seed=seed)
    rng = np.random.default_rng(seed + 100)
    model.params["out.w"][:] = rng.normal(size=model.params["out.w"].shape) * 0.5
    model.params["out.b"][...] = 0.3
    return model


def _loss(model, batch):
    cache = forward(model, batch)
    return weighted_bce(cache.probs, batch.labels, W_POS, W_NEG)


def check_all_tensors(model, batch, step=1e-3, tol=1e-4):
    cache = forward(model, batch)
    grads = backward(model, cache, W_POS, W_NEG)
    worst = 0.0
    for name, p in model.params.items():
        flat = p.ravel()
        analytic = grads[name].ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = _loss(model, batch)
            flat[k] = orig - step
            down = _loss(model, batch)
            flat[k] = orig
            numeric = (up - down) / (2 * step)
            rel = abs(analytic[k] - numeric) / max(1e-8, abs(analytic[k]) + abs(numeric))
            worst = max(worst, rel)
            assert rel <= tol, f"{name}[{k}]: analytic {analytic[k]}, numeric {numeric}"
    return worst


def test_gradients_match_central_differences():
    model = _perturb_model(seed=3)
    check_all_tensors(model, _batch())


def test_gradients_match_with_tied_lengths_in_ascending_order():
    model = _perturb_model(seed=8)
    batch = build_batch([[5, 6], [2, 7], [1, 4, 2], [3, 3, 6], [7, 1, 4, 2, 5]],
                        [1.0, 0.0, 0.0, 1.0, 1.0], DIMS.max_len)
    check_all_tensors(model, batch)


def test_gradients_still_match_after_training_steps():
    model = _perturb_model(seed=4)
    batch = _batch()
    opt = Adam(model, learning_rate=5e-3)
    for _ in range(5):
        cache = forward(model, batch)
        opt.step(backward(model, cache, W_POS, W_NEG))
        model.params["embedding"][0] = 0.0
    check_all_tensors(model, batch)


def test_zero_class_weights_zero_gradients():
    model = _perturb_model(seed=5)
    batch = _batch()
    cache = forward(model, batch)
    grads = backward(model, cache, 0.0, 0.0)
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_padding_row_gradient_always_zero():
    model = _perturb_model(seed=6)
    batch = _batch()
    cache = forward(model, batch)
    grads = backward(model, cache, W_POS, W_NEG)
    np.testing.assert_array_equal(grads["embedding"][0], 0.0)
    # and the loss really is independent of that row
    base = _loss(model, batch)
    model.params["embedding"][0] = 7.5
    assert _loss(model, batch) == base

