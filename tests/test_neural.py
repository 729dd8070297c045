import base64
import hashlib
import json
import math
import shutil
import struct
import sys
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    blob_edit,
    edit_rnn_pair,
    flip_byte,
    header_edit,
    set_value,
    version_2_payload,
)

from edusent.errors import SchemaError, ValidationError
from edusent.features import IdRows
from edusent.neural import (
    NeuralTrainConfig,
    RnnDims,
    SequenceDataset,
    TokenBatch,
    attention,
    backward,
    batch_probs,
    build_batch,
    dataset_loss,
    embed,
    forward,
    init_model,
    lstm_step,
    parameter_shapes,
    predict_sequences,
)
from edusent.neural import model as model_module
from edusent.neural.model import cell_rows
from edusent.pipeline import load_model, save_rnn_model

DIMS = RnnDims(vocab_size=9, embed_dim=4, hidden=3, attn_dim=3, max_len=6)
V3_FIXTURE = Path(__file__).parent / "data" / "model_rnn_v3.json"


def _zero_cell(hidden=2, embed=2) -> dict:
    return {"fwd.W": np.zeros((4 * hidden, embed)), "fwd.U": np.zeros((4 * hidden, hidden)),
            "fwd.b": np.zeros(4 * hidden)}


def _step(x, h_prev, c_prev, params, side="fwd"):
    """lstm_step from a raw input: project it through W first."""
    h, c, _ = lstm_step(x @ params[f"{side}.W"].T, h_prev, c_prev, params, side)
    return h, c


class TestEmbed:
    def test_padding_row_is_zero(self):
        model = init_model(DIMS, seed=0)
        batch = build_batch([[3, 5], [2]], [1.0, 0.0], DIMS.max_len)
        out = embed(model, batch.ids)
        np.testing.assert_array_equal(out[1, 1], np.zeros(DIMS.embed_dim))

    def test_lookup_semantics(self):
        model = init_model(DIMS, seed=0)
        batch = build_batch([[4]], [1.0], DIMS.max_len)
        np.testing.assert_array_equal(embed(model, batch.ids)[0, 0],
                                      model.params["embedding"][4])

    def test_identical_rows_identical_slices(self):
        model = init_model(DIMS, seed=0)
        batch = build_batch([[1, 2, 3], [1, 2, 3]], [1.0, 0.0], DIMS.max_len)
        out = embed(model, batch.ids)
        np.testing.assert_array_equal(out[0], out[1])

    def test_id_out_of_range(self):
        model = init_model(DIMS, seed=0)
        batch = build_batch([[1]], [1.0], DIMS.max_len)
        batch.ids[0, 0] = DIMS.vocab_size + 5
        with pytest.raises(ValidationError):
            embed(model, batch.ids)


class TestLstmStep:
    def test_zero_fixed_point(self):
        cell = _zero_cell()
        h, c = _step(np.zeros(2), np.zeros(2), np.zeros(2), cell)
        np.testing.assert_array_equal(h, np.zeros(2))
        np.testing.assert_array_equal(c, np.zeros(2))

    def test_unit_cell_state(self):
        cell = _zero_cell()
        h, c = _step(np.zeros(2), np.zeros(2), np.ones(2), cell)
        np.testing.assert_allclose(c, 0.5, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5), atol=1e-15)
        assert h[0] == pytest.approx(0.23105857863000487, abs=1e-15)

    def test_cell_state_bound(self):
        rng = np.random.default_rng(0)
        model = init_model(DIMS, seed=1)
        c_prev = rng.normal(size=(4, DIMS.hidden)) * 3
        h_prev = rng.normal(size=(4, DIMS.hidden))
        x = rng.normal(size=(4, DIMS.embed_dim))
        _, c = _step(x, h_prev, c_prev, model.params)
        assert np.all(np.abs(c) <= np.abs(c_prev) + 1.0 + 1e-12)

    def test_shape_mismatch(self):
        cell = _zero_cell()  # the input projection must be 4 * hidden = 8 wide
        with pytest.raises(ValidationError):
            lstm_step(np.zeros(5), np.zeros(2), np.zeros(2), cell, "fwd")


class TestBilstm:
    def test_single_step_matches_lstm_step(self):
        model = init_model(DIMS, seed=2)
        batch = build_batch([[5]], [1.0], DIMS.max_len)
        H = forward(model, batch).H
        assert H.shape == (1, 2 * DIMS.hidden)
        x = model.params["embedding"][5]
        zeros = np.zeros(DIMS.hidden)
        h_f, _ = _step(x, zeros, zeros, model.params, "fwd")
        h_b, _ = _step(x, zeros, zeros, model.params, "bwd")
        np.testing.assert_allclose(H[0], np.concatenate([h_f, h_b]), atol=1e-14)

    def test_palindrome_with_shared_cells_is_mirror_symmetric(self):
        model = init_model(DIMS, seed=3)
        for name in "WUb":
            model.params[f"bwd.{name}"] = model.params[f"fwd.{name}"]
        batch = build_batch([[2, 7, 2]], [1.0], DIMS.max_len)
        H = forward(model, batch).H
        h = DIMS.hidden
        for t in range(3):  # one row: cell t is position t
            np.testing.assert_allclose(H[t, :h], H[2 - t, h:], atol=1e-12)

    def test_masked_tail_does_not_alter_earlier_outputs(self):
        model = init_model(DIMS, seed=4)
        short = build_batch([[3, 4]], [1.0], DIMS.max_len)
        wide = build_batch([[5, 6, 7, 8], [3, 4]], [0.0, 1.0], DIMS.max_len)
        H_short = forward(model, short).H
        wide_cache = forward(model, wide)
        # the short row is length-order row 1; its cells sit at steps[t] + 1
        cells = wide_cache.steps[:2] + 1
        np.testing.assert_allclose(wide_cache.H[cells], H_short, atol=1e-14)
        assert len(wide_cache.H) == 6  # its padded positions have no cell

    def test_mixed_lengths_match_a_per_row_loop(self):
        """Each row of H equals lstm_step run over that row's tokens alone,
        forward and reversed; the `bwd` half starts each row at its last
        token from zero state. Not bit for bit: BLAS rounds a one-row
        product differently from a product over several rows."""
        model = init_model(DIMS, seed=4)
        seqs = [[3, 4, 1, 9, 2, 5], [6, 1], [8, 2, 7, 4], [5], [2, 9, 3, 3]]
        cache = forward(model, build_batch(seqs, np.zeros(len(seqs)), DIMS.max_len))
        assert cache.order.tolist() == [0, 2, 4, 1, 3]  # H is in length order
        h = DIMS.hidden
        for row, seq in enumerate(seqs[r] for r in cache.order):
            for k, (side, ts) in enumerate([("fwd", range(len(seq))),
                                            ("bwd", range(len(seq) - 1, -1, -1))]):
                xw = model.params["embedding"][seq] @ model.params[f"{side}.W"].T
                h_t, c_t = np.zeros((1, h)), np.zeros((1, h))
                for t in ts:
                    h_t, c_t, _ = lstm_step(xw[t : t + 1], h_t, c_t, model.params, side)
                    cell = cache.steps[t] + row
                    np.testing.assert_allclose(cache.H[cell, k * h : (k + 1) * h], h_t[0], rtol=0,
                                               atol=1e-15, err_msg=f"{row} {t} {side}")
        assert len(cache.H) == sum(map(len, seqs))  # one state per real token


class TestAttention:
    def test_identical_states_uniform_weights(self):
        model = init_model(DIMS, seed=5)
        H = np.tile(np.linspace(0.1, 0.6, 2 * DIMS.hidden), (4, 1))
        _, alphas, _ = attention(model, H, np.arange(5))  # one row, 4 positions
        np.testing.assert_allclose(alphas, 0.25, atol=1e-12)

    def test_single_unmasked_position(self):
        """A row with one token puts all its weight on that token, beside a
        longer row."""
        model = init_model(DIMS, seed=5)
        H = np.random.default_rng(0).normal(size=(4, 2 * DIMS.hidden))
        steps = np.array([0, 2, 3, 4])  # row 0 holds cells 0, 2, 3; row 1 cell 1
        context, alphas, _ = attention(model, H, steps)
        assert alphas[1] == 1.0
        np.testing.assert_array_equal(context[1], H[1])

    def test_rows_sum_to_one_and_masked_zero(self):
        """Each row's weights sum to one, and only real tokens get one: a
        padded position has no cell."""
        model = init_model(DIMS, seed=6)
        batch = build_batch([[1, 2, 3, 4], [5, 6]], [1.0, 0.0], DIMS.max_len)
        cache = forward(model, batch)
        assert cache.alphas.shape == (6,)
        np.testing.assert_allclose(np.bincount(cell_rows(cache.steps), cache.alphas), 1.0,
                                   atol=1e-12)
        assert np.all(cache.alphas >= 0.0)

    def test_all_masked_row_rejected(self):
        """Cell offsets with no cell at position 0 (a row with no token) or
        whose per-position counts rise are not a length-ordered batch."""
        model = init_model(DIMS, seed=6)
        H = np.zeros((3, 2 * DIMS.hidden))
        for steps in ([0, 0, 3], [0, 1, 3], [0]):
            with pytest.raises(ValidationError):
                attention(model, H, np.array(steps))

    def test_matches_the_masked_grid_softmax(self):
        """On mixed lengths, the per-row softmax over cells equals a softmax
        over the padded B x L grid with -inf at padded positions."""
        model = init_model(DIMS, seed=6)
        rng = np.random.default_rng(1)
        lengths = [6, 6, 4, 3, 3, 1]
        steps = np.concatenate(([0], np.cumsum([sum(n > t for n in lengths)
                                                for t in range(6)])))
        H = rng.normal(size=(steps[-1], 2 * DIMS.hidden))
        context, alphas, _ = attention(model, H, steps)

        row, pos = cell_rows(steps), np.repeat(np.arange(6), np.diff(steps))
        grid = np.zeros((len(lengths), 6, 2 * DIMS.hidden))
        grid[row, pos] = H
        mask = np.zeros((len(lengths), 6))
        mask[row, pos] = 1.0
        e = np.tanh(grid @ model.params["attn.W_a"].T) @ model.params["attn.v_a"]
        e = np.where(mask > 0, e, -np.inf)
        exps = np.where(mask > 0, np.exp(e - e.max(axis=1, keepdims=True)), 0.0)
        grid_alphas = exps / exps.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(alphas, grid_alphas[row, pos], rtol=1e-15, atol=0)
        np.testing.assert_allclose(context, (grid_alphas[:, None, :] @ grid)[:, 0],
                                   rtol=0, atol=1e-15)

    def test_each_row_is_shifted_by_its_own_maximum(self):
        """A row whose scores lie far below another row's keeps its weights:
        a shift by the batch's maximum would underflow them to 0 / 0."""
        model = init_model(DIMS, seed=5)
        model.params["attn.v_a"] *= 1e4
        z = np.linspace(-1.0, 1.0, 2 * DIMS.hidden) * 100.0
        H = np.array([z, -z, z, z])  # row 1's scores are row 0's, negated
        e = np.tanh(H @ model.params["attn.W_a"].T) @ model.params["attn.v_a"]
        assert abs(e[0] - e[1]) > 2000.0
        _, alphas, _ = attention(model, H, np.array([0, 2, 3, 4]))
        np.testing.assert_allclose(alphas, [1 / 3, 1.0, 1 / 3, 1 / 3], rtol=1e-15, atol=0)


class TestForward:
    def test_untrained_model_emits_half(self):
        model = init_model(DIMS, seed=7)
        batch = build_batch([[1, 2], [3, 4, 5]], [1.0, 0.0], DIMS.max_len)
        np.testing.assert_array_equal(forward(model, batch).probs, 0.5)

    def test_deterministic(self):
        model = init_model(DIMS, seed=8)
        batch = build_batch([[2, 4, 6]], [1.0], DIMS.max_len)
        p1 = forward(model, batch).probs
        p2 = forward(model, batch).probs
        np.testing.assert_array_equal(p1, p2)

    def test_outputs_in_open_interval(self):
        model = init_model(DIMS, seed=9)
        model.params["out.w"][:] = 0.37  # nonzero head so probs move off 0.5
        batch = build_batch([[1, 2, 3], [9, 8]], [1.0, 0.0], DIMS.max_len)
        probs = forward(model, batch).probs
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_batch_order_permutation(self):
        model = init_model(DIMS, seed=10)
        model.params["out.w"][:] = 0.2
        a = build_batch([[1, 2], [3, 4, 5]], [1.0, 0.0], DIMS.max_len)
        b = build_batch([[3, 4, 5], [1, 2]], [0.0, 1.0], DIMS.max_len)
        pa = forward(model, a).probs
        pb = forward(model, b).probs
        np.testing.assert_allclose(pa, pb[::-1], atol=1e-15)


class TestBatches:
    def test_mask_matches_ids(self):
        batch = build_batch([[1, 2, 3], [4]], [1.0, 0.0], max_len=8)
        assert batch.ids.shape == (2, 3)
        np.testing.assert_array_equal(batch.mask, [[1, 1, 1], [1, 0, 0]])

    def test_truncation_to_max_len(self):
        batch = build_batch([list(range(1, 10))], [1.0], max_len=4)
        assert batch.ids.shape == (1, 4)
        np.testing.assert_array_equal(batch.ids[0], [1, 2, 3, 4])

    def test_empty_row_rejected(self):
        with pytest.raises(ValidationError):
            build_batch([[1], []], [1.0, 0.0], max_len=4)

    def test_invariant_enforced(self):
        with pytest.raises(ValidationError):
            TokenBatch(ids=np.array([[1, 0]]), mask=np.array([[1.0, 1.0]]),
                       labels=np.array([1.0]))

    @pytest.mark.parametrize("ids", [[[0, 3]], [[1, 0, 2]], [[4, 5], [0, 6]]])
    def test_padding_before_a_token_rejected(self, ids):
        ids = np.array(ids)
        with pytest.raises(ValidationError, match="padding must follow"):
            TokenBatch(ids=ids, mask=(ids != 0).astype(np.float64),
                       labels=np.zeros(len(ids)))

    def test_encode_tokens(self):
        t2i = {"good": 0, "class": 4}
        rows = IdRows.from_tokens([["good", "zzz", "class"], ["zzz"], ["class"] * 3], t2i)
        assert rows.sequences(max_len=8) == [[1, 5], [], [5, 5, 5]]
        assert rows.sequences(max_len=2) == [[1, 5], [], [5, 5]]

    def test_predict_sequences_bias_path_for_empty(self):
        model = init_model(DIMS, seed=12)
        model.params["out.b"][...] = 0.8
        model.params["out.w"][:] = 0.1
        probs = predict_sequences(model, [[], [1, 2]])
        assert probs[0] == pytest.approx(1.0 / (1.0 + np.exp(-0.8)), abs=1e-12)
        assert probs[1] != probs[0]


def _scoring_model(seed=14):
    """An untrained model with a nonzero head, so probabilities differ per row."""
    model = init_model(DIMS, seed=seed)
    rng = np.random.default_rng(seed)
    model.params["out.w"][:] = rng.normal(size=2 * DIMS.hidden)
    model.params["out.b"][...] = -0.3
    return model


class TestInference:
    SEQUENCES = [[3, 1, 4, 1, 5, 9, 2, 6, 5, 3], [], [7], [2, 7, 1, 8],
                 [9, 9, 9, 9, 9, 9, 9, 9], [], [6, 2], [1, 2, 3, 4, 5, 6], [8, 8, 8]]

    def test_batch_probs_bit_equal_to_forward(self):
        model = _scoring_model()
        batch = build_batch([s for s in self.SEQUENCES if s], np.zeros(7), DIMS.max_len)
        assert batch.mask.sum() < batch.mask.size  # rows of mixed length
        expected = forward(model, batch).probs
        assert len(set(expected.tolist())) == len(expected)
        assert np.array_equal(batch_probs(model, batch), expected)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 256])
    def test_predict_sequences_in_input_order(self, chunk):
        assert len(self.SEQUENCES[0]) > DIMS.max_len  # clipped like the 6-token row
        model = _scoring_model()
        probs = predict_sequences(model, self.SEQUENCES, chunk=chunk)
        prior = 1.0 / (1.0 + np.exp(0.3))
        for row, seq in enumerate(self.SEQUENCES):
            if not seq:
                assert probs[row] == pytest.approx(prior, abs=1e-15)
                continue
            single = batch_probs(model, build_batch([seq], [0.0], DIMS.max_len))[0]
            assert abs(probs[row] - single) <= 1e-15

    def test_predict_sequences_without_rows(self):
        assert predict_sequences(_scoring_model(), []).shape == (0,)

    def test_inference_builds_no_forward_cache(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("inference built a ForwardCache")

        model = _scoring_model()
        monkeypatch.setattr(model_module, "ForwardCache", refuse)
        seqs = [s for s in self.SEQUENCES if s]
        probs = predict_sequences(model, seqs, chunk=4)
        assert probs.shape == (len(seqs),)
        ds = SequenceDataset(seqs, np.arange(len(seqs)) % 2)
        assert np.isfinite(dataset_loss(model, ds, NeuralTrainConfig()))
        with pytest.raises(AssertionError, match="ForwardCache"):
            forward(model, build_batch(seqs, np.zeros(len(seqs)), DIMS.max_len))


class TestActiveRows:
    """Each LSTM step runs only on the rows that still have a token."""

    SEQUENCES = [[3, 1, 4, 1, 5], [9, 2], [6, 5, 3, 5], [8], [9, 7], [9, 3, 2, 3, 8, 4],
                 [6, 2, 6, 4]]
    LABELS = [1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]

    def _probs_and_grads(self, model, rows):
        batch = build_batch([self.SEQUENCES[r] for r in rows],
                            [self.LABELS[r] for r in rows], DIMS.max_len)
        cache = forward(model, batch)
        grads = backward(model, cache, 1.3, 0.7)
        probs = np.empty(len(rows))
        probs[rows] = cache.probs
        return probs, grads

    def test_row_order_does_not_matter(self):
        model = _scoring_model()
        by_length = sorted(range(len(self.SEQUENCES)), key=lambda r: len(self.SEQUENCES[r]))
        shuffled = np.random.default_rng(3).permutation(len(self.SEQUENCES)).tolist()
        p_up, g_up = self._probs_and_grads(model, by_length)
        for rows in (by_length[::-1], shuffled):
            probs, grads = self._probs_and_grads(model, rows)
            np.testing.assert_allclose(probs, p_up, rtol=0, atol=1e-12)
            for name, g in grads.items():
                np.testing.assert_allclose(g, g_up[name], rtol=0, atol=1e-12, err_msg=name)
        assert any(np.any(g != 0.0) for g in g_up.values())

    def test_one_lstm_row_step_per_real_token(self, monkeypatch):
        row_steps = []
        step = model_module.lstm_step

        def counting(xw_t, *args):
            row_steps.append(xw_t.shape[0])
            return step(xw_t, *args)

        monkeypatch.setattr(model_module, "lstm_step", counting)
        model = _scoring_model()
        batch = build_batch(self.SEQUENCES, self.LABELS, DIMS.max_len)
        assert batch.mask.sum() < batch.mask.size
        for run in (forward, batch_probs):
            row_steps.clear()
            run(model, batch)
            assert sum(row_steps) == 2 * batch.mask.sum()
            assert len(row_steps) == 2 * batch.ids.shape[1]

    def test_zero_head_skips_the_pass_and_matches_it(self, monkeypatch):
        model = _scoring_model()  # random LSTM weights, out_b = -0.3
        model.params["out.w"][:] = 0.0
        seqs = TestInference.SEQUENCES
        batch = build_batch([s for s in seqs if s], np.zeros(7), DIMS.max_len)
        assert batch.mask.sum() < batch.mask.size  # rows of mixed length
        full = forward(model, batch).probs

        def refuse(*args, **kwargs):
            raise AssertionError("scored rows through the LSTM")

        monkeypatch.setattr(model_module, "batch_probs", refuse)
        probs = predict_sequences(model, seqs)
        assert np.array_equal(probs[[i for i, s in enumerate(seqs) if s]], full)
        # the empty rows take the prior, which every full-pass row equals too
        assert np.array_equal(probs, np.full(len(seqs), full[0]))


#: float64 values whose bits a text round trip could lose or change
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072e-308,
                sys.float_info.max, -sys.float_info.max, sys.float_info.min]


class TestPersistence:
    def test_round_trip_preserves_predictions(self, tmp_path):
        model = init_model(DIMS, seed=13)
        model.params["out.w"][:] = np.linspace(-0.4, 0.4, 2 * DIMS.hidden)
        path = tmp_path / "model_rnn.json"
        save_rnn_model(model, path, vocab_ref="deadbeef")
        _, loaded, ref = load_model(path)
        assert ref == "deadbeef"
        batch = build_batch([[1, 5, 3]], [1.0], DIMS.max_len)
        np.testing.assert_array_equal(forward(model, batch).probs,
                                      forward(loaded, batch).probs)
        assert list(loaded.params) == list(model.params)
        for name, p in model.params.items():
            np.testing.assert_array_equal(loaded.params[name], p)

    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(dims=st.builds(RnnDims, vocab_size=st.integers(1, 6), embed_dim=st.integers(1, 4),
                          hidden=st.integers(1, 3), attn_dim=st.integers(1, 3),
                          max_len=st.integers(1, 5)),
           data=st.data())
    def test_round_trip_is_bit_exact(self, dims, data):
        values = st.one_of(st.sampled_from(_EDGE_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False))
        model = init_model(dims, seed=0)
        for name, shape in parameter_shapes(dims).items():
            model.params[name] = data.draw(hnp.arrays(np.float64, shape, elements=values),
                                           label=name)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model_rnn.json"
            save_rnn_model(model, path, vocab_ref="0")
            _, loaded, _ = load_model(path)
        assert loaded.dims == dims
        for name, p in model.params.items():
            assert loaded.params[name].tobytes() == p.tobytes(), name

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "kind": "logreg"}')
        with pytest.raises(SchemaError):
            load_model(path)


class TestFusedLayout:
    def test_eleven_parameter_tensors(self):
        model = init_model(DIMS, seed=0)
        shapes = {name: p.shape for name, p in model.params.items()}
        assert len(shapes) == 11
        h, e = DIMS.hidden, DIMS.embed_dim
        assert shapes["fwd.W"] == (4 * h, e)
        assert shapes["bwd.U"] == (4 * h, h)
        assert shapes["fwd.b"] == (4 * h,)

    @pytest.mark.parametrize("dims", [DIMS, RnnDims(vocab_size=2, embed_dim=5, hidden=1,
                                                     attn_dim=7, max_len=3)])
    def test_parameter_shapes_are_init_model_shapes(self, dims):
        model = init_model(dims, seed=0)
        assert list(parameter_shapes(dims).items()) == [
            (name, p.shape) for name, p in model.params.items()]

    def test_forget_gate_rows_start_at_one(self):
        h = DIMS.hidden
        b = init_model(DIMS, seed=0).params["fwd.b"]
        np.testing.assert_array_equal(b, [0.0] * h + [1.0] * h + [0.0] * (2 * h))

    def test_file_stores_fused_arrays_as_little_endian_bytes(self, tmp_path):
        model = init_model(DIMS, seed=1)
        path = tmp_path / "model_rnn.json"
        save_rnn_model(model, path, vocab_ref="0")
        blob = (tmp_path / "model_rnn.f64").read_bytes()
        assert blob == b"".join(model.params[name].astype("<f8").tobytes()
                                for name in parameter_shapes(DIMS))
        assert json.loads(path.read_text()) == {
            "version": 3, "kind": "rnn", "dims": asdict(DIMS),
            "sha256": hashlib.sha256(blob).hexdigest(), "vocab_ref": "0"}


class TestVersion3Fixture:
    """A small model pair with fused gate tensors, and the probabilities it
    gives. Its parameter bytes are those of the version-2 file it was
    converted from."""

    SEQUENCES = [[1], [9, 8, 7], [2, 4, 6, 8, 1, 3, 5, 7, 9, 2], [], [5, 5, 5, 5]]
    PROBS = [0.4670603203567777, 0.33940858522985706, 0.41670668692572577,
             0.31870937380012815, 0.2775446772837909]

    def test_load_and_save_round_trips_bytes(self, tmp_path):
        _, model, ref = load_model(V3_FIXTURE)
        path = tmp_path / "resaved.json"
        save_rnn_model(model, path, ref)
        for suffix in (".json", ".f64"):
            assert (path.with_suffix(suffix).read_bytes()
                    == V3_FIXTURE.with_suffix(suffix).read_bytes()), suffix

    def test_loaded_params_are_owned_writable_c_float64(self):
        _, model, _ = load_model(V3_FIXTURE)
        for name, p in model.params.items():
            assert p.dtype == np.float64, name
            assert p.flags.owndata and p.flags.writeable and p.flags.c_contiguous, name

    def test_predictions_match_stored(self):
        _, model, _ = load_model(V3_FIXTURE)
        np.testing.assert_allclose(predict_sequences(model, self.SEQUENCES),
                                   self.PROBS, rtol=1e-12, atol=0)


def _v2_bytes(name, edit):
    """Replace the bytes of tensor `name` with `edit(bytes)`, re-encoded."""
    def corrupt(payload):
        entry = payload["tensors"][name]
        entry[1] = base64.b64encode(edit(base64.b64decode(entry[1]))).decode("ascii")
    return corrupt


def _v2_text(name, text):
    """Store `text` as the data of tensor `name`."""
    return lambda payload: payload["tensors"][name].__setitem__(1, text)


def _first_value(value):
    return lambda raw: struct.pack("<d", value) + raw[8:]


class TestMalformedModelFile:
    @staticmethod
    def _corrupt(tmp_path, edit):
        """A copy of the fixture pair, its header changed by `edit`."""
        return TestMalformedModelFile._corrupt_pair(tmp_path, header_edit(edit))

    @staticmethod
    def _corrupt_pair(tmp_path, edit):
        """A copy of the fixture pair, changed by the `edit_rnn_pair` edit `edit`."""
        path = tmp_path / "bad.json"
        shutil.copyfile(V3_FIXTURE, path)
        shutil.copyfile(V3_FIXTURE.with_suffix(".f64"), path.with_suffix(".f64"))
        edit_rnn_pair(path, edit)
        return path

    @pytest.mark.parametrize("edit", [
        lambda p: p["dims"].__setitem__("hidden", 3.0),
        lambda p: p["dims"].__setitem__("extra", 1),
        lambda p: p.__setitem__("dims", [4, 3, 3]),
        lambda p: p.__setitem__("sha256", []),
    ], ids=["float-dim", "unknown-dim", "dims-list", "sha256-list"])
    def test_schema_error(self, tmp_path, edit):
        with pytest.raises(SchemaError, match=str(tmp_path / "bad.json")):
            load_model(self._corrupt(tmp_path, edit))

    @pytest.mark.parametrize("edit, message", [
        (lambda header, blob: None, "bad.f64 is missing: re-run train"),
        (blob_edit(lambda b: b[:-1]), "holds 2079 bytes, not the 2080 its dims need"),
        (blob_edit(lambda b: b + b"\0"), "holds 2081 bytes, not the 2080 its dims need"),
        (blob_edit(lambda b: b[:-8], rehash=True), "holds 2072 bytes, not the 2080"),
        (header_edit(lambda p: p["dims"].__setitem__("attn_dim", 4)),
         "holds 2080 bytes, not the 2136 its dims need: re-run train"),
        (header_edit(lambda p: p["dims"].__setitem__("vocab_size", 2**62)),
         "holds 2080 bytes, not the 147573952589676414720 its dims need"),
        (blob_edit(flip_byte), "does not match the header's sha256: re-run train"),
        (blob_edit(set_value(5, math.nan), rehash=True),
         "tensor 'embedding' is not a finite float64 array"),
        (blob_edit(set_value(-1, math.inf), rehash=True),
         "tensor 'out.b' is not a finite float64 array"),
        (blob_edit(set_value(-3, -math.inf), rehash=True),
         "tensor 'out.w' is not a finite float64 array"),
        (header_edit(lambda p: p.pop("sha256")), "sha256 None is not 64 lowercase hex"),
        (header_edit(lambda p: p.__setitem__("sha256", "g" * 64)), "is not 64 lowercase hex"),
        (header_edit(lambda p: p.__setitem__("sha256", p["sha256"].upper())),
         "is not 64 lowercase hex"),
        (header_edit(lambda p: p.__setitem__("sha256", p["sha256"][1:])),
         "is not 64 lowercase hex"),
    ], ids=["missing-blob", "short-by-one-byte", "long-by-one-byte", "missing-tensor",
            "wrong-shape", "huge-vocab", "flipped-byte", "nan", "inf", "minus-inf",
            "missing-sha256", "non-hex-sha256", "upper-case-sha256", "short-sha256"])
    def test_version_3_schema_error_names_file(self, tmp_path, edit, message):
        """Each check in its turn: dims and sha256, the blob's size, its
        hash, then finiteness."""
        path = self._corrupt_pair(tmp_path, edit)
        with pytest.raises(SchemaError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)

    def test_dims_past_the_blob_allocate_nothing(self, tmp_path):
        path = self._corrupt(tmp_path, lambda p: p["dims"].__setitem__("vocab_size", 10**7))
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError, match="bytes, not the"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the embedding alone would be 320 MB

    @pytest.mark.parametrize("edit", [
        lambda p: p["tensors"].pop("fwd.U"),
        _v2_text("out.b", "not base64!"),
        _v2_text("out.b", "AAAAAAAA8D8"),
        _v2_text("out.b", "AAAAAAAA8D\u00e98="),
        _v2_text("out.b", "AAAA*AAAA8D8="),
        _v2_bytes("bwd.U", lambda raw: raw[:-8]),
        _v2_bytes("bwd.U", lambda raw: raw[:-1]),
        _v2_bytes("bwd.U", lambda raw: raw + raw[:8]),
        _v2_bytes("attn.v_a", _first_value(math.nan)),
        _v2_bytes("embedding", _first_value(math.inf)),
        _v2_bytes("out.w", _first_value(-math.inf)),
        lambda p: p["tensors"]["attn.W_a"].__setitem__(0, [6, 3]),
        lambda p: p["tensors"]["out.w"].__setitem__(1, [0.0] * 6),
        lambda p: p["tensors"]["out.w"].__setitem__(1, None),
        lambda p: p["tensors"].__setitem__("out.w", None),
        lambda p: p["dims"].__setitem__("vocab_size", 2**62),
        lambda p: p.__setitem__("kind", "logreg"),
    ], ids=["missing-tensor", "bad-base64", "unpadded-base64", "non-ascii", "stray-character",
            "truncated",
            "partial-value", "extra-value", "nan", "inf", "minus-inf", "wrong-shape",
            "list-data", "null-data", "entry-null", "huge-vocab", "logreg-v2"])
    def test_version_2_schema_error_names_file(self, tmp_path, edit):
        """A version-2 file (the fixture's parameters as base64 text) is
        refused from its header, whatever its tensors hold: none is read."""
        payload = version_2_payload(V3_FIXTURE)
        edit(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=str(path)) as info:
            load_model(path)
        assert "re-run train" in str(info.value)

    def test_version_4_rejected(self, tmp_path):
        path = self._corrupt(tmp_path, lambda p: p.__setitem__("version", 4))
        with pytest.raises(SchemaError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("kind, version", [
        ("rnn", 1), ("rnn", 2), ("logreg", 2), ("svm", 1), (None, 2), ("rnn", None)])
    def test_other_formats_say_to_train_again(self, tmp_path, kind, version):
        """Only version-1 logreg and version-3 rnn files are read; a version-1
        rnn file (split gate tensors) and a version-2 one (base64 tensors) are
        refused."""
        path = self._corrupt(tmp_path, lambda p: p.update(kind=kind, version=version))
        with pytest.raises(SchemaError) as info:
            load_model(path)
        assert str(info.value).startswith(
            f"{path} is a version-{version} model file of kind {kind!r}")
        assert "re-run train" in str(info.value)

    def test_binary_file_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(SchemaError):
            load_model(path)
