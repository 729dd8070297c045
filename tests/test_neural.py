import json
from pathlib import Path

import numpy as np
import pytest

from edusent.errors import SchemaError, ValidationError
from edusent.neural import (
    NeuralTrainConfig,
    RnnDims,
    SequenceDataset,
    TokenBatch,
    attention,
    backward,
    batch_probs,
    bilstm,
    build_batch,
    dataset_loss,
    embed,
    encode_tokens,
    forward,
    init_model,
    lstm_step,
    parameter_shapes,
    predict_sequences,
)
from edusent.neural import model as model_module
from edusent.neural.model import LstmCellParams, Tensor
from edusent.pipeline import load_model, save_rnn_model

DIMS = RnnDims(vocab_size=9, embed_dim=4, hidden=3, attn_dim=3, max_len=6)
V1_FIXTURE = Path(__file__).parent / "data" / "model_rnn_v1.json"


def _zero_cell(hidden=2, embed=2) -> LstmCellParams:
    return LstmCellParams(W=Tensor(np.zeros((4 * hidden, embed))),
                          U=Tensor(np.zeros((4 * hidden, hidden))),
                          b=Tensor(np.zeros(4 * hidden)))


def _step(x, h_prev, c_prev, cell):
    """lstm_step from a raw input: project it through W first."""
    h, c, _ = lstm_step(x @ cell.W.data.T, h_prev, c_prev, cell)
    return h, c


class TestEmbed:
    def test_padding_row_is_zero(self):
        model = init_model(DIMS, seed=0)
        batch = build_batch([[3, 5], [2]], [1.0, 0.0], DIMS.max_len)
        out = embed(model, batch)
        np.testing.assert_array_equal(out[1, 1], np.zeros(DIMS.embed_dim))

    def test_lookup_semantics(self):
        model = init_model(DIMS, seed=0)
        batch = build_batch([[4]], [1.0], DIMS.max_len)
        np.testing.assert_array_equal(embed(model, batch)[0, 0],
                                      model.embedding.data[4])

    def test_identical_rows_identical_slices(self):
        model = init_model(DIMS, seed=0)
        batch = build_batch([[1, 2, 3], [1, 2, 3]], [1.0, 0.0], DIMS.max_len)
        out = embed(model, batch)
        np.testing.assert_array_equal(out[0], out[1])

    def test_id_out_of_range(self):
        model = init_model(DIMS, seed=0)
        batch = build_batch([[1]], [1.0], DIMS.max_len)
        batch.ids[0, 0] = DIMS.vocab_size + 5
        with pytest.raises(ValidationError):
            embed(model, batch)


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
        _, c = _step(x, h_prev, c_prev, model.forward_cell)
        assert np.all(np.abs(c) <= np.abs(c_prev) + 1.0 + 1e-12)

    def test_shape_mismatch(self):
        cell = _zero_cell()  # the input projection must be 4 * hidden = 8 wide
        with pytest.raises(ValidationError):
            lstm_step(np.zeros(5), np.zeros(2), np.zeros(2), cell)


class TestBilstm:
    def test_single_step_matches_lstm_step(self):
        model = init_model(DIMS, seed=2)
        batch = build_batch([[5]], [1.0], DIMS.max_len)
        embedded = embed(model, batch)
        H, _, _ = bilstm(model, embedded, batch.mask)
        x = model.embedding.data[5]
        zeros = np.zeros(DIMS.hidden)
        h_f, _ = _step(x, zeros, zeros, model.forward_cell)
        h_b, _ = _step(x, zeros, zeros, model.backward_cell)
        np.testing.assert_allclose(H[0, 0], np.concatenate([h_f, h_b]), atol=1e-14)

    def test_palindrome_with_shared_cells_is_mirror_symmetric(self):
        model = init_model(DIMS, seed=3)
        model.backward_cell = model.forward_cell
        batch = build_batch([[2, 7, 2]], [1.0], DIMS.max_len)
        H, _, _ = bilstm(model, embed(model, batch), batch.mask)
        h = DIMS.hidden
        for t in range(3):
            np.testing.assert_allclose(H[0, t, :h], H[0, 2 - t, h:], atol=1e-12)

    def test_masked_tail_does_not_alter_earlier_outputs(self):
        model = init_model(DIMS, seed=4)
        short = build_batch([[3, 4]], [1.0], DIMS.max_len)
        wide = build_batch([[3, 4], [5, 6, 7, 8]], [1.0, 0.0], DIMS.max_len)
        H_short, _, _ = bilstm(model, embed(model, short), short.mask)
        H_wide, _, _ = bilstm(model, embed(model, wide), wide.mask)
        np.testing.assert_allclose(H_wide[0, :2], H_short[0, :2], atol=1e-14)
        np.testing.assert_array_equal(H_wide[0, 2:], 0.0)


class TestAttention:
    def test_identical_states_uniform_weights(self):
        model = init_model(DIMS, seed=5)
        H = np.tile(np.linspace(0.1, 0.6, 2 * DIMS.hidden), (1, 4, 1))
        mask = np.ones((1, 4))
        _, alphas, _ = attention(model, H, mask)
        np.testing.assert_allclose(alphas, 0.25, atol=1e-12)

    def test_single_unmasked_position(self):
        model = init_model(DIMS, seed=5)
        rng = np.random.default_rng(0)
        H = rng.normal(size=(1, 3, 2 * DIMS.hidden))
        mask = np.array([[1.0, 0.0, 0.0]])
        H[0, 1:] = 0.0
        context, alphas, _ = attention(model, H, mask)
        np.testing.assert_allclose(alphas, [[1.0, 0.0, 0.0]], atol=0)
        np.testing.assert_allclose(context[0], H[0, 0], atol=0)

    def test_rows_sum_to_one_and_masked_zero(self):
        model = init_model(DIMS, seed=6)
        batch = build_batch([[1, 2, 3, 4], [5, 6]], [1.0, 0.0], DIMS.max_len)
        H, _, _ = bilstm(model, embed(model, batch), batch.mask)
        _, alphas, _ = attention(model, H, batch.mask)
        np.testing.assert_allclose(alphas.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(alphas >= 0.0)
        np.testing.assert_array_equal(alphas[1, 2:], 0.0)

    def test_all_masked_row_rejected(self):
        model = init_model(DIMS, seed=6)
        H = np.zeros((1, 2, 2 * DIMS.hidden))
        with pytest.raises(ValidationError):
            attention(model, H, np.zeros((1, 2)))


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
        model.out_w.data[:] = 0.37  # nonzero head so probs move off 0.5
        batch = build_batch([[1, 2, 3], [9, 8]], [1.0, 0.0], DIMS.max_len)
        probs = forward(model, batch).probs
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_batch_order_permutation(self):
        model = init_model(DIMS, seed=10)
        model.out_w.data[:] = 0.2
        a = build_batch([[1, 2], [3, 4, 5]], [1.0, 0.0], DIMS.max_len)
        b = build_batch([[3, 4, 5], [1, 2]], [0.0, 1.0], DIMS.max_len)
        pa = forward(model, a).probs
        pb = forward(model, b).probs
        np.testing.assert_allclose(pa, pb[::-1], atol=1e-15)

    def test_backward_requires_cache(self):
        model = init_model(DIMS, seed=11)
        with pytest.raises(ValidationError):
            backward(model, None)


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

    def test_encode_tokens(self):
        t2i = {"good": 0, "class": 4}
        assert encode_tokens(["good", "zzz", "class"], t2i, max_len=8) == [1, 5]
        assert encode_tokens(["zzz"], t2i, max_len=8) == []

    def test_predict_sequences_bias_path_for_empty(self):
        model = init_model(DIMS, seed=12)
        model.out_b.data[...] = 0.8
        model.out_w.data[:] = 0.1
        probs = predict_sequences(model, [[], [1, 2]])
        assert probs[0] == pytest.approx(1.0 / (1.0 + np.exp(-0.8)), abs=1e-12)
        assert probs[1] != probs[0]


def _scoring_model(seed=14):
    """An untrained model with a nonzero head, so probabilities differ per row."""
    model = init_model(DIMS, seed=seed)
    rng = np.random.default_rng(seed)
    model.out_w.data[:] = rng.normal(size=2 * DIMS.hidden)
    model.out_b.data[...] = -0.3
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

    def test_inference_builds_no_direction_cache(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("inference built a DirectionCache")

        model = _scoring_model()
        monkeypatch.setattr(model_module, "DirectionCache", refuse)
        seqs = [s for s in self.SEQUENCES if s]
        probs = predict_sequences(model, seqs, chunk=4)
        assert probs.shape == (len(seqs),)
        ds = SequenceDataset(seqs, np.arange(len(seqs)) % 2)
        assert np.isfinite(dataset_loss(model, ds, NeuralTrainConfig()))
        with pytest.raises(AssertionError, match="DirectionCache"):
            forward(model, build_batch(seqs, np.zeros(len(seqs)), DIMS.max_len))


class TestPersistence:
    def test_round_trip_preserves_predictions(self, tmp_path):
        model = init_model(DIMS, seed=13)
        model.out_w.data[:] = np.linspace(-0.4, 0.4, 2 * DIMS.hidden)
        path = tmp_path / "model_rnn.json"
        save_rnn_model(model, path, vocab_ref="deadbeef")
        _, loaded, ref = load_model(path)
        assert ref == "deadbeef"
        batch = build_batch([[1, 5, 3]], [1.0], DIMS.max_len)
        np.testing.assert_array_equal(forward(model, batch).probs,
                                      forward(loaded, batch).probs)
        for (_, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "kind": "logreg"}')
        with pytest.raises(SchemaError):
            load_model(path)


class TestFusedLayout:
    def test_eleven_parameter_tensors(self):
        model = init_model(DIMS, seed=0)
        shapes = dict((name, t.shape) for name, t in model.named_parameters())
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
            (name, t.shape) for name, t in model.named_parameters()]

    def test_forget_gate_rows_start_at_one(self):
        h = DIMS.hidden
        b = init_model(DIMS, seed=0).forward_cell.b.data
        np.testing.assert_array_equal(b, [0.0] * h + [1.0] * h + [0.0] * (2 * h))

    def test_file_stores_per_gate_blocks(self, tmp_path):
        model = init_model(DIMS, seed=1)
        path = tmp_path / "model_rnn.json"
        save_rnn_model(model, path, vocab_ref="0")
        tensors = json.loads(path.read_text())["tensors"]
        h = DIMS.hidden
        for k, gate in enumerate("ifog"):
            shape, flat = tensors[f"bwd.U_{gate}"]
            assert shape == [h, h]
            np.testing.assert_array_equal(
                np.reshape(flat, shape), model.backward_cell.U.data[k * h : (k + 1) * h])


class TestVersion1Fixture:
    """A model file written before the gate tensors were fused."""

    SEQUENCES = [[1], [9, 8, 7], [2, 4, 6, 8, 1, 3, 5, 7, 9, 2], [], [5, 5, 5, 5]]
    PROBS = [0.4670603203567777, 0.33940858522985706, 0.41670668692572577,
             0.31870937380012815, 0.2775446772837909]

    def test_load_and_save_round_trips_bytes(self, tmp_path):
        _, model, ref = load_model(V1_FIXTURE)
        path = tmp_path / "resaved.json"
        save_rnn_model(model, path, ref)
        assert path.read_bytes() == V1_FIXTURE.read_bytes()

    def test_predictions_match_stored(self):
        _, model, _ = load_model(V1_FIXTURE)
        np.testing.assert_allclose(predict_sequences(model, self.SEQUENCES),
                                   self.PROBS, rtol=1e-12, atol=0)


class TestMalformedModelFile:
    @staticmethod
    def _corrupt(tmp_path, edit):
        payload = json.loads(V1_FIXTURE.read_text())
        edit(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("edit", [
        lambda p: p["tensors"].pop("fwd.W_o"),
        lambda p: p["tensors"].__setitem__("out.b", [[], [0.1, 0.2]]),
        lambda p: p["tensors"].__setitem__("attn.v_a", [[3], "abc"]),
        lambda p: p["tensors"].__setitem__("attn.v_a", [[2], [0.1, 0.2]]),
        lambda p: p["tensors"].__setitem__("out.w", None),
        lambda p: p["dims"].__setitem__("hidden", 3.0),
        lambda p: p["dims"].__setitem__("extra", 1),
        lambda p: p.__setitem__("dims", [4, 3, 3]),
        lambda p: p.__setitem__("tensors", []),
        lambda p: p["tensors"]["bwd.b_g"][1].__setitem__(0, float("inf")),
    ], ids=["missing-tensor", "bias-too-long", "values-not-numbers", "wrong-shape",
            "entry-null", "float-dim", "unknown-dim", "dims-list", "tensors-list",
            "infinite-bias"])
    def test_schema_error(self, tmp_path, edit):
        with pytest.raises(SchemaError):
            load_model(self._corrupt(tmp_path, edit))

    def test_binary_file_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(SchemaError):
            load_model(path)
