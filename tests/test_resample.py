import numpy as np
import pytest

from conftest import make_labels
from edusent.cli import main
from edusent.errors import ValidationError
from edusent.features import SparseVector, pack_rows
from edusent.pipeline import balance_sparse, load_bundle, tfidf_rows
from edusent.resample import (
    SmoteConfig,
    _dense_sq_norms,
    _neighbor_table,
    balance_to_parity,
    class_weights,
    smote,
    smote_sparse,
)


def reference_neighbor_table(minority: np.ndarray, k: int, chunk: int = 512) -> np.ndarray:
    """Dense reference: a BLAS Gram product and a full per-row lexsort on
    (distance, row index)."""
    n = minority.shape[0]
    sq = np.sum(minority * minority, axis=1)
    table = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, chunk):
        rows = minority[start:start + chunk]
        d2 = sq[start:start + chunk, None] + sq[None, :] - 2.0 * (rows @ minority.T)
        np.maximum(d2, 0.0, out=d2)
        for i in range(d2.shape[0]):
            d2[i, start + i] = np.inf
        tie = np.broadcast_to(np.arange(n), d2.shape)
        order = np.lexsort((tie, d2), axis=1)
        table[start:start + chunk] = order[:, :k]
    return table


def reference_smote(X: np.ndarray, n_new: int, cfg: SmoteConfig) -> list:
    """(parent, neighbor, lam, vector) per sample from the reference table
    and the interleaved per-sample draws: rng.integers, then rng.uniform."""
    n = X.shape[0]
    k = min(cfg.k_neighbors, n - 1)
    neighbors = reference_neighbor_table(X, k)
    rng = np.random.default_rng(cfg.seed)
    out = []
    for j in range(n_new):
        parent = j % n
        neighbor = int(neighbors[parent, rng.integers(0, k)])
        lam = float(rng.uniform(0.0, 1.0))
        out.append((parent, neighbor, lam, X[parent] + lam * (X[neighbor] - X[parent])))
    return out


def sparse_rows(dense: np.ndarray) -> list:
    return [SparseVector(pairs=[(int(i), float(row[i])) for i in np.flatnonzero(row)])
            for row in dense]


def tie_heavy_matrix(seed: int) -> np.ndarray:
    """Sparse quarter-integer rows (every product and sum exact), with
    duplicated rows, all-zero rows and equidistant basis vectors."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-4, 5, size=(10, 7)) * 0.25
    base[rng.random(base.shape) < 0.6] = 0.0
    X = np.vstack([base, base[[2, 5, 5]], np.zeros((2, 7)), np.eye(7)[:4]])
    return X[rng.permutation(len(X))]


def normal_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(16, 30))
    X[rng.random(X.shape) < 0.85] = 0.0
    return X


class TestNeighborTable:
    @pytest.mark.parametrize("X", [tie_heavy_matrix(0), tie_heavy_matrix(1),
                                   normal_matrix(2), normal_matrix(3)])
    def test_equals_dense_reference(self, X):
        n, dim = X.shape
        csr = pack_rows(sparse_rows(X))
        sq = _dense_sq_norms(csr, dim)
        np.testing.assert_array_equal(sq, np.sum(X * X, axis=1))
        for k in range(1, n):
            ref = reference_neighbor_table(X, k)
            for n_new in (n - 3, n + 5):
                n_parents = min(n, n_new)
                np.testing.assert_array_equal(
                    _neighbor_table(csr, sq, k, n_parents), ref[:n_parents])
                # chunk boundaries, by rows and by shared-term products
                np.testing.assert_array_equal(
                    _neighbor_table(csr, sq, k, n_parents, chunk=3, max_pairs=4),
                    ref[:n_parents])

    def test_ties_go_to_the_smaller_index(self):
        X = np.array([[0.0], [1.0], [-1.0], [3.0]])
        csr = pack_rows(sparse_rows(X))
        table = _neighbor_table(csr, _dense_sq_norms(csr, 1), 2, 4)
        # row 0: rows 1 and 2 both at 1; row 1: rows 2 and 3 both at 4
        assert table.tolist() == [[1, 2], [0, 2], [0, 1], [1, 0]]
        samples = smote(X, 20, SmoteConfig(k_neighbors=1, seed=5))
        assert {s.neighbor_index for s in samples if s.parent_index == 0} == {1}


class TestSmoteSparse:
    @pytest.mark.parametrize("X", [tie_heavy_matrix(4), normal_matrix(5)])
    def test_dense_and_sparse_equal_reference(self, X):
        cfg = SmoteConfig(k_neighbors=3, seed=11)
        for n_new in (5, 40):
            ref = reference_smote(X, n_new, cfg)
            dense = smote(X, n_new, cfg)
            sparse = smote_sparse(sparse_rows(X), n_new, cfg, X.shape[1])
            assert len(dense) == len(sparse) == n_new
            for (parent, neighbor, lam, vec), s, v in zip(ref, dense, sparse):
                assert (s.parent_index, s.neighbor_index, s.lam) == (parent, neighbor, lam)
                np.testing.assert_array_equal(s.vector, vec)
                assert v.pairs == sparse_rows(vec[None, :])[0].pairs

    def test_sample_bundle_matches_balance_to_parity(self, tmp_path, sample_csv):
        out = tmp_path / "bundle"
        assert main(["prepare", "--data", str(sample_csv), "--out", str(out),
                     "--k", "300", "--seed", "7"]) == 0
        bundle = load_bundle(out)
        dim = len(bundle.tfidf.vocab)
        X = tfidf_rows(bundle, bundle.train_ids)
        y = [bundle.examples[i].label for i in bundle.train_ids]
        for k in (1, 3, 5):
            cfg = SmoteConfig(k_neighbors=k, seed=7)
            Xs, ys = balance_sparse(X, y, dim, cfg)
            Xd, yd = balance_to_parity([x.to_dense(dim) for x in X], y, cfg)
            assert ys == yd and len(Xs) > len(X)
            for xs, xd in zip(Xs, Xd):
                np.testing.assert_array_equal(xs.to_dense(dim), xd)


class TestSmote:
    def test_interpolation_identity_and_segment(self):
        rng = np.random.default_rng(4)
        minority = rng.normal(size=(12, 6))
        samples = smote(minority, 40, SmoteConfig(k_neighbors=5, seed=9))
        assert len(samples) == 40
        eps = 1e-12
        for s in samples:
            parent = minority[s.parent_index]
            neighbor = minority[s.neighbor_index]
            np.testing.assert_allclose(
                s.vector, parent + s.lam * (neighbor - parent), rtol=0, atol=0)
            lo = np.minimum(parent, neighbor) - eps
            hi = np.maximum(parent, neighbor) + eps
            assert np.all(s.vector >= lo) and np.all(s.vector <= hi)
            assert 0.0 <= s.lam <= 1.0

    def test_lambda_zero_and_one_are_endpoints(self):
        parent = np.array([0.0, 0.0])
        neighbor = np.array([2.0, 2.0])
        assert list(parent + 0.0 * (neighbor - parent)) == [0.0, 0.0]
        assert list(parent + 1.0 * (neighbor - parent)) == [2.0, 2.0]
        assert list(parent + 0.5 * (neighbor - parent)) == [1.0, 1.0]

    def test_round_robin_parents(self):
        minority = np.eye(3)
        samples = smote(minority, 7, SmoteConfig(k_neighbors=2, seed=0))
        assert [s.parent_index for s in samples] == [0, 1, 2, 0, 1, 2, 0]

    def test_neighbor_is_nearest_when_k_is_one(self):
        minority = np.array([[0.0], [1.0], [10.0]])
        samples = smote(minority, 6, SmoteConfig(k_neighbors=1, seed=1))
        by_parent = {s.parent_index: s.neighbor_index for s in samples}
        assert by_parent[0] == 1   # 1.0 is nearest to 0.0
        assert by_parent[1] == 0
        assert by_parent[2] == 1

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        minority = rng.normal(size=(8, 4))
        cfg = SmoteConfig(k_neighbors=3, seed=42)
        a = smote(minority, 11, cfg)
        b = smote(minority, 11, cfg)
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.vector, t.vector)
            assert (s.parent_index, s.neighbor_index, s.lam) == (
                t.parent_index, t.neighbor_index, t.lam)

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError, match=">= 2"):
            smote(np.zeros((1, 3)), 2, SmoteConfig())


class TestBalance:
    def test_counts_equalized(self):
        rng = np.random.default_rng(6)
        X = [rng.normal(size=3) for _ in range(14)]
        y = make_labels([1] * 10 + [0] * 4)
        Xb, yb = balance_to_parity(X, y, SmoteConfig(seed=0))
        pos = sum(1 for lab in yb if int(lab) == 1)
        neg = len(yb) - pos
        assert pos == neg == 10
        assert len(Xb) == 20

    def test_originals_first_and_verbatim(self):
        X = [np.array([float(i), 0.0]) for i in range(6)]
        y = make_labels([1, 1, 1, 1, 0, 0])
        Xb, yb = balance_to_parity(X, y, SmoteConfig(seed=3))
        for orig, kept in zip(X, Xb):
            np.testing.assert_array_equal(orig, kept)
        assert yb[: len(y)] == y
        assert all(int(lab) == 0 for lab in yb[len(y):])

    def test_already_balanced_unchanged(self):
        X = [np.ones(2), np.zeros(2)]
        y = make_labels([1, 0])
        Xb, yb = balance_to_parity(X, y, SmoteConfig())
        assert len(Xb) == 2 and yb == y

    def test_k_clamps_to_minority_size(self):
        X = [np.array([0.0]), np.array([1.0]), np.array([2.0]),
             np.array([10.0]), np.array([11.0])]
        y = make_labels([1, 1, 1, 0, 0])
        Xb, yb = balance_to_parity(X, y, SmoteConfig(k_neighbors=5, seed=0))
        pos = sum(1 for lab in yb if int(lab) == 1)
        assert pos == 3 and len(yb) - pos == 3

    def test_single_class_error(self):
        with pytest.raises(ValidationError):
            balance_to_parity([np.zeros(2)], make_labels([1]), SmoteConfig())


class TestClassWeights:
    def test_balanced(self):
        assert class_weights(make_labels([1] * 10 + [0] * 10)) == (1.0, 1.0)

    def test_imbalanced(self):
        w_pos, w_neg = class_weights(make_labels([1] * 30 + [0] * 10))
        assert w_pos == pytest.approx(40 / 60)
        assert w_neg == pytest.approx(40 / 20)

    def test_minority_positive(self):
        w_pos, w_neg = class_weights(make_labels([1] + [0] * 3))
        assert w_pos == pytest.approx(2.0)
        assert w_neg == pytest.approx(4 / 6)

    def test_weighted_count_sums_to_n(self):
        labels = make_labels([1] * 7 + [0] * 5)
        w_pos, w_neg = class_weights(labels)
        assert 7 * w_pos + 5 * w_neg == pytest.approx(len(labels))

    def test_single_class_error(self):
        with pytest.raises(ValidationError):
            class_weights(make_labels([0, 0]))
