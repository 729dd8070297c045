import numpy as np
import pytest

from conftest import (
    csr_rows,
    dense_rows,
    make_labels,
    reference_neighbor_table,
    reference_smote,
)
from edusent.cli import main
from edusent.errors import ValidationError
from edusent.features import tfidf_transform
from edusent.pipeline import load_bundle
from edusent.resample import (
    SmoteConfig,
    _dense_sq_norms,
    _draws,
    _neighbor_table,
    balance_sparse,
    class_weights,
    smote_sparse,
)


def draws(X: np.ndarray, n_new: int, cfg: SmoteConfig):
    """(parent, neighbor, lam) arrays that smote_sparse draws for dense rows X."""
    csr = csr_rows(X)
    return _draws(csr, _dense_sq_norms(csr, X.shape[1]), n_new, cfg)


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
        csr = csr_rows(X)
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
        csr = csr_rows(X)
        table = _neighbor_table(csr, _dense_sq_norms(csr, 1), 2, 4)
        # row 0: rows 1 and 2 both at 1; row 1: rows 2 and 3 both at 4
        assert table.tolist() == [[1, 2], [0, 2], [0, 1], [1, 0]]
        parents, neighbors, _ = draws(X, 20, SmoteConfig(k_neighbors=1, seed=5))
        assert set(neighbors[parents == 0].tolist()) == {1}


class TestSmoteSparse:
    @pytest.mark.parametrize("X", [tie_heavy_matrix(4), normal_matrix(5)])
    def test_dense_and_sparse_equal_reference(self, X):
        cfg = SmoteConfig(k_neighbors=3, seed=11)
        for n_new in (5, 40):
            ref = reference_smote(X, n_new, cfg)
            parents, neighbors, lams = draws(X, n_new, cfg)
            sparse = smote_sparse(csr_rows(X), n_new, cfg, X.shape[1])
            assert len(sparse) == n_new
            assert list(zip(parents.tolist(), neighbors.tolist(), lams.tolist())) == [
                (parent, neighbor, lam) for parent, neighbor, lam, _ in ref]
            # exactly the dense rows' non-zeros, in column order
            want = csr_rows(np.stack([vec for _, _, _, vec in ref]))
            for got, expected in zip((sparse.indptr, sparse.indices, sparse.values),
                                     (want.indptr, want.indices, want.values)):
                np.testing.assert_array_equal(got, expected)

    def test_sample_bundle_matches_dense_reference(self, tmp_path, sample_csv):
        out = tmp_path / "bundle"
        assert main(["prepare", "--data", str(sample_csv), "--out", str(out),
                     "--k", "300", "--seed", "7"]) == 0
        bundle = load_bundle(out)
        dim = len(bundle.tfidf.vocab)
        train = bundle.subset(bundle.train_ids)
        X = tfidf_transform(bundle.tfidf, [ex.tokens for ex in train])
        y = [ex.label for ex in train]
        dense = dense_rows(X, dim)
        minority_label = min(set(y), key=y.count)
        minority = dense[[lab == minority_label for lab in y]]
        for k in (1, 3, 5):
            cfg = SmoteConfig(k_neighbors=k, seed=7)
            Xs, ys = balance_sparse(X, y, dim, cfg)
            n_new = len(Xs) - len(X)
            assert n_new > 0 and ys == y + [minority_label] * n_new
            parents, neighbors, lams = draws(minority, n_new, cfg)
            p, q = minority[parents], minority[neighbors]
            want = np.vstack((dense, p + lams[:, None] * (q - p)))
            np.testing.assert_array_equal(dense_rows(Xs, dim), want)


class TestSmote:
    def test_interpolation_identity_and_segment(self):
        rng = np.random.default_rng(4)
        minority = rng.normal(size=(12, 6))
        cfg = SmoteConfig(k_neighbors=5, seed=9)
        synth = dense_rows(smote_sparse(csr_rows(minority), 40, cfg, 6), 6)
        assert len(synth) == 40
        eps = 1e-12
        for vec, parent_index, neighbor_index, lam in zip(synth, *draws(minority, 40, cfg)):
            parent = minority[parent_index]
            neighbor = minority[neighbor_index]
            np.testing.assert_allclose(
                vec, parent + lam * (neighbor - parent), rtol=0, atol=0)
            lo = np.minimum(parent, neighbor) - eps
            hi = np.maximum(parent, neighbor) + eps
            assert np.all(vec >= lo) and np.all(vec <= hi)
            assert 0.0 <= lam <= 1.0

    def test_lambda_zero_and_one_are_endpoints(self):
        parent = np.array([0.0, 0.0])
        neighbor = np.array([2.0, 2.0])
        assert list(parent + 0.0 * (neighbor - parent)) == [0.0, 0.0]
        assert list(parent + 1.0 * (neighbor - parent)) == [2.0, 2.0]
        assert list(parent + 0.5 * (neighbor - parent)) == [1.0, 1.0]

    def test_round_robin_parents(self):
        parents, _, _ = draws(np.eye(3), 7, SmoteConfig(k_neighbors=2, seed=0))
        assert parents.tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_neighbor_is_nearest_when_k_is_one(self):
        minority = np.array([[0.0], [1.0], [10.0]])
        parents, neighbors, _ = draws(minority, 6, SmoteConfig(k_neighbors=1, seed=1))
        by_parent = dict(zip(parents.tolist(), neighbors.tolist()))
        assert by_parent[0] == 1   # 1.0 is nearest to 0.0
        assert by_parent[1] == 0
        assert by_parent[2] == 1

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        minority = rng.normal(size=(8, 4))
        cfg = SmoteConfig(k_neighbors=3, seed=42)
        a = smote_sparse(csr_rows(minority), 11, cfg, 4)
        b = smote_sparse(csr_rows(minority), 11, cfg, 4)
        np.testing.assert_array_equal(dense_rows(a, 4), dense_rows(b, 4))
        for s, t in zip(draws(minority, 11, cfg), draws(minority, 11, cfg)):
            np.testing.assert_array_equal(s, t)

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError, match=">= 2"):
            smote_sparse(csr_rows(np.zeros((1, 3))), 2, SmoteConfig(), 3)


class TestBalance:
    def test_counts_equalized(self):
        rng = np.random.default_rng(6)
        X = csr_rows(rng.normal(size=(14, 3)))
        y = make_labels([1] * 10 + [0] * 4)
        Xb, yb = balance_sparse(X, y, 3, SmoteConfig(seed=0))
        pos = sum(1 for lab in yb if int(lab) == 1)
        neg = len(yb) - pos
        assert pos == neg == 10
        assert len(Xb) == 20

    def test_originals_first_and_verbatim(self):
        X = np.array([[float(i), 0.0] for i in range(6)])
        y = make_labels([1, 1, 1, 1, 0, 0])
        Xb, yb = balance_sparse(csr_rows(X), y, 2, SmoteConfig(seed=3))
        np.testing.assert_array_equal(dense_rows(Xb, 2)[:len(X)], X)
        assert yb[: len(y)] == y
        assert all(int(lab) == 0 for lab in yb[len(y):])

    def test_already_balanced_unchanged(self):
        X = csr_rows([np.ones(2), np.zeros(2)])
        y = make_labels([1, 0])
        Xb, yb = balance_sparse(X, y, 2, SmoteConfig())
        assert len(Xb) == 2 and yb == y

    def test_k_clamps_to_minority_size(self):
        X = csr_rows([[0.0], [1.0], [2.0], [10.0], [11.0]])
        y = make_labels([1, 1, 1, 0, 0])
        Xb, yb = balance_sparse(X, y, 1, SmoteConfig(k_neighbors=5, seed=0))
        pos = sum(1 for lab in yb if int(lab) == 1)
        assert pos == 3 and len(yb) - pos == 3

    def test_single_class_error(self):
        with pytest.raises(ValidationError):
            balance_sparse(csr_rows(np.zeros((1, 2))), make_labels([1]), 2, SmoteConfig())


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
