"""Class balancing: SMOTE on sparse feature rows, class weights for the RNN.

SMOTE interpolates synthetic minority points between a parent and one of its
k nearest minority neighbors; `balance_sparse` appends them to the `Csr`
rows of the training set. The neighbor table is exact, with equal distances
going to the lower row index. It is found without a dense distance matrix:
rows sharing a term with the parent get their distance from the shared
products, and the rest rank by squared norm, so the cost is the shared-term
products plus parents times distinct norms (see `_neighbor_table`).

The linear model trains on the balanced set; the sequence model cannot
consume synthetic vectors, so it uses weighted cross-entropy with the
weights computed here instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .features import Csr
from .ingest import SentimentLabel


#: parent rows per chunk of the neighbor search
_CHUNK_ROWS = 512

#: rows per block densified by `_dense_sq_norms`
_DENSE_ROWS = 32


@dataclass
class SmoteConfig:
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValidationError(f"k_neighbors must be >= 1, got {self.k_neighbors}")


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the ranges starts[r] .. starts[r] + counts[r] - 1 in turn: the
    range each position belongs to, and the position."""
    owner = np.repeat(np.arange(len(counts)), counts)
    at = (np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
          + np.repeat(starts, counts))
    return owner, at


def _gather(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the CSR entries of `rows` in turn: the position in `rows` each
    entry belongs to, and the entry's position in the CSR arrays."""
    return _ranges(indptr[rows], np.diff(indptr)[rows])


def _take(X: Csr, rows: np.ndarray) -> Csr:
    """The rows `rows` of X, in that order."""
    _, at = _gather(X.indptr, rows)
    return Csr(np.concatenate(([0], np.cumsum(np.diff(X.indptr)[rows]))),
               X.indices[at], X.values[at])


def _neighbor_table(
    csr: Csr,
    sq: np.ndarray,
    k: int,
    n_parents: int,
    chunk: int = _CHUNK_ROWS,
    max_pairs: int = 1 << 22,
) -> np.ndarray:
    """Indices of the k nearest Euclidean neighbors of rows 0..n_parents-1
    among all rows of `csr`, excluding the row itself; `sq` holds every
    row's squared norm.

    The squared distance is sq_i + sq_j - 2 g_ij, clamped at zero, where the
    Gram entry g_ij sums the products of the terms rows i and j share, in
    term order. Distance ties break on the smaller row index so the table is
    stable.

    Only pairs that share a term get a Gram entry. Every other row j is at
    exactly sq_i + sq_j, so it ranks by its squared norm, then by index: per
    norm, only its first k rows that do not share a term with i can be
    among i's k nearest. The search walks the distinct norms upwards until
    k such rows are reached; that distance bounds the shared pairs worth
    ranking. The work is the shared-term products plus parents times
    distinct norms, not parents times rows. Parents go in chunks of at most
    `chunk` rows and about `max_pairs` shared-term products to keep memory
    bounded.
    """
    indptr, indices, values, rows = csr.indptr, csr.indices, csr.values, csr.rows
    n = len(csr)
    # term -> the rows holding it, in row order (CSC)
    by_term = np.argsort(indices, kind="stable")
    term_rows, term_vals = rows[by_term], values[by_term]
    df = np.bincount(indices, minlength=1)
    term_ptr = np.concatenate(([0], np.cumsum(df)))
    # products each row takes part in, cumulated over rows
    row_cost = np.concatenate(([0], np.cumsum(df[indices])))[indptr]
    # distinct squared norms ascending; the rows of each, in row order
    norms, group = np.unique(sq, return_inverse=True)
    n_groups = len(norms)
    size = np.bincount(group, minlength=n_groups)
    members = np.argsort(group, kind="stable")
    first_member = np.cumsum(size) - size

    table = np.empty((n_parents, k), dtype=np.int64)
    start = 0
    while start < n_parents:
        budget = np.searchsorted(row_cost, row_cost[start] + max_pairs, side="right") - 1
        stop = min(n_parents, start + chunk, max(start + 1, int(budget)))
        lo, hi = indptr[start], indptr[stop]
        entry, at = _gather(term_ptr, indices[lo:hi])
        m = stop - start
        sq_parent = sq[start:stop]
        # pairs sharing a term, as (parent - start) * n + row; each Gram
        # entry adds its products in the parent's term order
        shared, pair = np.unique((rows[lo:hi][entry] - start) * n + term_rows[at],
                                 return_inverse=True)
        gram = np.bincount(pair, weights=values[lo:hi][entry] * term_vals[at],
                           minlength=len(shared))
        p, j = np.divmod(shared, n)
        d2 = sq_parent[p] + sq[j] - 2.0 * gram
        np.maximum(d2, 0.0, out=d2)
        other = j != p + start
        p, j, d2 = p[other], j[other], d2[other]

        # per parent and norm: the rows that share a term, and the parent
        excluded = np.bincount(
            np.concatenate((p, np.arange(m))) * n_groups
            + np.concatenate((group[j], group[start:stop])),
            minlength=m * n_groups).reshape(m, n_groups)
        # the distance at which k rows sharing no term are reached, if ever
        reach = np.cumsum(size - excluded, axis=1)
        kth = np.argmax(reach >= k, axis=1)
        bound = np.where(reach[:, -1] >= k, sq_parent + norms[kth], np.inf)
        # the first k + excluded rows of each norm within the bound
        within = sq_parent[:, None] + norms[None, :] <= bound[:, None]
        counts = np.where(within, np.minimum(k + excluded, size), 0).ravel()
        owner, at = _ranges(np.tile(first_member, m), counts)
        q, r = owner // n_groups, members[at]
        key = q * n + r
        # a sentinel past every key ends `shared`, so each lookup lands in it
        apart = (r != q + start) & (np.append(shared, m * n)[np.searchsorted(shared, key)] != key)

        near = d2 <= bound[p]
        p = np.concatenate((p[near], q[apart]))
        j = np.concatenate((j[near], r[apart]))
        d2 = np.concatenate((d2[near], sq_parent[q[apart]] + sq[r[apart]]))
        per_parent = np.bincount(p, minlength=m)
        first = np.cumsum(per_parent) - per_parent
        table[start:stop] = j[np.lexsort((j, d2, p))][first[:, None] + np.arange(k)]
        start = stop
    return table


def _dense_sq_norms(csr: Csr, dim: int) -> np.ndarray:
    """np.sum(row * row) over each row made dense: pairwise summation groups
    the terms by position, so summing only the non-zeros can change the last
    bit, and those bits decide distance ties. Dense and sparse rows must give
    the same neighbor table."""
    indptr, indices, values = csr.indptr, csr.indices, csr.values
    n = len(csr)
    sq = np.empty(n)
    for start in range(0, n, _DENSE_ROWS):
        stop = min(n, start + _DENSE_ROWS)
        lo, hi = indptr[start], indptr[stop]
        block = np.zeros((stop - start, dim))
        block[np.repeat(np.arange(stop - start), np.diff(indptr[start:stop + 1])),
              indices[lo:hi]] = values[lo:hi]
        sq[start:stop] = np.sum(block * block, axis=1)
    return sq


def _draws(
    csr: Csr,
    sq: np.ndarray,
    n_new: int,
    cfg: SmoteConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(parent, neighbor, lam) per synthetic sample.

    Parents cycle round-robin through the minority set, so only the first
    min(n, n_new) rows need a neighbor table row; per sample, the neighbor
    is drawn uniformly among the parent's min(k_neighbors, n-1) nearest
    neighbors, then the interpolation factor from Uniform[0, 1].
    """
    n = len(sq)
    if n < 2:
        raise ValidationError("SMOTE requires >= 2 minority samples")
    k = min(cfg.k_neighbors, n - 1)
    neighbors = _neighbor_table(csr, sq, k, min(n, n_new))
    rng = np.random.default_rng(cfg.seed)
    parents = np.arange(n_new) % n
    picks = np.empty(n_new, dtype=np.int64)
    lams = np.empty(n_new)
    for j, parent in enumerate(parents):
        picks[j] = neighbors[parent, rng.integers(0, k)]
        lams[j] = rng.uniform(0.0, 1.0)
    return parents, picks, lams


def smote_sparse(minority: Csr, n_new: int, cfg: SmoteConfig, dim: int) -> Csr:
    """n_new synthetic rows of width `dim` from the minority rows,
    deterministically; see `_draws` for how parents, neighbors and
    interpolation factors are chosen.

    Each synthetic row covers the union of its parent's and neighbor's
    indices, with p + lam * (q - p) per entry (0.0 for an absent one) and
    exact zeros dropped: the same floats as the dense computation.
    """
    parents, picks, lams = _draws(minority, _dense_sq_norms(minority, dim), n_new, cfg)
    indptr, indices, values = minority.indptr, minority.indices, minority.values
    p_sample, p_at = _gather(indptr, parents)
    q_sample, q_at = _gather(indptr, picks)
    keys, slot = np.unique(np.concatenate((p_sample * dim + indices[p_at],
                                           q_sample * dim + indices[q_at])),
                           return_inverse=True)
    p = np.zeros(len(keys))
    q = np.zeros(len(keys))
    p[slot[:len(p_at)]] = values[p_at]
    q[slot[len(p_at):]] = values[q_at]
    sample, term = np.divmod(keys, dim)
    vals = p + lams[sample] * (q - p)
    keep = vals != 0.0
    return Csr(np.concatenate(([0], np.cumsum(np.bincount(sample[keep], minlength=n_new)))),
               term[keep], vals[keep])


def minority_gap(y: Sequence[SentimentLabel]) -> tuple[SentimentLabel, int]:
    """The minority label and how many rows it lacks for parity (0 when the
    classes are balanced)."""
    n_pos = sum(1 for lab in y if lab == SentimentLabel.POSITIVE)
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("balancing needs both classes present")
    minority_label = SentimentLabel.NEGATIVE if n_neg < n_pos else SentimentLabel.POSITIVE
    return minority_label, abs(n_pos - n_neg)


def balance_sparse(
    X: Csr,
    y: Sequence[SentimentLabel],
    dim: int,
    cfg: SmoteConfig,
) -> tuple[Csr, list]:
    """Oversample the minority class of rows of width `dim` until both class
    counts are equal.

    Originals are preserved verbatim and come first, in their input order;
    synthetic minority rows are appended. Inputs already balanced pass
    through unchanged.
    """
    minority_label, n_new = minority_gap(y)
    if n_new == 0:
        return X, list(y)
    minority = _take(X, np.flatnonzero([lab == minority_label for lab in y]))
    synth = smote_sparse(minority, n_new, cfg, dim)
    X_out = Csr(np.concatenate((X.indptr, X.indptr[-1] + synth.indptr[1:])),
                np.concatenate((X.indices, synth.indices)),
                np.concatenate((X.values, synth.values)))
    return X_out, list(y) + [minority_label] * n_new


def class_weights(y: Sequence[SentimentLabel]) -> tuple[float, float]:
    """(w_pos, w_neg) with w_c = N / (2 * count_c); balanced data gives (1, 1)."""
    n_pos = sum(1 for lab in y if lab == SentimentLabel.POSITIVE)
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("class_weights needs both classes present")
    n = len(y)
    return n / (2.0 * n_pos), n / (2.0 * n_neg)
