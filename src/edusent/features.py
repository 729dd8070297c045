"""Vocabulary building, TF-IDF vectors, chi-squared term scoring/selection.

Conventions: idf uses the smoothed form ln((1+N)/(1+df)) + 1, document
vectors are raw term counts times idf then L2-normalized, and chi-squared
operates on binary term presence against the binary sentiment label.

Documents become the rows of one `Csr` matrix, the only row format of the
linear path: SMOTE appends rows to it and logistic regression trains on
and scores it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .ingest import SentimentLabel


@dataclass
class Vocabulary:
    """Dense term index plus per-term document frequencies."""

    terms: list
    doc_freq: np.ndarray
    n_docs: int
    term_to_index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.term_to_index:
            self.term_to_index = {t: i for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True, eq=False)
class Csr:
    """Rows of a sparse matrix: row i holds the columns
    indices[indptr[i]:indptr[i+1]], ascending, with their values."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))


@dataclass
class TfidfModel:
    vocab: Vocabulary
    idf: np.ndarray


@dataclass
class Chi2Scores:
    score: np.ndarray


def build_vocabulary(corpus: Sequence[list]) -> Vocabulary:
    """Index every distinct token in first-appearance order and count the
    number of documents each term occurs in."""
    # a Counter keeps first-insertion order, and dict.fromkeys(doc) is doc's
    # distinct terms in first-appearance order
    doc_freq = Counter(chain.from_iterable(map(dict.fromkeys, corpus)))
    if not doc_freq:
        raise ValidationError("empty vocabulary: no tokens in any document")
    return Vocabulary(terms=list(doc_freq),
                      doc_freq=np.fromiter(doc_freq.values(), dtype=np.int64,
                                           count=len(doc_freq)),
                      n_docs=len(corpus))


def fit_tfidf(vocab: Vocabulary) -> TfidfModel:
    idf = np.log((1.0 + vocab.n_docs) / (1.0 + vocab.doc_freq)) + 1.0
    return TfidfModel(vocab=vocab, idf=idf)


def tfidf_transform(model: TfidfModel, docs: Sequence[list]) -> Csr:
    """One row per document: counts x idf, L2-normalized; out-of-vocabulary
    tokens are ignored.

    A document with no in-vocabulary tokens yields an empty row, which is
    left unnormalized. Each row's norm sums its squared weights left to
    right in column order.
    """
    t2i = model.vocab.term_to_index
    hits = [[t2i[t] for t in doc if t in t2i] for doc in docs]
    lengths = np.fromiter(map(len, hits), dtype=np.int64, count=len(hits))
    dim = len(model.vocab)
    keys = np.repeat(np.arange(len(hits)), lengths) * dim + np.fromiter(
        chain.from_iterable(hits), dtype=np.int64, count=int(lengths.sum()))
    keys, counts = np.unique(keys, return_counts=True)
    rows, indices = np.divmod(keys, dim)
    weights = counts * model.idf[indices]
    norms = np.sqrt(np.bincount(rows, weights=weights * weights, minlength=len(hits)))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(hits)))))
    return Csr(indptr, indices, weights / norms[rows])


def chi2_from_counts(a, b, c, d):
    """Chi-squared statistic of 2x2 tables, vectorized over numpy arrays.

    a = (present, Positive), b = (present, Negative),
    c = (absent, Positive), d = (absent, Negative).
    Tables with any zero marginal score 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    n = a + b + c + d
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    num = n * (a * d - b * c) ** 2
    return np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)


def chi2_scores(
    presence: Sequence[Iterable[int]],
    labels: Sequence[SentimentLabel],
    n_terms: int,
) -> Chi2Scores:
    """Score every term's association with the label from presence sets.

    `presence` holds, per document, the distinct indices of the terms that
    occur in it (a set each, as `presence_sets` gives them).
    """
    if len(presence) != len(labels) or not labels:
        raise ValidationError("presence and labels must be equal-length and non-empty")
    n_pos = sum(1 for y in labels if y == SentimentLabel.POSITIVE)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("chi-squared undefined for one class")
    lengths = np.fromiter(map(len, presence), dtype=np.int64, count=len(presence))
    flat = np.fromiter(chain.from_iterable(presence), dtype=np.int64,
                       count=int(lengths.sum()))
    if flat.size and (flat.min() < 0 or flat.max() >= n_terms):
        raise ValidationError(f"presence holds a term index outside 0..{n_terms - 1}")
    positive = np.repeat([y == SentimentLabel.POSITIVE for y in labels], lengths)
    a = np.bincount(flat[positive], minlength=n_terms).astype(np.float64)
    b = np.bincount(flat[~positive], minlength=n_terms).astype(np.float64)
    return Chi2Scores(score=chi2_from_counts(a, b, n_pos - a, n_neg - b))


def rank_terms(scores: Chi2Scores, vocab: Vocabulary) -> np.ndarray:
    """Term indices by descending score, ties broken towards the
    lexicographically smaller term: the order of sorting on
    (-score, term). Terms must not end in NUL, which numpy strings drop."""
    return np.lexsort((np.array(vocab.terms), -scores.score))


def select_top_k(scores: Chi2Scores, vocab: Vocabulary, k: int) -> Vocabulary:
    """Keep the k best-scoring terms, reindexed densely.

    Ties break towards lexicographically smaller terms; k >= |V| keeps
    everything (still reindexed in score order).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    chosen = rank_terms(scores, vocab)[:k]
    return Vocabulary(
        terms=[vocab.terms[i] for i in chosen],
        doc_freq=vocab.doc_freq[chosen],
        n_docs=vocab.n_docs,
        term_to_index={},
    )


def presence_sets(corpus: Sequence[list], vocab: Vocabulary) -> list:
    """Per-document sets of in-vocabulary term indices (chi-squared input)."""
    t2i = vocab.term_to_index
    return [{t2i[t] for t in doc if t in t2i} for doc in corpus]

