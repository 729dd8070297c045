"""Vocabulary building, TF-IDF vectors, chi-squared term scoring/selection.

Conventions: idf uses the smoothed form ln((1+N)/(1+df)) + 1, document
vectors are raw term counts times idf then L2-normalized, and chi-squared
operates on binary term presence against the binary sentiment label.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
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


@dataclass
class SparseVector:
    """Sorted (index, weight) pairs; zero weights are never stored."""

    pairs: list

    def l2_norm(self) -> float:
        return float(np.sqrt(sum(w * w for _, w in self.pairs)))

    def to_dense(self, dim: int) -> np.ndarray:
        out = np.zeros(dim)
        for i, w in self.pairs:
            out[i] = w
        return out


def pack_rows(X: Sequence[SparseVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices, values) of sparse rows: row i holds
    indices[indptr[i]:indptr[i+1]] with their values, in pair order."""
    lengths = np.fromiter((len(x.pairs) for x in X), dtype=np.int64, count=len(X))
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(x.pairs for x in X)),
                       dtype=np.float64, count=2 * int(indptr[-1])).reshape(-1, 2)
    return indptr, flat[:, 0].astype(np.int64), flat[:, 1].copy()


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
    terms: list = []
    index: dict = {}
    doc_freq: list = []
    for doc in corpus:
        for term in doc:
            if term not in index:
                index[term] = len(terms)
                terms.append(term)
                doc_freq.append(0)
    if not terms:
        raise ValidationError("empty vocabulary: no tokens in any document")
    for doc in corpus:
        for term in set(doc):
            doc_freq[index[term]] += 1
    return Vocabulary(terms=terms, doc_freq=np.array(doc_freq, dtype=np.int64),
                      n_docs=len(corpus), term_to_index=index)


def fit_tfidf(vocab: Vocabulary) -> TfidfModel:
    idf = np.log((1.0 + vocab.n_docs) / (1.0 + vocab.doc_freq)) + 1.0
    return TfidfModel(vocab=vocab, idf=idf)


def tfidf_transform(model: TfidfModel, doc: list) -> SparseVector:
    """Counts x idf, L2-normalized; out-of-vocabulary tokens are ignored.

    A document with no in-vocabulary tokens yields the zero vector (empty
    pairs), which is left unnormalized.
    """
    counts = Counter(t for t in doc if t in model.vocab.term_to_index)
    if not counts:
        return SparseVector(pairs=[])
    pairs = sorted(
        (model.vocab.term_to_index[t], c * model.idf[model.vocab.term_to_index[t]])
        for t, c in counts.items()
    )
    norm = np.sqrt(sum(w * w for _, w in pairs))
    return SparseVector(pairs=[(i, w / norm) for i, w in pairs])


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

    `presence` holds, per document, the indices of the terms that occur in
    it at least once.
    """
    if len(presence) != len(labels) or not labels:
        raise ValidationError("presence and labels must be equal-length and non-empty")
    n_pos = sum(1 for y in labels if y == SentimentLabel.POSITIVE)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("chi-squared undefined for one class")
    a = np.zeros(n_terms)
    b = np.zeros(n_terms)
    for doc_terms, y in zip(presence, labels):
        idx = np.fromiter(set(doc_terms), dtype=np.int64)
        if idx.size == 0:
            continue
        if y == SentimentLabel.POSITIVE:
            a[idx] += 1
        else:
            b[idx] += 1
    return Chi2Scores(score=chi2_from_counts(a, b, n_pos - a, n_neg - b))


def select_top_k(scores: Chi2Scores, vocab: Vocabulary, k: int) -> Vocabulary:
    """Keep the k best-scoring terms, reindexed densely.

    Ties break towards lexicographically smaller terms; k >= |V| keeps
    everything (still reindexed in score order).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    order = sorted(range(len(vocab)), key=lambda i: (-scores.score[i], vocab.terms[i]))
    chosen = order[:k]
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

