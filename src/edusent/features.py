"""Vocabulary building, TF-IDF vectors, chi-squared term scoring/selection.

Conventions: idf uses the smoothed form ln((1+N)/(1+df)) + 1, document
vectors are raw term counts times idf then L2-normalized, and chi-squared
operates on binary term presence against the binary sentiment label.

A document enters as `IdRows`: its in-vocabulary term ids in token order.
TF-IDF turns id rows into the rows of one `Csr` matrix, the only row
format of the linear path: SMOTE appends rows to it and logistic
regression trains on and scores it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .ingest import SentimentLabel


@dataclass(frozen=True, eq=False)
class Presence:
    """The distinct (document, term) pairs of a corpus: term `terms[j]`
    occurs in document `docs[j]`. Sorted by document, then term."""

    docs: np.ndarray
    terms: np.ndarray


@dataclass(frozen=True, eq=False)
class IdRows:
    """Documents as term ids: document i is ids[indptr[i]:indptr[i+1]], its
    in-vocabulary tokens in token order, repeats kept."""

    indptr: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @classmethod
    def from_tokens(cls, docs: Sequence[list], term_to_index: dict) -> "IdRows":
        """Token lists as id rows; out-of-vocabulary tokens drop out."""
        lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
        ids = np.fromiter(map(term_to_index.get, chain.from_iterable(docs), repeat(-1)),
                          dtype=np.int64, count=int(lengths.sum()))
        return cls(np.concatenate(([0], np.cumsum(lengths))), ids)._without_missing()

    def remap(self, table: np.ndarray) -> "IdRows":
        """Each id i as table[i]; an id that maps to -1 drops out."""
        return IdRows(self.indptr, table[self.ids])._without_missing()

    def _without_missing(self) -> "IdRows":
        """These rows without their -1 ids."""
        keep = self.ids >= 0
        return IdRows(np.concatenate(([0], np.cumsum(keep)))[self.indptr], self.ids[keep])

    def take(self, rows: Sequence[int]) -> "IdRows":
        """The documents `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        gather = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return IdRows(indptr, self.ids[gather])

    def sequences(self, max_len: int) -> list:
        """Each document as a list of 1-based ids (0 is padding), cut after
        its first `max_len` ids."""
        flat = (self.ids + 1).tolist()
        bounds = self.indptr.tolist()
        return [flat[a:min(b, a + max_len)] for a, b in zip(bounds, bounds[1:])]


@dataclass
class Vocabulary:
    """Dense term index plus per-term document frequencies. `presence` and
    `corpus` are kept by `build_vocabulary`, for `chi2_scores` and for the
    bundle's term ids; a vocabulary made any other way has neither."""

    terms: list
    doc_freq: np.ndarray
    n_docs: int
    term_to_index: dict = field(default_factory=dict)
    presence: Optional[Presence] = field(default=None, repr=False)
    corpus: Optional[IdRows] = field(default=None, repr=False)

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
    """Index every distinct token in first-appearance order, and count the
    number of documents each term occurs in.

    Each token is mapped to its index once, and the vocabulary keeps the
    mapped corpus as its `corpus`. One sort of the keys
    document * |V| + term then gives the distinct (document, term) pairs,
    which the vocabulary keeps as its `presence`."""
    terms = list(dict.fromkeys(chain.from_iterable(corpus)))
    if not terms:
        raise ValidationError("empty vocabulary: no tokens in any document")
    t2i = dict(zip(terms, range(len(terms))))
    lengths = np.fromiter(map(len, corpus), dtype=np.int64, count=len(corpus))
    ids = np.fromiter(map(t2i.__getitem__, chain.from_iterable(corpus)),
                      dtype=np.int64, count=int(lengths.sum()))
    keys = np.repeat(np.arange(len(corpus)) * len(terms), lengths)
    keys += ids
    keys.sort()
    # np.unique would take a hash path here, many times slower than the sort
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    docs, term_ids = np.divmod(keys, len(terms))
    return Vocabulary(terms=terms,
                      doc_freq=np.bincount(term_ids, minlength=len(terms)),
                      n_docs=len(corpus), term_to_index=t2i,
                      presence=Presence(docs, term_ids),
                      corpus=IdRows(np.concatenate(([0], np.cumsum(lengths))), ids))


def fit_tfidf(vocab: Vocabulary) -> TfidfModel:
    idf = np.log((1.0 + vocab.n_docs) / (1.0 + vocab.doc_freq)) + 1.0
    return TfidfModel(vocab=vocab, idf=idf)


def tfidf_transform(model: TfidfModel, docs: IdRows) -> Csr:
    """One row per document of term ids into `model`'s vocabulary: counts x
    idf, L2-normalized.

    A document with no ids yields an empty row, which is left unnormalized.
    Each row's norm sums its squared weights left to right in column order.
    """
    n, dim = len(docs), len(model.vocab)
    keys = np.repeat(np.arange(n), np.diff(docs.indptr)) * dim + docs.ids
    keys, counts = np.unique(keys, return_counts=True)
    rows, indices = np.divmod(keys, dim)
    weights = counts * model.idf[indices]
    norms = np.sqrt(np.bincount(rows, weights=weights * weights, minlength=n))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
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


def chi2_scores(vocab: Vocabulary, labels: Sequence[SentimentLabel]) -> Chi2Scores:
    """Score every term's association with the label over the documents
    that `vocab` was built from, whose labels are `labels`."""
    if vocab.presence is None or len(labels) != vocab.n_docs or not labels:
        raise ValidationError("chi-squared needs one label per document of a "
                              "vocabulary built by build_vocabulary")
    positive = np.array([y == SentimentLabel.POSITIVE for y in labels])
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("chi-squared undefined for one class")
    docs, terms = vocab.presence.docs, vocab.presence.terms
    in_pos = positive[docs]
    a = np.bincount(terms[in_pos], minlength=len(vocab)).astype(np.float64)
    b = np.bincount(terms[~in_pos], minlength=len(vocab)).astype(np.float64)
    return Chi2Scores(score=chi2_from_counts(a, b, n_pos - a, n_neg - b))


def rank_terms(scores: Chi2Scores, vocab: Vocabulary) -> np.ndarray:
    """Term indices by descending score, ties broken towards the
    lexicographically smaller term: the order of sorting on
    (-score, term). Terms must not end in NUL, which numpy strings drop."""
    return np.lexsort((np.array(vocab.terms), -scores.score))


def select_top_k(ranked: np.ndarray, vocab: Vocabulary, k: int) -> Vocabulary:
    """Keep the first k terms of `ranked` (the term indices of `vocab`, best
    first, as `rank_terms` orders them), reindexed densely in that order;
    k >= |V| keeps everything.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    chosen = ranked[:k]
    return Vocabulary(
        terms=[vocab.terms[i] for i in chosen],
        doc_freq=vocab.doc_freq[chosen],
        n_docs=vocab.n_docs,
        term_to_index={},
    )

