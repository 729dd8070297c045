"""Shared fixtures and independent oracles for the test suite.

The oracle functions here deliberately avoid the implementations they
check: chi-squared goes through observed/expected cell sums and AUC through
explicit pair counting.
"""

import base64
import csv
import hashlib
import io
import json
import math
import struct
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from edusent.errors import SchemaError, read_utf8
from edusent.features import Csr, IdRows, chi2_from_counts, tfidf_transform
from edusent.neural import RnnDims, parameter_shapes
from edusent.resample import SmoteConfig
from edusent.textprep import LemmaRuleTable, StopwordList

DATA_DIR = Path(__file__).parent / "data"
SAMPLE_CSV = DATA_DIR / "sample_feedback.csv"


@pytest.fixture(scope="session")
def sample_csv() -> Path:
    return SAMPLE_CSV


@pytest.fixture(scope="session")
def stopwords() -> StopwordList:
    return StopwordList.load()


@pytest.fixture(scope="session")
def lemma_rules() -> LemmaRuleTable:
    return LemmaRuleTable.load()


def chi2_bruteforce(a: float, b: float, c: float, d: float) -> float:
    """Sum of (observed - expected)^2 / expected over the 2x2 table."""
    n = a + b + c + d
    row = (a + b, c + d)
    col = (a + c, b + d)
    if 0 in row or 0 in col:
        return 0.0
    total = 0.0
    observed = ((a, b), (c, d))
    for i in range(2):
        for j in range(2):
            expected = row[i] * col[j] / n
            total += (observed[i][j] - expected) ** 2 / expected
    return total


def auc_pair_counting(scores, labels) -> float:
    """(concordant + 0.5 * tied) / (P * N) over every pos/neg pair."""
    pos = [s for s, y in zip(scores, labels) if int(y) == 1]
    neg = [s for s, y in zip(scores, labels) if int(y) == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def csr_rows(dense) -> Csr:
    """The non-zeros of a dense matrix as Csr rows."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(dense)))))
    return Csr(indptr, cols, dense[rows, cols])


def dense_rows(X: Csr, dim: int) -> np.ndarray:
    out = np.zeros((len(X), dim))
    out[X.rows, X.indices] = X.values
    return out


def reference_neighbor_table(minority: np.ndarray, k: int, chunk: int = 512) -> np.ndarray:
    """Dense reference: Gram entries summed left to right in column order,
    as the distance is defined (a BLAS product groups the terms its own way,
    which moves last bits when rows share three or more terms), and a full
    per-row lexsort on (distance, row index)."""
    n = minority.shape[0]
    sq = np.sum(minority * minority, axis=1)
    table = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, chunk):
        rows = minority[start:start + chunk]
        # a column where the row is zero adds a zero product, which leaves the sum as it is
        gram = np.zeros((len(rows), n))
        for g, row in zip(gram, rows):
            cols = np.flatnonzero(row)
            if len(cols):
                g[:] = np.cumsum(row[cols] * minority[:, cols], axis=1)[:, -1]
        d2 = sq[start:start + chunk, None] + sq[None, :] - 2.0 * gram
        np.maximum(d2, 0.0, out=d2)
        for i in range(d2.shape[0]):
            d2[i, start + i] = np.inf
        tie = np.broadcast_to(np.arange(n), d2.shape)
        order = np.lexsort((tie, d2), axis=1)
        table[start:start + chunk] = order[:, :k]
    return table


def reference_smote(X: np.ndarray, n_new: int, cfg: SmoteConfig) -> list:
    """Dense SMOTE: (parent, neighbor, lam, vector) per sample from the
    reference table and the interleaved per-sample draws: rng.integers, then
    rng.uniform."""
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


# --- reference ingest: csv.DictReader records, then labels ----------------------

def reference_parse_csv(text: str, schema=None):
    """The two-pass reader: `csv.DictReader` rows, checked field by field into
    (comment, student_star) records, which are then labelled.

    Returns ((comment, label) pairs, counts), where counts has the fields
    of `DropReport`."""
    from edusent.ingest import DEFAULT_SCHEMA, RATING_FIELDS, binarize_label

    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames
    if header is None:
        raise SchemaError("CSV has no header row")
    for logical in ("comment", "student_star"):
        if schema[logical] not in header:
            raise SchemaError(
                f"missing mandatory column {schema[logical]!r} (logical field {logical!r})")
    present = [f for f in RATING_FIELDS if schema[f] in header]
    counts = dict.fromkeys(("rows", "retained", "missing_comment", "missing_rating",
                            "unparsable_rating", "out_of_range_rating",
                            "neutral_excluded"), 0)
    records = []
    for row in reader:
        counts["rows"] += 1
        comment = (row.get(schema["comment"]) or "").strip()
        if not comment:
            counts["missing_comment"] += 1
            continue
        values, bad = {}, None
        for name in present:
            cell = (row.get(schema[name]) or "").strip()
            if not cell:
                values[name] = None
                continue
            try:
                value = float(cell)
            except ValueError:
                bad = "unparsable_rating"
                break
            if not 1.0 <= value <= 5.0:
                bad = "out_of_range_rating"
                break
            values[name] = value
        if bad is None and values.get("student_star") is None:
            bad = "missing_rating"
        if bad is not None:
            counts[bad] += 1
            continue
        counts["retained"] += 1
        records.append((comment, values["student_star"]))
    pairs = []
    for comment, star in records:
        label = binarize_label(star)
        if label is None:
            counts["neutral_excluded"] += 1
        else:
            pairs.append((comment, label))
    return pairs, counts


# --- reference features: a Counter of per-document sets ------------------------

def reference_vocabulary_chi2(corpus, labels):
    """(terms, doc_freq, chi-squared scores) from a Counter over each
    document's distinct terms and a per-document loop over term sets."""
    doc_freq = Counter(chain.from_iterable(map(dict.fromkeys, corpus)))
    terms = list(doc_freq)
    index = {t: i for i, t in enumerate(terms)}
    a, b = np.zeros(len(terms)), np.zeros(len(terms))
    for doc, y in zip(corpus, labels):
        for i in {index[t] for t in doc}:
            (a if int(y) == 1 else b)[i] += 1
    n_pos = sum(int(y) == 1 for y in labels)
    n_neg = len(labels) - n_pos
    return terms, [doc_freq[t] for t in terms], chi2_from_counts(a, b, n_pos - a, n_neg - b)


def make_labels(values):
    """ints/bools -> SentimentLabel list."""
    from edusent.ingest import SentimentLabel

    return [SentimentLabel.POSITIVE if v else SentimentLabel.NEGATIVE for v in values]


def toy_template_corpus():
    """20 short token sequences, 10 clearly positive / 10 clearly negative."""
    positive = [
        ["lecture", "engage", "informative"],
        ["great", "professor", "clear", "explanation"],
        ["amaze", "class", "love", "material"],
        ["excellent", "teacher", "helpful", "feedback"],
        ["wonderful", "course", "fair", "exam"],
        ["fantastic", "lecture", "learn", "lot"],
        ["brilliant", "professor", "engage", "discussion"],
        ["awesome", "class", "fun", "project"],
        ["inspire", "teacher", "great", "example"],
        ["enjoy", "course", "clear", "grade"],
    ]
    negative = [
        ["terrible", "professor", "bore", "lecture"],
        ["awful", "class", "unfair", "exam"],
        ["confuse", "lecture", "dry", "material"],
        ["worst", "course", "rude", "teacher"],
        ["horrible", "experience", "vague", "assignment"],
        ["bore", "class", "ignore", "question"],
        ["bad", "professor", "harsh", "grade"],
        ["dull", "lecture", "useless", "feedback"],
        ["disappoint", "course", "poor", "organization"],
        ["avoid", "class", "impossible", "test"],
    ]
    tokens = positive + negative
    labels = [1] * len(positive) + [0] * len(negative)
    return tokens, labels


def negation_pair_corpus(n_train_pairs: int = 200, n_test_pairs: int = 100, seed: int = 5):
    """Order-dependent labels over identical bags: [not A but B] is positive,
    [A but not B] is negative. Train and test use disjoint (A, B) pairs."""
    adjectives = [
        "engage", "informative", "clear", "fair", "helpful", "organized",
        "interest", "useful", "fun", "kind", "bore", "confuse", "dry",
        "harsh", "vague", "rude", "dull", "slow", "loud", "strict",
    ]
    combos = [(a, b) for a in adjectives for b in adjectives if a != b]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(combos))
    chosen = [combos[i] for i in order[: n_train_pairs + n_test_pairs]]

    def expand(pairs):
        tokens, labels = [], []
        for a, b in pairs:
            tokens.append(["not", a, "but", b])
            labels.append(1)
            tokens.append([a, "but", "not", b])
            labels.append(0)
        return tokens, labels

    train = expand(chosen[:n_train_pairs])
    test = expand(chosen[n_train_pairs:])
    return train, test


# --- reference token path: token lists straight to TF-IDF rows and sequences --

def reference_tfidf_transform(model, docs) -> Csr:
    """TF-IDF rows of token lists, each token looked up as the row is built:
    counts x idf, L2-normalized, out-of-vocabulary tokens ignored."""
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


def reference_encode_tokens(tokens, term_to_index: dict, max_len: int) -> list:
    """Tokens as 1-based ids (0 is padding), out-of-vocabulary dropped, cut
    after `max_len` ids."""
    ids = [term_to_index[t] + 1 for t in tokens if t in term_to_index]
    return ids[:max_len]


def reference_sequence_data(docs, labels, term_to_index: dict, ids, max_len: int,
                            drop_empty: bool) -> tuple:
    """(sequences, float labels, kept ids) of the examples `ids` of the
    token lists `docs`, one example at a time."""
    sequences, values, kept = [], [], []
    for i in ids:
        seq = reference_encode_tokens(docs[i], term_to_index, max_len)
        if drop_empty and not seq:
            continue
        sequences.append(seq)
        values.append(float(int(labels[i])))
        kept.append(i)
    return sequences, np.array(values), kept


def tfidf_of_tokens(model, docs) -> Csr:
    """`tfidf_transform` of token lists, through the id rows they map to."""
    return tfidf_transform(model, IdRows.from_tokens(docs, model.vocab.term_to_index))


_LABEL_NAMES = {"Negative": 0, "Positive": 1}


def read_examples(root: Path) -> list:
    """The rows of the bundle's examples.jsonl, one json.loads per line. A
    line that is not one row with a known label, a string raw and a list of
    string tokens is a SchemaError naming the file and the line."""
    path = Path(root) / "examples.jsonl"
    rows = []
    line_no = 0
    try:
        for line_no, line in enumerate(read_utf8(path).splitlines(), 1):
            row = json.loads(line)
            tokens, raw, _ = row["tokens"], row["raw"], _LABEL_NAMES[row["label"]]
            if not (isinstance(tokens, list) and isinstance(raw, str)):
                raise TypeError("tokens are not a list, or raw is not a string")
            "".join(tokens)  # a TypeError unless every token is a string
            rows.append(row)
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"{path} is malformed at line {line_no}: {exc!r}") from exc
    return rows


# --- rnn model files: a JSON header at `path` and its blob `path`.f64 ----------

def edit_rnn_pair(path: Path, edit) -> None:
    """Rewrite the version-3 rnn model whose header is at `path`:
    `edit(header, blob)` changes the parsed header in place and returns the
    new blob bytes, or None to delete the blob."""
    blob_path = path.with_suffix(".f64")
    header = json.loads(path.read_text())
    blob = edit(header, blob_path.read_bytes())
    path.write_text(json.dumps(header))
    if blob is None:
        blob_path.unlink()
    else:
        blob_path.write_bytes(blob)


def header_edit(edit):
    """An `edit_rnn_pair` edit that applies `edit` to the header only."""
    def apply(header, blob):
        edit(header)
        return blob
    return apply


def blob_edit(edit, rehash: bool = False):
    """An `edit_rnn_pair` edit that replaces the blob with `edit(blob)`. With
    `rehash`, the header's sha256 becomes the new blob's, so that only the
    checks after the hash can catch the edit."""
    def apply(header, blob):
        blob = edit(blob)
        if rehash:
            header["sha256"] = hashlib.sha256(blob).hexdigest()
        return blob
    return apply


def set_value(index: int, value: float):
    """A blob edit that stores `value` as the float64 at `index` (negative
    indices count from the end)."""
    def apply(blob: bytes) -> bytes:
        i = 8 * (index % (len(blob) // 8))
        return blob[:i] + struct.pack("<d", value) + blob[i + 8:]
    return apply


def flip_byte(blob: bytes) -> bytes:
    """A blob edit that flips one bit of the blob's 101st byte."""
    return blob[:100] + bytes([blob[100] ^ 1]) + blob[101:]


def version_2_payload(path: Path) -> dict:
    """The version-3 rnn model whose header is at `path`, laid out as a
    version-2 file: one JSON object holding each tensor under its name as
    [shape, base64 of its little-endian float64 bytes]."""
    header = json.loads(path.read_text())
    blob = path.with_suffix(".f64").read_bytes()
    tensors, start = {}, 0
    for name, shape in parameter_shapes(RnnDims(**header["dims"])).items():
        end = start + 8 * math.prod(shape)
        tensors[name] = [list(shape), base64.b64encode(blob[start:end]).decode("ascii")]
        start = end
    return {"version": 2, "kind": "rnn", "dims": header["dims"], "tensors": tensors,
            "vocab_ref": header["vocab_ref"]}
