"""Shared orchestration: the on-disk dataset bundle, the model files and
featurization paths.

`prepare` writes a bundle directory of seven files: the cleaned examples
(examples.jsonl), the frozen vocabulary + idf, the chi-squared report, the
split manifest, each example's label and term ids (term_ids.bin), the
balance report, and the drop report. Training and evaluation read back
vocab.json, split.json and term_ids.bin (`load_bundle`); examples.jsonl is
the record of the cleaned text and tokens, which no command reads.

term_ids.bin is little-endian: the raw SHA-256 of the vocab.json bytes it
was built against, int32 n_rows, n_rows int32 labels (0 or 1), n_rows
int32 lengths, then each example's in-vocabulary term ids, in token order
and unclipped, one int32 each. It is written after vocab.json and
split.json, so a prepare cut short before it leaves a file whose digest
the new vocab.json does not match.

A model file records its vocabulary file's SHA-256, and
`load_bound_model` is the one way a command loads a model: it rejects a
stale model/vocabulary pair. `score` is the one way a command scores
documents: it turns id rows into P(Positive) for either kind of model.

A logreg model is one JSON file. An rnn model is a pair: a small JSON
header (`model_rnn.json`) and, beside it under the suffix `.f64`, its
parameters as raw little-endian float64 bytes. The header holds the
blob's SHA-256 and is written after the blob, so a save cut short between
the two leaves a pair that does not load.

Only this module knows the file formats. Every output file is written
whole or not at all (`_write_atomic`, under `write_json`, `write_csv` and
`write_text`), and each file is checked when read (`read_json`, `_array`,
`_rnn_model`): a malformed file is a SchemaError that names it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .config import PipelineConfig, column_schema
from .errors import SchemaError, ValidationError
from .features import (
    IdRows,
    TfidfModel,
    Vocabulary,
    build_vocabulary,
    chi2_scores,
    fit_tfidf,
    rank_terms,
    select_top_k,
    tfidf_transform,
)
from .ingest import SentimentLabel, parse_csv, split
from .linear import LinearModel, predict_proba
from .neural import (
    RnnDims,
    RnnModel,
    SequenceDataset,
    parameter_shapes,
    predict_sequences,
)
from .resample import class_weights
from .textprep import LemmaRuleTable, StopwordList, preprocess

BUNDLE_FILES = (
    "examples.jsonl",
    "vocab.json",
    "chi2_report.csv",
    "split.json",
    "term_ids.bin",
    "balance.json",
    "drop_report.json",
)
_LABELS = tuple(SentimentLabel)  # indexed by the label's value


def file_sha256(path: Union[str, Path]) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_atomic(path: Union[str, Path], chunks: Iterable) -> None:
    """Stream `chunks` (bytes-like objects) into a temporary file beside
    `path`, then move it over `path`: a reader sees the old file or the whole
    new one, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Union[str, Path], payload: dict) -> None:
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_text(path: Union[str, Path], text: str) -> None:
    _write_atomic(path, (text.encode("utf-8"),))


def write_csv(path: Union[str, Path], header: list, rows: list) -> None:
    """`header`, then `rows`, as `csv.writer` formats them (CRLF line ends)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def read_json(path: Union[str, Path], versions: Optional[tuple] = (1,)) -> dict:
    """Parse a JSON file that edusent wrote: an object whose "version" is one
    of `versions`, or any object if `versions` is None."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise SchemaError(f"missing file: {path}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise SchemaError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path} is not an edusent JSON object")
    if versions is not None and payload.get("version") not in versions:
        names = " or ".join(map(str, versions))
        raise SchemaError(f"{path} is not a version-{names} edusent JSON object")
    return payload


def _array(value, what: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """`value` as a finite `dtype` array of `shape`, where a None dimension
    matches any length; anything else is a SchemaError naming `what`."""
    try:
        raw = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise SchemaError(f"{what} is not a numeric array: {exc}") from exc
    kinds = "iuf" if dtype is np.float64 else "iu"  # an empty list parses as float
    if ((raw.size and raw.dtype.kind not in kinds) or raw.ndim != len(shape)
            or any(want not in (None, got) for want, got in zip(shape, raw.shape))
            or not np.all(np.isfinite(raw))):
        raise SchemaError(f"{what} is not a finite {np.dtype(dtype)} array of shape "
                          + str(shape).replace("None", "n"))
    return raw.astype(dtype, copy=False)


def save_tfidf_model(model: TfidfModel, path: Union[str, Path]) -> None:
    write_json(path, {
        "version": 1,
        "terms": model.vocab.terms,
        "df": model.vocab.doc_freq.tolist(),
        "idf": model.idf.tolist(),
        "n_docs": model.vocab.n_docs,
    })


def load_tfidf_model(path: Union[str, Path]) -> TfidfModel:
    payload = read_json(path)
    terms, n_docs = payload.get("terms"), payload.get("n_docs")
    if not (isinstance(terms, list) and set(map(type, terms)) == {str}):
        raise SchemaError(f"{path}: terms are not a non-empty list of strings")
    if type(n_docs) is not int or n_docs < 1:
        raise SchemaError(f"{path}: n_docs {n_docs!r} is not a positive integer")
    n = (len(terms),)
    df = _array(payload.get("df"), f"{path}: df", n, np.int64)
    return TfidfModel(vocab=Vocabulary(terms=terms, doc_freq=df, n_docs=n_docs),
                      idf=_array(payload.get("idf"), f"{path}: idf", n))


def save_linear_model(model: LinearModel, path: Union[str, Path], vocab_ref: str) -> None:
    write_json(path, {
        "version": 1,
        "kind": "logreg",
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "vocab_ref": vocab_ref,
    })


def save_rnn_model(model: RnnModel, path: Union[str, Path], vocab_ref: str) -> None:
    """Write a version-3 model: the blob `path` with suffix .f64 (each
    parameter's little-endian float64 bytes in C order, in `parameter_shapes`
    order), then the header at `path`, which holds the blob's SHA-256. The
    header is written last: a save cut short after the blob leaves a header
    whose hash the blob does not match."""
    digest = hashlib.sha256()

    def blob():
        for name in parameter_shapes(model.dims):
            chunk = np.ascontiguousarray(model.params[name], "<f8")
            digest.update(chunk)
            yield chunk

    _write_atomic(Path(path).with_suffix(".f64"), blob())
    write_json(path, {
        "version": 3,
        "kind": "rnn",
        "dims": asdict(model.dims),
        "sha256": digest.hexdigest(),
        "vocab_ref": vocab_ref,
    })


_RETRAIN = "re-run train to write it again"


def _rnn_model(header: dict, path) -> RnnModel:
    """The model of the version-3 `header` read from `path`, with its
    parameters read from the blob beside it. The blob's size is checked
    against `dims` before anything is allocated, and its hash before any
    value is used. Each parameter is an owned, writable C-ordered array."""
    dims, sha256 = header.get("dims"), header.get("sha256")
    fields = set(RnnDims.__dataclass_fields__)
    if (not isinstance(dims, dict) or set(dims) != fields
            or any(type(v) is not int or v < 1 for v in dims.values())):
        raise SchemaError(f"{path}: dims {dims!r} are not positive integers "
                          f"{sorted(fields)}")
    if not (isinstance(sha256, str) and len(sha256) == 64
            and set(sha256) <= set("0123456789abcdef")):
        raise SchemaError(f"{path}: sha256 {sha256!r} is not 64 lowercase hex digits")
    dims = RnnDims(**dims)
    shapes = parameter_shapes(dims)
    blob = Path(path).with_suffix(".f64")
    size = 8 * sum(math.prod(shape) for shape in shapes.values())
    params, digest = {}, hashlib.sha256()
    try:
        with blob.open("rb") as fh:
            got = os.fstat(fh.fileno()).st_size
            if got != size:
                raise SchemaError(f"{path}: {blob} holds {got} bytes, not the {size} "
                                  f"its dims need: {_RETRAIN}")
            for name, shape in shapes.items():
                params[name] = p = np.empty(shape, "<f8")
                if fh.readinto(p) != p.nbytes:
                    raise SchemaError(f"{path}: {blob} was cut short while read")
                digest.update(p)
    except FileNotFoundError as exc:
        raise SchemaError(f"{path}: its parameter file {blob} is missing: {_RETRAIN}") from exc
    if digest.hexdigest() != sha256:
        raise SchemaError(f"{path}: {blob} does not match the header's sha256: {_RETRAIN}")
    return RnnModel(dims, {
        name: _array(p, f"{path}: tensor {name!r}", p.shape) for name, p in params.items()})


def load_model(path: Union[str, Path]) -> tuple:
    """Parse a model file once and build the model its `kind` names: a
    version-1 logreg file or a version-3 rnn header and its blob. Any other
    kind and version is a SchemaError that says to train the model again.

    Returns (kind, model, vocab_ref).
    """
    payload = read_json(path, versions=None)
    kind, version = payload.get("kind"), payload.get("version")
    if (kind, version) not in (("logreg", 1), ("rnn", 3)):
        raise SchemaError(f"{path} is a version-{version} model file of kind {kind!r}, "
                          "but only version-1 logreg and version-3 rnn files are read: "
                          + _RETRAIN)
    if kind == "rnn":
        model = _rnn_model(payload, path)
    else:
        model = LinearModel(
            weights=_array(payload.get("weights"), f"{path}: weights", (None,)),
            bias=float(_array(payload.get("bias"), f"{path}: bias", ())),
        )
    return kind, model, str(payload.get("vocab_ref", ""))


def load_report_metrics(path: Union[str, Path]) -> dict:
    """accuracy, precision, recall, f1 and auc of an evaluation report."""
    payload = read_json(path)
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise SchemaError(f"{path} has no metrics object")
    names = ("accuracy", "precision", "recall", "f1")
    values = _array([metrics.get(m) for m in names] + [payload.get("auc")],
                    f"{path}: metrics and auc", (len(names) + 1,))
    return dict(zip(names + ("auc",), values.tolist()))


@dataclass
class Bundle:
    rows: IdRows  # each example's in-vocabulary term ids, in bundle order
    labels: np.ndarray  # each example's label value (0 or 1), in bundle order
    tfidf: TfidfModel
    vocab_ref: str
    train_ids: list
    test_ids: list

    def labels_of(self, ids: Sequence[int]) -> list:
        """The SentimentLabel of each example in `ids`."""
        return [_LABELS[y] for y in self.labels[ids].tolist()]


def load_lexicons(cfg: PipelineConfig) -> tuple[StopwordList, LemmaRuleTable]:
    return StopwordList.load(cfg.stopwords), LemmaRuleTable.load(cfg.lemma_rules)


def _example_line(i: int, label: str, raw: str, tokens: Sequence[str]) -> str:
    """One examples.jsonl line: the bytes `json.JSONEncoder(sort_keys=True)`
    writes for {"id", "label", "raw", "tokens"}, without building an encoder
    and sorting keys per line."""
    esc = json.encoder.encode_basestring_ascii
    return (f'{{"id": {i}, "label": {esc(label)}, "raw": {esc(raw)}, '
            f'"tokens": [{", ".join(map(esc, tokens))}]}}\n')


def prepare_bundle(cfg: PipelineConfig) -> dict:
    """Run ingestion + cleaning + featurization and write the bundle;
    returns the drop report it writes to drop_report.json."""
    if not cfg.data:
        raise SchemaError("no input CSV configured (--data or config key 'data')")
    examples, drops = parse_csv(cfg.data, schema=column_schema(cfg))
    if not examples:
        raise ValidationError("no labeled examples survive cleaning")
    sw, rules = load_lexicons(cfg)
    for ex in examples:
        ex.tokens = preprocess(ex.raw_comment, sw, rules)

    labels = [ex.label for ex in examples]
    ds = split(labels, cfg.fraction, cfg.seed)
    train_labels = [labels[i] for i in ds.train_ids]
    vocab_full = build_vocabulary([examples[i].tokens for i in ds.train_ids])
    scores = chi2_scores(vocab_full, train_labels)
    ranked = rank_terms(scores, vocab_full)
    selected = select_top_k(ranked, vocab_full, cfg.k)
    tfidf = fit_tfidf(selected)

    # term ids in bundle order: the train rows' from the mapping that built
    # the vocabulary, the test rows' looked up token by token
    remap = np.full(len(vocab_full), -1, dtype=np.int64)
    remap[ranked[:cfg.k]] = np.arange(len(selected))
    train = vocab_full.corpus.remap(remap)
    test = IdRows.from_tokens([examples[i].tokens for i in ds.test_ids],
                              selected.term_to_index)
    rows = IdRows(np.concatenate((train.indptr, train.indptr[-1] + test.indptr[1:])),
                  np.concatenate((train.ids, test.ids))
                  ).take(np.argsort(ds.train_ids + ds.test_ids))

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    _write_atomic(out / "examples.jsonl", (
        _example_line(i, str(ex.label), ex.raw_comment, ex.tokens).encode("ascii")
        for i, ex in enumerate(examples)))

    save_tfidf_model(tfidf, out / "vocab.json")

    terms, chi2 = vocab_full.terms, scores.score.tolist()
    _write_atomic(out / "chi2_report.csv", (b"term,score\n", *(
        f"{terms[i]},{chi2[i]!r}\n".encode("utf-8") for i in ranked.tolist())))

    write_json(out / "split.json", {
        "version": 1, "seed": cfg.seed, "fraction": cfg.fraction,
        "train_ids": ds.train_ids, "test_ids": ds.test_ids,
    })

    _write_atomic(out / "term_ids.bin", (
        hashlib.sha256((out / "vocab.json").read_bytes()).digest(),
        np.array([len(examples)], dtype="<i4"),
        np.fromiter(labels, dtype="<i4", count=len(labels)),
        np.diff(rows.indptr).astype("<i4"),
        rows.ids.astype("<i4")))

    n_pos = sum(1 for lab in train_labels if lab == SentimentLabel.POSITIVE)
    n_neg = len(train_labels) - n_pos
    w_pos, w_neg = class_weights(train_labels)
    write_json(out / "balance.json", {
        "version": 1,
        "train_counts": {"Positive": n_pos, "Negative": n_neg},
        "smote_target": {"Positive": max(n_pos, n_neg), "Negative": max(n_pos, n_neg)},
        "class_weights": {"Positive": w_pos, "Negative": w_neg},
    })

    report = {**drops.as_dict(), "version": 1}
    write_json(out / "drop_report.json", report)
    return report


_REPREPARE = "re-run prepare to write it again"


def _term_ids(path: Path, vocab_ref: str, n_terms: int) -> tuple:
    """(rows, labels) of the term_ids.bin at `path`, checked before any value
    is used: its size against its header, its digest against `vocab_ref`
    (the hex SHA-256 of vocab.json), labels in {0, 1}, lengths >= 0 that sum
    to the id count, and ids in [0, n_terms)."""
    try:
        data = path.read_bytes()
    except FileNotFoundError as exc:
        raise SchemaError(f"missing bundle file: {path}: {_REPREPARE}") from exc

    def bad(what: str) -> SchemaError:
        return SchemaError(f"{path} {what}: {_REPREPARE}")

    head = 32 + 4
    n = int(np.frombuffer(data, "<i4", 1, 32)[0]) if len(data) >= head else -1
    body = len(data) - head - 8 * n
    if n < 0 or body < 0 or body % 4:
        raise bad(f"holds {len(data)} bytes, which do not fit its header")
    if data[:32] != bytes.fromhex(vocab_ref):
        raise bad("was built against another vocab.json")
    labels = np.frombuffer(data, "<i4", n, head)
    lengths = np.frombuffer(data, "<i4", n, head + 4 * n)
    ids = np.frombuffer(data, "<i4", body // 4, head + 8 * n)
    if np.any((labels != 0) & (labels != 1)):
        raise bad("holds a label that is not 0 or 1")
    if np.any(lengths < 0) or lengths.sum(dtype=np.int64) != len(ids):
        raise bad(f"has row lengths that do not sum to its {len(ids)} term ids")
    if len(ids) and (ids.min() < 0 or ids.max() >= n_terms):
        raise bad(f"holds a term id outside the {n_terms} terms of vocab.json")
    return IdRows(np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))), ids), labels


def load_bundle(root: Union[str, Path]) -> Bundle:
    """The bundle at `root`, from its vocab.json, split.json and
    term_ids.bin. A split that names an example twice, or one outside
    term_ids.bin, is a SchemaError naming split.json."""
    root = Path(root)
    tfidf = load_tfidf_model(root / "vocab.json")
    vocab_ref = file_sha256(root / "vocab.json")
    manifest = read_json(root / "split.json")
    rows, labels = _term_ids(root / "term_ids.bin", vocab_ref, len(tfidf.vocab))
    ids = {key: _array(manifest.get(key), f"{root / 'split.json'}: {key}", (None,),
                       np.int64) for key in ("train_ids", "test_ids")}
    named = np.concatenate(list(ids.values()))
    if np.any((named < 0) | (named >= len(rows))):
        raise SchemaError(f"{root / 'split.json'} names an example outside the "
                          f"{len(rows)} rows of {root / 'term_ids.bin'}: {_REPREPARE}")
    if np.any(np.bincount(named, minlength=len(rows)) > 1):
        raise SchemaError(f"{root / 'split.json'} names an example twice, within or "
                          f"across train_ids and test_ids: {_REPREPARE}")
    return Bundle(rows=rows, labels=labels, tfidf=tfidf, vocab_ref=vocab_ref,
                  **{key: value.tolist() for key, value in ids.items()})


def load_bound_model(path: Union[str, Path], tfidf: TfidfModel, tfidf_ref: str) -> tuple:
    """`load_model`, checked against the vocabulary `tfidf` whose file
    hashes to `tfidf_ref`: a model bound to another vocabulary file, or one
    whose width is not the vocabulary's size, is a SchemaError naming `path`.

    Returns (kind, model).
    """
    kind, model, vocab_ref = load_model(path)
    if vocab_ref != tfidf_ref:
        raise SchemaError(f"{path} was trained against vocabulary {vocab_ref[:12]}... "
                          f"but the vocabulary hashes to {tfidf_ref[:12]}...")
    width = model.dim if isinstance(model, LinearModel) else model.dims.vocab_size
    if width != len(tfidf.vocab):
        raise SchemaError(f"{path} is {width} terms wide, but its vocabulary "
                          f"holds {len(tfidf.vocab)} terms")
    return kind, model


def score(model: Union[LinearModel, RnnModel], tfidf: TfidfModel,
          docs: IdRows) -> np.ndarray:
    """P(Positive) of each document of term ids into `tfidf`'s vocabulary,
    in order, under a model bound to it: TF-IDF rows for a LinearModel,
    clipped id sequences for an RnnModel."""
    if isinstance(model, LinearModel):
        return predict_proba(model, tfidf_transform(tfidf, docs))
    return predict_sequences(model, docs.sequences(model.dims.max_len))


def sequence_data(
    bundle: Bundle,
    ids: Sequence[int],
    max_len: int,
    drop_empty: bool,
) -> tuple[SequenceDataset, list]:
    """The examples `ids` as id sequences clipped at `max_len`.

    With drop_empty (training), rows with no in-vocabulary tokens are
    removed; the second return value lists the example ids actually kept.
    """
    sequences, kept = bundle.rows.take(ids).sequences(max_len), list(ids)
    if drop_empty:
        kept = [i for i, seq in zip(ids, sequences) if seq]
        sequences = [seq for seq in sequences if seq]
    return SequenceDataset(sequences=sequences,
                           labels=bundle.labels[kept].astype(np.float64)), kept
