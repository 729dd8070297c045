"""Shared orchestration: the on-disk dataset bundle, the model files and
featurization paths.

`prepare` writes a bundle directory of six files (cleaned examples, the
frozen vocabulary + idf, the chi-squared report, the split manifest, the
balance report, and the drop report). Training and evaluation read the
bundle back. A model file records its vocabulary file's SHA-256, and
`load_bound_model` is the one way a command loads a model: it rejects a
stale model/vocabulary pair. `score` is the one way a command scores
text: it turns token lists into P(Positive) for either kind of model.

Only this module knows the file formats. Every output file is written
whole or not at all (`_write_atomic`, under `write_json`, `write_csv` and
`write_text`), and each JSON file is checked when read (`read_json`,
`_array`): a malformed file is a SchemaError that names it.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .config import PipelineConfig, column_schema
from .errors import SchemaError, ValidationError, read_utf8
from .features import (
    TfidfModel,
    Vocabulary,
    build_vocabulary,
    chi2_scores,
    fit_tfidf,
    presence_sets,
    select_top_k,
    tfidf_transform,
)
from .ingest import (
    DatasetSplit,
    LabeledExample,
    SentimentLabel,
    label_records,
    parse_csv,
    split,
)
from .linear import LinearModel, predict_proba
from .neural import (
    RnnDims,
    RnnModel,
    SequenceDataset,
    encode_tokens,
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
    "balance.json",
    "drop_report.json",
)
_LABELS = {str(label): label for label in SentimentLabel}


def file_sha256(path: Union[str, Path]) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_atomic(path: Union[str, Path], chunks: Iterable[str]) -> None:
    """Stream `chunks` (as given: no newline translation) into a temporary
    file beside `path`, then move it over `path`: a reader sees the old file
    or the whole new one, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Union[str, Path], payload: dict) -> None:
    _write_atomic(path, (json.dumps(payload, sort_keys=True, indent=2), "\n"))


def write_text(path: Union[str, Path], text: str) -> None:
    _write_atomic(path, (text,))


def write_csv(path: Union[str, Path], header: list, rows: list) -> None:
    """`header`, then `rows`, as `csv.writer` formats them (CRLF line ends)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def read_json(path: Union[str, Path], versions: tuple = (1,)) -> dict:
    """Parse a JSON file that edusent wrote: an object whose "version" is one
    of `versions`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise SchemaError(f"missing file: {path}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise SchemaError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("version") not in versions:
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


def _file_blocks(name: str, shape: tuple) -> list:
    """The version-1 file entries of one parameter, as (file name, shape):
    a fused gate tensor is stored as its i, f, o, g row blocks under
    `<name>_<gate>`."""
    if name.startswith(("fwd.", "bwd.")):
        return [(f"{name}_{gate}", (shape[0] // 4, *shape[1:])) for gate in "ifog"]
    return [(name, shape)]


def save_rnn_model(model: RnnModel, path: Union[str, Path], vocab_ref: str) -> None:
    """Write a version-2 model file: each parameter under its own name as
    [shape, base64 of its little-endian float64 bytes]."""
    write_json(path, {
        "version": 2,
        "kind": "rnn",
        "dims": asdict(model.dims),
        "tensors": {
            name: [list(p.shape),
                   base64.b64encode(np.ascontiguousarray(p, "<f8").tobytes()).decode("ascii")]
            for name, p in model.params.items()},
        "vocab_ref": vocab_ref,
    })


def _tensor_entry(tensors: dict, name: str, shape: tuple, path):
    """The data of `tensors[name]` once its stored shape is `shape`: shapes
    are checked before anything is allocated from them."""
    entry = tensors.get(name)
    if not (isinstance(entry, list) and len(entry) == 2 and entry[0] == list(shape)):
        raise SchemaError(f"{path} lacks a {list(shape)} tensor {name!r}")
    return entry[1]


def _decoded(data, what: str, shape: tuple) -> np.ndarray:
    """A version-2 tensor: base64 of exactly prod(`shape`) finite
    little-endian float64 values, as an owned, writable C-ordered array."""
    if not isinstance(data, str):
        raise SchemaError(f"{what} holds a {type(data).__name__}, not base64 text")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise SchemaError(f"{what} is not base64 text: {exc}") from exc
    size = math.prod(shape)
    if len(raw) != 8 * size:
        raise SchemaError(f"{what} holds {len(raw)} bytes, not the {8 * size} "
                          f"of {size} float64 values")
    # frombuffer views the read-only bytes; the copy is what training updates
    return _array(np.frombuffer(raw, "<f8").reshape(shape), what, shape).copy()


def _rnn_model(payload: dict, path) -> RnnModel:
    dims, tensors = payload.get("dims"), payload.get("tensors")
    fields = set(RnnDims.__dataclass_fields__)
    if (not isinstance(dims, dict) or set(dims) != fields
            or any(type(v) is not int or v < 1 for v in dims.values())):
        raise SchemaError(f"{path}: dims {dims!r} are not positive integers "
                          f"{sorted(fields)}")
    if not isinstance(tensors, dict):
        raise SchemaError(f"{path}: tensors are not an object")
    dims = RnnDims(**dims)
    arrays = {}
    for name, shape in parameter_shapes(dims).items():
        if payload["version"] == 2:
            arrays[name] = _decoded(_tensor_entry(tensors, name, shape, path),
                                    f"{path}: tensor {name!r}", shape)
        else:  # decimal lists, a fused gate tensor split into its row blocks
            blocks = [_array(_tensor_entry(tensors, file_name, block_shape, path),
                             f"{path}: tensor {file_name!r}", (math.prod(block_shape),))
                      for file_name, block_shape in _file_blocks(name, shape)]
            arrays[name] = np.concatenate(blocks).reshape(shape)
    return RnnModel(dims, arrays)


def load_model(path: Union[str, Path]) -> tuple:
    """Parse a model file once and build the model its `kind` names: a
    version-1 logreg file, or a version-1 or version-2 rnn file.

    Returns (kind, model, vocab_ref).
    """
    payload = read_json(path, versions=(1, 2))
    kind = payload.get("kind")
    if kind == "rnn":
        model = _rnn_model(payload, path)
    elif kind == "logreg" and payload["version"] == 1:
        model = LinearModel(
            weights=_array(payload.get("weights"), f"{path}: weights", (None,)),
            bias=float(_array(payload.get("bias"), f"{path}: bias", ())),
        )
    else:
        raise SchemaError(f"{path} has unknown model kind {kind!r} "
                          f"for version {payload['version']}")
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
    examples: list  # LabeledExample, cleaned, in bundle order
    tfidf: TfidfModel
    vocab_ref: str
    train_ids: list
    test_ids: list

    def subset(self, ids: Sequence[int]) -> list:
        return [self.examples[i] for i in ids]


def load_lexicons(cfg: PipelineConfig) -> tuple[StopwordList, LemmaRuleTable]:
    return StopwordList.load(cfg.stopwords), LemmaRuleTable.load(cfg.lemma_rules)


def prepare_bundle(cfg: PipelineConfig) -> dict:
    """Run ingestion + cleaning + featurization and write the bundle;
    returns the drop report it writes to drop_report.json."""
    if not cfg.data:
        raise SchemaError("no input CSV configured (--data or config key 'data')")
    records, drops = parse_csv(cfg.data, schema=column_schema(cfg))
    examples, neutral_excluded = label_records(records)
    if not examples:
        raise ValidationError("no labeled examples survive cleaning")
    sw, rules = load_lexicons(cfg)
    for ex in examples:
        ex.tokens = preprocess(ex.raw_comment, sw, rules)

    ds: DatasetSplit = split(examples, cfg.fraction, cfg.seed)
    train_tokens = [ex.tokens for ex in ds.train]
    train_labels = [ex.label for ex in ds.train]
    vocab_full = build_vocabulary(train_tokens)
    scores = chi2_scores(presence_sets(train_tokens, vocab_full),
                         train_labels, len(vocab_full))
    selected = select_top_k(scores, vocab_full, cfg.k)
    tfidf = fit_tfidf(selected)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    _write_atomic(out / "examples.jsonl", (
        json.dumps({"id": i, "label": str(ex.label), "raw": ex.raw_comment,
                    "tokens": ex.tokens}, sort_keys=True) + "\n"
        for i, ex in enumerate(examples)))

    save_tfidf_model(tfidf, out / "vocab.json")

    order = sorted(range(len(vocab_full)),
                   key=lambda i: (-scores.score[i], vocab_full.terms[i]))
    _write_atomic(out / "chi2_report.csv", ("term,score\n", *(
        f"{vocab_full.terms[i]},{float(scores.score[i])!r}\n" for i in order)))

    write_json(out / "split.json", {
        "version": 1, "seed": cfg.seed, "fraction": cfg.fraction,
        "train_ids": ds.train_ids, "test_ids": ds.test_ids,
    })

    n_pos = sum(1 for lab in train_labels if lab == SentimentLabel.POSITIVE)
    n_neg = len(train_labels) - n_pos
    w_pos, w_neg = class_weights(train_labels)
    write_json(out / "balance.json", {
        "version": 1,
        "train_counts": {"Positive": n_pos, "Negative": n_neg},
        "smote_target": {"Positive": max(n_pos, n_neg), "Negative": max(n_pos, n_neg)},
        "class_weights": {"Positive": w_pos, "Negative": w_neg},
    })

    report = drops.as_dict()
    report["neutral_excluded"] = neutral_excluded
    report["version"] = 1
    write_json(out / "drop_report.json", report)
    return report


def _example(row) -> LabeledExample:
    tokens, raw, label = row["tokens"], row["raw"], _LABELS[row["label"]]
    if not (isinstance(tokens, list) and isinstance(raw, str)):
        raise TypeError("tokens are not a list, or raw is not a string")
    "".join(tokens)  # a TypeError unless every token is a string
    return LabeledExample(tokens=tokens, raw_comment=raw, label=label)


#: examples.jsonl lines per json.loads call: few calls, and few parsed rows alive
_PARSE_BLOCK = 512


def _read_examples(path: Path) -> list:
    examples = []
    line_no = 0
    lines = read_utf8(path).splitlines()
    try:
        for start in range(0, len(lines), _PARSE_BLOCK):
            block = lines[start : start + _PARSE_BLOCK]
            try:
                # a raw newline cannot occur inside a JSON string, so no string
                # runs from one line into the next
                rows = json.loads("[" + ",\n".join(block) + "]")
                if len(rows) == len(block):
                    examples += [_example(row) for row in rows]
                    continue
            except (ValueError, KeyError, TypeError):
                pass
            # a line of this block is malformed: read it line by line to name it
            for line_no, line in enumerate(block, start + 1):
                examples.append(_example(json.loads(line)))
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"{path} is malformed at line {line_no}: {exc!r}") from exc
    return examples


def load_bundle(root: Union[str, Path]) -> Bundle:
    root = Path(root)
    for name in ("examples.jsonl", "vocab.json", "split.json"):
        if not (root / name).exists():
            raise SchemaError(f"missing bundle file: {root / name}")
    examples = _read_examples(root / "examples.jsonl")
    manifest = read_json(root / "split.json")
    ids = {key: _array(manifest.get(key), f"{root / 'split.json'}: {key}", (None,),
                       np.int64).tolist() for key in ("train_ids", "test_ids")}
    if any(not 0 <= i < len(examples) for i in ids["train_ids"] + ids["test_ids"]):
        raise SchemaError(f"{root / 'split.json'} names an example outside the "
                          f"{len(examples)} rows of examples.jsonl")
    return Bundle(
        examples=examples,
        tfidf=load_tfidf_model(root / "vocab.json"),
        vocab_ref=file_sha256(root / "vocab.json"),
        **ids,
    )


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
          docs: Sequence[list]) -> np.ndarray:
    """P(Positive) of each token list in `docs`, in order, under a model
    bound to `tfidf`: TF-IDF rows for a LinearModel, clipped id sequences
    for an RnnModel."""
    if isinstance(model, LinearModel):
        return predict_proba(model, tfidf_transform(tfidf, docs))
    t2i = tfidf.vocab.term_to_index
    return predict_sequences(
        model, [encode_tokens(doc, t2i, model.dims.max_len) for doc in docs])


def sequence_data(
    bundle: Bundle,
    ids: Sequence[int],
    max_len: int,
    drop_empty: bool,
) -> tuple[SequenceDataset, list]:
    """Encode examples to id sequences.

    With drop_empty (training), rows with no in-vocabulary tokens are
    removed; the second return value lists the example ids actually kept.
    """
    t2i = bundle.tfidf.vocab.term_to_index
    sequences = []
    labels = []
    kept = []
    for i in ids:
        seq = encode_tokens(bundle.examples[i].tokens, t2i, max_len)
        if drop_empty and not seq:
            continue
        sequences.append(seq)
        labels.append(float(int(bundle.examples[i].label)))
        kept.append(i)
    return SequenceDataset(sequences=sequences, labels=np.array(labels)), kept
