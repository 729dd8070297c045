"""Shared orchestration: the on-disk dataset bundle and featurization paths.

`prepare` writes a bundle directory of six files (cleaned examples, the
frozen vocabulary + idf, the chi-squared report, the split manifest, the
balance report, and the drop report). Training and evaluation read the
bundle back and bind models to the vocabulary file's SHA-256 so stale
model/vocabulary pairs are rejected.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .config import PipelineConfig, column_schema
from .errors import SchemaError, ValidationError
from .features import (
    TfidfModel,
    build_vocabulary,
    chi2_scores,
    fit_tfidf,
    load_tfidf_model,
    presence_sets,
    save_tfidf_model,
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
from .neural import SequenceDataset, encode_tokens
from .resample import SmoteConfig, class_weights, minority_gap, smote_sparse
from .textprep import LemmaRuleTable, StopwordList, preprocess

BUNDLE_FILES = (
    "examples.jsonl",
    "vocab.json",
    "chi2_report.csv",
    "split.json",
    "balance.json",
    "drop_report.json",
)


def file_sha256(path: Union[str, Path]) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_json(path: Union[str, Path], payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def read_json(path: Union[str, Path]) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise SchemaError(f"missing file: {path}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise SchemaError(f"malformed JSON in {path}: {exc}") from exc


@dataclass
class Bundle:
    root: Path
    examples: list  # LabeledExample, cleaned, in bundle order
    tfidf: TfidfModel
    vocab_ref: str
    train_ids: list
    test_ids: list
    seed: int
    fraction: float

    def subset(self, ids: Sequence[int]) -> list:
        return [self.examples[i] for i in ids]


def load_lexicons(cfg: PipelineConfig) -> tuple[StopwordList, LemmaRuleTable]:
    return StopwordList.load(cfg.stopwords), LemmaRuleTable.load(cfg.lemma_rules)


def prepare_bundle(cfg: PipelineConfig) -> Path:
    """Run ingestion + cleaning + featurization and write the bundle."""
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

    with (out / "examples.jsonl").open("w", encoding="utf-8") as fh:
        for i, ex in enumerate(examples):
            fh.write(json.dumps(
                {"id": i, "label": str(ex.label), "raw": ex.raw_comment,
                 "tokens": ex.tokens},
                sort_keys=True) + "\n")

    save_tfidf_model(tfidf, out / "vocab.json")

    order = sorted(range(len(vocab_full)),
                   key=lambda i: (-scores.score[i], vocab_full.terms[i]))
    with (out / "chi2_report.csv").open("w", encoding="utf-8") as fh:
        fh.write("term,score\n")
        for i in order:
            fh.write(f"{vocab_full.terms[i]},{float(scores.score[i])!r}\n")

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
    return out


def load_bundle(root: Union[str, Path]) -> Bundle:
    root = Path(root)
    for name in ("examples.jsonl", "vocab.json", "split.json"):
        if not (root / name).exists():
            raise SchemaError(f"missing bundle file: {root / name}")
    examples = []
    for line in (root / "examples.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        examples.append(LabeledExample(
            tokens=list(row["tokens"]),
            raw_comment=row["raw"],
            label=SentimentLabel.from_string(row["label"]),
        ))
    tfidf = load_tfidf_model(root / "vocab.json")
    manifest = read_json(root / "split.json")
    return Bundle(
        root=root,
        examples=examples,
        tfidf=tfidf,
        vocab_ref=file_sha256(root / "vocab.json"),
        train_ids=list(manifest["train_ids"]),
        test_ids=list(manifest["test_ids"]),
        seed=int(manifest["seed"]),
        fraction=float(manifest["fraction"]),
    )


def check_vocab_ref(bundle: Bundle, vocab_ref: str, what: str) -> None:
    if vocab_ref != bundle.vocab_ref:
        raise SchemaError(
            f"{what} was trained against vocabulary {vocab_ref[:12]}... but the "
            f"bundle's vocabulary hashes to {bundle.vocab_ref[:12]}..."
        )


def tfidf_rows(bundle: Bundle, ids: Sequence[int]) -> list:
    return [tfidf_transform(bundle.tfidf, bundle.examples[i].tokens) for i in ids]


def balance_sparse(
    X: list,
    y: list,
    dim: int,
    cfg: SmoteConfig,
) -> tuple[list, list]:
    """balance_to_parity for sparse rows of width `dim`; the synthetic rows
    are sparse too."""
    minority_label, n_new = minority_gap(y)
    if n_new == 0:
        return list(X), list(y)
    minority = [x for x, lab in zip(X, y) if lab == minority_label]
    X_out = list(X) + smote_sparse(minority, n_new, cfg, dim)
    y_out = list(y) + [minority_label] * n_new
    return X_out, y_out


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
