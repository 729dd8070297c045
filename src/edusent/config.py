"""Pipeline configuration: defaults, flat config files, CLI overrides.

The config file is a flat key = value text file (``#`` starts a comment);
keys match the dataclass fields below, and each value is parsed by its
field's type. Precedence is CLI flag > config file > built-in default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Union

from .errors import SchemaError, ValidationError, read_utf8


@dataclass
class PipelineConfig:
    data: str = ""
    out: str = "edusent_out"
    stopwords: Optional[str] = None
    lemma_rules: Optional[str] = None
    k: int = 5000
    fraction: float = 0.8
    seed: int = 0
    smote_k: int = 5
    no_plots: bool = False
    # CSV column names, overriding the default Table-style header
    column_comment: Optional[str] = None
    column_student_star: Optional[str] = None
    column_star_rating: Optional[str] = None
    column_diff_index: Optional[str] = None
    column_student_difficult: Optional[str] = None
    # logistic regression
    lr_epochs: int = 200
    lr_learning_rate: float = 0.1
    lr_l2: float = 1e-4
    # sequence model
    rnn_epochs: int = 10
    rnn_batch_size: int = 32
    rnn_learning_rate: float = 1e-3
    embed_dim: int = 64
    hidden_dim: int = 64
    attn_dim: int = 64
    max_len: int = 128
    patience: int = 3
    val_fraction: float = 0.1


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _parse_value(raw: str, kind: str):
    """`raw` as a value of the field type `kind`: an int literal for an int,
    an int or float literal for a float, true/false for a bool, and the text
    (less one pair of enclosing quotes) for any other. ValueError otherwise."""
    raw = raw.strip()
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        if raw.lower() not in ("true", "false"):
            raise ValueError(f"invalid literal for bool: {raw!r}")
        return raw.lower() == "true"
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        return raw[1:-1]
    return raw


def read_config_file(path: Union[str, Path]) -> dict:
    """Parse ``key = value`` lines, each value by its key's field type; an
    unknown key or a mistyped value is a schema error."""
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise SchemaError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise SchemaError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise SchemaError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            values[key] = _parse_value(raw, kind)
        except ValueError:
            raise SchemaError(f"{path}:{lineno}: {key} takes {kind} values, "
                              f"not {raw.strip()!r}") from None
    return values


def build_config(
    config_path: Optional[str] = None,
    overrides: Optional[dict] = None,
) -> PipelineConfig:
    """Merge defaults, optional config file, and CLI overrides (None skipped)."""
    cfg = PipelineConfig()
    merged = {}
    if config_path:
        merged.update(read_config_file(config_path))
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    for key, value in merged.items():
        if key not in _FIELD_TYPES:
            raise SchemaError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    _validate(cfg)
    return cfg


def _validate(cfg: PipelineConfig) -> None:
    checks = [
        (cfg.seed >= 0, "seed must be non-negative"),
        (0.0 < cfg.fraction < 1.0, "fraction must lie in (0, 1)"),
        (cfg.k >= 1, "k must be >= 1"),
        (cfg.smote_k >= 1, "smote_k must be >= 1"),
        (cfg.lr_epochs >= 1 and cfg.rnn_epochs >= 1, "epoch counts must be >= 1"),
        (all(map(math.isfinite, (cfg.lr_learning_rate, cfg.rnn_learning_rate, cfg.lr_l2))),
         "learning rates and lr_l2 must be finite"),
        (cfg.lr_learning_rate > 0 and cfg.rnn_learning_rate > 0,
         "learning rates must be positive"),
        (cfg.rnn_batch_size >= 1, "rnn_batch_size must be >= 1"),
        (min(cfg.embed_dim, cfg.hidden_dim, cfg.attn_dim, cfg.max_len) >= 1,
         "model dimensions must be >= 1"),
        (0.0 <= cfg.val_fraction < 1.0, "val_fraction must lie in [0, 1)"),
        (cfg.patience >= 0, "patience must be >= 0"),
    ]
    for ok, message in checks:
        if not ok:
            raise ValidationError(message)


def column_schema(cfg: PipelineConfig) -> dict:
    """Logical field -> CSV column name overrides taken from the config."""
    mapping = {
        "comment": cfg.column_comment,
        "student_star": cfg.column_student_star,
        "star_rating": cfg.column_star_rating,
        "diff_index": cfg.column_diff_index,
        "student_difficult": cfg.column_student_difficult,
    }
    return {field: column for field, column in mapping.items() if column}
