"""Dataset ingestion: CSV parsing, star-rating labels, train/test splits.

The expected input is a RateMyProfessor-style CSV with one row per student
comment. Rows without a usable comment or with broken rating cells are
dropped (never imputed) and the drops are tallied in a DropReport.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import BinaryIO, Iterable, Optional, Union

import numpy as np

from .errors import SchemaError, ValidationError, read_utf8

RATING_MIN = 1.0
RATING_MAX = 5.0

#: logical field -> default CSV column name
DEFAULT_SCHEMA = {
    "comment": "comments",
    "student_star": "student_star",
    "star_rating": "star_rating",
    "diff_index": "diff_index",
    "student_difficult": "student_difficult",
}

#: columns that must exist in the CSV header
MANDATORY_FIELDS = ("comment", "student_star")


class SentimentLabel(IntEnum):
    """Binary sentiment. Negative < Positive so label order follows rating order."""

    NEGATIVE = 0
    POSITIVE = 1

    def __str__(self) -> str:
        return "Positive" if self is SentimentLabel.POSITIVE else "Negative"


@dataclass
class FeedbackRecord:
    """One retained dataset row: the comment plus its rating context."""

    comment: str
    student_star: float
    star_rating: Optional[float] = None
    diff_index: Optional[float] = None
    student_difficult: Optional[float] = None
    extra: dict = field(default_factory=dict)


@dataclass
class DropReport:
    """Tally of rows dropped during parsing, by reason."""

    rows: int = 0
    retained: int = 0
    missing_comment: int = 0
    missing_rating: int = 0
    unparsable_rating: int = 0
    out_of_range_rating: int = 0

    @property
    def dropped(self) -> int:
        return (self.missing_comment + self.missing_rating
                + self.unparsable_rating + self.out_of_range_rating)

    def as_dict(self) -> dict:
        return {
            "rows": self.rows,
            "retained": self.retained,
            "dropped": {
                "missing_comment": self.missing_comment,
                "missing_rating": self.missing_rating,
                "unparsable_rating": self.unparsable_rating,
                "out_of_range_rating": self.out_of_range_rating,
            },
        }


@dataclass
class LabeledExample:
    """A cleaned comment with its binary label. tokens is filled by textprep."""

    tokens: list[str]
    raw_comment: str
    label: SentimentLabel


@dataclass
class DatasetSplit:
    train: list[LabeledExample]
    test: list[LabeledExample]
    seed: int
    fraction: float
    train_ids: list[int] = field(default_factory=list)
    test_ids: list[int] = field(default_factory=list)


def _parse_rating(cell: str) -> Optional[float]:
    """None for blank cells; ValueError propagates for junk."""
    cell = cell.strip()
    if not cell:
        return None
    return float(cell)


def parse_csv(
    source: Union[str, Path, BinaryIO],
    schema: Optional[dict] = None,
) -> tuple[list[FeedbackRecord], DropReport]:
    """Parse a UTF-8 CSV with a header row into FeedbackRecords.

    `schema` maps logical field names (see DEFAULT_SCHEMA) to column names.
    Rows with an empty comment are dropped and counted; rating cells that do
    not parse or fall outside [1.0, 5.0] likewise drop the whole row. Raises
    SchemaError if a mandatory column is absent from the header.
    """
    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    if hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    else:
        text = read_utf8(source)

    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames
    if header is None:
        raise SchemaError("CSV has no header row")
    for logical in MANDATORY_FIELDS:
        if schema[logical] not in header:
            raise SchemaError(
                f"missing mandatory column {schema[logical]!r} (logical field {logical!r})"
            )

    rating_fields = ("student_star", "star_rating", "diff_index", "student_difficult")
    present_ratings = [f for f in rating_fields if schema[f] in header]
    known_columns = {schema[f] for f in ("comment",) + rating_fields if schema[f] in header}

    records: list[FeedbackRecord] = []
    report = DropReport()
    for row in reader:
        report.rows += 1
        comment = (row.get(schema["comment"]) or "").strip()
        if not comment:
            report.missing_comment += 1
            continue

        values: dict[str, Optional[float]] = {}
        bad_reason = None
        for fieldname in present_ratings:
            cell = row.get(schema[fieldname]) or ""
            try:
                value = _parse_rating(cell)
            except ValueError:
                bad_reason = "unparsable_rating"
                break
            if value is not None and not (RATING_MIN <= value <= RATING_MAX):
                bad_reason = "out_of_range_rating"
                break
            values[fieldname] = value
        if bad_reason is None and values.get("student_star") is None:
            bad_reason = "missing_rating"
        if bad_reason is not None:
            setattr(report, bad_reason, getattr(report, bad_reason) + 1)
            continue

        extra = {k: (v or "") for k, v in row.items()
                 if k is not None and k not in known_columns}
        records.append(FeedbackRecord(
            comment=comment,
            student_star=values["student_star"],
            star_rating=values.get("star_rating"),
            diff_index=values.get("diff_index"),
            student_difficult=values.get("student_difficult"),
            extra=extra,
        ))
        report.retained += 1
    return records, report


def binarize_label(student_star: float) -> Optional[SentimentLabel]:
    """Map a per-comment star rating to a binary label.

    Ratings of 3.5 and above are Positive, 2.4 and below are Negative, and
    the 2.4 < s < 3.5 band is neutral (returns None) and stays out of the
    binary problem entirely.
    """
    if not (RATING_MIN <= student_star <= RATING_MAX):
        raise ValidationError(
            f"student_star {student_star} outside [{RATING_MIN}, {RATING_MAX}]"
        )
    if student_star >= 3.5:
        return SentimentLabel.POSITIVE
    if student_star <= 2.4:
        return SentimentLabel.NEGATIVE
    return None


def label_records(records: Iterable[FeedbackRecord]) -> tuple[list[LabeledExample], int]:
    """Produce LabeledExamples from records; neutral-band rows are excluded.

    Returns (examples, neutral_excluded_count). tokens are left empty here.
    """
    examples: list[LabeledExample] = []
    neutral = 0
    for rec in records:
        label = binarize_label(rec.student_star)
        if label is None:
            neutral += 1
            continue
        examples.append(LabeledExample(tokens=[], raw_comment=rec.comment, label=label))
    return examples, neutral


def train_size(n: int, fraction: float) -> int:
    """|train| = floor(fraction * n + 0.5), the documented rounding rule."""
    return int(math.floor(fraction * n + 0.5))


def split(examples: list[LabeledExample], fraction: float, seed: int) -> DatasetSplit:
    """Deterministic stratified train/test split.

    Per-class train counts are kept within one example of the overall
    fraction; classes with fewer than 2 members fall back to an unstratified
    pool (with a warning). Identical (examples, fraction, seed) inputs give
    identical splits.
    """
    if not examples:
        raise ValidationError("cannot split an empty example list")
    if not (0.0 < fraction < 1.0):
        raise ValidationError(f"split fraction must lie in (0, 1), got {fraction}")

    n = len(examples)
    target = train_size(n, fraction)

    by_label: dict[SentimentLabel, list[int]] = {}
    for i, ex in enumerate(examples):
        by_label.setdefault(ex.label, []).append(i)

    big = {lab: idx for lab, idx in by_label.items() if len(idx) >= 2}
    pool: list[int] = []
    for lab, idx in sorted(by_label.items()):
        if len(idx) < 2:
            warnings.warn(
                f"class {lab} has {len(idx)} member(s); splitting it unstratified",
                stacklevel=2,
            )
            pool.extend(idx)

    # Allocate per-group train counts; the largest class absorbs rounding
    # error so that len(train) == target exactly.
    ordered = sorted(big, key=lambda lab: (len(big[lab]), int(lab)))
    quotas: dict[SentimentLabel, int] = {}
    for lab in ordered[:-1]:
        quotas[lab] = min(len(big[lab]), train_size(len(big[lab]), fraction))
    pool_quota = train_size(len(pool), fraction) if pool else 0
    if ordered:
        largest = ordered[-1]
        rest = target - sum(quotas.values()) - pool_quota
        quotas[largest] = min(len(big[largest]), max(0, rest))
    # Clamping can leave a deficit in degenerate cases; settle it via the pool.
    deficit = target - sum(quotas.values()) - pool_quota
    pool_quota = min(len(pool), max(0, pool_quota + deficit))

    rng = np.random.default_rng(seed)
    train_ids: list[int] = []
    for lab in sorted(big):
        perm = rng.permutation(len(big[lab]))
        chosen = [big[lab][j] for j in perm[: quotas[lab]]]
        train_ids.extend(chosen)
    if pool:
        perm = rng.permutation(len(pool))
        train_ids.extend(pool[j] for j in perm[:pool_quota])

    train_set = set(train_ids)
    train_ids = sorted(train_set)
    test_ids = [i for i in range(n) if i not in train_set]
    return DatasetSplit(
        train=[examples[i] for i in train_ids],
        test=[examples[i] for i in test_ids],
        seed=seed,
        fraction=fraction,
        train_ids=train_ids,
        test_ids=test_ids,
    )
