"""Dataset ingestion: CSV parsing, star-rating labels, train/test splits.

The expected input is a RateMyProfessor-style CSV with one row per student
comment. One pass turns each row into a labelled example, or drops it
(never imputing a cell) and tallies the drop in a DropReport. A split is
two lists of example indices.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import BinaryIO, Optional, Sequence, Union

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

#: the rating columns a row is checked against, in the order of the checks
RATING_FIELDS = ("student_star", "star_rating", "diff_index", "student_difficult")


class SentimentLabel(IntEnum):
    """Binary sentiment. Negative < Positive so label order follows rating order."""

    NEGATIVE = 0
    POSITIVE = 1

    def __str__(self) -> str:
        return "Positive" if self is SentimentLabel.POSITIVE else "Negative"


@dataclass
class DropReport:
    """Tally of the rows read: dropped ones by reason, and retained ones left
    out of the binary problem for a neutral rating."""

    rows: int = 0
    retained: int = 0
    missing_comment: int = 0
    missing_rating: int = 0
    unparsable_rating: int = 0
    out_of_range_rating: int = 0
    neutral_excluded: int = 0

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
            "neutral_excluded": self.neutral_excluded,
        }


@dataclass
class LabeledExample:
    """A cleaned comment with its binary label. tokens is filled by textprep."""

    tokens: list[str]
    raw_comment: str
    label: SentimentLabel


@dataclass
class DatasetSplit:
    train_ids: list[int]
    test_ids: list[int]
    seed: int
    fraction: float


def parse_csv(
    source: Union[str, Path, BinaryIO],
    schema: Optional[dict] = None,
) -> tuple[list[LabeledExample], DropReport]:
    """Read a UTF-8 CSV with a header row into labelled examples, one row at
    a time.

    `schema` maps logical field names (see DEFAULT_SCHEMA) to column names;
    a name that the header repeats is read from its last column, and a cell
    past the end of a short row is blank. Blank lines are skipped. A row is
    dropped and counted under its reason if its comment is blank, if a
    rating cell (checked in RATING_FIELDS order, the first fault counting)
    does not parse or falls outside [1.0, 5.0], or else if its student_star
    is blank. A retained row is labelled by `binarize_label`, or counted
    and left out if its student_star is neutral. Raises SchemaError if a
    mandatory column is absent from the header.

    Returns (examples, report); the examples' tokens are left empty.
    """
    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    if hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    else:
        text = read_utf8(source)

    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise SchemaError("CSV has no header row")
    column = {name: i for i, name in enumerate(header)}
    for logical in MANDATORY_FIELDS:
        if schema[logical] not in column:
            raise SchemaError(
                f"missing mandatory column {schema[logical]!r} (logical field {logical!r})"
            )
    comment_at = column[schema["comment"]]
    ratings_at = [column[schema[f]] for f in RATING_FIELDS if schema[f] in column]
    star_at = column[schema["student_star"]]
    width = max(comment_at, *ratings_at) + 1

    examples: list[LabeledExample] = []
    report = DropReport()
    for row in reader:
        if not row:
            continue
        report.rows += 1
        if len(row) < width:
            row += [""] * (width - len(row))
        comment = row[comment_at].strip()
        if not comment:
            report.missing_comment += 1
            continue
        for at in ratings_at:
            cell = row[at].strip()
            try:
                if cell and not RATING_MIN <= float(cell) <= RATING_MAX:
                    report.out_of_range_rating += 1
                    break
            except ValueError:
                report.unparsable_rating += 1
                break
        else:
            star = row[star_at].strip()
            if not star:
                report.missing_rating += 1
                continue
            report.retained += 1
            label = binarize_label(float(star))
            if label is None:
                report.neutral_excluded += 1
            else:
                examples.append(LabeledExample([], comment, label))
    return examples, report


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


def train_size(n: int, fraction: float) -> int:
    """|train| = floor(fraction * n + 0.5), the documented rounding rule."""
    return int(math.floor(fraction * n + 0.5))


def split(labels: Sequence[SentimentLabel], fraction: float, seed: int) -> DatasetSplit:
    """Deterministic stratified train/test split of the examples whose
    labels are `labels`, by index.

    Per-class train counts are kept within one example of the overall
    fraction; classes with fewer than 2 members fall back to an unstratified
    pool (with a warning). Identical (labels, fraction, seed) inputs give
    identical splits.
    """
    if not labels:
        raise ValidationError("cannot split an empty example list")
    if not (0.0 < fraction < 1.0):
        raise ValidationError(f"split fraction must lie in (0, 1), got {fraction}")

    n = len(labels)
    target = train_size(n, fraction)

    by_label: dict[SentimentLabel, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)

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
    return DatasetSplit(train_ids=train_ids, test_ids=test_ids, seed=seed, fraction=fraction)
