import csv
import io
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_parse_csv
from edusent.errors import SchemaError, ValidationError
from edusent.ingest import (
    DEFAULT_SCHEMA,
    SentimentLabel,
    binarize_label,
    parse_csv,
    split,
    train_size,
)

HEADER = "professor_name,star_rating,diff_index,student_star,student_difficult,comments"


def _csv(*rows):
    return io.BytesIO(("\n".join([HEADER, *rows]) + "\n").encode("utf-8"))


#: header names: the default columns, a custom schema's, and one unknown
_NAMES = ("comments", "student_star", "star_rating", "diff_index", "student_difficult",
          "text", "stars", "professor_name")
_SCHEMAS = (None, {"comment": "text", "student_star": "stars"},
            {"star_rating": "stars", "diff_index": "text"})
#: rating-like cells: blank or in range (the band edges included), then
#: junk, nan and out of range
_VALID = ("", "4.0", "5", "1", "3.5", "3.4", "2.5", "2.4", "3.0", " 4.5 ", "1e0")
_JUNK = ("  ", "1_0", "abc", "4,5", "nan", "NaN", "inf", "-inf", "7.5", "0.5", "0", "-1")
#: half the cells are valid ratings, so that some rows are retained and labelled
_CELLS = st.one_of(st.sampled_from(_VALID), st.sampled_from(_VALID), st.sampled_from(_JUNK),
                   st.text(st.sampled_from('ab ,"\n\r\t'), max_size=6))


@st.composite
def _feedback_csvs(draw):
    """(CSV text, schema): a header that lacks some names and repeats others;
    rows shorter or longer than the header; blank lines; cells with quotes,
    commas and newlines."""
    header = [name for name in draw(st.permutations(_NAMES)) if draw(st.integers(0, 5))]
    header += draw(st.lists(st.sampled_from(_NAMES), max_size=2))
    width = st.one_of(st.just(len(header)), st.integers(0, len(header) + 2))
    row = width.flatmap(lambda n: st.lists(_CELLS, min_size=n, max_size=n))
    rows = draw(st.lists(row, max_size=12))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)  # an empty row is a blank line
    return buf.getvalue(), draw(st.sampled_from(_SCHEMAS))


class TestParseCsv:
    def test_sample_file(self, sample_csv):
        examples, report = parse_csv(sample_csv)
        assert report.rows == 46
        assert report.retained == len(examples) + report.neutral_excluded == 38
        assert report.neutral_excluded == 4
        assert report.missing_comment == 7
        assert report.unparsable_rating == 1
        assert report.retained + report.dropped == report.rows

    def test_empty_comment_dropped(self):
        examples, report = parse_csv(_csv("A,4.0,2.0,4.5,2.0,"))
        assert examples == []
        assert report.missing_comment == 1

    def test_zero_rows(self):
        examples, report = parse_csv(_csv())
        assert examples == []
        assert report.rows == 0 and report.dropped == 0

    def test_unparsable_rating_dropped(self):
        rows = [
            "A,4.0,2.0,4.5,2.0,Nice class",
            "B,4.0,2.0,abc,2.0,Bad cell here",
            "C,4.0,2.0,1.5,2.0,Dull class",
            "D,4.0,2.0,5.0,2.0,Great class",
        ]
        examples, report = parse_csv(_csv(*rows))
        assert len(examples) == 3
        assert report.unparsable_rating == 1

    def test_out_of_range_rating_dropped(self):
        examples, report = parse_csv(_csv("A,4.0,2.0,7.5,2.0,Whatever"))
        assert examples == []
        assert report.out_of_range_rating == 1

    def test_missing_mandatory_column(self):
        stream = io.BytesIO(b"professor_name,student_star\nA,4.0\n")
        with pytest.raises(SchemaError, match="comments"):
            parse_csv(stream)

    def test_custom_schema(self):
        stream = io.BytesIO(b"text,stars\nLoved it,4.5\n")
        examples, _ = parse_csv(stream, schema={"comment": "text", "student_star": "stars"})
        assert len(examples) == 1
        assert examples[0].raw_comment == "Loved it"
        assert examples[0].label == SentimentLabel.POSITIVE
        assert examples[0].tokens == []

    def test_extra_columns_ignored(self):
        examples, report = parse_csv(_csv("not a rating,4.0,2.0,4.5,2.0,Great course"))
        assert [ex.raw_comment for ex in examples] == ["Great course"]
        assert report.dropped == 0

    @settings(max_examples=300, deadline=None)
    @given(_feedback_csvs())
    def test_matches_dictreader_reference(self, case):
        text, schema = case
        try:
            pairs, counts = reference_parse_csv(text, schema)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as got:
                parse_csv(io.StringIO(text), schema)
            assert str(got.value) == str(exc)
            return
        examples, report = parse_csv(io.StringIO(text), schema)
        assert [(ex.raw_comment, ex.label) for ex in examples] == pairs
        assert all(ex.tokens == [] for ex in examples)
        assert asdict(report) == counts

    @pytest.mark.parametrize("text", ["", "\r\n", "\r\ncomments,student_star\r\nok,4\r\n"])
    def test_no_header_matches_reference(self, text):
        with pytest.raises(SchemaError) as want:
            reference_parse_csv(text)
        with pytest.raises(SchemaError) as got:
            parse_csv(io.StringIO(text))
        assert str(got.value) == str(want.value)

    def test_default_schema_matches_expected_columns(self):
        assert DEFAULT_SCHEMA["comment"] == "comments"
        assert set(DEFAULT_SCHEMA) == {
            "comment", "student_star", "star_rating", "diff_index", "student_difficult",
        }


class TestBinarize:
    @pytest.mark.parametrize("star,expected", [
        (4.0, SentimentLabel.POSITIVE),
        (1.0, SentimentLabel.NEGATIVE),
        (3.0, None),
        (3.5, SentimentLabel.POSITIVE),
        (2.4, SentimentLabel.NEGATIVE),
        (2.5, None),
        (3.4, None),
        (5.0, SentimentLabel.POSITIVE),
    ])
    def test_bands(self, star, expected):
        assert binarize_label(star) == expected

    def test_out_of_range(self):
        for bad in (0.5, 5.5, -1.0):
            with pytest.raises(ValidationError):
                binarize_label(bad)

    def test_monotone(self):
        grid = [1.0 + 0.1 * i for i in range(41)]
        labeled = [(s, binarize_label(s)) for s in grid]
        labeled = [(s, lab) for s, lab in labeled if lab is not None]
        for (s1, l1), (s2, l2) in zip(labeled, labeled[1:]):
            assert s1 <= s2
            assert int(l1) <= int(l2)

    def test_neutral_rows_counted_not_labeled(self):
        stars = ["4.5", "3.0", "1.5", "3.5", "3.4", "2.5", "2.4"]
        examples, report = parse_csv(_csv(*(f"A,,,{s},,comment {s}" for s in stars)))
        assert [(e.raw_comment, str(e.label)) for e in examples] == [
            ("comment 4.5", "Positive"), ("comment 1.5", "Negative"),
            ("comment 3.5", "Positive"), ("comment 2.4", "Negative")]
        assert report.neutral_excluded == 3
        assert report.retained == 7


def _labels(n_pos, n_neg):
    return [SentimentLabel.POSITIVE] * n_pos + [SentimentLabel.NEGATIVE] * n_neg


class TestSplit:
    def test_stratified_counts(self):
        labels = _labels(5, 5)
        ds = split(labels, 0.8, seed=7)
        assert len(ds.train_ids) == 8 and len(ds.test_ids) == 2
        pos = sum(1 for i in ds.train_ids if labels[i] == SentimentLabel.POSITIVE)
        assert pos == 4

    def test_deterministic(self):
        labels = _labels(13, 7)
        a = split(labels, 0.8, seed=3)
        b = split(labels, 0.8, seed=3)
        assert a.train_ids == b.train_ids and a.test_ids == b.test_ids
        c = split(labels, 0.8, seed=4)
        assert c.train_ids != a.train_ids  # overwhelmingly likely for this size

    def test_partition_identity(self):
        labels = _labels(11, 6)
        ds = split(labels, 0.7, seed=1)
        combined = sorted(ds.train_ids + ds.test_ids)
        assert combined == list(range(len(labels)))
        assert set(ds.train_ids).isdisjoint(ds.test_ids)

    def test_documented_rounding(self):
        assert train_size(19993, 0.8) == 15994
        ds = split(_labels(10000, 9993), 0.8, seed=0)
        assert len(ds.train_ids) == 15994

    def test_per_class_proportions_within_one(self):
        labels = _labels(13, 7)
        ds = split(labels, 0.8, seed=9)
        pos = sum(1 for i in ds.train_ids if labels[i] == SentimentLabel.POSITIVE)
        neg = len(ds.train_ids) - pos
        assert abs(pos - 0.8 * 13) <= 1.0
        assert abs(neg - 0.8 * 7) <= 1.0

    def test_small_class_falls_back_with_warning(self):
        with pytest.warns(UserWarning, match="unstratified"):
            ds = split(_labels(6, 1), 0.8, seed=2)
        assert len(ds.train_ids) == train_size(7, 0.8)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            split([], 0.8, seed=0)
        with pytest.raises(ValidationError):
            split(_labels(2, 2), 1.0, seed=0)
