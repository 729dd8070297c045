"""The artifact layer: every file a command reads back is checked at load
(a malformed one exits 2 and names the file), written atomically, and
survives load -> save byte for byte."""

import errno
import hashlib
import json
import shutil
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edusent.pipeline
from edusent.cli import main
from edusent.errors import SchemaError
from edusent.linear import LinearModel
from edusent.neural import RnnDims, init_model
from edusent.pipeline import (
    BUNDLE_FILES,
    load_bundle,
    load_model,
    load_tfidf_model,
    save_linear_model,
    save_rnn_model,
    save_tfidf_model,
    write_json,
)

TEXT = "The lecture was engaging and informative."


def _prepare(sample_csv, out: Path) -> Path:
    assert main(["prepare", "--data", str(sample_csv), "--out", str(out),
                 "--k", "400", "--seed", "7"]) == 0
    return out


@pytest.fixture()
def bundle_dir(tmp_path, sample_csv) -> Path:
    return _prepare(sample_csv, tmp_path / "bundle")


def _write_models(root: Path, rnn_vocab_size=None) -> None:
    """An untrained model of each kind, bound to the bundle's vocabulary."""
    bundle = load_bundle(root)
    n = len(bundle.tfidf.vocab)
    save_linear_model(LinearModel(weights=np.zeros(n), bias=0.0),
                      root / "model_logreg.json", bundle.vocab_ref)
    dims = RnnDims(vocab_size=rnn_vocab_size or n, embed_dim=4, hidden=3, attn_dim=3)
    save_rnn_model(init_model(dims, seed=0), root / "model_rnn.json", bundle.vocab_ref)


def _edit_json(edit):
    def apply(path: Path) -> None:
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return apply


def _edit_first_example(edit):
    def apply(path: Path) -> None:
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[0])
        edit(row)
        path.write_text(json.dumps(row) + "\n" + "".join(lines[1:]))
    return apply


def _cut_third_line(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
    path.write_text("".join(lines))


def _set(key, value):
    return lambda p: p.__setitem__(key, value)


def _argv(root: Path, argv: list) -> list:
    """`argv` with each `@name` made the path of the bundle file `name`."""
    return [str(root / arg[1:]) if arg.startswith("@") else arg for arg in argv]


TRAIN = ["train", "logreg", "--lr-epochs", "5"]
PREDICT_LR = ["predict", "--model", "@model_logreg.json", TEXT]
EVALUATE_LR = ["evaluate", "--no-plots", "--model", "@model_logreg.json"]
SENSITIVITY = ["sensitivity", "--lr-model", "@model_logreg.json",
               "--rnn-model", "@model_rnn.json"]


class TestMalformedArtifact:
    @pytest.mark.parametrize("name, corrupt, argv", [
        ("examples.jsonl", _cut_third_line, TRAIN),
        ("examples.jsonl", _edit_first_example(lambda r: r.pop("tokens")), TRAIN),
        ("examples.jsonl", _edit_first_example(_set("label", "Meh")), TRAIN),
        ("model_logreg.json", _edit_json(lambda p: p.pop("weights")), PREDICT_LR),
        ("model_logreg.json", _edit_json(_set("bias", "a")), PREDICT_LR),
        ("model_logreg.json", _edit_json(_set("bias", float("nan"))), PREDICT_LR),
        ("model_logreg.json", _edit_json(_set("weights", [0.0, 0.0, 0.0])), PREDICT_LR),
        ("model_logreg.json", _edit_json(_set("weights", [0.0, 0.0, 0.0])), EVALUATE_LR),
        ("vocab.json", _edit_json(lambda p: p["idf"].pop()), TRAIN),
        ("split.json", _edit_json(lambda p: p.pop("test_ids")), TRAIN),
        ("split.json", _edit_json(lambda p: p["train_ids"].__setitem__(0, 10**6)), TRAIN),
        ("split.json", lambda path: path.write_text("[1, 2]"), TRAIN),
        ("model_rnn.json", lambda path: _write_models(path.parent, rnn_vocab_size=5),
         ["evaluate", "--no-plots", "--model", "@model_rnn.json"]),
        ("model_rnn.json", lambda path: path.write_text("[1, 2]"),
         ["predict", "--model", "@model_rnn.json", TEXT]),
        ("eval.json", lambda path: path.write_text('{"version": 1}'),
         ["compare", "@eval.json", "@eval.json"]),
    ], ids=["examples-cut-line", "examples-no-tokens", "examples-unknown-label",
            "logreg-no-weights", "logreg-string-bias", "logreg-nan-bias",
            "logreg-narrow-predict", "logreg-narrow-evaluate", "vocab-short-idf",
            "split-no-test-ids", "split-id-out-of-range", "split-list",
            "rnn-narrow-evaluate", "rnn-list", "report-no-metrics"])
    def test_exits_2_naming_the_file(self, bundle_dir, capsys, name, corrupt, argv):
        _write_models(bundle_dir)
        corrupt(bundle_dir / name)
        rc = main([*_argv(bundle_dir, argv), "--out", str(bundle_dir)])
        assert rc == 2
        assert str(bundle_dir / name) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--no-plots", "--model", "@model_rnn.json"],
        ["predict", "--model", "@model_rnn.json", TEXT],
        ["train", "rnn", "--rnn-epochs", "1", "--resume", "@model_rnn.json"],
    ], ids=["evaluate", "predict", "train-resume"])
    def test_version_1_rnn_model_says_to_train_again(self, bundle_dir, capsys, argv):
        _write_models(bundle_dir)
        path = bundle_dir / "model_rnn.json"
        _edit_json(_set("version", 1))(path)
        before = path.read_bytes()
        assert main([*_argv(bundle_dir, argv), "--out", str(bundle_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{path} is a version-1 model file of kind 'rnn'" in err
        assert "re-run train" in err
        assert path.read_bytes() == before


class TestExamplesFile:
    """examples.jsonl is parsed a block of lines per call; a malformed line
    is still named."""

    @pytest.fixture(autouse=True, params=[2, 3, 512])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(edusent.pipeline, "_PARSE_BLOCK", request.param)

    @staticmethod
    def _rewrite_line(root: Path, line_no: int, text: str) -> str:
        path = root / "examples.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[line_no - 1] = text + "\n"
        path.write_text("".join(lines))
        return str(path)

    @pytest.mark.parametrize("line_no, text, error", [
        (3, '{"id": 2, "label": "Positive", "raw": "a", "tokens": ["a"', "JSONDecodeError("),
        (1, "", "JSONDecodeError('Expecting value: line 1 column 1 (char 0)')"),
        (4, '{"id": 3, "label": "Meh", "raw": "a", "tokens": ["a"]}', "KeyError('Meh')"),
        (2, '{"id": 1, "label": "Negative", "raw": "a", "tokens": [1]}', "TypeError("),
        (5, '{"id": 4, "label": "Negative", "raw": "a", "tokens": []}, {"id": 5}',
         "JSONDecodeError('Extra data: line 1 column 57 (char 56)')"),
    ], ids=["cut", "blank", "unknown-label", "int-token", "two-rows"])
    def test_error_names_the_line(self, bundle_dir, line_no, text, error):
        path = self._rewrite_line(bundle_dir, line_no, text)
        with pytest.raises(SchemaError) as info:
            load_bundle(bundle_dir)
        message = str(info.value)
        assert message.startswith(f"{path} is malformed at line {line_no}: {error}")

    def test_not_utf8_names_the_byte(self, bundle_dir, capsys):
        path = bundle_dir / "examples.jsonl"
        text = path.read_bytes()
        path.write_bytes(text[:100] + b"\xff" + text[100:])
        with pytest.raises(SchemaError) as info:
            load_bundle(bundle_dir)
        assert str(info.value) == f"{path} is not UTF-8 text: invalid start byte at byte 100"
        assert main([*TRAIN, "--out", str(bundle_dir)]) == 2
        err = capsys.readouterr().err
        assert str(info.value) in err and len(err) < len(str(info.value)) + 100

    def test_rows_match_a_per_line_parse(self, bundle_dir):
        lines = (bundle_dir / "examples.jsonl").read_text().splitlines()
        examples = load_bundle(bundle_dir).examples
        assert len(examples) == len(lines) > 3
        for example, line in zip(examples, lines):
            row = json.loads(line)
            assert (example.tokens, example.raw_comment, str(example.label)) == \
                (row["tokens"], row["raw"], row["label"])


class _FullDisk:
    """A file that takes `room` bytes, then raises `error`: by default the
    OSError of a full disk."""

    def __init__(self, fh, room: int, error=None):
        self.fh, self.room = fh, room
        self.error = error or OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data) -> None:
        data = memoryview(data).cast("B")
        self.fh.write(data[: self.room])
        if len(data) > self.room:
            self.fh.flush()
            raise self.error
        self.room -= len(data)


class TestAtomicWrite:
    def _fill_disk_after(self, monkeypatch, room: int, name: str = "", error=None) -> None:
        """The disk fills (or `error` is raised) once `room` bytes are written
        to the temporary file of `name`, or of any file when `name` is empty."""
        def limited(file, mode="r", **kw):
            hit = not name or Path(file).name.startswith(f".{name}.")
            return _FullDisk(open(file, mode, **kw), room if hit else 10**9, error)
        monkeypatch.setattr(edusent.pipeline, "open", limited, raising=False)

    def test_write_json_keeps_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        write_json(target, {"version": 1, "values": [0.5]})
        old = target.read_bytes()
        new = {"version": 1, "values": list(range(500))}
        self._fill_disk_after(monkeypatch, len(json.dumps(new, indent=2)) // 2)
        with pytest.raises(OSError):
            write_json(target, new)
        assert target.read_bytes() == old
        assert list(tmp_path.iterdir()) == [target]

    def test_prepare_keeps_old_examples(self, bundle_dir, sample_csv, monkeypatch):
        old = (bundle_dir / "examples.jsonl").read_bytes()
        self._fill_disk_after(monkeypatch, len(old) // 2)
        assert main(["prepare", "--data", str(sample_csv), "--out", str(bundle_dir),
                     "--k", "400", "--seed", "7"]) == 2
        assert (bundle_dir / "examples.jsonl").read_bytes() == old
        assert sorted(p.name for p in bundle_dir.iterdir()) == sorted(BUNDLE_FILES)

    @pytest.mark.parametrize("name, argv", [
        ("chi2_report.csv", ["prepare", "--data", "@sample.csv", "--k", "400"]),
        ("train_log_logreg.csv", TRAIN),
        ("train_log_rnn.csv", ["train", "rnn", "--rnn-epochs", "1", "--embed-dim", "4",
                               "--hidden-dim", "3", "--attn-dim", "3"]),
        ("roc_logreg.svg", ["evaluate", "--model", "@model_logreg.json"]),
        ("confusion_logreg.svg", ["evaluate", "--model", "@model_logreg.json"]),
        ("sensitivity.csv", SENSITIVITY),
        ("sensitivity.svg", SENSITIVITY),
    ])
    def test_interrupted_output_keeps_old_file(self, bundle_dir, sample_csv, monkeypatch,
                                               name, argv):
        _write_models(bundle_dir)
        shutil.copyfile(sample_csv, bundle_dir / "sample.csv")
        target = bundle_dir / name
        target.write_bytes(b"old\n")
        self._fill_disk_after(monkeypatch, 3, name)
        assert main([*_argv(bundle_dir, argv), "--out", str(bundle_dir)]) == 2
        assert target.read_bytes() == b"old\n"
        assert not [p.name for p in bundle_dir.iterdir() if p.name.endswith(".tmp")]


    @pytest.mark.parametrize("cut", ["header", "blob"])
    def test_interrupted_rnn_save(self, bundle_dir, monkeypatch, capsys, cut):
        """The header is written last: a save stopped after the blob was
        replaced leaves a pair that does not load, and one stopped inside the
        blob leaves the old pair whole."""
        _write_models(bundle_dir)
        path = bundle_dir / "model_rnn.json"
        _, old, ref = load_model(path)
        new = init_model(old.dims, seed=1)
        name, room = ("model_rnn.json", 0) if cut == "header" else ("model_rnn.f64", 64)
        self._fill_disk_after(monkeypatch, room, name, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            save_rnn_model(new, path, ref)
        monkeypatch.undo()
        assert not [p.name for p in bundle_dir.iterdir() if p.name.endswith(".tmp")]
        rc = main(["predict", "--out", str(bundle_dir), "--model", str(path), TEXT])
        err = capsys.readouterr().err
        if cut == "header":
            assert rc == 2
            assert f"{path}: " in err and "does not match the header's sha256: re-run train" in err
        else:
            assert rc == 0
            _, loaded, _ = load_model(path)
            for name, p in old.params.items():
                assert np.array_equal(loaded.params[name], p), name


def test_sample_files_resave_byte_identical(bundle_dir, tmp_path):
    assert main(["train", "logreg", "--out", str(bundle_dir), "--seed", "7"]) == 0
    save_tfidf_model(load_tfidf_model(bundle_dir / "vocab.json"), tmp_path / "vocab.json")
    _, model, ref = load_model(bundle_dir / "model_logreg.json")
    save_linear_model(model, tmp_path / "model_logreg.json", ref)
    for name in ("vocab.json", "model_logreg.json"):
        assert (tmp_path / name).read_bytes() == (bundle_dir / name).read_bytes()


#: SHA-256 of the bundle files that `prepare --k 5000 --seed 0` writes from
#: the sample CSV. vocab.json is pinned by its terms and df only: its idf
#: goes through np.log, whose last bit may differ between hosts.
SAMPLE_BUNDLE_SHA256 = {
    "examples.jsonl": "75e0a910bb0d83a96f709eb2f41a87de7c5b039ccfb66bd4d6bce5dad86fa854",
    "chi2_report.csv": "4aae938d4b075f389a833e5474d314c6f3f7c35da2493be32013a73eafed185f",
    "split.json": "63d3d1092ea3362eddbe83b2eed3036f1867b7e67d90e217b32046c418123114",
    "balance.json": "21063b90c3c5ff602003f1def113b481a0b522c87dedc00a032489fb5671f037",
    "drop_report.json": "5717a6114aa30b2801dc7c89bc18acc5bd180f0bfe75e51c8b93e550a3b4fbf2",
    "vocab.json terms, df": "23472ecc577fa88b0f0b32ec99e6824604045b13b5d37d64157bd2d56c2c0dd9",
}


def test_sample_bundle_bytes_are_pinned(sample_csv, tmp_path):
    assert main(["prepare", "--data", str(sample_csv), "--out", str(tmp_path),
                 "--k", "5000", "--seed", "0"]) == 0
    vocab = json.loads((tmp_path / "vocab.json").read_text(encoding="utf-8"))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in SAMPLE_BUNDLE_SHA256 if not name.startswith("vocab")}
    got["vocab.json terms, df"] = hashlib.sha256(
        json.dumps([vocab["terms"], vocab["df"]]).encode()).hexdigest()
    assert got == SAMPLE_BUNDLE_SHA256


#: any code point, lone surrogates included, with the ones JSON escapes
#: (quote, backslash, control characters) and astral characters drawn often
_JSON_CHARS = st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\ud800\udfff\U0001f600'),
                        st.characters(exclude_categories=()))


@settings(max_examples=300, deadline=None)
@given(i=st.integers(0, 10**9), label=st.text(_JSON_CHARS), raw=st.text(_JSON_CHARS),
       tokens=st.lists(st.text(_JSON_CHARS), max_size=6))
def test_example_line_is_the_json_encoders(i, label, raw, tokens):
    """An examples.jsonl line has the bytes json's sorted-key encoder gives."""
    want = json.JSONEncoder(sort_keys=True).encode(
        {"id": i, "label": label, "raw": raw, "tokens": tokens}) + "\n"
    assert edusent.pipeline._example_line(i, label, raw, tokens) == want


# --- fuzzing: a mutated artifact never makes a command raise -----------------

FUZZ_READERS = {
    "examples.jsonl": TRAIN,
    "vocab.json": TRAIN,
    "split.json": TRAIN,
    "model_logreg.json": PREDICT_LR,
    "model_rnn.json": ["predict", "--model", "@model_rnn.json", TEXT],
    "eval_logreg.json": ["compare", "@eval_logreg.json", "@eval_logreg.json"],
}
DROP = object()


@pytest.fixture(scope="module")
def fuzz_bundle(tmp_path_factory, sample_csv):
    root = _prepare(sample_csv, tmp_path_factory.mktemp("fuzz") / "bundle")
    _write_models(root)
    assert main(TRAIN + ["--out", str(root)]) == 0  # a trained logreg model and its log
    assert main(["evaluate", "--no-plots", "--out", str(root),
                 "--model", str(root / "model_logreg.json")]) == 0
    yield root, {p.name: p.read_bytes() for p in root.iterdir()}
    shutil.rmtree(root)


def _paths(node, path=()):
    """The path to every value below a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(raw: bytes, jsonl: bool, data) -> bytes:
    if data.draw(st.booleans(), label="truncate"):
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="cut at")]
    text = raw.decode("utf-8")
    doc = [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    parent = reduce(getitem, path[:-1], doc)
    value = data.draw(st.sampled_from([DROP, None, "x", float("nan"), [[1.0]]]), label="value")
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    out = "".join(json.dumps(row) + "\n" for row in doc) if jsonl else json.dumps(doc)
    return out.encode("utf-8")


@pytest.mark.parametrize("name", sorted(FUZZ_READERS))
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mutated_artifact_exits_cleanly(fuzz_bundle, name, data):
    root, pristine = fuzz_bundle
    mutated = _mutate(pristine[name], name.endswith(".jsonl"), data)
    try:
        (root / name).write_bytes(mutated)
        rc = main([*_argv(root, FUZZ_READERS[name]), "--out", str(root)])
    finally:
        for n, raw in pristine.items():
            (root / n).write_bytes(raw)
    assert rc in (0, 1, 2)
    assert sorted(p.name for p in root.iterdir()) == sorted(pristine)
