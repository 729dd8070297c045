import argparse
import csv
import json
import math
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import edusent.cli
import edusent.neural.train
import edusent.pipeline
from edusent.cli import DEFAULT_SENSITIVITY_SENTENCES, main
from edusent.config import build_config
from edusent.features import build_vocabulary, chi2_scores
from edusent.neural import RnnDims, init_model, train_rnn
from edusent.pipeline import BUNDLE_FILES, load_bundle, load_model, save_rnn_model

from conftest import (
    blob_edit,
    edit_rnn_pair,
    flip_byte,
    header_edit,
    make_labels,
    read_examples,
    set_value,
    version_2_payload,
)

FAST_RNN = ["--rnn-epochs", "6", "--embed-dim", "8", "--hidden-dim", "8",
            "--attn-dim", "6", "--rnn-rate", "0.01", "--patience", "0",
            "--val-fraction", "0.2"]


@pytest.fixture()
def bundle_dir(tmp_path, sample_csv) -> Path:
    out = tmp_path / "bundle"
    rc = main(["prepare", "--data", str(sample_csv), "--out", str(out),
               "--k", "300", "--seed", "7"])
    assert rc == 0
    return out


@pytest.fixture()
def trained_dir(bundle_dir) -> Path:
    assert main(["train", "logreg", "--out", str(bundle_dir), "--seed", "7",
                 "--lr-epochs", "120"]) == 0
    assert main(["train", "rnn", "--out", str(bundle_dir), "--seed", "7",
                 *FAST_RNN]) == 0
    return bundle_dir


class TestPrepare:
    def test_bundle_has_six_files(self, bundle_dir):
        names = sorted(p.name for p in bundle_dir.iterdir())
        assert names == sorted(BUNDLE_FILES)

    def test_drop_report_matches_sample(self, bundle_dir):
        report = json.loads((bundle_dir / "drop_report.json").read_text())
        assert report["dropped"]["missing_comment"] == 7
        assert report["dropped"]["unparsable_rating"] == 1
        assert report["neutral_excluded"] == 4
        assert report["retained"] == 38

    def test_chi2_report_scores_are_numbers(self, bundle_dir):
        examples = read_examples(bundle_dir)
        train = [examples[i] for i in load_bundle(bundle_dir).train_ids]
        vocab = build_vocabulary([ex["tokens"] for ex in train])
        scores = chi2_scores(vocab, make_labels([ex["label"] == "Positive"
                                                 for ex in train])).score
        lines = (bundle_dir / "chi2_report.csv").read_text().splitlines()
        assert lines[0] == "term,score"
        rows = [line.split(",") for line in lines[1:]]
        assert sorted(term for term, _ in rows) == sorted(vocab.terms)
        for term, cell in rows:
            assert float(cell) == scores[vocab.term_to_index[term]]

    def test_rerun_is_byte_identical(self, bundle_dir, sample_csv, tmp_path):
        other = tmp_path / "bundle2"
        assert main(["prepare", "--data", str(sample_csv), "--out", str(other),
                     "--k", "300", "--seed", "7"]) == 0
        for name in BUNDLE_FILES:
            assert (bundle_dir / name).read_bytes() == (other / name).read_bytes()

    def test_k_caps_vocabulary(self, tmp_path, sample_csv):
        out = tmp_path / "tiny"
        assert main(["prepare", "--data", str(sample_csv), "--out", str(out),
                     "--k", "25", "--seed", "0"]) == 0
        vocab = json.loads((out / "vocab.json").read_text())
        assert len(vocab["terms"]) == 25

    def test_missing_data_is_schema_error(self, tmp_path):
        rc = main(["prepare", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_config_file_and_flag_precedence(self, tmp_path, sample_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f'data = "{sample_csv}"\nk = 50\nseed = 3\n# comment\n',
            encoding="utf-8")
        out = tmp_path / "cfgout"
        assert main(["prepare", "--config", str(cfg), "--out", str(out),
                     "--k", "30"]) == 0
        vocab = json.loads((out / "vocab.json").read_text())
        assert len(vocab["terms"]) == 30  # flag beats file

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        assert main(["prepare", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line", ["seed = abc", "k = 2.5", "rnn_epochs = 1.5",
                                      "patience = true", "fraction = half", "no_plots = 1"])
    def test_mistyped_config_value_names_file_line_and_key(self, tmp_path, sample_csv,
                                                           capsys, line):
        cfg = tmp_path / "typed.cfg"
        cfg.write_text(f"# typed values\n{line}\n", encoding="utf-8")
        rc = main(["prepare", "--config", str(cfg), "--data", str(sample_csv),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        key = line.split(" = ")[0]
        assert f"{cfg}:2: {key} takes " in capsys.readouterr().err

    def test_config_values_take_their_field_type(self, tmp_path):
        cfg = tmp_path / "typed.cfg"
        cfg.write_text("lr_learning_rate = 2\nno_plots = TRUE\nk = 40\n"
                       "column_comment = 'text'\n", encoding="utf-8")
        values = build_config(str(cfg))
        assert type(values.lr_learning_rate) is float and values.lr_learning_rate == 2.0
        assert values.no_plots is True and values.k == 40
        assert values.column_comment == "text"

    def test_numeric_text_value_is_a_path(self, tmp_path, sample_csv, capsys):
        cfg = tmp_path / "lexicon.cfg"
        cfg.write_text("stopwords = 7\n", encoding="utf-8")
        rc = main(["prepare", "--config", str(cfg), "--data", str(sample_csv),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "'7'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--data", "--stopwords", "--lemma-rules",
                                      "--sentences"])
    def test_non_utf8_input_names_the_file(self, tmp_path, sample_csv, capsys, flag):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("k = 3\ncaf\xe9\n".encode("latin-1"))
        command = (["sensitivity", "--lr-model", "m.json", "--rnn-model", "m.json"]
                   if flag == "--sentences" else ["prepare"])
        options = {"--data": str(sample_csv), "--out": str(tmp_path / "o"), flag: str(bad)}
        rc = main(command + [word for pair in options.items() for word in pair])
        assert rc == 2
        assert f"{bad} is not UTF-8 text" in capsys.readouterr().err

    def test_invalid_config_values_are_domain_errors(self, tmp_path, sample_csv, capsys):
        rc = main(["prepare", "--data", str(sample_csv),
                   "--out", str(tmp_path / "x"), "--seed", "-3"])
        assert rc == 1
        assert "seed" in capsys.readouterr().err
        rc = main(["prepare", "--data", str(sample_csv),
                   "--out", str(tmp_path / "x"), "--fraction", "1.5"])
        assert rc == 1

    def test_column_mapping_via_config(self, tmp_path):
        csv_path = tmp_path / "renamed.csv"
        csv_path.write_text(
            "text,stars\n"
            "Great class and helpful professor,4.5\n"
            "Boring lectures and unfair exams,1.0\n"
            "Wonderful course material,5.0\n"
            "Terrible confusing homework,1.5\n",
            encoding="utf-8")
        cfg = tmp_path / "map.cfg"
        cfg.write_text(
            f'data = "{csv_path}"\n'
            'column_comment = "text"\n'
            'column_student_star = "stars"\n',
            encoding="utf-8")
        out = tmp_path / "mapped"
        assert main(["prepare", "--config", str(cfg), "--out", str(out),
                     "--k", "20"]) == 0
        report = json.loads((out / "drop_report.json").read_text())
        assert report["retained"] == 4

    def test_column_mapping_via_flag(self, tmp_path):
        csv_path = tmp_path / "renamed.csv"
        csv_path.write_text(
            "body,student_star\n"
            "Nice and clear lectures,4.0\n"
            "Great professor and fair exams,4.5\n"
            "Dull and harsh grading,1.0\n"
            "Confusing boring class,1.5\n",
            encoding="utf-8")
        out = tmp_path / "flagged"
        assert main(["prepare", "--data", str(csv_path), "--out", str(out),
                     "--column-comment", "body", "--k", "10"]) == 0


class TestTrain:
    def test_logreg_log_non_increasing(self, trained_dir):
        lines = (trained_dir / "train_log_logreg.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        losses = [float(row.split(",")[1]) for row in lines[1:]]
        assert all(a >= b - 1e-9 for a, b in zip(losses, losses[1:]))

    def test_rnn_deterministic_model_files(self, bundle_dir, tmp_path):
        assert main(["train", "rnn", "--out", str(bundle_dir), "--seed", "5",
                     *FAST_RNN]) == 0
        first = (bundle_dir / "model_rnn.json").read_bytes()
        assert main(["train", "rnn", "--out", str(bundle_dir), "--seed", "5",
                     *FAST_RNN]) == 0
        assert (bundle_dir / "model_rnn.json").read_bytes() == first

    def test_missing_bundle_exit_code_and_message(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        rc = main(["train", "logreg", "--out", str(missing)])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_resume_with_wrong_vocab_hash(self, trained_dir, tmp_path, sample_csv):
        other = tmp_path / "other_bundle"
        assert main(["prepare", "--data", str(sample_csv), "--out", str(other),
                     "--k", "20", "--seed", "1"]) == 0
        rc = main(["train", "logreg", "--out", str(other),
                   "--resume", str(trained_dir / "model_logreg.json")])
        assert rc == 2

    def test_resume_logreg(self, trained_dir):
        rc = main(["train", "logreg", "--out", str(trained_dir), "--seed", "7",
                   "--lr-epochs", "10",
                   "--resume", str(trained_dir / "model_logreg.json")])
        assert rc == 0

    def test_resume_rnn_from_version_3_file(self, trained_dir, tmp_path):
        start = tmp_path / "start.json"
        shutil.copyfile(trained_dir / "model_rnn.json", start)
        shutil.copyfile(trained_dir / "model_rnn.f64", tmp_path / "start.f64")
        assert json.loads(start.read_text())["version"] == 3
        _, model, _ = load_model(start)
        for name, p in model.params.items():
            assert p.dtype == np.float64, name
            assert p.flags.owndata and p.flags.writeable and p.flags.c_contiguous, name
        resumed = []
        for _ in range(2):
            assert main(["train", "rnn", "--out", str(trained_dir), "--seed", "7",
                         "--rnn-epochs", "2", "--patience", "0",
                         "--resume", str(start)]) == 0
            resumed.append((trained_dir / "model_rnn.json").read_bytes())
        assert resumed[0] == resumed[1]
        assert resumed[0] != start.read_bytes()

    def test_resume_rnn_encodes_to_the_saved_max_len(self, bundle_dir, monkeypatch):
        assert main(["train", "rnn", "--out", str(bundle_dir), "--seed", "7",
                     *FAST_RNN, "--rnn-epochs", "1", "--max-len", "3"]) == 0
        seen = []

        def spy(train_ds, val_ds, ncfg, dims, initial=None):
            seen.append((dims.max_len, [len(s) for s in train_ds.sequences + val_ds.sequences]))
            return train_rnn(train_ds, val_ds, ncfg, dims, initial=initial)

        monkeypatch.setattr(edusent.cli, "train_rnn", spy)
        assert main(["train", "rnn", "--out", str(bundle_dir), "--seed", "7", "--rnn-epochs",
                     "1", "--resume", str(bundle_dir / "model_rnn.json")]) == 0
        [(max_len, lengths)] = seen
        assert max_len == 3 and max(lengths) == 3  # not the default max_len of 128

    def test_resume_rnn_refuses_other_dims(self, bundle_dir, capsys):
        assert main(["train", "rnn", "--out", str(bundle_dir), "--seed", "7",
                     *FAST_RNN, "--rnn-epochs", "1", "--max-len", "5"]) == 0
        model = bundle_dir / "model_rnn.json"
        saved = model.read_bytes()
        resume = ["train", "rnn", "--out", str(bundle_dir), "--seed", "7",
                  "--rnn-epochs", "1", "--resume", str(model)]
        capsys.readouterr()
        for flag, given, want in (("--embed-dim", "9", "8"), ("--hidden-dim", "7", "8"),
                                  ("--attn-dim", "8", "6"), ("--max-len", "128", "5")):
            assert main(resume + [flag, given]) == 1
            err = capsys.readouterr().err
            assert f"{flag} {given} differs from the {want} of" in err, err
            assert model.read_bytes() == saved
        assert main(resume + ["--embed-dim", "8", "--hidden-dim", "8", "--attn-dim", "6",
                              "--max-len", "5"]) == 0

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("kind, key, flag", [
        ("logreg", "lr_learning_rate", "--lr-rate"),
        ("logreg", "lr_l2", "--lr-l2"),
        ("rnn", "rnn_learning_rate", "--rnn-rate"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_rate_is_domain_error(self, bundle_dir, capsys, value, kind, key,
                                             flag, source):
        if source == "flag":
            given = [f"{flag}={value}"]
        else:
            config = bundle_dir / "rates.cfg"
            config.write_text(f"{key} = {value}\n")
            given = ["--config", str(config)]
        rc = main(["train", kind, "--out", str(bundle_dir), "--lr-epochs", "5",
                   "--rnn-epochs", "1", "--embed-dim", "4", "--hidden-dim", "4",
                   "--attn-dim", "4", *given])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (bundle_dir / f"model_{kind}.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_l2_is_domain_error(self, bundle_dir, capsys, source):
        if source == "flag":
            given = ["--lr-l2=-1"]
        else:
            config = bundle_dir / "l2.cfg"
            config.write_text("lr_l2 = -1\n")
            given = ["--config", str(config)]
        rc = main(["train", "logreg", "--out", str(bundle_dir), "--lr-epochs", "5", *given])
        assert rc == 1
        assert "error: lr_l2 must be >= 0" in capsys.readouterr().err
        assert not (bundle_dir / "model_logreg.json").exists()

    def test_unallocatable_model_is_domain_error(self, bundle_dir, capsys, monkeypatch):
        # stands in for a huge --embed-dim: a real one may be granted as
        # untouched virtual memory and exhaust the host once written
        def unallocatable(dims, seed):
            raise MemoryError("Unable to allocate 77.9 TiB for an array")

        monkeypatch.setattr(edusent.neural.train, "init_model", unallocatable)
        rc = main(["train", "rnn", "--out", str(bundle_dir), *FAST_RNN])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "77.9 TiB" in err and "Traceback" not in err
        assert not (bundle_dir / "model_rnn.json").exists()

    @pytest.mark.parametrize("flag, field", [("--embed-dim", "embed_dim"),
                                             ("--hidden-dim", "hidden"),
                                             ("--attn-dim", "attn_dim")])
    def test_impossible_model_dimension_is_domain_error(self, bundle_dir, capsys,
                                                        flag, field):
        # no array this large can exist, so the check allocates nothing
        rc = main(["train", "rnn", "--out", str(bundle_dir), flag, "100000000000000000000"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {field} 100000000000000000000 is too large")
        assert "Traceback" not in err
        assert not (bundle_dir / "model_rnn.json").exists()

    def test_tiny_validation_carve_out_falls_back(self, bundle_dir, capsys):
        # 10% of 30 training examples is 3 rows: too small to steer early
        # stopping, so training must validate on the training split instead
        assert main(["train", "rnn", "--out", str(bundle_dir), "--seed", "7",
                     *FAST_RNN[:-2], "--val-fraction", "0.1"]) == 0
        assert "validating on the training split" in capsys.readouterr().out

    def test_large_enough_validation_is_kept(self, bundle_dir, capsys):
        assert main(["train", "rnn", "--out", str(bundle_dir), "--seed", "7",
                     *FAST_RNN[:-2], "--val-fraction", "0.4"]) == 0
        assert "validating on the training split" not in capsys.readouterr().out


class TestEvaluate:
    def test_reports_and_plots(self, trained_dir):
        assert main(["evaluate", "--out", str(trained_dir),
                     "--model", str(trained_dir / "model_logreg.json")]) == 0
        report = json.loads((trained_dir / "eval_logreg.json").read_text())
        assert set(report) >= {"confusion", "metrics", "roc", "auc"}
        assert report["metrics"]["accuracy"] >= 0.7
        for svg in ("roc_logreg.svg", "confusion_logreg.svg"):
            ET.fromstring((trained_dir / svg).read_text())  # valid XML

    def test_rnn_evaluation_runs(self, trained_dir):
        assert main(["evaluate", "--out", str(trained_dir),
                     "--model", str(trained_dir / "model_rnn.json")]) == 0
        report = json.loads((trained_dir / "eval_rnn.json").read_text())
        assert 0.0 <= report["auc"] <= 1.0

    def test_no_plots_flag(self, trained_dir):
        for leftover in trained_dir.glob("*.svg"):
            leftover.unlink()
        assert main(["evaluate", "--out", str(trained_dir), "--no-plots",
                     "--model", str(trained_dir / "model_logreg.json")]) == 0
        assert not list(trained_dir.glob("*.svg"))

    def test_vocab_hash_mismatch(self, trained_dir):
        vocab_path = trained_dir / "vocab.json"
        payload = json.loads(vocab_path.read_text())
        payload["n_docs"] += 1
        vocab_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        rc = main(["evaluate", "--out", str(trained_dir),
                   "--model", str(trained_dir / "model_logreg.json")])
        assert rc == 2

    def test_empty_test_split_is_domain_error(self, tmp_path, sample_csv, capsys):
        out = tmp_path / "full"
        assert main(["prepare", "--data", str(sample_csv), "--out", str(out),
                     "--fraction", "0.99", "--seed", "0", "--k", "50"]) == 0
        assert main(["train", "logreg", "--out", str(out), "--lr-epochs", "5"]) == 0
        rc = main(["evaluate", "--out", str(out),
                   "--model", str(out / "model_logreg.json")])
        assert rc == 1
        assert "empty evaluation set" in capsys.readouterr().err


class TestPredict:
    def test_json_output(self, trained_dir, capsys):
        rc = main(["predict", "--out", str(trained_dir),
                   "--model", str(trained_dir / "model_logreg.json"),
                   "The lecture was engaging and informative."])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] in ("Positive", "Negative")
        assert 0.0 < payload["p_positive"] < 1.0
        assert payload["flags"] == []

    def test_low_signal_input_flagged(self, trained_dir, capsys):
        # flagged exactly when no token of the text is in the vocabulary
        texts = {"": True, "Zorbly quaxed the fnords.": True,
                 "The lecture was engaging and informative.": False}
        for kind in ("logreg", "rnn"):
            for text, low_signal in texts.items():
                rc = main(["predict", "--out", str(trained_dir),
                           "--model", str(trained_dir / f"model_{kind}.json"), text])
                assert rc == 0
                flags = json.loads(capsys.readouterr().out)["flags"]
                assert flags == (["low-signal input"] if low_signal else []), (kind, text)

    def test_repeated_invocations_identical(self, trained_dir, capsys):
        argv = ["predict", "--out", str(trained_dir),
                "--model", str(trained_dir / "model_rnn.json"),
                "Boring class and unfair exams."]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


def _untrained_rnn_file(bundle_dir) -> Path:
    bundle = load_bundle(bundle_dir)
    dims = RnnDims(vocab_size=len(bundle.tfidf.vocab), embed_dim=4, hidden=3, attn_dim=3)
    path = bundle_dir / "model_rnn.json"
    save_rnn_model(init_model(dims, seed=0), path, bundle.vocab_ref)
    return path


def _huge_vocab(header):
    # dims that no allocation could hold must be caught by the size check
    header["dims"]["vocab_size"] = 2**62


def _version_2(edit):
    """Rewrite the model as a version-2 file, its tensors then changed by `edit`."""
    def apply(path: Path) -> None:
        payload = version_2_payload(path)
        edit(payload)
        path.write_text(json.dumps(payload))
    return apply


def _pair(edit):
    return lambda path: edit_rnn_pair(path, edit)


class TestMalformedRnnModel:
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("corrupt", [
        _pair(lambda header, blob: None),
        _pair(blob_edit(lambda raw: raw[:-8], rehash=True)),
        _pair(blob_edit(lambda raw: raw[:-1])),
        _pair(blob_edit(lambda raw: raw + b"\0")),
        _pair(blob_edit(flip_byte)),
        _pair(header_edit(lambda p: p["dims"].pop("hidden"))),
        _pair(blob_edit(set_value(-2, math.nan), rehash=True)),
        _pair(blob_edit(set_value(-2, math.inf), rehash=True)),
        _pair(header_edit(lambda p: p.pop("sha256"))),
        _pair(header_edit(lambda p: p.__setitem__("sha256", "z" * 64))),
        _pair(header_edit(lambda p: p["dims"].__setitem__("attn_dim", 6))),
        _pair(header_edit(_huge_vocab)),
        # version-2 files, refused from the header whatever their tensors hold
        _version_2(lambda p: None),
        _version_2(lambda p: p["tensors"]["out.w"].__setitem__(1, "****")),
        _version_2(lambda p: p["tensors"]["out.w"].__setitem__(1, [0.0] * 6)),
    ], ids=["missing-tensors", "missing-tensor", "truncated-bytes", "extra-byte",
            "flipped-byte", "missing-hidden", "nan-weight", "inf-weight", "missing-sha256",
            "non-hex-sha256", "wrong-shape", "huge-vocab", "version-2", "bad-base64",
            "non-string-data"])
    def test_exit_2_without_traceback(self, bundle_dir, capsys, command, corrupt):
        path = _untrained_rnn_file(bundle_dir)
        corrupt(path)
        argv = ["predict", "The lecture was engaging."] if command == "predict" else ["evaluate"]
        rc = main([*argv, "--out", str(bundle_dir), "--model", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and str(path) in err

    def test_undecodable_file(self, bundle_dir, capsys):
        path = bundle_dir / "model_rnn.json"
        path.write_bytes(b"\xff\xfe{")
        rc = main(["predict", "--out", str(bundle_dir), "--model", str(path), "Good."])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_intact_file_predicts(self, bundle_dir, capsys):
        path = _untrained_rnn_file(bundle_dir)
        assert main(["predict", "--out", str(bundle_dir), "--model", str(path), "Good."]) == 0
        assert json.loads(capsys.readouterr().out)["p_positive"] == 0.5


class TestSensitivity:
    def test_each_model_parsed_and_hashed_once(self, trained_dir, monkeypatch):
        """Each model file is parsed once, and the vocab.json both models
        sit beside is parsed and hashed once."""
        calls = {}
        # each name is patched where its caller looks it up
        for module, name in ((edusent.pipeline, "read_json"), (edusent.cli, "file_sha256")):
            real = getattr(module, name)

            def counted(path, _real=real, _name=name, **kwargs):
                key = (_name, Path(path).name)
                calls[key] = calls.get(key, 0) + 1
                return _real(path, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert main(["sensitivity", "--out", str(trained_dir), "--no-plots",
                     "--lr-model", str(trained_dir / "model_logreg.json"),
                     "--rnn-model", str(trained_dir / "model_rnn.json")]) == 0
        assert calls == {("read_json", "model_logreg.json"): 1,
                         ("read_json", "model_rnn.json"): 1,
                         ("read_json", "vocab.json"): 1, ("file_sha256", "vocab.json"): 1}

    def test_values_are_predict_values(self, trained_dir, tmp_path, capsys):
        # the bundle's comments have mixed lengths, so a batched RNN score
        # can differ from a one-row score in the last bits
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("".join(" ".join(ex["raw"].split()) + "\n"
                                     for ex in read_examples(trained_dir)))
        assert main(["sensitivity", "--out", str(tmp_path), "--no-plots",
                     "--sentences", str(sentences),
                     "--lr-model", str(trained_dir / "model_logreg.json"),
                     "--rnn-model", str(trained_dir / "model_rnn.json")]) == 0
        capsys.readouterr()
        with open(tmp_path / "sensitivity.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) > 20
        for _, sentence, *cells in rows:
            for kind, cell in zip(("logreg", "rnn"), cells, strict=True):
                assert main(["predict", "--out", str(trained_dir),
                             "--model", str(trained_dir / f"model_{kind}.json"),
                             sentence]) == 0
                p = json.loads(capsys.readouterr().out)["p_positive"]
                assert p == float(cell), (kind, sentence)

    def test_default_eight_rows(self, trained_dir, capsys):
        rc = main(["sensitivity", "--out", str(trained_dir),
                   "--lr-model", str(trained_dir / "model_logreg.json"),
                   "--rnn-model", str(trained_dir / "model_rnn.json")])
        assert rc == 0
        lines = (trained_dir / "sensitivity.csv").read_text().splitlines()
        assert lines[0] == "sentence_id,text,lr_prob_positive,rnn_prob_positive"
        assert len(lines) == 1 + len(DEFAULT_SENSITIVITY_SENTENCES)
        ET.fromstring((trained_dir / "sensitivity.svg").read_text())
        for row in lines[1:]:
            parts = row.rsplit(",", 2)
            assert 0.0 < float(parts[1]) < 1.0
            assert 0.0 < float(parts[2]) < 1.0

    def test_custom_sentence_file(self, trained_dir, tmp_path):
        sentences = tmp_path / "one.txt"
        sentences.write_text("Great professor and fair exams.\n")
        rc = main(["sensitivity", "--out", str(trained_dir),
                   "--sentences", str(sentences),
                   "--lr-model", str(trained_dir / "model_logreg.json"),
                   "--rnn-model", str(trained_dir / "model_rnn.json")])
        assert rc == 0
        lines = (trained_dir / "sensitivity.csv").read_text().splitlines()
        assert len(lines) == 2


class TestCompare:
    def test_delta_table(self, trained_dir, capsys):
        for kind in ("logreg", "rnn"):
            assert main(["evaluate", "--out", str(trained_dir), "--no-plots",
                         "--model", str(trained_dir / f"model_{kind}.json")]) == 0
        capsys.readouterr()
        rc = main(["compare", str(trained_dir / "eval_logreg.json"),
                   str(trained_dir / "eval_rnn.json")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,report_a,report_b,delta"
        assert len(lines) == 6
        assert lines[-1].startswith("auc,")


def test_main_turns_off_numpy_huge_pages(tmp_path):
    # a command's peak RSS must not depend on whether the host grants them
    edusent.cli._set_madvise_hugepage(True)
    assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert edusent.cli._set_madvise_hugepage(False) is False


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    argv = ["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    assert main(argv) == main(argv) == 2
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    # the command is looked up when main runs, so a patched one is called
    monkeypatch.setattr(edusent.cli, "cmd_compare", lambda cfg, args: 7)
    assert main(argv) == 7


@pytest.mark.parametrize("command", [[], ["prepare"], ["train"], ["evaluate"], ["predict"],
                                     ["sensitivity"], ["compare"]])
def test_help_is_a_fresh_parsers_help(command, capsys):
    outputs = []
    for parse in (edusent.cli.build_parser.__wrapped__().parse_args, main, main):
        with pytest.raises(SystemExit) as done:
            parse(command + ["--help"])
        assert done.value.code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
