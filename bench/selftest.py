"""Self-test of the benchmark's correctness checks.

Run from the repository root (takes a few seconds):

    python3 bench/selftest.py

It runs a tiny traced workload through the same child and checks as
`run.py`, requires every check to pass on it and the printed metric names
to match BENCHMARK.json, then corrupts one output at a time and requires
the check that guards it to fail. Exits 1 on any miss.
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from corpus import CorpusSpec  # noqa: E402
from run import Workload, end_to_end, execute, verify  # noqa: E402
from tracer import layer_metrics  # noqa: E402

TINY = Workload(
    spec=CorpusSpec(labelled_rows=400, positive_share=0.7, neutral_rows=12,
                    malformed={"missing_comment": 2, "missing_rating": 1,
                               "unparsable_rating": 2, "out_of_range_rating": 2},
                    filler_vocab=1500, median_tokens=10.0, length_sigma=0.5,
                    max_tokens=60, cue_share=0.9, extra_cue_every=0),
    k=300, rnn_dims=(8, 8, 8), rnn_epochs=6,
    front=("prepare", "train_logreg", "train_rnn"),
    cycle=("evaluate_logreg", "evaluate_rnn", ("predict", 14), "sensitivity"))


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _edit_csv(path: Path, edit) -> None:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _first_call(result: dict, stage: str) -> list:
    return next(c for c in result["calls"] if c[0] == stage)


def _bump_predict(result: dict) -> None:
    call = _first_call(result, "predict_logreg")
    out = json.loads(call[4])
    out["p_positive"] = out["p_positive"] * (1 + 1e-9)
    call[4] = json.dumps(out)


def _rise(rows: list) -> None:
    rows[-1][1] = repr(float(rows[-2][1]) + 1e-6)


#: (check expected to fail, corruption of (bundle dir, result))
CORRUPTIONS = [
    ("drop_report", lambda b, r: _edit_json(
        b / "drop_report.json", lambda d: d.update(neutral_excluded=d["neutral_excluded"] + 1))),
    ("split", lambda b, r: _edit_json(b / "split.json", lambda d: d["test_ids"].pop())),
    ("vocab", lambda b, r: _edit_json(
        b / "vocab.json", lambda d: d["idf"].__setitem__(3, d["idf"][3] * (1 + 1e-9)))),
    ("chi2", lambda b, r: _edit_csv(
        b / "chi2_report.csv", lambda rows: rows[1].__setitem__(1, "1e9"))),
    ("chi2", lambda b, r: _edit_csv(
        b / "chi2_report.csv", lambda rows: rows[7].__setitem__(1, "twelve"))),
    ("logreg_log", lambda b, r: _edit_csv(b / "train_log_logreg.csv", _rise)),
    ("logreg_log", lambda b, r: _edit_csv(
        b / "train_log_logreg.csv", lambda rows: rows[2].__setitem__(1, "n/a"))),
    ("rnn_log", lambda b, r: _edit_csv(b / "train_log_rnn.csv", lambda rows: rows.pop())),
    ("logreg_scores", lambda b, r: _edit_json(
        b / "eval_logreg.json", lambda d: d.update(auc=d["auc"] + 1e-9))),
    ("logreg_scores", lambda b, r: _edit_json(
        b / "eval_logreg.json", lambda d: d["confusion"].update(tp=d["confusion"]["tp"] + 1))),
    ("rnn_report", lambda b, r: _edit_json(
        b / "eval_rnn.json", lambda d: d.update(auc=d["auc"] - 1e-9))),
    ("rnn_report", lambda b, r: _edit_json(
        b / "eval_rnn.json", lambda d: d["roc"].reverse())),
    ("rnn_report", lambda b, r: (b / "eval_rnn.json").unlink()),
    ("auc_floor", lambda b, r: _edit_json(b / "eval_rnn.json", lambda d: d.update(auc=0.5))),
    ("predict", lambda b, r: _bump_predict(r)),
    ("predict", lambda b, r: _edit_csv(
        b / "sensitivity.csv", lambda rows: rows[1].__setitem__(2, "0.123"))),
    ("bundle", lambda b, r: (b / "examples.jsonl").write_text("{", encoding="utf-8")),
    ("exit_codes", lambda b, r: _first_call(r, "evaluate_rnn").__setitem__(3, 1)),
    ("trace_self_time", lambda b, r: r["trace"]["spans"].append(
        ["prepare", "ingest.parse_csv", 1, 1e6, 1e6])),
]


def main() -> int:
    root = Path.cwd()
    work, result = execute(TINY, "selftest", seed=3, seconds=0, trace=True, root=root)
    misses = []
    failures = verify(TINY, work, result)
    misses += [f"clean run: check {name} failed: {msgs}"
               for name, msgs in failures.items() if msgs]

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    predicts = sum(1 for c in result["calls"] if c[0].startswith("predict_"))
    for key, got in (("end_to_end", end_to_end(result["calls"], result["maxrss_kb"])),
                     ("per_layer", layer_metrics(result["trace"], predicts))):
        want = {m["name"]: m["unit"] for m in spec[key]}
        if {name: m["unit"] for name, m in got.items()} != want:
            misses.append(f"{key} metrics differ from BENCHMARK.json")

    clean = work / "bundle"
    for name, corrupt in CORRUPTIONS:
        bundle = work / "corrupt" / "bundle"
        shutil.rmtree(bundle.parent, ignore_errors=True)
        shutil.copytree(clean, bundle)
        bad = copy.deepcopy(result)
        corrupt(bundle, bad)
        if not verify(TINY, bundle.parent, bad).get(name):
            misses.append(f"corruption aimed at {name} went unnoticed")
    shutil.rmtree(work / "corrupt", ignore_errors=True)

    for miss in misses:
        print(f"FAIL {miss}")
    print(f"{len(CORRUPTIONS)} corruptions, {len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
