"""Correctness checks on one workload run, computed apart from the program.

Nothing here imports edusent: each check re-derives what an output must be
from the corpus spec, the bundle's examples and the saved model, using
numpy and the standard library. `run_checks` returns {check name: [failure
messages]}; a run is correct when every list is empty. A check that raises
(an output missing or not in the documented form) fails with the exception
as its message.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from corpus import NEGATIVE_CUES, POSITIVE_CUES

TOL = 1e-12
CHI2_SAMPLE = 200  # chi2 report rows recomputed per run, besides the top 20


def _read_csv(path: Path) -> list:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _mann_whitney_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Rank AUC with average ranks for tied scores."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class RunView:
    """The bundle and run outputs, loaded once for every check."""

    def __init__(self, workload, bundle: Path, result: dict):
        self.w = workload
        self.bundle = bundle
        self.result = result
        self.examples = [json.loads(line) for line in
                         (bundle / "examples.jsonl").read_text(encoding="utf-8").splitlines()]
        self.split = json.loads((bundle / "split.json").read_text(encoding="utf-8"))
        self.vocab = json.loads((bundle / "vocab.json").read_text(encoding="utf-8"))
        self.train_ids = list(self.split["train_ids"])
        self.test_ids = list(self.split["test_ids"])
        self.train_positive = [self.examples[i]["label"] == "Positive" for i in self.train_ids]
        model = json.loads((bundle / "model_logreg.json").read_text(encoding="utf-8"))
        self.weights = np.array(model["weights"], dtype=np.float64)
        self.bias = float(model["bias"])
        self.term_index = {t: i for i, t in enumerate(self.vocab["terms"])}
        self.idf = np.array(self.vocab["idf"], dtype=np.float64)

    def eval_report(self, kind: str) -> dict:
        return json.loads((self.bundle / f"eval_{kind}.json").read_text(encoding="utf-8"))

    def logreg_score(self, tokens: list) -> float:
        """sigma(w . tfidf(tokens) + b), in the documented order of operations:
        counts x idf over sorted term indices, L2 norm, then the dot product."""
        counts = Counter(t for t in tokens if t in self.term_index)
        pairs = sorted((self.term_index[t], c * self.idf[self.term_index[t]])
                       for t, c in counts.items())
        z = self.bias
        if pairs:
            norm = np.sqrt(sum(v * v for _, v in pairs))
            for i, v in pairs:
                z += self.weights[i] * (v / norm)
        z = np.asarray([z], dtype=np.float64)
        if z[0] >= 0:
            return float((1.0 / (1.0 + np.exp(-z)))[0])
        ez = np.exp(z)
        return float((ez / (1.0 + ez))[0])


def check_drop_report(v: RunView) -> list:
    got = json.loads((v.bundle / "drop_report.json").read_text(encoding="utf-8"))
    want = v.w.spec.expected_drop_report()
    return [f"{key}: got {got.get(key)!r}, planted {value!r}"
            for key, value in want.items() if got.get(key) != value]


def check_split(v: RunView) -> list:
    fails = []
    n = len(v.examples)
    labelled = v.w.spec.labelled_rows
    if n != labelled:
        fails.append(f"{n} examples, planted {labelled} labelled rows")
    train, test = v.train_ids, v.test_ids
    want_train = math.floor(0.8 * n + 0.5)
    if v.split.get("fraction") != 0.8 or len(train) != want_train:
        fails.append(f"|train| = {len(train)}, want floor(0.8*{n} + 0.5) = {want_train}")
    if len(set(train)) != len(train) or len(set(test)) != len(test):
        fails.append("duplicate ids in a split")
    if set(train) & set(test):
        fails.append("train and test overlap")
    if set(train) | set(test) != set(range(n)) or len(train) + len(test) != n:
        fails.append("train and test do not cover every example exactly once")
    if [ex["id"] for ex in v.examples] != list(range(n)):
        fails.append("examples.jsonl ids are not 0..n-1 in order")
    return fails


def _train_doc_freqs(v: RunView) -> tuple:
    df_pos, df_neg = Counter(), Counter()
    for i, positive in zip(v.train_ids, v.train_positive):
        (df_pos if positive else df_neg).update(set(v.examples[i]["tokens"]))
    return df_pos, df_neg


def check_vocab(v: RunView, df_pos: Counter, df_neg: Counter) -> list:
    fails = []
    voc = v.vocab
    n_train = len(v.train_ids)
    candidates = set(df_pos) | set(df_neg)
    if voc["n_docs"] != n_train:
        fails.append(f"n_docs {voc['n_docs']} != |train| {n_train}")
    if len(voc["terms"]) != min(v.w.k, len(candidates)):
        fails.append(f"|vocab| {len(voc['terms'])}, want min(k = {v.w.k}, "
                     f"{len(candidates)} candidate terms)")
    bad_df = bad_idf = 0
    for term, df, idf in zip(voc["terms"], voc["df"], voc["idf"]):
        true_df = df_pos[term] + df_neg[term]
        bad_df += df != true_df
        want = math.log((1.0 + n_train) / (1.0 + true_df)) + 1.0
        bad_idf += abs(idf - want) > TOL * want
    if bad_df or bad_idf:
        fails.append(f"{bad_df} df and {bad_idf} idf values disagree with the train tokens")
    return fails


def _chi2_score(cell: str):
    """The score in a chi2_report.csv cell, or None if it is not a number.
    The program writes scores with repr() of a numpy scalar, which numpy 2
    renders as "np.float64(x)"; the number inside is what is checked."""
    try:
        return float(cell.removeprefix("np.float64(").removesuffix(")"))
    except ValueError:
        return None


def check_chi2(v: RunView, df_pos: Counter, df_neg: Counter) -> list:
    rows = _read_csv(v.bundle / "chi2_report.csv")
    if rows[0] != ["term", "score"]:
        return [f"bad header {rows[0]}"]
    report, fails = [], []
    for term, score in rows[1:]:
        value = _chi2_score(score)
        if value is None:
            fails.append(f"chi2({term}) = {score!r} is not a number")
        else:
            report.append((term, value))
    if fails:
        return fails[:5]
    if len(report) != len(set(df_pos) | set(df_neg)):
        fails.append(f"{len(report)} rows, want one per candidate term")
    if report != sorted(report, key=lambda ts: (-ts[1], ts[0])):
        fails.append("rows are not in (score desc, term asc) order")
    if [t for t, _ in report[: v.w.k]] != v.vocab["terms"]:
        fails.append("vocab.json terms are not the report's top k")
    n_pos = sum(v.train_positive)
    n_neg = len(v.train_positive) - n_pos
    rng = np.random.default_rng(len(report))
    sample = set(range(min(20, len(report))))
    sample |= set(rng.choice(len(report), size=min(CHI2_SAMPLE, len(report)), replace=False))
    for j in sorted(sample):
        term, score = report[j]
        a, b = df_pos[term], df_neg[term]
        c, d = n_pos - a, n_neg - b
        denom = (a + b) * (c + d) * (a + c) * (b + d)
        want = (a + b + c + d) * (a * d - b * c) ** 2 / denom if denom else 0.0
        if abs(score - want) > 1e-9 * max(1.0, want):
            fails.append(f"chi2({term}) = {score!r}, 2x2 table gives {want!r}")
    return fails


def check_logreg_log(v: RunView) -> list:
    rows = _read_csv(v.bundle / "train_log_logreg.csv")
    losses = [float(loss) for _, loss in rows[1:]]
    fails = []
    if abs(losses[0] - math.log(2.0)) > TOL:
        fails.append(f"first loss {losses[0]!r} != ln 2 (weights start at zero)")
    rises = [e for e in range(1, len(losses)) if losses[e] > losses[e - 1]]
    if rises:
        fails.append(f"loss increases at epochs {rises[:5]}")
    return fails


def check_rnn_log(v: RunView) -> list:
    rows = _read_csv(v.bundle / "train_log_rnn.csv")[1:]
    fails = []
    if [int(r[0]) for r in rows] != list(range(v.w.rnn_epochs + 1)):
        fails.append(f"epochs logged {[r[0] for r in rows]}, want 0..{v.w.rnn_epochs}")
    values = [float(r[1]) for r in rows] + [float(r[2]) for r in rows[1:]]
    if not all(math.isfinite(x) for x in values):
        fails.append("a loss or val F1 is not finite")
    return fails


def check_logreg_scores(v: RunView) -> list:
    report = v.eval_report("logreg")
    scores = np.array([v.logreg_score(v.examples[i]["tokens"]) for i in v.test_ids])
    positive = np.array([v.examples[i]["label"] == "Positive" for i in v.test_ids])
    fails = []
    auc = _mann_whitney_auc(scores, positive)
    if abs(auc - report["auc"]) > TOL:
        fails.append(f"report auc {report['auc']!r}, rank AUC of recomputed scores {auc!r}")
    pred = scores >= 0.5
    want = {"tp": int(np.sum(pred & positive)), "fp": int(np.sum(pred & ~positive)),
            "fn": int(np.sum(~pred & positive)), "tn": int(np.sum(~pred & ~positive))}
    if report["confusion"] != want:
        fails.append(f"confusion {report['confusion']}, recomputed {want}")
    return fails


def check_rnn_report(v: RunView) -> list:
    report = v.eval_report("rnn")
    roc = report["roc"]
    fails = []
    trapezoid = sum((x2 - x1) * (y1 + y2) / 2.0 for (x1, y1), (x2, y2) in zip(roc, roc[1:]))
    if abs(trapezoid - report["auc"]) > TOL:
        fails.append(f"auc {report['auc']!r} != trapezoid sum {trapezoid!r}")
    if roc[0] != [0.0, 0.0] or roc[-1] != [1.0, 1.0]:
        fails.append(f"ROC runs from {roc[0]} to {roc[-1]}, not (0,0) to (1,1)")
    if any(x2 < x1 or y2 < y1 for (x1, y1), (x2, y2) in zip(roc, roc[1:])):
        fails.append("ROC is not monotone")
    if sum(report["confusion"].values()) != len(v.test_ids):
        fails.append(f"confusion sums to {sum(report['confusion'].values())}, "
                     f"|test| = {len(v.test_ids)}")
    return fails


def cue_oracle_auc(v: RunView) -> float:
    """AUC of (#positive cues - #negative cues) in the raw test comments."""
    pos, neg = set(POSITIVE_CUES), set(NEGATIVE_CUES)
    scores, positive = [], []
    for i in v.test_ids:
        words = v.examples[i]["raw"].split()
        scores.append(sum(w in pos for w in words) - sum(w in neg for w in words))
        positive.append(v.examples[i]["label"] == "Positive")
    return _mann_whitney_auc(np.array(scores, dtype=np.float64), np.array(positive))


def check_auc_floor(v: RunView) -> list:
    # a model must recover at least half of the planted cues' margin over chance
    floor = 0.5 + 0.5 * (cue_oracle_auc(v) - 0.5)
    return [f"{kind} auc {v.eval_report(kind)['auc']:.4f} below floor {floor:.4f}"
            for kind in ("logreg", "rnn") if v.eval_report(kind)["auc"] < floor]


def check_predict(v: RunView) -> list:
    fails = []
    sens = {row[1]: (float(row[2]), float(row[3]))
            for row in _read_csv(v.bundle / "sensitivity.csv")[1:]}
    by_text = {v.examples[i]["raw"]: i for i in v.result["predict_ids"] if i is not None}
    compared = 0
    for stage, text, _took, code, stdout in v.result["calls"]:
        if not stage.startswith("predict_") or code != 0:
            continue
        out = json.loads(stdout)
        p = out["p_positive"]
        if out["label"] != ("Positive" if p >= 0.5 else "Negative"):
            fails.append(f"label {out['label']} for p = {p!r}")
        kind = stage[len("predict_"):]
        if text in sens:
            want = sens[text][0 if kind == "logreg" else 1]
            compared += 1
            if p != want:
                fails.append(f"{kind} predict {p!r} != sensitivity {want!r} for {text!r}")
        elif kind == "logreg":
            want = v.logreg_score(v.examples[by_text[text]]["tokens"])
            compared += 1
            if abs(p - want) > TOL:
                fails.append(f"logreg predict {p!r} != recomputed {want!r}")
    if compared == 0:
        fails.append("no predict output was compared")
    return fails


CHECKS = {
    "drop_report": check_drop_report,
    "split": check_split,
    "vocab": check_vocab,
    "chi2": check_chi2,
    "logreg_log": check_logreg_log,
    "rnn_log": check_rnn_log,
    "logreg_scores": check_logreg_scores,
    "rnn_report": check_rnn_report,
    "auc_floor": check_auc_floor,
    "predict": check_predict,
}
_NEEDS_DOC_FREQS = {"vocab", "chi2"}


def run_checks(workload, bundle: Path, result: dict) -> dict:
    """{check name: failures}. An output that cannot be read or parsed fails
    the check that reads it, with the exception as its message."""
    try:
        v = RunView(workload, bundle, result)
        doc_freqs = _train_doc_freqs(v)
    except Exception as exc:  # noqa: BLE001 - any unreadable output is a failure
        return {"bundle": [f"cannot read the bundle: {type(exc).__name__}: {exc}"]}
    failures = {}
    for name, check in CHECKS.items():
        try:
            failures[name] = check(v, *doc_freqs) if name in _NEEDS_DOC_FREQS else check(v)
        except Exception as exc:  # noqa: BLE001
            failures[name] = [f"{type(exc).__name__}: {exc}"]
    return failures
