"""Benchmark of the edusent pipeline on seeded synthetic corpora.

Run from the repository root:

    python3 bench/run.py --workload lr-imbalanced --seed 1 --seconds 50 --trace 0

One run generates (or reuses) the workload's corpus for the seed, then
starts one fresh child interpreter (`child.py`) that drives the real CLI
in-process: prepare and train both models once, then cycles that repeat
prepare, train, evaluate (both models), predict rounds (both models) and
sensitivity, interleaved. The outputs are then checked against computations
made here, apart from the program (`checks.py`). The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.

`--seconds` is the measured window of the child, from its first command:
a new cycle starts only while it is expected to end within the window, and
at least the workload's `min_cycles` run, even past the window. A run
takes a few seconds more than the child (interpreter start-up, corpus
generation on first use, the checks). Exits 2 without a result when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import run_checks  # noqa: E402
from corpus import CorpusSpec, cached_corpus, sensitivity_sentences  # noqa: E402
from tracer import layer_metrics, stage_self_times  # noqa: E402


@dataclass(frozen=True)
class Workload:
    spec: CorpusSpec
    k: int
    rnn_dims: tuple  # embed, hidden, attn
    rnn_epochs: int
    front: tuple  # stages run once, in order, before the cycles
    cycle: tuple  # stages of one cycle, in order; ("predict", n): n predict rounds
    min_cycles: int = 3  # run even past the window; enough for 40+ predicts per model


_MALFORMED_LR = {"missing_comment": 40, "missing_rating": 20,
                 "unparsable_rating": 30, "out_of_range_rating": 30}
_MALFORMED_RNN = {"missing_comment": 6, "missing_rating": 3,
                  "unparsable_rating": 6, "out_of_range_rating": 6}

WORKLOADS = {
    # Many short rows, 80/20 classes, a vocabulary far larger than k: the
    # time goes to textprep/features in prepare and to SMOTE in train logreg.
    # Both trainings are in the cycle, so that each metric rests on three
    # calls spread over the run; two cycles take about 40 s, so a run takes
    # about 60 s whatever the window.
    "lr-imbalanced": Workload(
        spec=CorpusSpec(labelled_rows=20_000, positive_share=0.8, neutral_rows=600,
                        malformed=_MALFORMED_LR, filler_vocab=50_000,
                        median_tokens=10.0, length_sigma=0.5, max_tokens=60,
                        cue_share=0.8, extra_cue_every=0),
        k=5000, rnn_dims=(16, 16, 16), rnn_epochs=1,
        front=("prepare", "train_logreg", "train_rnn", "sensitivity", "evaluate_rnn"),
        cycle=("prepare", ("predict", 5), "evaluate_logreg", "evaluate_rnn", ("predict", 5),
               "train_logreg", ("predict", 5), "sensitivity", "evaluate_logreg", "train_rnn",
               ("predict", 5)),
        min_cycles=2),
    # Few long-tailed rows, balanced classes, default RNN size: the time goes
    # to the LSTM forward/backward passes and to loading a large model file.
    "rnn-longtail": Workload(
        spec=CorpusSpec(labelled_rows=2_000, positive_share=0.51, neutral_rows=60,
                        malformed=_MALFORMED_RNN, filler_vocab=2_000,
                        median_tokens=40.0, length_sigma=0.8, max_tokens=400,
                        cue_share=0.85, extra_cue_every=12),
        k=5000, rnn_dims=(64, 64, 64), rnn_epochs=1,
        front=("prepare", "train_logreg", "train_rnn"),
        cycle=("prepare", ("predict", 4), "train_logreg", "evaluate_logreg", ("predict", 4),
               "evaluate_rnn", "evaluate_logreg", "prepare", "train_logreg", ("predict", 3),
               "sensitivity", "evaluate_logreg", ("predict", 3), "evaluate_rnn",
               "evaluate_logreg")),
}

# step sizes at which both models learn the planted cues within the budget
LR_RATE = "10"
RNN_RATE = "0.01"
PREDICT_SENTENCES = 8  # probe sentences among the predict inputs
PREDICT_TEST_COMMENTS = 32
CHILD_TIMEOUT_S = 170


def plan_for(w: Workload, corpus: Path, work: Path, sentences: Path,
             seconds: float, trace: bool) -> dict:
    bundle = work / "bundle"
    common = ["--out", str(bundle), "--seed", "0"]
    embed, hidden, attn = w.rnn_dims
    return {
        "trace": trace,
        "bundle": str(bundle),
        "argv": {
            "prepare": ["prepare", "--data", str(corpus), "--k", str(w.k)] + common,
            "train_logreg": ["train", "logreg", "--lr-rate", LR_RATE] + common,
            "train_rnn": ["train", "rnn", "--rnn-epochs", str(w.rnn_epochs),
                          "--rnn-rate", RNN_RATE,
                          "--embed-dim", str(embed), "--hidden-dim", str(hidden),
                          "--attn-dim", str(attn), "--patience", "0"] + common,
            "evaluate_logreg": ["evaluate", "--model", str(bundle / "model_logreg.json")]
            + common,
            "evaluate_rnn": ["evaluate", "--model", str(bundle / "model_rnn.json")] + common,
            "predict_logreg": ["predict", "--model", str(bundle / "model_logreg.json")]
            + common,
            "predict_rnn": ["predict", "--model", str(bundle / "model_rnn.json")] + common,
            "sensitivity": ["sensitivity", "--lr-model", str(bundle / "model_logreg.json"),
                            "--rnn-model", str(bundle / "model_rnn.json"),
                            "--sentences", str(sentences)] + common,
        },
        "front": list(w.front),
        "cycle": [list(step) if isinstance(step, tuple) else step for step in w.cycle],
        # a traced run makes exactly one cycle, so its counts are exact
        "min_cycles": 1 if trace else w.min_cycles,
        "window_s": 0 if trace else seconds,
        "predict_sentences": sensitivity_sentences()[:PREDICT_SENTENCES],
        "predict_test_comments": PREDICT_TEST_COMMENTS,
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one BLAS thread: on 2 cores, two threads made LSTM batch times bimodal
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def stage_times(calls: list) -> dict:
    out: dict = {}
    for stage, _arg, took, _code, _stdout in calls:
        out.setdefault(stage, []).append(took)
    return out


def p90(times: list) -> float:
    """The 90th percentile of a command's call times in one run (the call
    itself when it ran once). On the reference host, commands run in a slow
    and a fast mode that alternate every few seconds, in a mix that differs
    from run to run; a median flips between the two modes, while the slow
    tail is present in every run (see README, "Stability")."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def end_to_end(calls: list, maxrss_kb: int) -> dict:
    t = stage_times(calls)
    values = {
        "setup_s": (statistics.median(t["prepare"]), "s"),
        "train_logreg_s": (p90(t["train_logreg"]), "s"),
        "train_rnn_s": (p90(t["train_rnn"]), "s"),
        "evaluate_logreg_s": (p90(t["evaluate_logreg"]), "s"),
        "evaluate_rnn_s": (p90(t["evaluate_rnn"]), "s"),
        "predict_logreg_p90_ms": (1000.0 * p90(t["predict_logreg"]), "ms"),
        "predict_rnn_p90_ms": (1000.0 * p90(t["predict_rnn"]), "ms"),
        "sensitivity_s": (p90(t["sensitivity"]), "s"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def execute(w: Workload, name: str, seed: int, seconds: float, trace: bool,
            root: Path) -> tuple:
    """Run one workload in a fresh child; returns (work dir, child result)."""
    corpus = cached_corpus(w.spec, seed, HERE / ".cache", name)
    work = HERE / ".runs" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sentences = work / "sentences.txt"
    sentences.write_text("\n".join(sensitivity_sentences()) + "\n", encoding="utf-8")
    plan = plan_for(w, corpus, work, sentences, seconds, trace)
    (work / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    result_path = work / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(work / "plan.json"), str(result_path)],
        env=child_env(root), cwd=root, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(result["edusent_file"]).resolve().parent != (root / "src" / "edusent").resolve():
        raise RuntimeError(f"edusent was imported from {result['edusent_file']}, "
                           f"not from {root / 'src'}")
    return work, result


def verify(w: Workload, work: Path, result: dict) -> dict:
    """{check name: failures}; with a trace, also the self-time bound per stage."""
    failures = {"exit_codes": [f"{c[0]} exited with {c[3]!r}" for c in result["calls"]
                               if c[3] != 0]}
    if failures["exit_codes"]:
        return failures  # later checks would read missing or stale outputs
    failures.update(run_checks(w, work / "bundle", result))
    if result["trace"] is not None:
        walls = {stage: sum(ts) for stage, ts in stage_times(result["calls"]).items()}
        failures["trace_self_time"] = [
            f"{stage}: layer self times {busy:.4f} s exceed its wall time {walls[stage]:.4f} s"
            for stage, busy in stage_self_times(result["trace"]).items()
            if busy > walls[stage]]
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "edusent" / "cli.py").is_file():
        print(f"error: no edusent sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    try:
        work, result = execute(w, args.workload, args.seed, args.seconds,
                               bool(args.trace), root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = verify(w, work, result)
    for check, messages in failures.items():
        for message in messages:
            print(f"check {check} failed: {message}", file=sys.stderr)
    if not any(failures.values()):
        shutil.rmtree(work / "bundle")  # ~20 MB per run; kept only to debug a failure
    calls = result["calls"]
    if args.trace:
        predicts = sum(1 for c in calls if c[0].startswith("predict_"))
        metrics = layer_metrics(result["trace"], predicts)
    else:
        metrics = end_to_end(calls, result["maxrss_kb"])
    print(json.dumps({"correct": not any(failures.values()), "attempted": len(calls),
                      "failed": sum(1 for c in calls if c[3] != 0), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
