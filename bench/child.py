"""Child process of the benchmark: drives the edusent CLI in-process.

Usage: python3 child.py PLAN.json RESULT.json

`run.py` starts this script in a fresh interpreter with one BLAS thread and
`src/` on the import path. Every command goes through `edusent.cli.main`,
so no timing includes interpreter or import start-up. The plan (written by
`run.py`) lists the command lines, the stages run once up front, and the
cycle of stages repeated until the measured window is used up; the
result file holds each call's wall time, exit code and stdout, the peak RSS
of this process, and with tracing on the per-function spans.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import edusent
    from edusent import cli

    tracer = None
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []  # [stage, argv tail, wall_s, exit code, stdout]

    def call(stage: str, argv: list) -> None:
        gc.collect()
        if tracer is not None:
            tracer.stage = stage
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        calls.append([stage, argv[-1], took, code, out.getvalue()])

    start = time.perf_counter()
    for name in plan["front"]:
        call(name, plan["argv"][name])

    # predict inputs: probe sentences, then raw test comments from the bundle
    bundle = Path(plan["bundle"])
    test_ids = json.loads((bundle / "split.json").read_text(encoding="utf-8"))["test_ids"]
    wanted = set(test_ids[: plan["predict_test_comments"]])
    comments = {}
    with (bundle / "examples.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row["id"] in wanted:
                comments[row["id"]] = row["raw"]
    ids = [None] * len(plan["predict_sentences"]) + sorted(wanted)
    texts = plan["predict_sentences"] + [comments[i] for i in sorted(wanted)]

    # the stages are interleaved in cycles, so that the samples behind each
    # statistic are spread over the whole window rather than taken in one block
    rounds = cycles = 0
    while True:
        cycle_start = time.perf_counter()
        for step in plan["cycle"]:
            if isinstance(step, str):
                call(step, plan["argv"][step])
                continue
            for _ in range(step[1]):  # ["predict", n]: n predict rounds
                text = texts[rounds % len(texts)]
                for kind in ("logreg", "rnn"):
                    call(f"predict_{kind}", plan["argv"][f"predict_{kind}"] + [text])
                rounds += 1
        cycles += 1
        now = time.perf_counter()
        if (cycles >= plan["min_cycles"]
                and now - start + (now - cycle_start) > plan["window_s"]):
            break

    result = {
        "edusent_file": edusent.__file__,
        "calls": calls,
        "predict_ids": ids,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
