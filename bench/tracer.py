"""Outside-in tracing of edusent's public functions.

`Tracer.install` replaces every public module-level function of the layer
modules (and `Adam.step`) with a timing wrapper, at every module attribute
that refers to it: `from .features import tfidf_transform` in `cli` and
`pipeline` binds the same function object under another module's name, so
each such binding is patched too. The program's code is not changed.

Each call records a span; a span's self time is its duration minus the
durations of the wrapped calls it made. Spans are aggregated in memory per
(stage, function) and per (stage, counter).
"""

from __future__ import annotations

import functools
import inspect
import sys
from pathlib import Path
from time import perf_counter

#: module -> layer name used as the metric prefix
LAYERS = {
    "edusent.ingest": "ingest",
    "edusent.textprep": "textprep",
    "edusent.features": "features",
    "edusent.pipeline": "pipeline",
    "edusent.resample": "resample",
    "edusent.linear": "linear",
    "edusent.neural.model": "neural",
    "edusent.neural.backprop": "neural",
    "edusent.neural.train": "neural",
    "edusent.evalmetrics": "evalmetrics",
    "edusent.svgplot": "svgplot",
}


def _model_parse(args, kwargs, result):
    return {"model_parses": 1}


#: function -> counters derived from (args, kwargs, result), taken after the call
COUNTERS = {
    "ingest.parse_csv": lambda a, k, r: {"ingest.rows": r[1].rows},
    "textprep.preprocess": lambda a, k, r: {"textprep.tokens_out": len(r)},
    "features.select_top_k": lambda a, k, r: {"features.candidate_terms": len(a[1])},
    "pipeline.read_json": lambda a, k, r: (
        {"model_parses": 1}
        if isinstance(r, dict) and r.get("kind") in ("logreg", "rnn") else {}),
    "pipeline.file_sha256": lambda a, k, r: (
        {"vocab_hashes": 1} if Path(a[0]).name == "vocab.json" else {}),
    "resample.smote": lambda a, k, r: {"resample.smote_rows": len(r),
                                       "resample.minority_rows": len(a[0])},
    "linear.train_lr": lambda a, k, r: {"linear.train_lr_epochs": len(r.loss_history) - 1,
                                        "linear.train_rows": len(a[0])},
    "linear.load_linear_model": _model_parse,
    "neural.load_rnn_model": _model_parse,
    "neural.forward": lambda a, k, r: {"neural.tokens_real": int(a[1].mask.sum()),
                                       "neural.tokens_padded": int(a[1].ids.size)},
    "neural.save_rnn_model": lambda a, k, r: {
        "neural.model_file_bytes": Path(a[1]).stat().st_size},
    "neural.train_rnn": lambda a, k, r: {"neural.epochs_run": len(r.epoch_losses)},
    "svgplot.roc_curve_svg": lambda a, k, r: {"svgplot.svg_bytes": len(r)},
    "svgplot.confusion_matrix_svg": lambda a, k, r: {"svgplot.svg_bytes": len(r)},
    "svgplot.sensitivity_bars_svg": lambda a, k, r: {"svgplot.svg_bytes": len(r)},
}


class Tracer:
    def __init__(self):
        self.stage = None
        self._open = []  # per open span: time spent in wrapped callees
        self.spans = {}  # (stage, function) -> [calls, total_s, self_s]
        self.counts = {}  # (stage, counter) -> value

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                inner = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += took
                agg = tracer.spans.setdefault((tracer.stage, name), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += took
                agg[2] += took - inner
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    slot = (tracer.stage, key)
                    tracer.counts[slot] = tracer.counts.get(slot, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules, and Adam.step."""
        wrapped = {}
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "edusent" and not modname.startswith("edusent."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        adam = sys.modules["edusent.neural.train"].Adam
        adam.step = self._wrap("neural.adam_step", adam.step)

    def dump(self) -> dict:
        return {
            "spans": [[stage, name, *agg] for (stage, name), agg in self.spans.items()],
            "counts": [[stage, name, value] for (stage, name), value in self.counts.items()],
        }


#: per-layer metric -> (unit, source); a source is ("total"|"self"|"calls",
#: traced function(s)) or ("count", counter name)
LAYER_METRICS = {
    "ingest.parse_csv_s": ("s", ("total", "ingest.parse_csv")),
    "ingest.split_s": ("s", ("total", "ingest.split")),
    "ingest.rows": ("count", ("count", "ingest.rows")),
    "textprep.preprocess_s": ("s", ("total", "textprep.preprocess")),
    "textprep.preprocess_calls": ("count", ("calls", "textprep.preprocess")),
    "textprep.tokens_out": ("count", ("count", "textprep.tokens_out")),
    "features.build_vocabulary_s": ("s", ("total", "features.build_vocabulary")),
    "features.chi2_scores_s": ("s", ("total", "features.chi2_scores")),
    "features.select_top_k_s": ("s", ("total", "features.select_top_k")),
    "features.candidate_terms": ("count", ("count", "features.candidate_terms")),
    "features.tfidf_transform_s": ("s", ("total", "features.tfidf_transform")),
    "features.tfidf_transform_calls": ("count", ("calls", "features.tfidf_transform")),
    "pipeline.prepare_bundle_self_s": ("s", ("self", "pipeline.prepare_bundle")),
    "pipeline.load_bundle_s": ("s", ("total", "pipeline.load_bundle")),
    "pipeline.load_bundle_calls": ("count", ("calls", "pipeline.load_bundle")),
    "pipeline.balance_sparse_self_s": ("s", ("self", "pipeline.balance_sparse")),
    "pipeline.sparse_from_dense_s": ("s", ("total", "pipeline.sparse_from_dense")),
    "pipeline.sparse_from_dense_calls": ("count", ("calls", "pipeline.sparse_from_dense")),
    "pipeline.sequence_data_s": ("s", ("total", "pipeline.sequence_data")),
    "pipeline.read_json_calls": ("count", ("calls", "pipeline.read_json")),
    "pipeline.file_sha256_calls": ("count", ("calls", "pipeline.file_sha256")),
    "resample.smote_s": ("s", ("total", "resample.smote")),
    "resample.smote_rows": ("count", ("count", "resample.smote_rows")),
    "resample.minority_rows": ("count", ("count", "resample.minority_rows")),
    "linear.train_lr_s": ("s", ("total", "linear.train_lr")),
    "linear.train_lr_epochs": ("count", ("count", "linear.train_lr_epochs")),
    "linear.train_rows": ("count", ("count", "linear.train_rows")),
    "linear.predict_proba_s": ("s", ("total", "linear.predict_proba")),
    "linear.predict_proba_calls": ("count", ("calls", "linear.predict_proba")),
    "linear.load_model_s": ("s", ("total", "linear.load_linear_model")),
    "linear.load_model_calls": ("count", ("calls", "linear.load_linear_model")),
    "neural.forward_s": ("s", ("total", "neural.forward")),
    "neural.forward_calls": ("count", ("calls", "neural.forward")),
    "neural.tokens_real": ("count", ("count", "neural.tokens_real")),
    "neural.tokens_padded": ("count", ("count", "neural.tokens_padded")),
    "neural.predict_sequences_s": ("s", ("total", "neural.predict_sequences")),
    "neural.load_rnn_model_s": ("s", ("total", "neural.load_rnn_model")),
    "neural.load_rnn_model_calls": ("count", ("calls", "neural.load_rnn_model")),
    "neural.save_rnn_model_s": ("s", ("total", "neural.save_rnn_model")),
    "neural.model_file_bytes": ("B", ("count", "neural.model_file_bytes")),
    "neural.backward_s": ("s", ("total", "neural.backward")),
    "neural.backward_calls": ("count", ("calls", "neural.backward")),
    "neural.train_rnn_self_s": ("s", ("self", "neural.train_rnn")),
    "neural.adam_step_s": ("s", ("total", "neural.adam_step")),
    "neural.adam_steps": ("count", ("calls", "neural.adam_step")),
    "neural.epochs_run": ("count", ("count", "neural.epochs_run")),
    "evalmetrics.evaluation_report_s": ("s", ("total", "evalmetrics.evaluation_report")),
    "svgplot.render_s": ("s", ("total", "svgplot.roc_curve_svg", "svgplot.confusion_matrix_svg",
                               "svgplot.sensitivity_bars_svg")),
    "svgplot.svg_bytes": ("B", ("count", "svgplot.svg_bytes")),
}
_FIELD = {"calls": 0, "total": 1, "self": 2}


def layer_metrics(dump: dict, predicts: int) -> dict:
    """Per-layer metrics of a traced run, summed over its stages, plus the
    per-prediction ratios of its `predict` commands with their base."""
    spans: dict = {}
    for _stage, name, *agg in dump["spans"]:
        slot = spans.setdefault(name, [0, 0.0, 0.0])
        for j, value in enumerate(agg):
            slot[j] += value
    counts: dict = {}
    predict_counts: dict = {}
    for stage, name, value in dump["counts"]:
        counts[name] = counts.get(name, 0) + value
        if stage.startswith("predict_"):
            predict_counts[name] = predict_counts.get(name, 0) + value
    out = {}
    for metric, (unit, (kind, *names)) in LAYER_METRICS.items():
        if kind == "count":
            value = counts.get(names[0], 0)
        else:
            value = sum(spans.get(n, [0, 0.0, 0.0])[_FIELD[kind]] for n in names)
        out[metric] = {"value": value, "unit": unit}
    out["cli.predicts"] = {"value": predicts, "unit": "count"}
    for metric, counter in (("cli.model_parses_per_predict", "model_parses"),
                            ("cli.vocab_hashes_per_predict", "vocab_hashes")):
        out[metric] = {"value": predict_counts.get(counter, 0) / predicts,
                       "unit": "1/predict"}
    return out


def stage_self_times(dump: dict) -> dict:
    """stage -> sum of the self times of every traced call made in it."""
    out: dict = {}
    for stage, _name, _calls, _total, self_s in dump["spans"]:
        out[stage] = out.get(stage, 0.0) + self_s
    return out
