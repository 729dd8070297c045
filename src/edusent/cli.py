"""Command-line entry points: prepare, train, evaluate, predict,
sensitivity, compare.

Every command is deterministic given its inputs and seed; machine-readable
outputs (JSON/CSV/SVG) are byte-stable across reruns. Exit codes: 0 on
success, 1 for domain/validation errors, 2 for IO/schema errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

try:  # numpy >= 2
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:
    from numpy.core.multiarray import _set_madvise_hugepage

from .config import PipelineConfig, build_config
from .errors import SchemaError, ValidationError, read_utf8
from .evalmetrics import ConfusionMatrix, RocCurve, evaluation_report
from .features import tfidf_transform
from .ingest import split
from .linear import LinearTrainConfig, classify, train_lr
from .neural import NeuralTrainConfig, RnnDims, train_rnn
from .pipeline import (
    file_sha256,
    load_bound_model,
    load_bundle,
    load_lexicons,
    load_report_metrics,
    load_tfidf_model,
    prepare_bundle,
    save_linear_model,
    save_rnn_model,
    score,
    sequence_data,
    write_csv,
    write_json,
    write_text,
)
from .resample import SmoteConfig, balance_sparse, class_weights
from .svgplot import confusion_matrix_svg, roc_curve_svg, sensitivity_bars_svg
from .textprep import preprocess

#: default sentence variations for the sensitivity analysis
DEFAULT_SENSITIVITY_SENTENCES = [
    "The lecture was engaging and informative.",
    "Incredibly lecture but too long material.",
    "The lecture was conducted today.",
    "The lecture was extremely engaging and incredibly informative.",
    "The lecture was not engaging but informative.",
    "The course material was engaging and informative.",
    "The lecture was informative but too long and tiring.",
    "The lecture was not engaging and informative.",
]


def cmd_prepare(cfg: PipelineConfig, args) -> int:
    report = prepare_bundle(cfg)
    print(f"bundle written to {Path(cfg.out)} "
          f"(rows={report['rows']}, retained={report['retained']}, "
          f"neutral_excluded={report['neutral_excluded']})")
    return 0


def cmd_train(cfg: PipelineConfig, args) -> int:
    bundle = load_bundle(cfg.out)
    out = Path(cfg.out)
    initial = None
    if args.resume:
        kind, initial = load_bound_model(args.resume, bundle.tfidf, bundle.vocab_ref)
        if kind != args.kind:
            raise SchemaError(f"resume model {args.resume} is a {kind} model, not {args.kind}")
    train = bundle.subset(bundle.train_ids)
    if args.kind == "logreg":
        X = tfidf_transform(bundle.tfidf, [ex.tokens for ex in train])
        y = [ex.label for ex in train]
        Xb, yb = balance_sparse(X, y, len(bundle.tfidf.vocab),
                                SmoteConfig(k_neighbors=cfg.smote_k, seed=cfg.seed))
        result = train_lr(
            Xb, yb,
            LinearTrainConfig(learning_rate=cfg.lr_learning_rate,
                              epochs=cfg.lr_epochs, l2=cfg.lr_l2),
            dim=len(bundle.tfidf.vocab),
            initial=initial,
        )
        model_path = out / "model_logreg.json"
        save_linear_model(result.model, model_path, bundle.vocab_ref)
        write_csv(out / "train_log_logreg.csv", ["epoch", "loss"],
                  [[e, repr(loss)] for e, loss in enumerate(result.loss_history)])
        print(f"logreg model written to {model_path} "
              f"(final loss {result.loss_history[-1]:.6f})")
        return 0

    # rnn
    rnn_train_ids = list(bundle.train_ids)
    rnn_val_ids = list(bundle.train_ids)
    if 0.0 < cfg.val_fraction < 1.0:
        inner = split(train, 1.0 - cfg.val_fraction, cfg.seed + 1)
        val_ids = [bundle.train_ids[j] for j in inner.test_ids]
        val_label_kinds = {bundle.examples[i].label for i in val_ids}
        if len(val_ids) >= 10 and len(val_label_kinds) == 2:
            rnn_train_ids = [bundle.train_ids[j] for j in inner.train_ids]
            rnn_val_ids = val_ids
        else:
            # a tiny or single-class carve-out makes early stopping pure
            # noise; validate on the training set instead
            print("validation carve-out too small to be informative; "
                  "validating on the training split")
    train_ds, kept = sequence_data(bundle, rnn_train_ids, cfg.max_len, drop_empty=True)
    val_ds, _ = sequence_data(bundle, rnn_val_ids, cfg.max_len, drop_empty=False)
    w_pos, w_neg = class_weights([bundle.examples[i].label for i in kept])
    ncfg = NeuralTrainConfig(
        epochs=cfg.rnn_epochs, batch_size=cfg.rnn_batch_size,
        learning_rate=cfg.rnn_learning_rate, weight_pos=w_pos, weight_neg=w_neg,
        seed=cfg.seed, patience=cfg.patience,
    )
    if initial is not None:
        dims = initial.dims  # resuming keeps the saved architecture
    else:
        dims = RnnDims(vocab_size=len(bundle.tfidf.vocab), embed_dim=cfg.embed_dim,
                       hidden=cfg.hidden_dim, attn_dim=cfg.attn_dim, max_len=cfg.max_len)
    result = train_rnn(train_ds, val_ds, ncfg, dims, initial=initial)
    model_path = out / "model_rnn.json"
    save_rnn_model(result.model, model_path, bundle.vocab_ref)
    rows = [[0, repr(result.initial_loss), ""]]
    rows += [[e + 1, repr(loss), repr(f1)]
             for e, (loss, f1) in enumerate(zip(result.epoch_losses, result.val_f1s))]
    write_csv(out / "train_log_rnn.csv", ["epoch", "loss", "val_f1"], rows)
    print(f"rnn model written to {model_path} "
          f"(best epoch {result.best_epoch + 1}, val F1 {max(result.val_f1s):.4f})")
    return 0


def cmd_evaluate(cfg: PipelineConfig, args) -> int:
    bundle = load_bundle(cfg.out)
    kind, model = load_bound_model(args.model, bundle.tfidf, bundle.vocab_ref)
    test = bundle.subset(bundle.test_ids)
    if not test:
        raise ValidationError("empty evaluation set")
    scores = score(model, bundle.tfidf, [ex.tokens for ex in test]).tolist()
    report = evaluation_report([ex.label for ex in test], [classify(p) for p in scores],
                               scores)
    out = Path(cfg.out)
    write_json(out / f"eval_{kind}.json", report)
    if not cfg.no_plots:
        cm = ConfusionMatrix(**report["confusion"])
        curve = RocCurve(points=[tuple(p) for p in report["roc"]], auc=report["auc"])
        write_text(out / f"roc_{kind}.svg", roc_curve_svg(curve, f"ROC, {kind} model"))
        write_text(out / f"confusion_{kind}.svg",
                   confusion_matrix_svg(cm, f"Confusion matrix, {kind} model"))
    m = report["metrics"]
    print(f"{kind}: accuracy={m['accuracy']:.4f} precision={m['precision']:.4f} "
          f"recall={m['recall']:.4f} f1={m['f1']:.4f} auc={report['auc']:.4f}")
    return 0


def _load_with_vocab(cfg: PipelineConfig, model_path: Path) -> tuple:
    """The model at `model_path`, bound to the vocab.json beside it or else
    in the bundle: (model, tfidf), the arguments `score` takes first."""
    for vocab_path in (model_path.parent / "vocab.json", Path(cfg.out) / "vocab.json"):
        if vocab_path.exists():
            tfidf = load_tfidf_model(vocab_path)
            _, model = load_bound_model(model_path, tfidf, file_sha256(vocab_path))
            return model, tfidf
    raise SchemaError(f"no vocab.json found near {model_path} or in {cfg.out}")


def cmd_predict(cfg: PipelineConfig, args) -> int:
    sw, rules = load_lexicons(cfg)
    text = args.text if args.text is not None else sys.stdin.read()
    tokens = preprocess(text, sw, rules)
    model, tfidf = _load_with_vocab(cfg, Path(args.model))
    p = float(score(model, tfidf, [tokens])[0])
    # low signal: no token of the text is in the vocabulary
    in_vocab = any(t in tfidf.vocab.term_to_index for t in tokens)
    flags = [] if in_vocab else ["low-signal input"]
    print(json.dumps(
        {"label": str(classify(p)), "p_positive": p, "flags": flags},
        sort_keys=True))
    return 0


def _read_sentences(path) -> list:
    lines = [ln.strip() for ln in read_utf8(path).splitlines()]
    sentences = [ln for ln in lines if ln]
    if not sentences:
        raise ValidationError(f"sentence file {path} is empty")
    return sentences


def cmd_sensitivity(cfg: PipelineConfig, args) -> int:
    sentences = (_read_sentences(args.sentences) if args.sentences
                 else list(DEFAULT_SENSITIVITY_SENTENCES))
    sw, rules = load_lexicons(cfg)
    lr = _load_with_vocab(cfg, Path(args.lr_model))
    rnn = _load_with_vocab(cfg, Path(args.rnn_model))
    rows = []
    for sid, sentence in enumerate(sentences, start=1):
        # one sentence per call, so each value is the one `predict` gives
        docs = [preprocess(sentence, sw, rules)]
        rows.append((sid, sentence, float(score(*lr, docs)[0]), float(score(*rnn, docs)[0])))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "sensitivity.csv",
              ["sentence_id", "text", "lr_prob_positive", "rnn_prob_positive"],
              [[sid, text, repr(lr_p), repr(rnn_p)] for sid, text, lr_p, rnn_p in rows])
    if not cfg.no_plots:
        write_text(out / "sensitivity.svg", sensitivity_bars_svg(rows))
    for sid, text, lr_p, rnn_p in rows:
        print(f"{sid}\tLR={lr_p:.4f}\tRNN={rnn_p:.4f}\t{text}")
    return 0


def cmd_compare(cfg: PipelineConfig, args) -> int:
    a = load_report_metrics(args.report_a)
    b = load_report_metrics(args.report_b)
    print("metric,report_a,report_b,delta")
    for metric, va in a.items():
        vb = b[metric]
        print(f"{metric},{va!r},{vb!r},{vb - va!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--data", default=None, help="input CSV path")
    common.add_argument("--out", default=None, help="bundle/output directory")
    common.add_argument("--k", type=int, default=None, help="vocabulary size cap")
    common.add_argument("--smote-k", type=int, default=None, dest="smote_k")
    common.add_argument("--no-plots", action="store_true", default=None, dest="no_plots")
    common.add_argument("--stopwords", default=None, help="stopword file override")
    common.add_argument("--lemma-rules", default=None, dest="lemma_rules")
    for logical in ("comment", "student-star", "star-rating", "diff-index",
                    "student-difficult"):
        dest = f"column_{logical.replace('-', '_')}"
        common.add_argument(f"--column-{logical}", default=None, dest=dest,
                            help=f"CSV column holding the {logical} field")

    parser = argparse.ArgumentParser(
        prog="edusent",
        description="Sentiment analysis for student feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", parents=[common],
                       help="ingest a CSV and write the dataset bundle")
    p.add_argument("--fraction", type=float, default=None, help="train fraction")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", parents=[common], help="train a model on a bundle")
    p.add_argument("kind", choices=["logreg", "rnn"])
    p.add_argument("--resume", default=None,
                   help="warm-start from an existing model of the same kind")
    p.add_argument("--lr-epochs", type=int, default=None, dest="lr_epochs")
    p.add_argument("--lr-rate", type=float, default=None, dest="lr_learning_rate")
    p.add_argument("--lr-l2", type=float, default=None, dest="lr_l2")
    p.add_argument("--rnn-epochs", type=int, default=None, dest="rnn_epochs")
    p.add_argument("--rnn-batch", type=int, default=None, dest="rnn_batch_size")
    p.add_argument("--rnn-rate", type=float, default=None, dest="rnn_learning_rate")
    p.add_argument("--embed-dim", type=int, default=None, dest="embed_dim")
    p.add_argument("--hidden-dim", type=int, default=None, dest="hidden_dim")
    p.add_argument("--attn-dim", type=int, default=None, dest="attn_dim")
    p.add_argument("--max-len", type=int, default=None, dest="max_len")
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--val-fraction", type=float, default=None, dest="val_fraction")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common],
                       help="evaluate a model on the bundle's test split")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", parents=[common],
                       help="classify one comment (reads stdin without TEXT)")
    p.add_argument("--model", required=True)
    p.add_argument("text", nargs="?", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sensitivity", parents=[common],
                       help="probe both models with sentence variations")
    p.add_argument("--lr-model", required=True, dest="lr_model")
    p.add_argument("--rnn-model", required=True, dest="rnn_model")
    p.add_argument("--sentences", default=None, help="file with one sentence per line")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("compare", parents=[common],
                       help="delta table between two evaluation reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.set_defaults(func=cmd_compare)
    return parser


_CONFIG_KEYS = tuple(PipelineConfig.__dataclass_fields__)


def main(argv=None) -> int:
    # numpy advises transparent huge pages for arrays of 4 MB or more. Whether
    # the kernel grants them, and when khugepaged fills a region's untouched
    # pages, depends on the host's state, so a command's peak RSS would differ
    # from one run to the next; with small pages it depends on the command.
    _set_madvise_hugepage(False)
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _CONFIG_KEYS if hasattr(args, key)}
    try:
        cfg = build_config(args.config, overrides)
        return args.func(cfg, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. model dimensions too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
