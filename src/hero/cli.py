"""Command-line interface.

Commands: validate, train, eval, predict, gradcheck, stats. Primary results
go to stdout, logs and errors to stderr. Exit codes: 0 success, 1 validation
or threshold failure, 2 I/O or format errors and running out of memory, 3
numeric failure during training.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import model as hero_model
from .embed import load_table
from .ling_tree import TreeError, leaf_words, parse_sexpr
from .model import (
    AblationMode, AttributeVocab, SharingMode,
    gradient_check_model, init_model, load_model, save_model,
)

GRADCHECK_THRESHOLD = 1e-4
DEFAULT_GRID = (0.1, 0.01, 0.001, 0.0001)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _load_table(path, dim: int, words):
    table = load_table(path, dim, words)
    if table.duplicates:
        _log(f"{path}: {table.duplicates} duplicate token lines; the last vector of each token is used")
    return table


def _log_fallbacks(oov: int, unk: int, leaves: int) -> None:
    if oov or unk:  # UNK GRUs see no training node: they keep their initial weights
        _log(f"{oov} of {leaves} leaves out of vocabulary; {unk} nodes use an UNK GRU")


def cmd_validate(args) -> int:
    from . import trainer

    docs, problems = trainer.scan_dataset(args.data)
    for line_no, message in problems:
        _log(f"{args.data}: line {line_no}: {message}")
    print(f"{len(docs)} valid, {len(problems)} invalid")
    return 0 if not problems else 1


def cmd_train(args) -> int:
    from . import trainer

    config = trainer.parse_config(Path(args.config).read_text(encoding="utf-8"))
    docs = trainer.read_dataset(args.data)
    table = _load_table(args.embeddings, config.d, {w for doc in docs for w in leaf_words(doc.tree)})
    split = trainer.split_dataset(docs, config.seed)
    _log(f"split: {len(split.train)} train / {len(split.val)} val / {len(split.test)} test")

    if args.grid:
        record = result = trainer.grid_search_lr(split, config, DEFAULT_GRID, table)
        for lr, message in result.failures.items():
            _log(f"lr={lr!r}: failed: {message}")
        for lr, report in result.reports.items():
            _log(f"lr={lr!r}: best epoch {report.best_epoch}, "
                 f"val score {trainer.selection_score(report.best_val):.4f}")
        if result.best_lr is None:
            _log("no learning rate finished training")
            return 3
        best_params, report = result.best_params, result.reports[result.best_lr]
        _log(f"selected lr={result.best_lr!r}")
    else:
        best_params, report = trainer.train(split, config, table)
        for log in report.epochs:
            score = trainer.selection_score(log.val)
            _log(f"epoch {log.epoch}: train loss {log.train_loss:.6f}, val score {score:.4f}")
        record = report

    save_model(best_params, args.out)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(record.to_json() + "\n")
    _log(f"checkpoint written to {args.out}, report to {args.report}")
    print(trainer.format_metrics_table(report.test))
    return 0


def cmd_eval(args) -> int:
    from . import trainer

    params = load_model(args.model)
    docs = trainer.read_dataset(args.data)
    words = [w for doc in docs for w in leaf_words(doc.tree)]
    table = _load_table(args.embeddings, params.d, words)
    metrics, oov, unk = trainer.evaluate(params, docs, table)
    _log_fallbacks(oov, unk, len(words))
    print(trainer.format_metrics_table(metrics))
    return 0


def cmd_predict(args) -> int:
    params = load_model(args.model)
    text = sys.stdin.read() if args.tree in ("", "-") else Path(args.tree).read_text(encoding="utf-8")
    text.encode(errors="surrogateescape").decode()  # stdin reads undecodable bytes as escapes
    try:
        tree = parse_sexpr(text)
    except TreeError as exc:
        _log(f"invalid tree: {exc}")
        return 1
    words = leaf_words(tree)
    table = _load_table(args.embeddings, params.d, words)
    (enc,) = hero_model.encode_document(params, [tree], table)
    _log_fallbacks(enc.oov, enc.unk, len(words))
    print(hero_model.predict(params, enc))
    return 0


def cmd_gradcheck(args) -> int:
    from . import synthetic
    from .trainer import TrainConfig

    # A seed or width TrainConfig rejects raises before the fixture draws it.
    config = TrainConfig(seed=args.seed, d=args.d, mode=SharingMode(args.mode),
                         ablation=AblationMode(args.ablation))
    rng = np.random.default_rng(config.seed)
    gen, table = synthetic.gradcheck_fixture(rng, config.d)
    vocab = AttributeVocab.from_trees([gen.tree])
    params = init_model(config.d, config.mode, config.ablation, vocab, rng=rng, random_classifier=True)
    error = gradient_check_model(params, gen.tree, table)
    print(f"max relative error: {error:.3e}")
    return 0 if error < GRADCHECK_THRESHOLD else 1


def cmd_stats(args) -> int:
    from . import stats as hero_stats
    from . import trainer

    docs = trainer.read_dataset(args.data)
    report = hero_stats.corpus_report(docs)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    if not args.csv and not args.json:
        sys.stdout.write(report.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hero",
        description="Recursive neural classifier over hierarchical linguistic trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a JSONL dataset line by line")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train a classifier, optionally grid-searching the learning rate")
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--grid", action="store_true",
                   help=f"grid-search the learning rate over {DEFAULT_GRID}")
    p.add_argument("--out", default="model.json", help="checkpoint path")
    p.add_argument("--report", default="train_report.json", help="training report path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="print the fake probability for one tree")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--tree", default="-", help="tree file, or - for stdin")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model gradient")
    p.add_argument("--mode", choices=[m.value for m in SharingMode], required=True)
    p.add_argument("--ablation", choices=[a.value for a in AblationMode], default="full")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("stats", help="fake-vs-true tree statistics with Welch t-tests")
    p.add_argument("--data", required=True)
    p.add_argument("--csv", help="write the CSV report here instead of stdout")
    p.add_argument("--json", help="also write a JSON report here")
    p.set_defaults(func=cmd_stats)
    return parser


# The failures the CLI reports, first match wins: (module, exception type
# names, exit code, stderr prefix). A command imports only the modules it
# runs, so the types are looked up only in modules already loaded: an
# exception from a module that was never imported cannot have been raised.
FAILURES = (
    ("hero.trainer", ("NonFiniteLossError",), 3, "numeric failure: "),
    ("hero.trainer", ("DatasetError", "ConfigError", "TooFewDocumentsError", "EmptyEvalSetError"), 2, "error: "),
    ("hero.stats", ("StatsError",), 2, "error: "),
    ("hero.ling_tree", ("TreeError",), 2, "error: "),
    ("hero.embed", ("EmbeddingError",), 2, "error: "),
    ("hero.model", ("CorruptCheckpointError", "VersionMismatchError"), 2, "error: "),
    ("hero.nn", ("ShapeMismatchError",), 2, "error: "),
    ("builtins", ("UnicodeDecodeError",), 2, "error: not UTF-8: "),  # a config or tree file
    ("builtins", ("MemoryError",), 2, "error: out of memory: "),  # a width numpy can index but not hold
    ("builtins", ("OSError",), 2, "I/O error: "),
)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for module, names, code, prefix in FAILURES:
            loaded = sys.modules.get(module)
            if loaded is not None and isinstance(exc, tuple(getattr(loaded, name) for name in names)):
                _log(f"{prefix}{exc}")
                return code
        raise


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
