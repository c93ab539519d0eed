"""Dataset handling, the train/validate/test protocol, metrics and the
learning-rate grid search.

Documents are labeled trees (1 = fake, 0 = true) read from JSONL. Training
runs per-document Adam updates, scores every epoch on the validation split,
and returns the parameters of the epoch with the best validation AUC.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as hero_model
from . import nn
from .embed import EmbeddingTable
from .ling_tree import LingTree, TreeError, parse_sexpr
from .model import (
    AblationMode, AttributeVocab, ModelParams, SharingMode,
    backward, copy_model, encode_document, init_model,
)


class DatasetError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TooFewDocumentsError(ValueError):
    pass


class EmptyEvalSetError(ValueError):
    pass


class NonFiniteLossError(RuntimeError):
    def __init__(self, epoch: int, doc_id: str, detail: str):
        super().__init__(f"non-finite loss at epoch {epoch}, document {doc_id!r}: {detail}")
        self.epoch = epoch
        self.doc_id = doc_id


class ConfigError(ValueError):
    pass


@dataclass
class LabeledDocument:
    doc_id: str
    tree: LingTree
    y: int


def scan_dataset(path) -> tuple[list[LabeledDocument], list[tuple[int, str]]]:
    """Read a JSONL dataset, collecting per-line problems instead of raising.

    Each line must be {"id": str, "label": 0|1, "tree": "<s-expression>"}.
    Returns (valid documents, [(line_no, message), ...]).
    """
    docs: list[LabeledDocument] = []
    problems: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append((line_no, f"bad JSON: {exc}"))
                continue
            if not isinstance(record, dict):
                problems.append((line_no, "record is not an object"))
                continue
            doc_id = record.get("id")
            label = record.get("label")
            tree_text = record.get("tree")
            if not isinstance(doc_id, str) or not doc_id:
                problems.append((line_no, "field 'id' must be a non-empty string"))
                continue
            # bool and float compare equal to 0 and 1; only JSON integers count.
            if type(label) is not int or label not in (0, 1):
                problems.append((line_no, f"field 'label' must be 0 or 1, got {label!r}"))
                continue
            if not isinstance(tree_text, str):
                problems.append((line_no, "field 'tree' must be a string"))
                continue
            try:
                tree = parse_sexpr(tree_text, doc_id)
            except TreeError as exc:
                problems.append((line_no, f"field 'tree': {exc}"))
                continue
            docs.append(LabeledDocument(doc_id, tree, label))
    return docs, problems


def read_dataset(path) -> list[LabeledDocument]:
    """Strict dataset read; raises DatasetError on the first bad line."""
    docs, problems = scan_dataset(path)
    if problems:
        line_no, message = problems[0]
        raise DatasetError(line_no, message)
    return docs


def write_dataset(docs: list[LabeledDocument], path) -> None:
    from .ling_tree import serialize_sexpr

    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record = {"id": doc.doc_id, "label": doc.y, "tree": serialize_sexpr(doc.tree)}
            fh.write(json.dumps(record) + "\n")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    max_epochs: int = 50
    seed: int = 0
    d: int = 100
    mode: SharingMode = SharingMode.UNIFIED
    ablation: AblationMode = AblationMode.FULL
    shuffle: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and non-negative, got {self.lr}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.d <= 0 or self.d % 2:
            raise ConfigError(f"d must be a positive even integer, got {self.d}")

    def as_dict(self) -> dict:
        return {
            "lr": self.lr, "max_epochs": self.max_epochs, "seed": self.seed,
            "d": self.d, "mode": self.mode.value, "ablation": self.ablation.value,
            "shuffle": self.shuffle,
        }


def parse_config(text: str) -> TrainConfig:
    """Parse key=value lines ('#' starts a comment) into a TrainConfig."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    kwargs: dict = {}
    try:
        if "lr" in values:
            kwargs["lr"] = float(values.pop("lr"))
        for key in ("max_epochs", "seed", "d"):
            if key in values:
                kwargs[key] = int(values.pop(key))
        if "mode" in values:
            kwargs["mode"] = SharingMode(values.pop("mode"))
        if "ablation" in values:
            kwargs["ablation"] = AblationMode(values.pop("ablation"))
        if "shuffle" in values:
            raw = values.pop("shuffle").lower()
            if raw not in ("true", "false"):
                raise ConfigError(f"shuffle must be true or false, got {raw!r}")
            kwargs["shuffle"] = raw == "true"
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    if values:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(values))}")
    return TrainConfig(**kwargs)


@dataclass
class Split:
    train: list[LabeledDocument]
    val: list[LabeledDocument]
    test: list[LabeledDocument]


def split_dataset(docs: list[LabeledDocument], seed: int) -> Split:
    """Seeded shuffle, then 0.7 / 0.1 / rest by exact floor arithmetic."""
    q = len(docs)
    if q < 10:
        raise TooFewDocumentsError(f"need at least 10 documents, got {q}")
    order = np.random.default_rng(seed).permutation(q)
    shuffled = [docs[i] for i in order]
    n_train = 7 * q // 10
    n_val = q // 10
    return Split(
        train=shuffled[:n_train],
        val=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
    )


@dataclass
class MetricsReport:
    """Threshold metrics plus ranking AUC; fake (label 1) is the positive class.

    ``auc`` is None when the evaluation set contains a single class.
    """

    macro_f1: float
    micro_f1: float
    auc: float | None
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def as_dict(self) -> dict:
        return {
            "macro_f1": self.macro_f1, "micro_f1": self.micro_f1, "auc": self.auc,
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
        }


def _rank_auc(labels, scores) -> float | None:
    """Mann-Whitney AUC with midranks, so ties earn half credit."""
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    rank_sum = sum(r for r, y in zip(ranks, labels) if y == 1)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


DECISION_THRESHOLD = 0.5


def compute_metrics(labels, scores) -> MetricsReport:
    """Metrics from gold labels and fake-probabilities.

    Predictions use ``score >= DECISION_THRESHOLD``; a NaN score, which has
    no rank, raises ValueError. Macro-F1 averages the two per-class F1 values
    (0 when a class has an empty denominator); micro-F1 pools counts over
    both classes, which for single-label binary data is accuracy.
    """
    if len(labels) == 0:
        raise EmptyEvalSetError("no documents to evaluate")
    if len(labels) != len(scores):
        raise ValueError("labels and scores differ in length")
    if any(math.isnan(s) for s in scores):
        raise ValueError("scores contain NaN, which has no rank")
    tp = fp = tn = fn = 0
    for y, s in zip(labels, scores):
        pred = 1 if s >= DECISION_THRESHOLD else 0
        if y == 1 and pred == 1:
            tp += 1
        elif y == 0 and pred == 1:
            fp += 1
        elif y == 0 and pred == 0:
            tn += 1
        else:
            fn += 1
    f1_fake = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    f1_true = 2 * tn / (2 * tn + fn + fp) if (2 * tn + fn + fp) else 0.0
    macro = (f1_fake + f1_true) / 2.0
    micro = (tp + tn) / len(labels)
    return MetricsReport(macro, micro, _rank_auc(labels, scores), tp, fp, tn, fn)


def evaluate(params: ModelParams, docs, table: EmbeddingTable) -> MetricsReport:
    """Score a list of labeled documents with a fixed model."""
    if not docs:
        raise EmptyEvalSetError("no documents to evaluate")
    labels = [doc.y for doc in docs]
    scores = [
        hero_model.predict(params, encode_document(params, doc.tree, table))
        for doc in docs
    ]
    return compute_metrics(labels, scores)


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val: MetricsReport

    def as_dict(self) -> dict:
        return {"epoch": self.epoch, "train_loss": self.train_loss, "val": self.val.as_dict()}


@dataclass
class TrainReport:
    config: TrainConfig
    epochs: list[EpochLog]
    best_epoch: int
    test: MetricsReport

    @property
    def best_val(self) -> MetricsReport:
        return self.epochs[self.best_epoch - 1].val

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "epochs": [e.as_dict() for e in self.epochs],
            "best_epoch": self.best_epoch,
            "test": self.test.as_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def selection_score(metrics: MetricsReport) -> float:
    # Validation AUC drives model selection; fall back to micro-F1 when the
    # validation split happens to be single-class.
    return metrics.auc if metrics.auc is not None else metrics.micro_f1


def train(split: Split, config: TrainConfig, table: EmbeddingTable) -> tuple[ModelParams, TrainReport]:
    """Per-document Adam training with best-validation-epoch checkpointing.

    One shared seeded generator drives initialization and the per-epoch
    shuffles, so identical (data, config) runs are bit-identical.
    """
    if table.dim != config.d:
        raise hero_model.DimMismatchError(
            f"embedding table dim {table.dim} != configured d {config.d}"
        )
    rng = np.random.default_rng(config.seed)
    if config.mode is SharingMode.ATTRIBUTE_SPECIFIC:
        vocab = AttributeVocab.from_trees(doc.tree for doc in split.train)
    else:
        vocab = AttributeVocab()
    params = init_model(config.d, config.mode, config.ablation, vocab, rng=rng)
    adam = nn.AdamState(lr=config.lr)
    grads: ModelParams | None = None

    logs: list[EpochLog] = []
    best_epoch = 0
    best_score = -math.inf
    # max_epochs >= 1 and scores are never NaN, so epoch 1 always sets it.
    best_params: ModelParams | None = None
    for epoch in range(1, config.max_epochs + 1):
        if config.shuffle:
            order = rng.permutation(len(split.train))
        else:
            order = np.arange(len(split.train))
        total_loss = 0.0
        for i in order:
            doc = split.train[i]
            enc = encode_document(params, doc.tree, table)
            _, loss = nn.softmax_ce(params.classifier, enc.h_doc, doc.y)
            if not math.isfinite(loss) or not np.all(np.isfinite(enc.h_doc)):
                raise NonFiniteLossError(epoch, doc.doc_id, f"loss={loss!r}")
            grads = backward(params, enc, doc.y, out=grads)
            nn.adam_step(adam, params.flat, grads.flat)
            total_loss += loss
        val = evaluate(params, split.val, table)
        logs.append(EpochLog(epoch, total_loss / len(split.train), val))
        score = selection_score(val)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_params = copy_model(params)
    test = evaluate(best_params, split.test, table)
    return best_params, TrainReport(config, logs, best_epoch, test)


@dataclass
class GridSearchResult:
    best_lr: float | None
    best_params: ModelParams | None
    reports: dict[float, TrainReport]
    failures: dict[float, str]

    def as_dict(self) -> dict:
        return {
            "best_lr": self.best_lr,
            "reports": {repr(lr): rep.as_dict() for lr, rep in self.reports.items()},
            "failures": {repr(lr): msg for lr, msg in self.failures.items()},
        }


def grid_search_lr(split: Split, base: TrainConfig, grid, table: EmbeddingTable) -> GridSearchResult:
    """Train one model per learning rate; the best validation AUC wins.

    A run that aborts with NonFiniteLossError marks its cell failed and the
    search continues. Ties break toward the smaller learning rate.
    """
    grid = list(grid)
    if not grid:
        raise ConfigError("learning-rate grid is empty")
    reports: dict[float, TrainReport] = {}
    failures: dict[float, str] = {}
    best_lr: float | None = None
    best_params: ModelParams | None = None
    best_score = -math.inf
    for lr in grid:
        config = replace(base, lr=lr)
        try:
            params, report = train(split, config, table)
        except NonFiniteLossError as exc:
            failures[lr] = str(exc)
            continue
        reports[lr] = report
        score = selection_score(report.best_val)
        if score > best_score or (score == best_score and best_lr is not None and lr < best_lr):
            best_score = score
            best_lr = lr
            best_params = params
    return GridSearchResult(best_lr, best_params, reports, failures)


def format_metrics_table(metrics: MetricsReport) -> str:
    """Fixed-column text rendering of a MetricsReport."""
    rows = [
        ("macro_f1", f"{metrics.macro_f1:.6f}"),
        ("micro_f1", f"{metrics.micro_f1:.6f}"),
        ("auc", f"{metrics.auc:.6f}" if metrics.auc is not None else "undefined"),
        ("tp", str(metrics.tp)),
        ("fp", str(metrics.fp)),
        ("tn", str(metrics.tn)),
        ("fn", str(metrics.fn)),
    ]
    return "\n".join(f"{name:<10}{value}" for name, value in rows)
