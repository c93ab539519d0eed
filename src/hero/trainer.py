"""Dataset handling, the train/validate/test protocol, metrics and the
learning-rate grid search.

Documents are labeled trees (1 = fake, 0 = true) read from JSONL. Training
runs per-document Adam updates, scores every epoch on the validation split,
and returns the parameters of the epoch with the best validation AUC.
"""

from __future__ import annotations

import gc
import json
import math
import typing
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from . import model as hero_model
from . import nn
from .embed import EmbeddingTable
from .ling_tree import LingTree, TreeError, parse_sexpr, serialize_sexpr
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
    Returns (valid documents, [(line_no, message), ...]). A line that is not
    UTF-8 (raw bytes, or a JSON escape that decodes to a lone surrogate) or
    that json cannot parse (nested too deeply, an integer over the digit
    limit) is a problem of that line.

    The cyclic garbage collector is paused for the whole scan and turned back
    on afterwards if it was on before. A parsed tree points only downward
    (children are tuples of nodes), so the scan makes no reference cycles and
    reference counting frees all it discards; left on, the collector would
    re-walk every live tree each time a scan allocates enough new nodes.
    When it turns collection back on, it moves the scan's objects straight
    to the oldest generation (``gc.freeze()`` then ``gc.unfreeze()``), so no
    young-generation pass walks them either; a full collection still does.
    Young objects the caller allocated before the scan move with them. If
    the caller already holds frozen objects, the scan skips the move, since
    ``gc.unfreeze()`` would release those too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _scan_lines(path)
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _scan_lines(path) -> tuple[list[LabeledDocument], list[tuple[int, str]]]:
    docs: list[LabeledDocument] = []
    problems: list[tuple[int, str]] = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                # An undecodable byte was escaped to a non-ASCII surrogate.
                if not line.isascii():
                    line.encode(errors="surrogateescape").decode()
                record = json.loads(line)
            except UnicodeDecodeError as exc:
                problems.append((line_no, f"not UTF-8: {exc}"))
                continue
            except (ValueError, RecursionError) as exc:  # ValueError: also an over-long integer
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
            try:  # a JSON escape such as \ud800 decodes to a lone surrogate
                doc_id.encode()
                tree_text.encode()
            except UnicodeEncodeError as exc:
                problems.append((line_no, f"not UTF-8: {exc}"))
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
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record = {"id": doc.doc_id, "label": doc.y, "tree": serialize_sexpr(doc.tree)}
            fh.write(json.dumps(record) + "\n")


def _by_value(items) -> dict:
    """The dict_factory of every record's as_dict: enums are written by value."""
    return {key: value.value if isinstance(value, Enum) else value for key, value in items}


@dataclass
class TrainConfig:
    lr: float = 1e-4
    max_epochs: int = 50
    seed: int = 0
    d: int = 100
    mode: SharingMode = SharingMode.UNIFIED
    ablation: AblationMode = AblationMode.FULL

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and non-negative, got {self.lr}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.d <= 0 or self.d % 2:
            raise ConfigError(f"d must be a positive even integer, got {self.d}")
        hero_model.flat_size(self.d, 1)  # a width no array can hold raises before any work


def parse_config(text: str) -> TrainConfig:
    """Parse key=value lines ('#' starts a comment) into a TrainConfig.

    The keys are TrainConfig's fields, each value converted with its field's
    type; an unknown or repeated key, or a bad value, raises ConfigError.
    """
    types = typing.get_type_hints(TrainConfig)
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {line_no}: repeated key {key!r}")
        values[key] = value.strip()
    unknown = sorted(values.keys() - types.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        kwargs = {key: types[key](value) for key, value in values.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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

    def as_dict(self) -> dict:
        return asdict(self, dict_factory=_by_value)


def _rank_auc(labels, scores) -> float | None:
    """Mann-Whitney AUC with midranks, so ties earn half credit."""
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ordered = sorted(scores)  # twice a score's midrank is bisect_left + bisect_right + 1
    twice = sum(bisect_left(ordered, s) + bisect_right(ordered, s) + 1
                for s, y in zip(scores, labels) if y == 1)
    return (twice / 2.0 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


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


def evaluate(params: ModelParams, docs, table: EmbeddingTable) -> tuple[MetricsReport, int, int]:
    """Score a list of labeled documents with a fixed model, encoding them
    batched and forward only. Returns the metrics, then the totals of OOV
    leaves and of UNK-routed nodes; compute_metrics rejects an empty list."""
    encodings = encode_document(params, [doc.tree for doc in docs], table)
    scores = [hero_model.predict(params, enc) for enc in encodings]
    metrics = compute_metrics([doc.y for doc in docs], scores)
    return metrics, sum(enc.oov for enc in encodings), sum(enc.unk for enc in encodings)


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val: MetricsReport


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
        return asdict(self, dict_factory=_by_value)

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

    Training holds three model-sized buffers, the parameters and Adam's two
    moments, plus one step's gradients while that step runs: backward
    returns a fresh buffer that the update consumes, and none is kept
    between steps. The best epoch's weights go to one snapshot buffer,
    allocated at the first improvement and refilled at each later one. The
    moments are released once the final epoch's updates are done, before
    its snapshot is taken. One model.Workspace serves every step: the
    document-wide Bi-GRU inputs, pre-activation gradients and per-key
    gathers of a step are written over the last step's, in buffers that
    grow to the largest training document.

    An empty training split raises TooFewDocumentsError before any work. A
    step whose loss, document vector or gradient holds a non-finite value
    raises NonFiniteLossError naming that document, before the update.
    """
    if not split.train:
        raise TooFewDocumentsError("need at least 1 training document, got 0")
    rng = np.random.default_rng(config.seed)
    if config.mode is SharingMode.ATTRIBUTE_SPECIFIC:
        vocab = AttributeVocab.from_trees(doc.tree for doc in split.train)
    else:
        vocab = AttributeVocab()
    params = init_model(config.d, config.mode, config.ablation, vocab, rng=rng)
    adam = nn.AdamState(lr=config.lr)
    workspace = hero_model.Workspace()

    logs: list[EpochLog] = []
    best_epoch = 0
    best_score = -math.inf
    # max_epochs >= 1 and scores are never NaN, so epoch 1 always sets it.
    snapshot: ModelParams | None = None
    for epoch in range(1, config.max_epochs + 1):
        total_loss = 0.0
        for i in rng.permutation(len(split.train)):
            doc = split.train[i]
            enc = encode_document(params, doc.tree, table, workspace)
            _, loss = nn.softmax_ce(params.classifier, enc.h_doc, doc.y)
            if not math.isfinite(loss) or not np.all(np.isfinite(enc.h_doc)):
                raise NonFiniteLossError(epoch, doc.doc_id, f"loss={loss!r}")
            grads = backward(params, enc, doc.y).flat
            # One pass over the gradient: its squared norm is finite only if
            # every entry is (and none is beyond ~1e154, where Adam's g * g
            # would overflow anyway).
            norm2 = float(np.dot(grads, grads))
            if not math.isfinite(norm2):
                raise NonFiniteLossError(epoch, doc.doc_id, f"gradient squared norm={norm2!r}")
            nn.adam_step(adam, params.flat, grads)
            del grads  # the next step's backward would otherwise hold two gradient buffers
            total_loss += loss
        if epoch == config.max_epochs:
            adam = None  # training is over: free the moments before the snapshot
        val, _, _ = evaluate(params, split.val, table)
        logs.append(EpochLog(epoch, total_loss / len(split.train), val))
        score = selection_score(val)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            if snapshot is None:
                snapshot = copy_model(params)
            else:
                np.copyto(snapshot.flat, params.flat)
    test, _, _ = evaluate(snapshot, split.test, table)
    return snapshot, TrainReport(config, logs, best_epoch, test)


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

    to_json = TrainReport.to_json  # every report file has one JSON layout


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
    """Fixed-column text rendering of a MetricsReport, one row per field: an
    int as is, a float to 6 decimals, a missing AUC as ``undefined``."""
    rows = []
    for name, value in metrics.as_dict().items():
        if value is None:
            value = "undefined"
        elif not isinstance(value, int):
            value = f"{value:.6f}"
        rows.append(f"{name:<10}{value}")
    return "\n".join(rows)
