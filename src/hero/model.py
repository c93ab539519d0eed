"""Recursive document encoder over linguistic trees.

Every internal node is embedded by running a forward and a backward GRU over
its children's vectors, concatenating the two hidden states per position and
mean-pooling across positions. Repeating this bottom-up yields the document
vector at the root, which a two-logit softmax head classifies.

Three sharing modes decide which nodes reuse which GRU parameters (a single
shared pair, one pair per linguistic level, or one pair per parent label),
and three ablations replace parts of the tree walk with plain averaging.

A tree is first compiled into a Schedule: the rows of one node-vector
matrix, groups of internal nodes that share a height, a registry key and a
child count, and the ablation's mean-pools. Each group runs as one batched
Bi-GRU call; the backward pass replays the same groups in reverse.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from . import nn
from .embed import EmbeddingTable, embed_leaves
from .ling_tree import Level, LingTree, NodeKind, TreeNode, iter_nodes, post_order


class SharingMode(enum.Enum):
    UNIFIED = "unified"
    LEVEL_SPECIFIC = "level_specific"
    ATTRIBUTE_SPECIFIC = "attribute_specific"


class AblationMode(enum.Enum):
    FULL = "full"
    NO_DISCOURSE = "no_discourse"    # document = mean of EDU encodings
    NO_SYNTAX = "no_syntax"          # EDU = mean of its word embeddings
    NO_STRUCTURE = "no_structure"    # document = mean of all word embeddings


UNIFIED_KEY = "shared"
SYNTAX_KEY = "SYNTAX"
DISCOURSE_KEY = "DISCOURSE"
UNK_SYNTAX = "UNK_SYNTAX"
UNK_RR = "UNK_RR"

CHECKPOINT_VERSION = 1


class DimMismatchError(ValueError):
    pass


class MissingTraceError(ValueError):
    pass


class VersionMismatchError(ValueError):
    pass


class CorruptCheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class AttributeVocab:
    """Parent labels observed in training data, kept in first-seen order."""

    syntax_labels: tuple[str, ...] = ()
    rr_labels: tuple[str, ...] = ()

    @classmethod
    def from_trees(cls, trees) -> "AttributeVocab":
        syntax: dict[str, None] = {}
        rr: dict[str, None] = {}
        for tree in trees:
            for node in iter_nodes(tree.root):
                if node.kind is NodeKind.RR:
                    rr[node.label] = None
                elif node.kind is NodeKind.SYNTAX:
                    syntax[node.label] = None
        return cls(tuple(syntax), tuple(rr))


@dataclass
class BiGruParams:
    """Separate parameter sets for the left-to-right and right-to-left passes."""

    fwd: nn.GruParams
    bwd: nn.GruParams

    def copy(self) -> "BiGruParams":
        return BiGruParams(self.fwd.copy(), self.bwd.copy())


@dataclass
class ModelParams:
    d: int
    mode: SharingMode
    ablation: AblationMode
    vocab: AttributeVocab
    registry: dict[str, BiGruParams]
    classifier: nn.ClassifierParams


def registry_keys(mode: SharingMode, vocab: AttributeVocab) -> list[str]:
    if mode is SharingMode.UNIFIED:
        return [UNIFIED_KEY]
    if mode is SharingMode.LEVEL_SPECIFIC:
        return [DISCOURSE_KEY, SYNTAX_KEY]
    return [*vocab.syntax_labels, *vocab.rr_labels, UNK_SYNTAX, UNK_RR]


def init_model(
    d: int,
    mode: SharingMode,
    ablation: AblationMode = AblationMode.FULL,
    vocab: AttributeVocab | None = None,
    seed: int = 0,
    rng: np.random.Generator | None = None,
    random_classifier: bool = False,
) -> ModelParams:
    """Fresh parameters: GRU matrices uniform in +-1/sqrt(fan-in), classifier
    zeroed unless ``random_classifier`` (useful for gradient checking)."""
    if d <= 0 or d % 2:
        raise DimMismatchError(f"embedding width must be a positive even integer, got {d}")
    if vocab is None:
        vocab = AttributeVocab()
    if rng is None:
        rng = np.random.default_rng(seed)
    registry = {
        key: BiGruParams(nn.GruParams.init(d, rng), nn.GruParams.init(d, rng))
        for key in registry_keys(mode, vocab)
    }
    clf = nn.ClassifierParams.init(d, rng) if random_classifier else nn.ClassifierParams.zeros(d)
    return ModelParams(d, mode, ablation, vocab, registry, clf)


def _aggregator_key(mode: SharingMode, keys, parent: TreeNode, child: TreeNode) -> str:
    if mode is SharingMode.UNIFIED:
        return UNIFIED_KEY
    if mode is SharingMode.LEVEL_SPECIFIC:
        return DISCOURSE_KEY if child.level is Level.DISCOURSE else SYNTAX_KEY
    if parent.kind is NodeKind.RR:
        return parent.label if parent.label in keys else UNK_RR
    if parent.kind is NodeKind.EDU:
        label = parent.children[0].label
    else:
        label = parent.label
    return label if label in keys else UNK_SYNTAX


def select_aggregator(params: ModelParams, parent: TreeNode, child: TreeNode) -> str:
    """Registry key for aggregating ``child`` (and its siblings) under ``parent``.

    Level-specific sharing keys on the child's level; attribute-specific
    sharing keys on the parent's label, where an EDU borrows the label of its
    leading constituency root. Labels unseen at training time fall back to
    the matching UNK entry.
    """
    return _aggregator_key(params.mode, params.registry, parent, child)


@dataclass(frozen=True)
class Group:
    """Internal nodes of one height with the same registry key and child
    count: one batched Bi-GRU call."""

    key: str
    parents: np.ndarray   # (B,) rows
    children: np.ndarray  # (B, k) rows, in document order


@dataclass(frozen=True)
class Schedule:
    """One tree compiled for a sharing mode and an ablation. Rows of the
    node matrix are the tree's nodes in post-order."""

    size: int
    words: np.ndarray  # rows of the word leaves, in document order
    word_means: list[tuple[int, list[int]]]  # (row, its word rows): a mean, not a Bi-GRU
    groups: list[Group]  # by ascending height
    document: np.ndarray  # rows whose mean is the document vector


# Per ablation: the node kinds embedded by a Bi-GRU over their children, the
# kinds that average the words below them, and the kind the document
# averages (None: the document is the root).
_ABLATION_PLANS = {
    AblationMode.FULL: ({NodeKind.RR, NodeKind.EDU, NodeKind.SYNTAX}, set(), None),
    AblationMode.NO_DISCOURSE: ({NodeKind.EDU, NodeKind.SYNTAX}, set(), NodeKind.EDU),
    AblationMode.NO_SYNTAX: ({NodeKind.RR}, {NodeKind.EDU}, None),
    AblationMode.NO_STRUCTURE: (set(), set(), NodeKind.WORD),
}


def compile_tree(
    tree: LingTree, mode: SharingMode, ablation: AblationMode, vocab: AttributeVocab
) -> Schedule:
    """The schedule that encode_document and backward both run for ``tree``."""
    gru_kinds, mean_kinds, doc_kind = _ABLATION_PLANS[ablation]
    keys = set(registry_keys(mode, vocab))
    nodes = post_order(tree.root)
    row = {node: i for i, node in enumerate(nodes)}
    # Heights count Bi-GRU nodes only, so under no_syntax the RR nodes
    # batch by discourse depth alone.
    height = [0] * len(nodes)
    batches: dict[tuple[int, str, int], tuple[list[int], list[int]]] = {}
    means = []
    for i, node in enumerate(nodes):
        if node.kind in mean_kinds:
            means.append((i, [row[n] for n in iter_nodes(node) if n.kind is NodeKind.WORD]))
        if node.kind not in gru_kinds:
            continue
        kids = [row[c] for c in node.children]
        height[i] = 1 + max(height[c] for c in kids)
        key = _aggregator_key(mode, keys, node, node.children[0])
        parents, children = batches.setdefault((height[i], key, len(kids)), ([], []))
        parents.append(i)
        children.extend(kids)
    # A stable sort by height keeps groups of one height in first-seen order.
    groups = [
        Group(key, np.array(parents, dtype=np.intp), np.array(children, dtype=np.intp).reshape(-1, k))
        for (_, key, k), (parents, children) in sorted(batches.items(), key=lambda item: item[0][0])
    ]
    if doc_kind is None:
        document = [len(nodes) - 1]
    else:
        document = [i for i, node in enumerate(nodes) if node.kind is doc_kind]
    return Schedule(
        size=len(nodes),
        words=np.array([i for i, n in enumerate(nodes) if n.kind is NodeKind.WORD], dtype=np.intp),
        word_means=means,
        groups=groups,
        document=np.array(document, dtype=np.intp),
    )


@dataclass
class DocumentEncoding:
    """Document vector plus everything the backward pass needs."""

    h_doc: np.ndarray
    schedule: Schedule
    vectors: np.ndarray  # the node matrix, rows as in the schedule
    traces: list[tuple[nn.GruTrace, nn.GruTrace]]  # (forward, backward) per group
    oov: int = 0


def encode_document(params: ModelParams, tree: LingTree, table: EmbeddingTable) -> DocumentEncoding:
    """Embed the document bottom-up under the model's sharing mode and ablation."""
    if table.dim != params.d:
        raise DimMismatchError(f"embedding table dim {table.dim} != model dim {params.d}")
    schedule = compile_tree(tree, params.mode, params.ablation, params.vocab)
    leaves = embed_leaves(table, tree)
    vectors = np.zeros((schedule.size, params.d))
    vectors[schedule.words] = leaves.vectors
    for i, words in schedule.word_means:
        vectors[i] = vectors[words].mean(axis=0)
    hd = params.d // 2
    traces = []
    for group in schedule.groups:
        pair = params.registry[group.key]
        xs = vectors[group.children]
        fwd = nn.gru_forward(pair.fwd, xs)
        bwd = nn.gru_forward(pair.bwd, xs[:, ::-1])
        # Mean over positions of [fwd_i (+) bwd_i]; the mean is order-free,
        # so each half is just that direction's average hidden state.
        vectors[group.parents, :hd] = fwd.h.mean(axis=1)
        vectors[group.parents, hd:] = bwd.h.mean(axis=1)
        traces.append((fwd, bwd))
    h_doc = vectors[schedule.document].mean(axis=0)
    return DocumentEncoding(h_doc, schedule, vectors, traces, leaves.oov)


def predict(params: ModelParams, enc: DocumentEncoding) -> float:
    """Probability that the encoded document is fake."""
    p_fake, _ = nn.softmax_ce(params.classifier, enc.h_doc, 1)
    return p_fake


def zeros_like_model(params: ModelParams) -> ModelParams:
    """A parameter container of the same shape filled with zeros."""
    registry = {
        key: BiGruParams(nn.GruParams.zeros(params.d), nn.GruParams.zeros(params.d))
        for key in params.registry
    }
    return ModelParams(
        params.d, params.mode, params.ablation, params.vocab,
        registry, nn.ClassifierParams.zeros(params.d),
    )


def copy_model(params: ModelParams) -> ModelParams:
    registry = {key: pair.copy() for key, pair in params.registry.items()}
    return ModelParams(
        params.d, params.mode, params.ablation, params.vocab,
        registry, params.classifier.copy(),
    )


def _add_gru(acc: nn.GruParams, grads: nn.GruParams) -> None:
    for a, g in zip(acc.matrices(), grads.matrices()):
        a += g


def backward(params: ModelParams, enc: DocumentEncoding, y: int) -> ModelParams:
    """Gradients of the document's cross-entropy loss w.r.t. all parameters.

    Replays the schedule's groups in reverse, so contributions of a registry
    key used by several groups accumulate in a fixed order. Word-embedding
    gradients are dropped (embeddings are frozen). The result reuses the
    ModelParams container, holding gradients instead of weights.
    """
    schedule = enc.schedule
    if len(enc.traces) != len(schedule.groups):
        raise MissingTraceError(
            f"{len(enc.traces)} forward traces for {len(schedule.groups)} schedule groups"
        )
    grads = zeros_like_model(params)
    dw, db, dh = nn.softmax_ce_backward(params.classifier, enc.h_doc, y)
    grads.classifier.w += dw
    grads.classifier.b += db

    hd = params.d // 2
    d_vectors = np.zeros_like(enc.vectors)
    d_vectors[schedule.document] = dh / len(schedule.document)
    for group, (fwd, bwd) in zip(reversed(schedule.groups), reversed(enc.traces)):
        up = d_vectors[group.parents] / group.children.shape[1]
        pair = params.registry[group.key]
        acc = grads.registry[group.key]
        g_fwd, dx_fwd = nn.gru_backward(pair.fwd, fwd, np.broadcast_to(up[:, None, :hd], fwd.h.shape))
        g_bwd, dx_bwd = nn.gru_backward(pair.bwd, bwd, np.broadcast_to(up[:, None, hd:], bwd.h.shape))
        _add_gru(acc.fwd, g_fwd)
        _add_gru(acc.bwd, g_bwd)
        d_vectors[group.children] += dx_fwd + dx_bwd[:, ::-1]
    return grads


def _param_arrays(params: ModelParams):
    """All learnable tensors in a fixed, documented order."""
    for key in params.registry:
        pair = params.registry[key]
        for gru in (pair.fwd, pair.bwd):
            yield from gru.matrices()
    yield params.classifier.w
    yield params.classifier.b


def param_count(params: ModelParams) -> int:
    return sum(a.size for a in _param_arrays(params))


def params_to_vec(params: ModelParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in _param_arrays(params)])


def vec_to_params(params: ModelParams, vec: np.ndarray) -> None:
    """Write a flat vector back into the model's tensors, in place."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.size != param_count(params):
        raise nn.ShapeMismatchError(f"vector size {vec.size} != parameter count {param_count(params)}")
    offset = 0
    for a in _param_arrays(params):
        a[...] = vec[offset:offset + a.size].reshape(a.shape)
        offset += a.size


def gradient_check_model(
    params: ModelParams,
    tree: LingTree,
    table: EmbeddingTable,
    y: int = 1,
    step: float = 3e-4,
) -> float:
    """Worst relative error of the full-model analytic gradient vs central
    finite differences on one document.

    The default step is larger than finite_diff_check's because the loss here
    is O(1) while many deep parameters have gradients near the 1e-8 error
    floor; 3e-4 keeps the difference-quotient roundoff below that floor.
    """
    enc = encode_document(params, tree, table)
    grads = backward(params, enc, y)
    work = copy_model(params)

    def loss_at(vec: np.ndarray) -> float:
        vec_to_params(work, vec)
        e = encode_document(work, tree, table)
        _, loss = nn.softmax_ce(work.classifier, e.h_doc, y)
        return loss

    return nn.finite_diff_check(loss_at, params_to_vec(params), params_to_vec(grads), step)


def _gru_to_lists(gru: nn.GruParams) -> dict:
    return {
        "W_r": gru.w_r.tolist(), "W_z": gru.w_z.tolist(), "W_h": gru.w_h.tolist(),
        "U_r": gru.u_r.tolist(), "U_z": gru.u_z.tolist(), "U_h": gru.u_h.tolist(),
    }


def _gru_from_lists(doc: dict, d: int) -> nn.GruParams:
    hd = d // 2
    shapes = {"W_r": (hd, d), "W_z": (hd, d), "W_h": (hd, d),
              "U_r": (hd, hd), "U_z": (hd, hd), "U_h": (hd, hd)}
    mats = {}
    for name, shape in shapes.items():
        arr = np.array(doc[name], dtype=np.float64)
        if arr.shape != shape:
            raise CorruptCheckpointError(f"matrix {name} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise CorruptCheckpointError(f"matrix {name} holds a non-finite value")
        mats[name] = arr
    return nn.GruParams(mats["W_r"], mats["W_z"], mats["W_h"],
                        mats["U_r"], mats["U_z"], mats["U_h"])


def save_model(params: ModelParams, path) -> None:
    """Write a self-describing JSON checkpoint with full float precision."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "mode": params.mode.value,
        "ablation": params.ablation.value,
        "d": params.d,
        "attribute_vocab": {
            "syntax": list(params.vocab.syntax_labels),
            "rr": list(params.vocab.rr_labels),
        },
        "registry": {
            key: {"fwd": _gru_to_lists(pair.fwd), "bwd": _gru_to_lists(pair.bwd)}
            for key, pair in params.registry.items()
        },
        "classifier": {"W": params.classifier.w.tolist(), "b": params.classifier.b.tolist()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> ModelParams:
    """Inverse of save_model; predictions of the loaded model are bit-identical."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptCheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CorruptCheckpointError(f"{path} is not a model checkpoint")
    if doc["version"] != CHECKPOINT_VERSION:
        raise VersionMismatchError(
            f"checkpoint version {doc['version']!r}, this build reads {CHECKPOINT_VERSION}"
        )
    try:
        mode = SharingMode(doc["mode"])
        ablation = AblationMode(doc["ablation"])
        d = int(doc["d"])
        vocab = AttributeVocab(
            tuple(doc["attribute_vocab"]["syntax"]),
            tuple(doc["attribute_vocab"]["rr"]),
        )
        expected = registry_keys(mode, vocab)
        stored = doc["registry"]
        if sorted(stored) != sorted(expected):
            raise CorruptCheckpointError("registry keys do not match mode and vocabulary")
        registry = {
            key: BiGruParams(_gru_from_lists(stored[key]["fwd"], d),
                             _gru_from_lists(stored[key]["bwd"], d))
            for key in expected
        }
        w = np.array(doc["classifier"]["W"], dtype=np.float64)
        b = np.array(doc["classifier"]["b"], dtype=np.float64)
        if w.shape != (2, d) or b.shape != (2,):
            raise CorruptCheckpointError(f"classifier shapes {w.shape}, {b.shape} do not match d={d}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise CorruptCheckpointError("classifier holds a non-finite value")
        clf = nn.ClassifierParams(w, b)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (CorruptCheckpointError, VersionMismatchError)):
            raise
        raise CorruptCheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    return ModelParams(d, mode, ablation, vocab, registry, clf)
