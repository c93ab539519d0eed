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
Bi-GRU call; the backward pass replays the same groups in reverse. For
inference, many trees compile into one merged schedule whose groups span
documents, and it runs forward only.
"""

from __future__ import annotations

import base64
import enum
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .embed import DimMismatchError, EmbeddingTable, embed_leaves
from .ling_tree import (
    LingTree, NodeKind, TreeNode, UnknownRRPrefixError, _kind_of_label, iter_nodes, post_order,
)


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
# No tree label holds whitespace, so the fallback keys never equal a label.
UNK_SYNTAX = "UNK SYNTAX"
UNK_RR = "UNK RR"

CHECKPOINT_VERSION = 3


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
    """Every learnable weight lives in ``flat``, one float64 vector (zeros
    when not given). ``registry`` and ``classifier`` are views into it, laid
    out in registry-key order, each key's ``fwd`` then ``bwd`` GRU as its
    stacked ``w`` then ``u`` (see nn.GruParams), then the classifier's W and
    b; a write through either side is seen by the other. Checkpoints store
    ``flat`` as is."""

    d: int
    mode: SharingMode
    ablation: AblationMode
    vocab: AttributeVocab
    flat: np.ndarray | None = None
    registry: dict[str, BiGruParams] = field(init=False)
    classifier: nn.ClassifierParams = field(init=False)

    def __post_init__(self):
        keys = registry_keys(self.mode, self.ablation, self.vocab)
        hd = self.d // 2
        size = _flat_size(self.d, len(keys))
        if self.flat is None:
            self.flat = np.zeros(size)
        if self.flat.shape != (size,) or self.flat.dtype != np.float64 or not self.flat.flags.c_contiguous:
            raise nn.ShapeMismatchError(
                f"flat parameters must be a contiguous float64 vector of {size}, "
                f"got {self.flat.dtype} {self.flat.shape}"
            )
        offset = 0

        def take(shape):
            nonlocal offset
            n = math.prod(shape)
            offset += n
            return self.flat[offset - n:offset].reshape(shape)

        def gru():
            return nn.GruParams(take((3 * hd, self.d)), take((3 * hd, hd)))

        self.registry = {key: BiGruParams(gru(), gru()) for key in keys}
        self.classifier = nn.ClassifierParams(take((2, self.d)), take((2,)))


def registry_keys(mode: SharingMode, ablation: AblationMode, vocab: AttributeVocab) -> list[str]:
    """Keys of the Bi-GRU pairs the ablation's walk can reach. RR nodes draw
    from the discourse family, EDU and syntax nodes from the syntax family;
    a family has keys only if the ablation runs a Bi-GRU on its node kinds.
    A label listed twice raises ValueError."""
    gru_kinds = _ABLATION_PLANS[ablation][0]
    discourse = NodeKind.RR in gru_kinds
    syntax = NodeKind.EDU in gru_kinds or NodeKind.SYNTAX in gru_kinds
    if mode is SharingMode.UNIFIED:
        return [UNIFIED_KEY] * (discourse or syntax)
    if mode is SharingMode.LEVEL_SPECIFIC:
        return [DISCOURSE_KEY] * discourse + [SYNTAX_KEY] * syntax
    keys = [*vocab.syntax_labels * syntax, *vocab.rr_labels * discourse,
            *[UNK_SYNTAX] * syntax, *[UNK_RR] * discourse]
    if len(set(keys)) != len(keys):
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        raise ValueError(f"registry keys must be unique, repeated: {repeated}")
    return keys


def _flat_size(d: int, n_keys: int) -> int:
    """Length of ModelParams.flat: two GRUs of 3d/2 x (d + d/2) weights per
    registry key, then the classifier's 2 x d weights and 2 biases."""
    hd = d // 2
    return 2 * n_keys * 3 * hd * (d + hd) + 2 * d + 2


def init_model(
    d: int,
    mode: SharingMode,
    ablation: AblationMode = AblationMode.FULL,
    vocab: AttributeVocab = AttributeVocab(),
    seed: int = 0,
    rng: np.random.Generator | None = None,
    random_classifier: bool = False,
) -> ModelParams:
    """Fresh parameters: GRU matrices uniform in +-1/sqrt(fan-in), classifier
    zeroed unless ``random_classifier`` (useful for gradient checking)."""
    if d <= 0 or d % 2:
        raise DimMismatchError(f"embedding width must be a positive even integer, got {d}")
    if rng is None:
        rng = np.random.default_rng(seed)
    params = ModelParams(d, mode, ablation, vocab)
    for pair in params.registry.values():
        for gru in (pair.fwd, pair.bwd):
            drawn = nn.GruParams.init(d, rng)
            gru.w[...], gru.u[...] = drawn.w, drawn.u
    if random_classifier:
        clf = nn.ClassifierParams.init(d, rng)
        params.classifier.w[...] = clf.w
        params.classifier.b[...] = clf.b
    return params


def _aggregator_key(params: ModelParams, node: TreeNode) -> str:
    """Registry key of the Bi-GRU pair that embeds ``node`` from its children:
    its family under level-specific sharing (RR nodes discourse, the others
    syntax), else its label, where an EDU borrows the label of its leading
    constituency root and an unseen label falls back to the family's UNK key."""
    if params.mode is SharingMode.UNIFIED:
        return UNIFIED_KEY
    discourse = node.kind is NodeKind.RR
    if params.mode is SharingMode.LEVEL_SPECIFIC:
        return DISCOURSE_KEY if discourse else SYNTAX_KEY
    label = node.children[0].label if node.kind is NodeKind.EDU else node.label
    return label if label in params.registry else UNK_RR if discourse else UNK_SYNTAX


@dataclass(frozen=True)
class Group:
    """Internal nodes of one height with the same registry key and child
    count: one batched Bi-GRU call."""

    key: str
    parents: np.ndarray   # (B,) rows
    children: np.ndarray  # (B, k) rows, in document order
    # Whether any child is itself a Bi-GRU node, i.e. the group is above
    # height 1. Otherwise every child is a frozen word or a word mean, and
    # the backward pass skips the children's gradient.
    input_grad: bool


@dataclass(frozen=True)
class Schedule:
    """Trees compiled for a sharing mode and an ablation. Rows of the node
    matrix are each tree's nodes in post-order, tree after tree."""

    size: int
    words: np.ndarray  # rows of the word leaves, in document order
    word_means: list[tuple[int, list[int]]]  # (row, its word rows): a mean, not a Bi-GRU
    groups: list[Group]  # by ascending height
    documents: list[np.ndarray]  # per tree, the rows whose mean is its document vector
    unk: list[int]  # per tree, the Bi-GRU nodes routed to an UNK key


# Per ablation: the node kinds embedded by a Bi-GRU over their children, the
# kinds that average the words below them, and the kind the document
# averages (None: the document is the root).
# Tuples, not sets: a membership test on a tuple compares identities, while
# a set hashes the enum member in Python code.
_ABLATION_PLANS = {
    AblationMode.FULL: ((NodeKind.RR, NodeKind.EDU, NodeKind.SYNTAX), (), None),
    AblationMode.NO_DISCOURSE: ((NodeKind.EDU, NodeKind.SYNTAX), (), NodeKind.EDU),
    AblationMode.NO_SYNTAX: ((NodeKind.RR,), (NodeKind.EDU,), None),
    AblationMode.NO_STRUCTURE: ((), (), NodeKind.WORD),
}

# A batched encode_document closes a chunk of documents once their node rows
# reach this many, which bounds the node matrix and the largest group.
CHUNK_ROWS = 2048


def compile_tree(trees: list[LingTree], params: ModelParams) -> Schedule:
    """The schedule that encode_document runs for a list of trees, and that
    backward replays for a list of one. The internal nodes of all the trees
    merge into groups by (height, key, child count); within a height, groups
    keep the order in which the trees first reach them."""
    gru_kinds, mean_kinds, doc_kind = _ABLATION_PLANS[params.ablation]
    # Heights count Bi-GRU nodes only, so under no_syntax the RR nodes
    # batch by discourse depth alone.
    height: list[int] = []
    batches: dict[tuple[int, str, int], tuple[list[int], list[int]]] = {}
    words, means, documents, unk = [], [], [], []
    for tree in trees:
        nodes = post_order(tree.root)
        row = {node: i for i, node in enumerate(nodes, len(height))}
        height += [0] * len(nodes)
        unk.append(0)
        for node, i in row.items():
            if node.kind is NodeKind.WORD:
                words.append(i)
            elif node.kind in mean_kinds:
                means.append((i, [row[n] for n in iter_nodes(node) if n.kind is NodeKind.WORD]))
            if node.kind not in gru_kinds:
                continue
            kids = [row[c] for c in node.children]
            height[i] = 1 + max(height[c] for c in kids)
            key = _aggregator_key(params, node)
            unk[-1] += key in (UNK_SYNTAX, UNK_RR)
            parents, children = batches.setdefault((height[i], key, len(kids)), ([], []))
            parents.append(i)
            children.extend(kids)
        if doc_kind is None:
            document = [len(height) - 1]
        else:
            document = [i for node, i in row.items() if node.kind is doc_kind]
        documents.append(np.array(document, dtype=np.intp))
    # A stable sort by height keeps groups of one height in first-seen order.
    groups = [
        Group(key, np.array(parents, dtype=np.intp), np.array(children, dtype=np.intp).reshape(-1, k), h > 1)
        for (h, key, k), (parents, children) in sorted(batches.items(), key=lambda item: item[0][0])
    ]
    return Schedule(len(height), np.array(words, dtype=np.intp), means, groups, documents, unk)


@dataclass
class DocumentEncoding:
    """Document vector, its OOV leaves and UNK-routed nodes, and, for a tree
    encoded alone, everything the backward pass needs. A batched encoding
    runs forward only: its schedule, vectors and traces are None."""

    h_doc: np.ndarray
    schedule: Schedule | None = None
    vectors: np.ndarray | None = None  # the node matrix, rows as in the schedule
    traces: list[tuple[nn.GruTrace, nn.GruTrace]] | None = None  # (forward, backward) per group
    oov: int = 0
    unk: int = 0


def _chunks(trees):
    """Consecutive runs of ``trees``, each closed once its node rows reach CHUNK_ROWS."""
    chunk, rows = [], 0
    for tree in trees:
        chunk.append(tree)
        rows += len(post_order(tree.root))
        if rows >= CHUNK_ROWS:
            yield chunk
            chunk, rows = [], 0
    if chunk:
        yield chunk


def encode_document(params: ModelParams, trees, table: EmbeddingTable):
    """Embed documents bottom-up under the model's sharing mode and ablation.

    One tree gives its DocumentEncoding with the traces backward needs. A
    list of trees gives one forward-only encoding per tree: each chunk of
    them (see CHUNK_ROWS) runs as one merged schedule and keeps no trace.
    Every h_doc is bit-identical to the tree's own encoding, because the
    forward kernel multiplies each row on its own.
    """
    if table.dim != params.d:
        raise DimMismatchError(f"embedding table dim {table.dim} != model dim {params.d}")
    single = isinstance(trees, LingTree)
    hd = params.d // 2
    encodings = []
    for chunk in [[trees]] if single else _chunks(trees):
        schedule = compile_tree(chunk, params)
        leaves = [embed_leaves(table, tree) for tree in chunk]
        vectors = np.zeros((schedule.size, params.d))
        vectors[schedule.words] = np.concatenate([leaf.vectors for leaf in leaves])
        for i, words in schedule.word_means:
            vectors[i] = vectors[words].mean(axis=0)
        traces = []
        for group in schedule.groups:
            pair = params.registry[group.key]
            xs = vectors[group.children]
            # Mean over positions of [fwd_i (+) bwd_i]; the mean is order-free,
            # so each half is just that direction's average hidden state.
            fwd = nn.gru_forward(pair.fwd, xs)
            vectors[group.parents, :hd] = fwd.h.mean(axis=1)
            bwd = nn.gru_forward(pair.bwd, xs[:, ::-1])
            vectors[group.parents, hd:] = bwd.h.mean(axis=1)
            if single:
                traces.append((fwd, bwd))
        h_docs = [vectors[rows].mean(axis=0) for rows in schedule.documents]
        if single:
            return DocumentEncoding(h_docs[0], schedule, vectors, traces, leaves[0].oov, schedule.unk[0])
        encodings += [
            DocumentEncoding(h, oov=leaf.oov, unk=unk) for h, leaf, unk in zip(h_docs, leaves, schedule.unk)
        ]
    return encodings


def predict(params: ModelParams, enc: DocumentEncoding) -> float:
    """Probability that the encoded document is fake."""
    p_fake, _ = nn.softmax_ce(params.classifier, enc.h_doc, 1)
    return p_fake


def copy_model(params: ModelParams) -> ModelParams:
    """An independent copy: a new flat buffer with its own views."""
    return replace(params, flat=params.flat.copy())


def backward(
    params: ModelParams, enc: DocumentEncoding, y: int, out: ModelParams | None = None
) -> ModelParams:
    """Gradients of the document's cross-entropy loss w.r.t. all parameters.

    Replays the schedule's groups in reverse, so contributions of a registry
    key used by several groups accumulate in a fixed order. Word-embedding
    gradients are dropped (embeddings are frozen). The result is a
    ModelParams of the model's layout holding gradients instead of weights:
    ``out``, zeroed and refilled, when given (a trainer reuses one buffer
    across steps), else a new one.
    """
    schedule = enc.schedule
    if enc.traces is None:
        raise MissingTraceError("a batched encoding runs forward only and keeps no traces")
    if len(enc.traces) != len(schedule.groups):
        raise MissingTraceError(
            f"{len(enc.traces)} forward traces for {len(schedule.groups)} schedule groups"
        )
    if out is None:
        grads = replace(params, flat=np.zeros_like(params.flat))
    elif out.flat.shape != params.flat.shape:
        raise nn.ShapeMismatchError(f"gradient buffer {out.flat.shape} vs parameters {params.flat.shape}")
    else:
        grads = out
        grads.flat.fill(0.0)
    dw, db, dh = nn.softmax_ce_backward(params.classifier, enc.h_doc, y)
    grads.classifier.w += dw
    grads.classifier.b += db

    hd = params.d // 2
    d_vectors = np.zeros_like(enc.vectors)
    (document,) = schedule.documents
    d_vectors[document] = dh / len(document)
    for group, (fwd, bwd) in zip(reversed(schedule.groups), reversed(enc.traces)):
        up = d_vectors[group.parents] / group.children.shape[1]
        pair = params.registry[group.key]
        acc = grads.registry[group.key]
        g_fwd, dx_fwd = nn.gru_backward(
            pair.fwd, fwd, np.broadcast_to(up[:, None, :hd], fwd.h.shape), group.input_grad)
        g_bwd, dx_bwd = nn.gru_backward(
            pair.bwd, bwd, np.broadcast_to(up[:, None, hd:], bwd.h.shape), group.input_grad)
        acc.fwd.w += g_fwd.w
        acc.fwd.u += g_fwd.u
        acc.bwd.w += g_bwd.w
        acc.bwd.u += g_bwd.u
        if group.input_grad:
            d_vectors[group.children] += dx_fwd + dx_bwd[:, ::-1]
    return grads


def param_count(params: ModelParams) -> int:
    return params.flat.size


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
        work.flat[...] = vec
        e = encode_document(work, tree, table)
        _, loss = nn.softmax_ce(work.classifier, e.h_doc, y)
        return loss

    return nn.finite_diff_check(loss_at, params.flat, grads.flat, step)


# Values per base64 chunk written by save_model: a multiple of 3, so every
# chunk but the last is a whole number of 3-byte groups and carries no padding.
_SAVE_CHUNK = 3 << 16


def save_model(params: ModelParams, path) -> None:
    """Write a JSON checkpoint: the header that fixes the layout (mode,
    ablation, width, vocabulary) and ``flat``, in the order ModelParams
    documents, as base64 of its little-endian float64 bytes. The base64 text
    is written chunk by chunk, so no full-size copy of it is held."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "mode": params.mode.value,
        "ablation": params.ablation.value,
        "d": params.d,
        "attribute_vocab": {
            "syntax": list(params.vocab.syntax_labels),
            "rr": list(params.vocab.rr_labels),
        },
        "flat": "",
    }
    # Inside a JSON string every quote is escaped, so this is the key itself.
    head, _, tail = json.dumps(doc, sort_keys=True).partition('"flat": ""')
    flat = params.flat.astype("<f8", copy=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '"flat": "')
        for start in range(0, flat.size, _SAVE_CHUNK):
            fh.write(base64.b64encode(flat[start:start + _SAVE_CHUNK]).decode("ascii"))
        fh.write('"' + tail + "\n")


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
        d = doc["d"]
        # int() would take "8", 8.9 and true; only a JSON integer is a width.
        if type(d) is not int or d <= 0 or d % 2:
            raise CorruptCheckpointError(f"embedding width must be a positive even integer, got {d!r}")
        labels = [doc["attribute_vocab"][level] for level in ("syntax", "rr")]
        if not all(isinstance(names, list) and all(isinstance(n, str) for n in names) for names in labels):
            raise CorruptCheckpointError("attribute_vocab labels must be lists of strings")
        vocab = AttributeVocab(*map(tuple, labels))
        keys = registry_keys(mode, ablation, vocab)
        # A label listed at the wrong level would route nodes of one family
        # to the other family's GRU.
        for level, names, kind in zip(("syntax", "rr"), labels, (NodeKind.SYNTAX, NodeKind.RR)):
            for name in names:
                try:
                    found = _kind_of_label(name)
                except UnknownRRPrefixError as exc:
                    raise CorruptCheckpointError(f"attribute_vocab {level} label: {exc}") from exc
                if found is not kind:
                    raise CorruptCheckpointError(
                        f"attribute_vocab {level} label {name!r} is a {found.value} label"
                    )
        raw = base64.b64decode(doc["flat"], validate=True)
        # Checked before anything of the header's size is allocated, so a
        # corrupt d cannot ask for more memory than the file holds.
        expected = 8 * _flat_size(d, len(keys))
        if len(raw) != expected:
            raise CorruptCheckpointError(
                f"stored parameters do not fit the mode and vocabulary: "
                f"{len(raw)} bytes stored, {expected} expected"
            )
        flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        if not np.isfinite(flat).all():
            raise CorruptCheckpointError("stored parameters hold a non-finite value")
        params = ModelParams(d, mode, ablation, vocab, flat)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (CorruptCheckpointError, VersionMismatchError)):
            raise
        raise CorruptCheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    return params
