"""Recursive document encoder over linguistic trees.

Every internal node is embedded by running a forward and a backward GRU over
its children's vectors, concatenating the two hidden states per position and
mean-pooling across positions. Repeating this bottom-up yields the document
vector at the root, which a two-logit softmax head classifies.

Three sharing modes decide which nodes reuse which GRU parameters (a single
shared pair, one pair per linguistic level, or one pair per parent label),
and three ablations replace parts of the tree walk with plain averaging.

A tree is first compiled into a Schedule: the rows of one node-vector
matrix, batches of internal nodes that share a height and a child count,
and the ablation's mean-pools. A batch lists its rows as segments, one per
registry key, and runs as one kernel call over both GRU directions and
every segment's weights; each row is multiplied on its own, so a node's
vector does not depend on what else shares its batch. The backward pass
replays the batches in reverse, and each batch's kernel call adds its
segments' weight gradients, in row order, as it finishes: one walk, run
forward and then backward, fixes every sum's order. For inference,
consecutive trees compile into merged schedules whose batches span
documents, and they run forward only.
"""

from __future__ import annotations

import base64
import enum
import json
import math
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterator

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
class BiGruParams(nn.GruParams):
    """Separate parameter sets for the left-to-right and right-to-left passes,
    stacked as one pair (see nn.GruParams): w is (2, 3d/2, d), u is
    (2, 3d/2, d/2). ``fwd`` and ``bwd`` are writable views of the two."""

    @property
    def fwd(self) -> nn.GruParams:
        return nn.GruParams(self.w[0], self.u[0])

    @property
    def bwd(self) -> nn.GruParams:
        return nn.GruParams(self.w[1], self.u[1])

    def copy(self) -> "BiGruParams":
        return BiGruParams(self.w.copy(), self.u.copy())


@dataclass
class ModelParams:
    """Every learnable weight lives in ``flat``, one float64 vector (zeros
    when not given). ``registry`` and ``classifier`` are views into it, laid
    out in registry-key order, each key's ``fwd`` then ``bwd`` GRU as its
    stacked ``w`` then ``u`` (see nn.GruParams), then the classifier's W and
    b; a write through either side is seen by the other. A key's pair reads
    both ``w`` (and both ``u``) through one strided view. Checkpoints store
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
        size = flat_size(self.d, len(keys))
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

        def pair():
            # Rows of a key's block: fwd w and u, then bwd w and u.
            block, cut = take((2, 3 * hd * (self.d + hd))), 3 * hd * self.d
            return BiGruParams(block[:, :cut].reshape(2, 3 * hd, self.d),
                               block[:, cut:].reshape(2, 3 * hd, hd))

        self.registry = {key: pair() for key in keys}
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


def flat_size(d: int, n_keys: int) -> int:
    """Length of ModelParams.flat: two GRUs of 3d/2 x (d + d/2) weights per
    registry key, then the classifier's 2 x d weights and 2 biases; raises
    DimMismatchError for a length no float64 array can hold."""
    hd = d // 2
    size = 2 * n_keys * 3 * hd * (d + hd) + 2 * d + 2
    if 8 * size > np.iinfo(np.intp).max:
        raise DimMismatchError(f"embedding width {d} needs {size} parameters, more than an array can hold")
    return size


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
class Batch:
    """Internal nodes of one height with the same child count: one Bi-GRU
    kernel call, its rows in per-key segments."""

    keys: tuple[str, ...]    # each segment's registry key, in row order
    rows: tuple[slice, ...]  # each segment's slice of the batch's rows
    parents: np.ndarray   # (B,) rows
    children: np.ndarray  # (B, k) rows, in document order
    # Whether any child is itself a Bi-GRU node, i.e. the batch is above
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
    batches: list[Batch]  # by ascending height, then first-seen child count
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

# compile_tree closes a chunk of trees once their node rows reach this many,
# which bounds the node matrix and the largest batch.
CHUNK_ROWS = 2048


def compile_tree(trees: list[LingTree], params: ModelParams) -> Iterator[Schedule]:
    """The schedules that encode_document runs for a list of trees, and that
    backward replays for a list of one. Consecutive trees compile into one
    schedule until their node rows reach CHUNK_ROWS; the tree that reaches
    the bound closes it. Within a schedule the internal nodes of all its
    trees merge into batches by (height, child count), each listing its rows
    key by key; within a height, batches and the segments of a batch keep
    the order in which the trees first reach them."""
    gru_kinds, mean_kinds, doc_kind = _ABLATION_PLANS[params.ablation]
    pending = iter(trees)
    while True:
        # Heights count Bi-GRU nodes only, so under no_syntax the RR nodes
        # batch by discourse depth alone.
        height: list[int] = []
        groups = {}  # (height, child count) -> registry key -> (parent rows, child rows)
        words, means, documents, unk = [], [], [], []
        for tree in pending:
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
                parents, children = groups.setdefault((height[i], len(kids)), {}).setdefault(key, ([], []))
                parents.append(i)
                children.extend(kids)
            if doc_kind is None:
                document = [len(height) - 1]
            else:
                document = [i for node, i in row.items() if node.kind is doc_kind]
            documents.append(np.array(document, dtype=np.intp))
            if len(height) >= CHUNK_ROWS:
                break
        if not documents:
            return
        # A stable sort by height keeps the batches of one height in
        # first-seen order; a batch's segments keep theirs.
        batches = []
        for (h, k), by_key in sorted(groups.items(), key=lambda group: group[0][0]):
            parents, children, rows = [], [], []
            for segment_parents, segment_children in by_key.values():
                rows.append(slice(len(parents), len(parents) + len(segment_parents)))
                parents += segment_parents
                children += segment_children
            batches.append(Batch(tuple(by_key), tuple(rows), np.array(parents, dtype=np.intp),
                                 np.array(children, dtype=np.intp).reshape(-1, k), h > 1))
        yield Schedule(len(height), np.array(words, dtype=np.intp), means, batches, documents, unk)


@dataclass
class DocumentEncoding:
    """Document vector, its OOV leaves and UNK-routed nodes, and, for a tree
    not passed in a list, everything the backward pass needs. An encoding
    from a list runs forward only: schedule, vectors and traces are None."""

    h_doc: np.ndarray
    schedule: Schedule | None = None
    vectors: np.ndarray | None = None  # the node matrix, rows as in the schedule
    traces: list[nn.GruTrace] | None = None  # one per batch, with a direction axis
    oov: int = 0
    unk: int = 0


def encode_document(params: ModelParams, trees, table: EmbeddingTable):
    """Embed documents bottom-up under the model's sharing mode and ablation.

    A list of trees gives one forward-only encoding per tree: each schedule
    that compile_tree closes runs as one batched pass and keeps no trace.
    One tree, as training passes it, gives its DocumentEncoding with the
    traces backward needs. Every h_doc is bit-identical to the tree's own
    encoding, because the forward kernel multiplies each row on its own.
    """
    if table.dim != params.d:
        raise DimMismatchError(f"embedding table dim {table.dim} != model dim {params.d}")
    single = isinstance(trees, LingTree)
    trees = [trees] if single else trees
    leaves = (embed_leaves(table, tree) for tree in trees)
    hd = params.d // 2
    encodings = []
    for schedule in compile_tree(trees, params):
        chunk = list(islice(leaves, len(schedule.documents)))
        vectors = np.zeros((schedule.size, params.d))
        vectors[schedule.words] = np.concatenate([leaf.vectors for leaf in chunk])
        for i, words in schedule.word_means:
            vectors[i] = vectors[words].mean(axis=0)
        traces = []
        for batch in schedule.batches:
            trace = nn.gru_forward(_weights(params, batch), vectors[batch.children])
            # Mean over positions of [fwd_i (+) bwd_i]; the mean is order-free,
            # so each half is just that direction's average hidden state.
            fwd, bwd = trace.h.mean(axis=2)
            vectors[batch.parents, :hd] = fwd
            vectors[batch.parents, hd:] = bwd
            if single:
                traces.append(trace)
        h_docs = [vectors[rows].mean(axis=0) for rows in schedule.documents]
        if single:
            return DocumentEncoding(h_docs[0], schedule, vectors, traces, chunk[0].oov, schedule.unk[0])
        encodings += [
            DocumentEncoding(h, oov=leaf.oov, unk=unk) for h, leaf, unk in zip(h_docs, chunk, schedule.unk)
        ]
    return encodings


def _weights(params: ModelParams, batch: Batch) -> nn.GruBatch:
    """Each segment's Bi-GRU pair, of weights or of gradients: the kernels' one input form."""
    return nn.GruBatch([params.registry[key] for key in batch.keys], batch.rows)


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

    Replays the schedule's batches in reverse. Each batch's kernel call adds
    its segments' weight gradients, in row order, as soon as it has them,
    so the contributions of a registry key used by several segments
    accumulate in the reverse of the batches' forward order. Word-embedding
    gradients are dropped (embeddings are frozen). The result is a
    ModelParams of the model's layout holding gradients instead of weights:
    ``out``, zeroed and refilled, when given (a trainer reuses one buffer
    across steps), else a new one.
    """
    schedule = enc.schedule
    if enc.traces is None:
        raise MissingTraceError("a batched encoding runs forward only and keeps no traces")
    if len(enc.traces) != len(schedule.batches):
        raise MissingTraceError(
            f"{len(enc.traces)} forward traces for {len(schedule.batches)} schedule batches"
        )
    if out is None:
        grads = replace(params, flat=np.zeros(params.flat.size))  # calloc: no eager memset
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
    for batch, trace in zip(reversed(schedule.batches), reversed(enc.traces)):
        up = d_vectors[batch.parents] / batch.children.shape[1]
        # (B, d) -> (2, B, 1, d/2): each direction's half, for every step.
        up = up.reshape(-1, 2, hd).swapaxes(0, 1)[:, :, None]
        dx = nn.gru_backward(_weights(params, batch), trace, np.broadcast_to(up, trace.h.shape),
                             _weights(grads, batch), batch.input_grad)
        if batch.input_grad:
            d_vectors[batch.children] += dx
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
        (e,) = encode_document(work, [tree], table)
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


# Base64 characters per chunk decoded by load_model: a multiple of 4, so
# every chunk but the last decodes to a whole number of 3-byte groups.
_LOAD_CHUNK = 4 << 18


def load_model(path) -> ModelParams:
    """Inverse of save_model; predictions of the loaded model are bit-identical.

    The stored byte count follows from the length and padding of the base64
    text and is checked against the header's layout before anything of that
    size is allocated. The text is then decoded chunk by chunk straight into
    the parameter vector, holding the checkpoint text, one model and one
    chunk's scratch; json.load, before it, briefly holds the file text
    twice."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8, an over-long integer
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
        text = doc["flat"]
        if not isinstance(text, str) or len(text) % 4:
            raise ValueError("'flat' must be base64 text of whole 4-character groups")
        # Only the last group may carry padding; decoding it first rejects a
        # bad ending before its padding is counted.
        base64.b64decode(text[-4:], validate=True)
        stored = 3 * len(text) // 4 - text[-2:].count("=")
        # Checked before anything of the header's size is allocated, so a
        # corrupt d cannot ask for more memory than the file holds.
        expected = 8 * flat_size(d, len(keys))
        if stored != expected:
            raise CorruptCheckpointError(
                f"stored parameters do not fit the mode and vocabulary: "
                f"{stored} bytes stored, {expected} expected"
            )
        values = np.empty(expected // 8, dtype="<f8")
        out = values.view(np.uint8)
        for start in range(0, len(text), _LOAD_CHUNK):
            raw = base64.b64decode(text[start:start + _LOAD_CHUNK], validate=True)
            at = 3 * start // 4
            part = out[at:at + 3 * _LOAD_CHUNK // 4]
            if len(raw) != part.size:
                raise CorruptCheckpointError("'=' padding before the end of the stored parameters")
            part[:] = np.frombuffer(raw, dtype=np.uint8)
        flat = values.astype(np.float64, copy=False)  # copies only on a big-endian host
        if not np.isfinite(flat).all():
            raise CorruptCheckpointError("stored parameters hold a non-finite value")
        params = ModelParams(d, mode, ablation, vocab, flat)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (CorruptCheckpointError, VersionMismatchError)):
            raise
        raise CorruptCheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    return params
