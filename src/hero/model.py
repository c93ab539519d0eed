"""Recursive document encoder over linguistic trees.

Every internal node is embedded by running a forward and a backward GRU over
its children's vectors, concatenating the two hidden states per position and
mean-pooling across positions. Repeating this bottom-up yields the document
vector at the root, which a two-logit softmax head classifies.

Three sharing modes decide which nodes reuse which GRU parameters (a single
shared pair, one pair per linguistic level, or one pair per parent label),
and three ablations replace parts of the tree walk with plain averaging.

A tree is compiled once per routing (sharing mode, ablation, vocabulary)
into a Schedule that it keeps: the rows of one node-vector matrix, batches
of internal nodes that share a height and a child count, and the
ablation's mean-pools. A batch lists its rows as segments, one per
registry key, and runs as one kernel call over both GRU directions and
every segment's weights; its products run in fixed blocks of nn.GEMM_ROWS
rows, in which a row's bits do not depend on the other rows, so a node's
vector does not depend on what else shares its batch. A traced encoding
gathers every batch's children, batch after batch, into one document-wide
buffer in the kernel's direction-stacked layout. The backward pass replays
the batches in reverse into a matching buffer of pre-activation gradients,
then forms each registry key's weight gradients from one GEMM over all the
rows its segments ran, in the buffers' order: the walk fixes every sum's
order. A training run keeps those buffers in one Workspace from step to
step. For inference, the schedules of consecutive trees merge by row offset
into schedules whose batches span documents, and they run forward only.
"""

from __future__ import annotations

import enum
import json
import math
import os
from bisect import bisect_left
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

CHECKPOINT_VERSION = 4
MAX_HEADER_BYTES = 1 << 20  # load_model's longest header line, "\n" included; 10,000 labels take ~100 KB


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
class ModelParams:
    """Every learnable weight lives in ``flat``, one float64 vector (zeros
    when not given). ``registry`` and ``classifier`` are views into it, laid
    out in registry-key order, each key's Bi-GRU pair (see nn.GruParams) as
    its ``fwd`` then ``bwd`` direction, each direction's stacked ``w`` then
    ``u``, then the classifier's W and b; a write through either side is
    seen by the other. A key's pair reads both ``w`` (and both ``u``)
    through one strided view. A width that is not positive and even raises
    DimMismatchError (see flat_size). Checkpoints store ``flat`` as is."""

    d: int
    mode: SharingMode
    ablation: AblationMode
    vocab: AttributeVocab
    flat: np.ndarray | None = None
    registry: dict[str, nn.GruParams] = field(init=False)
    classifier: nn.ClassifierParams = field(init=False)

    def __post_init__(self):
        keys = registry_keys(self.mode, self.ablation, self.vocab)
        d, hd = self.d, self.d // 2
        size = flat_size(d, len(keys))
        if self.flat is None:
            self.flat = np.zeros(size)
        if self.flat.shape != (size,) or self.flat.dtype != np.float64 or not self.flat.flags.c_contiguous:
            raise nn.ShapeMismatchError(
                f"flat parameters must be a contiguous float64 vector of {size}, "
                f"got {self.flat.dtype} {self.flat.shape}"
            )
        # Rows of a key's block: fwd w and u, then bwd w and u.
        blocks, cut = self.flat[:-2 * d - 2].reshape(len(keys), 2, 3 * hd * (d + hd)), 3 * hd * d
        self.registry = {
            key: nn.GruParams(block[:, :cut].reshape(2, 3 * hd, d), block[:, cut:].reshape(2, 3 * hd, hd))
            for key, block in zip(keys, blocks)
        }
        self.classifier = nn.ClassifierParams(self.flat[-2 * d - 2:-2].reshape(2, d), self.flat[-2:])


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
    DimMismatchError for a width that is not positive and even, or whose
    length no float64 array can hold."""
    if d <= 0 or d % 2:
        raise DimMismatchError(f"embedding width must be a positive even integer, got {d}")
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
    """Fresh parameters drawn straight into ``flat``: per key, fwd then bwd
    GRU, w then u, uniform in +-1/sqrt(fan-in); the classifier stays zero
    unless ``random_classifier`` (for gradient checking) draws its w then b.

    Each matrix is drawn in place as numpy's ``uniform(low, high)`` forms
    its values, low + (high - low) * u from ``random``: the same generator
    calls and the same bits, without a temporary per matrix."""
    if rng is None:
        rng = np.random.default_rng(seed)
    params = ModelParams(d, mode, ablation, vocab)
    sw, su = 1.0 / math.sqrt(d), 1.0 / math.sqrt(d // 2)
    views = [(view, s) for pair in params.registry.values() for gru in (pair.fwd, pair.bwd)
             for view, s in ((gru.w, sw), (gru.u, su))]
    if random_classifier:
        views += [(params.classifier.w, sw), (params.classifier.b, sw)]
    for view, bound in views:
        rng.random(out=view)
        view *= bound - -bound
        view += -bound
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

    height: int
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
    matrix are each tree's nodes in post-order, tree after tree. Shared by
    every encoding of its trees: tuples and read-only index arrays."""

    size: int
    words: np.ndarray  # rows of the word leaves, in document order
    word_means: tuple[tuple[int, np.ndarray], ...]  # (row, its word rows): a mean, not a Bi-GRU
    batches: tuple[Batch, ...]  # by ascending height, then first-seen child count
    documents: tuple[np.ndarray, ...]  # per tree, the rows whose mean is its document vector
    unk: tuple[int, ...]  # per tree, the Bi-GRU nodes routed to an UNK key


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
    backward replays for a list of one. Each tree compiles once per routing
    (mode, ablation, vocabulary: what fixes the registry keys) and keeps that
    schedule; consecutive trees merge until their rows reach CHUNK_ROWS."""
    routing = (params.mode, params.ablation, params.vocab)
    chunk, size = [], 0
    for tree in trees:
        if tree.compiled is None or tree.compiled[0] != routing:
            tree.compiled = (routing, _compile(tree, params))
        chunk.append(tree.compiled[1])
        size += chunk[-1].size
        if size >= CHUNK_ROWS:
            yield merge(chunk)
            chunk, size = [], 0
    if chunk:
        yield merge(chunk)


def _compile(tree: LingTree, params: ModelParams) -> Schedule:
    """One tree's schedule: internal nodes grouped by (height, child count),
    then registry key, in the order the post-order walk first reaches each.
    A node's row is its position in that walk, never the node itself: a
    parsed tree shares one leaf among a word's occurrences."""
    gru_kinds, mean_kinds, doc_kind = _ABLATION_PLANS[params.ablation]
    nodes = post_order(tree.root)
    # Heights count Bi-GRU nodes only, so under no_syntax the RR nodes
    # batch by discourse depth alone.
    height = [0] * len(nodes)
    start = list(range(len(nodes)))  # per row, the first row of its subtree
    done = []  # rows of the finished subtrees whose parent the walk has not reached
    groups = {}  # (height, child count) -> registry key -> (parent rows, child rows)
    words, means, unk = [], [], 0
    document = [len(nodes) - 1] if doc_kind is None else []  # else filled by the walk
    for i, node in enumerate(nodes):
        if node.kind is NodeKind.WORD:
            words.append(i)
        else:
            cut = len(done) - len(node.children)
            kids = done[cut:]
            del done[cut:]
            start[i] = start[kids[0]]
            if node.kind in mean_kinds:
                means.append((i, _frozen(words[bisect_left(words, start[i]):])))
        done.append(i)
        if node.kind is doc_kind:
            document.append(i)
        if node.kind not in gru_kinds:
            continue
        height[i] = 1 + max(height[c] for c in kids)
        key = _aggregator_key(params, node)
        unk += key in (UNK_SYNTAX, UNK_RR)
        parents, children = groups.setdefault((height[i], len(kids)), {}).setdefault(key, ([], []))
        parents.append(i)
        children += kids
    return Schedule(len(nodes), _frozen(words), tuple(means), _batches(groups), (_frozen(document),), (unk,))


def merge(schedules: list[Schedule]) -> Schedule:
    """The schedule of the trees compiled together, each tree's rows shifted by
    the rows before it (one is returned as is). Batches of one height and
    child count join into one: their rows concatenated, then stably sorted
    by registry key in first-seen order, as _batches would list them."""
    if len(schedules) == 1:
        return schedules[0]
    groups, words, means, documents, unk, offset = {}, [], (), (), (), 0
    for schedule in schedules:
        for batch in schedule.batches:
            groups.setdefault((batch.height, batch.children.shape[1]), []).append((batch, offset))
        words.append(schedule.words + offset)
        means += tuple((i + offset, _frozen(rows + offset)) for i, rows in schedule.word_means)
        documents += tuple(_frozen(rows + offset) for rows in schedule.documents)
        unk += schedule.unk
        offset += schedule.size
    batches = []
    for (h, _), members in sorted(groups.items(), key=lambda group: group[0][0]):
        parts, offsets = zip(*members)
        codes, segment_codes, segment_sizes = {}, [], []  # codes: key -> first-seen index
        for batch in parts:
            for key, rows in zip(batch.keys, batch.rows):
                segment_codes.append(codes.setdefault(key, len(codes)))
                segment_sizes.append(rows.stop - rows.start)
        row_codes = np.repeat(segment_codes, segment_sizes)
        order = np.argsort(row_codes, kind="stable")
        shift = np.repeat(offsets, [len(batch.parents) for batch in parts])
        parents = (np.concatenate([batch.parents for batch in parts]) + shift)[order]
        children = (np.concatenate([batch.children for batch in parts]) + shift[:, None])[order]
        stops = np.cumsum(np.bincount(row_codes)).tolist()
        rows = tuple(slice(a, b) for a, b in zip([0, *stops], stops))
        batches.append(Batch(h, tuple(codes), rows, _frozen(parents), _frozen(children), h > 1))
    return Schedule(offset, _frozen(np.concatenate(words)), means, tuple(batches), documents, unk)


def _batches(groups: dict) -> tuple[Batch, ...]:
    """Batches from (height, child count) -> registry key -> (parent rows, child
    rows), in first-seen order, which a stable sort by height keeps within a height."""
    batches = []
    for (h, k), segments in sorted(groups.items(), key=lambda group: group[0][0]):
        parents, children, rows = [], [], []
        for segment_parents, segment_children in segments.values():
            rows.append(slice(len(parents), len(parents) + len(segment_parents)))
            parents += segment_parents
            children += segment_children
        batches.append(Batch(h, tuple(segments), tuple(rows), _frozen(parents),
                             _frozen(children).reshape(-1, k), h > 1))
    return tuple(batches)


def _frozen(rows) -> np.ndarray:
    """Rows as a read-only index array: a compiled schedule is shared."""
    array = np.asarray(rows, dtype=np.intp)
    array.flags.writeable = False
    return array


class Workspace:
    """Document-wide buffers, kept from one training step to the next: a
    traced encoding's direction-stacked Bi-GRU inputs, the pre-activation
    gradients its backward pass writes, and the rows that pass gathers for
    a registry key whose rows are not one run of the buffers (never under
    unified sharing). A buffer too small for a document is replaced by one
    of the document's size, so each grows to the largest document seen;
    otherwise it is reused as it is, and a gather buffer's rows past what
    one key needs are never written.

    ``uses`` counts the encodings and backward passes that have written the
    buffers. An encoding records the count it left, and backward refuses an
    encoding once the count has moved on: a later encoding has reused the
    buffers, or its own backward pass has overwritten what it read."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.uses = 0

    def take(self, name: str, rows: int, width: int) -> np.ndarray:
        """The first ``rows`` rows of buffer ``name``, a (2, rows, width) view."""
        buffer = self.buffers.get(name)
        if buffer is None or buffer.shape[1] < rows or buffer.shape[2] != width:
            buffer = self.buffers[name] = np.empty((2, rows, width))
        return buffer[:, :rows]


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
    # The workspace whose "inputs" buffer holds every batch's stacked inputs,
    # batch after batch, and its count of uses when this encoding ran.
    workspace: Workspace | None = None
    stamp: int = 0


def _input_rows(schedule: Schedule) -> list[int]:
    """Each batch's first row in the document-wide buffers, then their total:
    a batch of B sequences of T steps holds B * T rows."""
    starts = [0]
    for batch in schedule.batches:
        starts.append(starts[-1] + batch.children.size)
    return starts


def encode_document(params: ModelParams, trees, table: EmbeddingTable, workspace: Workspace | None = None):
    """Embed documents bottom-up under the model's sharing mode and ablation.

    A list of trees gives one forward-only encoding per tree: each schedule
    that compile_tree closes runs as one batched pass and keeps no trace.
    One tree, as training passes it, gives its DocumentEncoding with the
    traces backward needs. Every h_doc is bit-identical to the tree's own
    encoding, because the forward kernel's products run in fixed blocks of
    nn.GEMM_ROWS rows, where a row's bits do not depend on its neighbours.

    Each batch's children are gathered straight into the kernel's
    direction-stacked layout. A traced encoding places the batches one after
    another in a buffer of ``workspace`` (a new one when not given) and
    keeps it for backward; a forward-only one gathers each batch into an
    array of its own, and ignores ``workspace``.
    """
    if table.dim != params.d:
        raise DimMismatchError(f"embedding table dim {table.dim} != model dim {params.d}")
    single = isinstance(trees, LingTree)
    trees = [trees] if single else trees
    leaves = (embed_leaves(table, tree) for tree in trees)
    if single:
        work = Workspace() if workspace is None else workspace
        work.uses += 1
    hd, pad = params.d // 2, nn.GEMM_ROWS - 1
    encodings = []
    for schedule in compile_tree(trees, params):
        chunk = list(islice(leaves, len(schedule.documents)))
        vectors = np.zeros((schedule.size, params.d))
        vectors[schedule.words] = np.concatenate([leaf.vectors for leaf in chunk])
        for i, words in schedule.word_means:
            vectors[i] = vectors[words].mean(axis=0)
        starts = _input_rows(schedule)
        if single:
            inputs = work.take("inputs", starts[-1] + pad, params.d)
        traces = []
        for batch, start, stop in zip(schedule.batches, starts, starts[1:]):
            # This batch's rows and the slack its last block reads: in the
            # document buffer, the next batch's rows (not gathered yet) or
            # the buffer's last rows.
            n = stop - start
            xs = inputs[:, start:stop + pad] if single else np.empty((2, n + pad, params.d))
            # mode="clip" takes straight into ``out``; the default mode buffers it.
            np.take(vectors, batch.children.ravel(), axis=0, out=xs[0, :n], mode="clip")
            np.take(vectors, batch.children[:, ::-1].ravel(), axis=0, out=xs[1, :n], mode="clip")
            xs[:, n:] = 0.0
            trace = nn.gru_forward(_weights(params, batch), xs, batch.children.shape[1])
            # Mean over positions of [fwd_i (+) bwd_i]; the mean is order-free,
            # so each half is just that direction's average hidden state.
            fwd, bwd = trace.h.mean(axis=2)
            vectors[batch.parents, :hd] = fwd
            vectors[batch.parents, hd:] = bwd
            if single:
                traces.append(trace)
        h_docs = [vectors[rows].mean(axis=0) for rows in schedule.documents]
        if single:
            return DocumentEncoding(h_docs[0], schedule, vectors, traces, chunk[0].oov, schedule.unk[0],
                                    work, work.uses)
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


def backward(params: ModelParams, enc: DocumentEncoding, y: int) -> ModelParams:
    """Gradients of the document's cross-entropy loss w.r.t. all parameters.

    Replays the schedule's batches in reverse. Each batch's kernel call runs
    the recurrence and the children's gradient, and writes its rows'
    pre-activation gradients into a document-wide buffer of the encoding's
    workspace, beside the stacked inputs the forward pass gathered there.
    After the walk, each registry key's dW is one GEMM over every row its
    segments ran, in the buffers' order (batches in forward order, a batch's
    segments in row order), and its dU one GEMM for U_rz and one for U_h over
    those rows past their sequence's first step. The key's rows are read in
    place when they are one run of the buffers (always so under unified
    sharing), and gathered into workspace buffers otherwise; once dW is
    formed, the dU operands are packed over them. So the pass consumes the
    encoding: a second backward of it raises MissingTraceError.
    Word-embedding gradients are dropped (embeddings are frozen).

    The result is a new ModelParams of the model's layout holding gradients
    instead of weights. Its buffer is calloc'ed, and each key's products are
    written into its views once, so the pages of keys the document does not
    reach are never written.
    """
    schedule = enc.schedule
    if enc.traces is None:
        raise MissingTraceError("a batched encoding runs forward only and keeps no traces")
    if len(enc.traces) != len(schedule.batches):
        raise MissingTraceError(
            f"{len(enc.traces)} forward traces for {len(schedule.batches)} schedule batches"
        )
    work = enc.workspace
    if work.uses != enc.stamp:
        raise MissingTraceError("this encoding's workspace was reused, or its backward pass has run")
    work.uses += 1  # the pass overwrites the buffers it reads
    grads = replace(params, flat=np.zeros(params.flat.size))
    dw, db, dh = nn.softmax_ce_backward(params.classifier, enc.h_doc, y)
    grads.classifier.w += dw
    grads.classifier.b += db

    hd = params.d // 2
    starts = _input_rows(schedule)
    da = work.take("da", starts[-1], 3 * hd)
    d_vectors = np.zeros_like(enc.vectors)
    (document,) = schedule.documents
    d_vectors[document] = dh / len(document)
    for batch, trace, start, stop in reversed(list(zip(schedule.batches, enc.traces, starts, starts[1:]))):
        up = d_vectors[batch.parents] / batch.children.shape[1]
        # (B, d) -> (2, B, 1, d/2): each direction's half, for every step.
        up = up.reshape(-1, 2, hd).swapaxes(0, 1)[:, :, None]
        dx = nn.gru_backward(_weights(params, batch), trace, np.broadcast_to(up, trace.h.shape),
                             da[:, start:stop], batch.input_grad)
        if batch.input_grad:
            d_vectors[batch.children] += dx
    _weight_grads(grads, schedule, enc.traces, starts, da, work)
    return grads


def _weight_grads(grads: ModelParams, schedule: Schedule, traces, starts, da, work: Workspace) -> None:
    """Each registry key's weight gradients, from the rows its segments ran:
    see backward."""
    hd, inputs = grads.d // 2, work.take("inputs", starts[-1], grads.d)  # as encode_document gathered them
    uses = {}  # registry key -> (trace, sequences, first row in the buffers, steps) per segment
    for batch, trace, start in zip(schedule.batches, traces, starts):
        steps = batch.children.shape[1]
        for key, seqs in zip(batch.keys, batch.rows):
            uses.setdefault(key, []).append((trace, seqs, start + seqs.start * steps, steps))
    for key, segments in uses.items():
        runs = [(first, first + (seqs.stop - seqs.start) * steps) for _, seqs, first, steps in segments]
        if all(a == b for (_, b), (a, _) in zip(runs, runs[1:])):  # one run of the buffers
            key_da, key_inputs = da[:, runs[0][0]:runs[-1][1]], inputs[:, runs[0][0]:runs[-1][1]]
        else:
            n = sum(b - a for a, b in runs)
            key_da = work.take("key_da", starts[-1], 3 * hd)[:, :n]
            key_inputs = work.take("key_inputs", starts[-1], grads.d)[:, :n]
            np.concatenate([da[:, a:b] for a, b in runs], axis=1, out=key_da)
            np.concatenate([inputs[:, a:b] for a, b in runs], axis=1, out=key_inputs)
        pair = grads.registry[key]
        nn.gru_weight_grads(pair, key_da, key_inputs)
        # The key's rows are read for dU only now: the rows past their
        # sequence's first step move to the front of its pre-activation
        # gradients (never past a row still to be read), and their states
        # [h_prev, h_prev * r] overwrite its inputs.
        m = row = 0
        for trace, seqs, _, steps in segments:
            n, k = seqs.stop - seqs.start, (seqs.stop - seqs.start) * (steps - 1)
            if k:
                later = key_da[:, row:row + n * steps].reshape(2, n, steps, -1)[:, :, 1:]
                key_da[:, m:m + k].reshape(2, n, steps - 1, -1)[...] = later  # numpy copies an overlap first
                states = key_inputs[:, m:m + k].reshape(2, n, steps - 1, -1)
                states[..., :hd] = trace.h[:, seqs, :-1]
                np.multiply(states[..., :hd], trace.r[:, seqs, 1:], out=states[..., hd:])
                m += k
            row += n * steps
        if m:
            nn.gru_recurrent_grads(pair, key_da[:, :m], key_inputs[:, :m])


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


def save_model(params: ModelParams, path) -> None:
    """Write a checkpoint: one ASCII line of JSON, the header that fixes the
    layout (mode, ablation, width, vocabulary), then ``flat``'s little-endian
    float64 bytes, in the order ModelParams documents, and nothing else."""
    header = {
        "version": CHECKPOINT_VERSION,
        "mode": params.mode.value,
        "ablation": params.ablation.value,
        "d": params.d,
        "attribute_vocab": {
            "syntax": list(params.vocab.syntax_labels),
            "rr": list(params.vocab.rr_labels),
        },
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(params.flat.astype("<f8", copy=False))


def load_model(path) -> ModelParams:
    """Inverse of save_model; predictions of the loaded model are bit-identical.

    A file with no line break in its first MAX_HEADER_BYTES is refused
    unparsed. The bytes after the header line are counted and checked against
    the header's layout before anything of that size is allocated, then read
    straight into the parameter vector, so a load holds one model."""
    with open(path, "rb") as fh:
        head = fh.read(MAX_HEADER_BYTES)
        end = head.find(b"\n") + 1 or len(head)  # a file with no line break is all header
        if end == MAX_HEADER_BYTES and not head.endswith(b"\n"):
            raise CorruptCheckpointError(f"{path} has no header line in its first {MAX_HEADER_BYTES} bytes")
        head = head[:end]  # frees the payload bytes read with the header
        fh.seek(end)
        try:
            doc = json.loads(head)
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
            # flat_size judges its value.
            if type(d) is not int:
                raise CorruptCheckpointError(f"embedding width must be an integer, got {d!r}")
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
            # Checked before anything of the header's size is allocated, so a
            # corrupt d cannot ask for more memory than the file holds.
            stored = os.fstat(fh.fileno()).st_size - fh.tell()
            expected = 8 * flat_size(d, len(keys))
            if stored == expected:
                values = np.empty(expected // 8, dtype="<f8")
                stored = fh.readinto(values)  # short only if the file shrank since fstat
            if stored != expected:
                raise CorruptCheckpointError(
                    f"stored parameters do not fit the mode and vocabulary: "
                    f"{stored} bytes stored, {expected} expected"
                )
            flat = values.astype(np.float64, copy=False)  # copies only on a big-endian host
            if not np.isfinite(flat).all():
                raise CorruptCheckpointError("stored parameters hold a non-finite value")
            return ModelParams(d, mode, ablation, vocab, flat)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, (CorruptCheckpointError, VersionMismatchError)):
                raise
            raise CorruptCheckpointError(f"malformed checkpoint {path}: {exc}") from exc
