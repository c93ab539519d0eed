import base64
import json
import math
import os
import re
import stat
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cli_contract import assert_one_line_exit, read_checkpoint, write_checkpoint
from hero import ling_tree, model, nn
from hero.embed import EmbeddingTable
from hero.ling_tree import (
    LingTree, NodeKind, TreeNode, iter_nodes, leaf_words, parse_sexpr, post_order, serialize_sexpr,
)
from hero.model import (
    CHUNK_ROWS, MAX_HEADER_BYTES, AblationMode, AttributeVocab, CorruptCheckpointError,
    DimMismatchError, DocumentEncoding, MissingTraceError, ModelParams,
    SharingMode, VersionMismatchError,
    DISCOURSE_KEY, SYNTAX_KEY, UNIFIED_KEY, UNK_RR, UNK_SYNTAX,
    backward, compile_tree, copy_model, encode_document, gradient_check_model, init_model,
    load_model, param_count, predict, registry_keys, save_model,
)
from hero.stats import compute_tree_stats
from hero.synthetic import gradcheck_fixture, random_embedding_table, random_tree
from reference import (
    ROWWISE_ATOL, compile_reference, encode_reference, gru_forward_rowwise, init_reference, stack_inputs,
)

TWO_EDU = "(NS-elaboration (EDU (S (NP (NNP a)) (VP (VBZ runs)))) (EDU (NP (DT the) (NN end))))"
# Constituency labels spelled like the old UNK keys: each is a label like any other.
UNK_LABELS = "(NS-elaboration (EDU (UNK_SYNTAX (NN a))) (EDU (UNK_RR (NN b))))"


def row_of(tree, node):
    """An internal node's row in the encoder's node matrix: its post-order
    index. A shared word leaf fills one row per place; this finds its first."""
    return post_order(tree.root).index(node)


def make_model(mode, ablation=AblationMode.FULL, d=8, seed=0, trees=(), random_classifier=True):
    vocab = AttributeVocab.from_trees(trees)
    return init_model(d, mode, ablation, vocab, seed=seed, random_classifier=random_classifier)


def schedule_of(m, tree):
    """The training schedule of one tree: a list of one compiles to one schedule."""
    (schedule,) = compile_tree([tree], m)
    return schedule


def groups(schedule):
    """Each segment as (key, parent rows, child rows), batch by batch and in
    row order: the nodes of one height, registry key and child count."""
    for batch in schedule.batches:
        for key, rows in zip(batch.keys, batch.rows):
            yield key, batch.parents[rows], batch.children[rows]


def group_key(m, tree, node):
    """The registry key of the schedule segment that embeds ``node``."""
    row = row_of(tree, node)
    return next(key for key, parents, _ in groups(schedule_of(m, tree)) if row in parents)


class TestAggregatorKey:
    def test_unified_always_shared(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.UNIFIED, trees=[tree])
        root = tree.root
        assert group_key(m, tree, root) == UNIFIED_KEY
        assert group_key(m, tree, root.children[0]) == UNIFIED_KEY

    def test_level_specific_keys_on_family(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.LEVEL_SPECIFIC, trees=[tree])
        root = tree.root
        edu = root.children[0]
        assert group_key(m, tree, root) == DISCOURSE_KEY
        assert group_key(m, tree, edu) == SYNTAX_KEY
        assert group_key(m, tree, edu.children[0]) == SYNTAX_KEY

    def test_attribute_specific_keys_on_parent_label(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree])
        root = tree.root
        edu = root.children[0]
        s_node = edu.children[0]
        np_node = s_node.children[0]
        assert group_key(m, tree, root) == "NS-elaboration"
        assert group_key(m, tree, edu) == "S"  # EDU borrows its root child label
        assert group_key(m, tree, np_node) == "NP"

    def test_unseen_labels_fall_back_to_unk(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree])
        other = parse_sexpr("(SN-background (EDU (ADJP (JJ hot))) (EDU (NNS facts)))")
        root = other.root
        adjp = root.children[0].children[0]
        assert group_key(m, other, root) == UNK_RR
        assert group_key(m, other, adjp) == UNK_SYNTAX

    def test_labels_spelled_like_old_unk_keys_get_their_own_gru(self):
        tree = parse_sexpr(UNK_LABELS)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree])
        assert list(m.registry) == ["UNK_SYNTAX", "NN", "UNK_RR", "NS-elaboration", UNK_SYNTAX, UNK_RR]
        first, second = (edu.children[0] for edu in tree.root.children)
        assert group_key(m, tree, first) == "UNK_SYNTAX"
        assert group_key(m, tree, second) == "UNK_RR"
        other = parse_sexpr("(SN-background (EDU (ADJP (JJ hot))) (EDU (NNS facts)))")
        assert group_key(m, other, other.root) == UNK_RR
        assert group_key(m, other, other.root.children[0].children[0]) == UNK_SYNTAX
        views = [mat for pair in m.registry.values() for gru in (pair.fwd, pair.bwd) for mat in gru.matrices()]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(views) for b in views[i + 1:])


class TestRegistry:
    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("ablation", list(AblationMode))
    def test_keys_are_those_the_training_schedules_use(self, mode, ablation):
        rng = np.random.default_rng(40)
        trees = [random_tree(rng, n_edus=int(rng.integers(1, 5)), rr_arity=(2, 3)).tree for _ in range(12)]
        m = make_model(mode, ablation, trees=trees)
        used = {key for tree in trees for key, _, _ in groups(schedule_of(m, tree))}
        vocab = m.vocab
        unk = set()
        if mode is SharingMode.ATTRIBUTE_SPECIFIC:
            if used & set(vocab.syntax_labels):
                unk.add(UNK_SYNTAX)
            if used & set(vocab.rr_labels):
                unk.add(UNK_RR)
        assert len(m.registry) == len(used | unk)
        assert set(m.registry) == used | unk
        assert registry_keys(mode, ablation, vocab) == list(m.registry)

    def test_cardinality_per_mode(self):
        vocab = AttributeVocab(("NP", "VP", "S"), ("NS-elaboration",))
        full = AblationMode.FULL
        assert registry_keys(SharingMode.UNIFIED, full, vocab) == [UNIFIED_KEY]
        assert registry_keys(SharingMode.LEVEL_SPECIFIC, full, vocab) == [DISCOURSE_KEY, SYNTAX_KEY]
        assert registry_keys(SharingMode.ATTRIBUTE_SPECIFIC, full, vocab) == [
            "NP", "VP", "S", "NS-elaboration", UNK_SYNTAX, UNK_RR]

    def test_ablations_drop_the_families_they_never_run(self):
        vocab = AttributeVocab(("NP", "VP", "S"), ("NS-elaboration",))
        attr, level = SharingMode.ATTRIBUTE_SPECIFIC, SharingMode.LEVEL_SPECIFIC
        assert registry_keys(attr, AblationMode.NO_DISCOURSE, vocab) == ["NP", "VP", "S", UNK_SYNTAX]
        assert registry_keys(attr, AblationMode.NO_SYNTAX, vocab) == ["NS-elaboration", UNK_RR]
        assert registry_keys(level, AblationMode.NO_DISCOURSE, vocab) == [SYNTAX_KEY]
        assert registry_keys(level, AblationMode.NO_SYNTAX, vocab) == [DISCOURSE_KEY]
        for mode in SharingMode:
            assert registry_keys(mode, AblationMode.NO_STRUCTURE, vocab) == []

    @pytest.mark.parametrize("vocab", [
        AttributeVocab(("NP", "VP", "NP"), ("NS-elaboration",)),
        AttributeVocab(("NP", "VP"), ("NS-elaboration", "NP")),
        AttributeVocab(("NP", UNK_RR), ("NS-elaboration",)),
    ], ids=["repeated_label", "label_at_both_levels", "label_spelled_like_unk_key"])
    def test_repeated_keys_rejected(self, vocab):
        with pytest.raises(ValueError, match="unique"):
            ModelParams(8, SharingMode.ATTRIBUTE_SPECIFIC, AblationMode.FULL, vocab)

    def test_init_is_seed_deterministic(self):
        tree = parse_sexpr(TWO_EDU)
        a = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree], seed=5)
        b = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree], seed=5)
        assert np.array_equal(a.flat, b.flat)

    def test_odd_dims_rejected(self):
        with pytest.raises(DimMismatchError):
            init_model(7, SharingMode.UNIFIED)

    @pytest.mark.parametrize("d", [0, -2, 7])
    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_model_params_rejects_a_width_that_is_not_positive_and_even(self, mode, d):
        vocab = AttributeVocab.from_trees([parse_sexpr(TWO_EDU)])
        with pytest.raises(DimMismatchError, match="positive even"):
            ModelParams(d, mode, AblationMode.FULL, vocab)


class TestEncode:
    def test_zero_params_zero_document(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.UNIFIED, trees=[tree], random_classifier=False)
        m.flat[...] = 0.0
        rng = np.random.default_rng(0)
        table = random_embedding_table(rng, ["a", "runs", "the", "end"], 8)
        enc = encode_document(m, tree, table)
        np.testing.assert_array_equal(enc.h_doc, np.zeros(8))

    def test_single_child_parent_is_concat_of_states(self):
        tree = parse_sexpr("(EDU (NNP word))")
        m = make_model(SharingMode.UNIFIED, trees=[tree])
        rng = np.random.default_rng(1)
        table = random_embedding_table(rng, ["word"], 8)
        enc = encode_document(m, tree, table)
        pair = m.registry[UNIFIED_KEY]
        x_word = table.vectors["word"][None, None, :]
        trace = nn.gru_forward(nn.GruBatch([pair], [slice(0, 1)]), *stack_inputs(x_word))
        pos_node = tree.root.children[0]
        np.testing.assert_array_equal(
            enc.vectors[row_of(tree, pos_node)], np.concatenate([trace.h[0, 0, 0], trace.h[1, 0, 0]])
        )

    def test_matches_reference_on_three_edu_tree(self):
        rng = np.random.default_rng(2)
        gen = random_tree(rng, n_edus=3)
        table = random_embedding_table(rng, gen.words, 8)
        m = make_model(SharingMode.UNIFIED, trees=[gen.tree])
        enc = encode_document(m, gen.tree, table)
        ref = encode_reference(m, gen.tree, table)
        np.testing.assert_allclose(enc.h_doc, ref, atol=1e-10)

    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("ablation", list(AblationMode))
    def test_matches_reference_all_modes(self, mode, ablation):
        rng = np.random.default_rng(hash((mode.value, ablation.value)) % 2**32)
        gen = random_tree(rng)
        table = random_embedding_table(rng, gen.words, 8)
        m = make_model(mode, ablation, trees=[gen.tree])
        enc = encode_document(m, gen.tree, table)
        ref = encode_reference(m, gen.tree, table)
        np.testing.assert_allclose(enc.h_doc, ref, atol=1e-10)

    def test_single_edu_full_equals_edu_vector(self):
        tree = parse_sexpr("(EDU (S (NP (NNP a)) (VP (VBZ runs))))")
        m = make_model(SharingMode.UNIFIED, trees=[tree])
        rng = np.random.default_rng(3)
        table = random_embedding_table(rng, ["a", "runs"], 8)
        enc = encode_document(m, tree, table)
        np.testing.assert_array_equal(enc.h_doc, enc.vectors[row_of(tree, tree.root)])

    def test_no_discourse_on_single_edu_matches_full(self):
        tree = parse_sexpr("(EDU (S (NP (NNP a)) (VP (VBZ runs))))")
        rng = np.random.default_rng(4)
        table = random_embedding_table(rng, ["a", "runs"], 8)
        full = make_model(SharingMode.UNIFIED, AblationMode.FULL, trees=[tree], seed=9)
        nodis = make_model(SharingMode.UNIFIED, AblationMode.NO_DISCOURSE, trees=[tree], seed=9)
        h_full = encode_document(full, tree, table).h_doc
        h_nodis = encode_document(nodis, tree, table).h_doc
        np.testing.assert_array_equal(h_full, h_nodis)

    def test_dim_mismatch(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.UNIFIED, trees=[tree])
        table = EmbeddingTable(6, {"a": np.zeros(6)})
        with pytest.raises(DimMismatchError):
            encode_document(m, tree, table)


def tie_registry(target, source_pair):
    for key in target.registry:
        target.registry[key] = source_pair.copy()


class TestModeNesting:
    def test_tied_registries_are_bit_identical(self):
        rng = np.random.default_rng(5)
        base = None
        for i in range(20):
            gen = random_tree(rng)
            table = random_embedding_table(rng, gen.words, 8)
            unified = make_model(SharingMode.UNIFIED, trees=[gen.tree], seed=17)
            shared_pair = unified.registry[UNIFIED_KEY]
            level = make_model(SharingMode.LEVEL_SPECIFIC, trees=[gen.tree], seed=17)
            attr = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[gen.tree], seed=17)
            tie_registry(level, shared_pair)
            tie_registry(attr, shared_pair)
            level.classifier = unified.classifier
            attr.classifier = unified.classifier
            h_unified = encode_document(unified, gen.tree, table).h_doc
            h_level = encode_document(level, gen.tree, table).h_doc
            h_attr = encode_document(attr, gen.tree, table).h_doc
            assert np.array_equal(h_unified, h_level)
            assert np.array_equal(h_unified, h_attr)


def reversed_edus(tree):
    """The same discourse skeleton with the EDUs in reverse document order."""
    edus = iter([node for node in iter_nodes(tree.root) if node.kind is NodeKind.EDU][::-1])

    def rebuild(node):
        if node.kind is NodeKind.EDU:
            return next(edus)
        return TreeNode(node.label, node.kind, tuple(rebuild(c) for c in node.children))

    return LingTree(rebuild(tree.root))


def reversed_root_children(tree):
    root = tree.root
    return LingTree(TreeNode(root.label, root.kind, root.children[::-1]))


class TestStructureSensitivity:
    """Word order inside the tree must reach h_doc: the batched encoder may
    not scramble child order or GRU direction. Every variant also matches
    the oracle, so the difference is the right one."""

    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("permute", [reversed_edus, reversed_root_children])
    def test_reordering_changes_h_doc(self, mode, permute):
        rng = np.random.default_rng(30)
        gen = random_tree(rng, n_edus=4)
        other = permute(gen.tree)
        assert other.root.kind is NodeKind.RR and len(gen.tree.root.children) > 1
        table = random_embedding_table(rng, gen.words, 8)
        m = make_model(mode, trees=[gen.tree], seed=31)
        h = encode_document(m, gen.tree, table).h_doc
        h_other = encode_document(m, other, table).h_doc
        assert np.max(np.abs(h - h_other)) > 1e-6
        for tree, got in ((gen.tree, h), (other, h_other)):
            np.testing.assert_allclose(got, encode_reference(m, tree, table), atol=1e-10)


# Height 1 holds POS nodes under six labels; height 2 holds NP nodes with
# one, two and three children and VP nodes with one; the EDUs sit at
# heights 3 and 5 under the RR nodes.
MIXED = (
    "(NS-elaboration"
    " (EDU (S (NP (DT the) (NN cat)) (VP (VBZ sits)) (PP (IN on) (NP (DT a) (JJ red) (NN mat)))))"
    " (NN-joint (EDU (NP (NNS dogs))) (EDU (VP (VBZ barks)))))"
)


def internal_heights(tree):
    height, out = {}, {}
    for node in post_order(tree.root):
        if node.kind is NodeKind.WORD:
            height[node] = 0
            continue
        height[node] = 1 + max(height[c] for c in node.children)
        out.setdefault(height[node], []).append(node)
    return out


class TestMixedGroups:
    def test_fixture_mixes_counts_and_labels_within_a_height(self):
        tree = parse_sexpr(MIXED)
        by_height = internal_heights(tree)
        assert len({len(n.children) for n in by_height[2]}) > 1
        assert len({n.label for n in by_height[1]}) > 1
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree])
        schedule = schedule_of(m, tree)
        assert sum(len(parents) for _, parents, _ in groups(schedule)) == sum(map(len, by_height.values()))
        assert len(list(groups(schedule))) > len(schedule.batches) > len(by_height)

    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_matches_reference_and_gradcheck(self, mode):
        tree = parse_sexpr(MIXED)
        rng = np.random.default_rng(32)
        table = random_embedding_table(rng, leaf_words(tree), 4)
        m = make_model(mode, d=4, trees=[tree], seed=33)
        enc = encode_document(m, tree, table)
        np.testing.assert_allclose(enc.h_doc, encode_reference(m, tree, table), atol=1e-10)
        assert gradient_check_model(m, tree, table, y=1) < 1e-4


def mixed_documents(seed=50):
    """News-sized and tweet-sized trees, interleaved, with a table that
    misses some words and a vocabulary, taken from the tweets only, that
    misses some labels (so attribute sharing routes nodes to UNK keys)."""
    rng = np.random.default_rng(seed)
    tweets = [random_tree(rng, n_edus=1 + i % 4, rr_labels=("NS-elaboration", "NN-joint"),
                          phrase_labels=("NP", "VP")).tree for i in range(8)]
    news = [random_tree(rng, n_edus=25, edu_words=(10, 17), rr_arity=(2, 3)).tree for _ in range(3)]
    trees = [tweets[0], news[0], *tweets[1:4], news[1], *tweets[4:7], news[2], tweets[7]]
    words = sorted({w for tree in trees for w in leaf_words(tree)})
    table = random_embedding_table(rng, words[::2], 8)
    return tweets, trees, table


# At height 2, VP is first seen with one child and then with two, while the
# batches list two children first, and VP is also used at height 3: summed
# in batch order, as backward sums them, VP's gradient blocks add in another
# order than in the reverse of the order the walk first reaches them.
CROSSED = "(EDU (S (NP (NP (DT a) (NN b)) (VP (VBZ c))) (VP (VP (VBZ d) (RB e)) (NP (NN f)))))"


def replay_backward(m, tree, table, y, first_seen=False):
    """The per-group path, as a test-local oracle: internal nodes grouped by
    (height, registry key, child count), one one-segment kernel call per
    group, forward and backward. The groups of one height and child count
    form a batch; the backward calls run batches reversed, each batch's
    groups in the order the post-order walk first reaches them. Then each
    key's weight gradients are single products over the rows of all its
    groups, taken in forward batch order: per direction dW = da^T x, and,
    over the rows past their sequence's first step, dU_rz = da_rz^T h_prev
    and dU_h = da_h^T (h_prev * r). With ``first_seen``, each group's
    products are formed over its own rows and added group by group by
    descending height, and within a height in the reverse of the order the
    walk first reaches each group.
    Checks the encoder's node vectors on the way; returns the gradients."""
    enc = encode_document(m, tree, table)
    schedule, hd = enc.schedule, m.d // 2
    key_of = {int(p): key for key, parents, _ in groups(schedule) for p in parents}
    nodes = post_order(tree.root)
    # Rows are post-order places: a node's last child sits just before it, and
    # each earlier child just before the subtree of the child after it.
    size, height, order = [1] * len(nodes), [0] * len(nodes), {}
    for i, node in enumerate(nodes):
        kids = []
        for _ in node.children:
            kids.insert(0, i - 1 - sum(size[c] for c in kids))
        size[i] += sum(size[c] for c in kids)
        if i in key_of:
            height[i] = 1 + max(height[c] for c in kids)
            order.setdefault((height[i], key_of[i], len(kids)), []).append((i, kids))
    walk = sorted(order, key=lambda group: group[0])
    batches = {}
    for h, key, k in walk:
        batches.setdefault((h, k), []).append(key)
    vectors = enc.vectors.copy()
    vectors[sorted(key_of)] = np.nan  # every Bi-GRU row is recomputed below
    replayed = {}
    for h, k in batches:
        for key in batches[h, k]:
            parents = np.array([i for i, _ in order[h, key, k]])
            children = np.array([kids for _, kids in order[h, key, k]])
            group = nn.GruBatch([m.registry[key]], [slice(0, len(parents))])
            trace = nn.gru_forward(group, *stack_inputs(vectors[children]))
            vectors[parents, :hd], vectors[parents, hd:] = trace.h.mean(axis=2)
            replayed[h, key, k] = (key, parents, children, group, trace)
    assert np.array_equal(vectors, enc.vectors)
    assert [(key, list(parents)) for key, parents, *_ in replayed.values()] == \
        [(key, list(parents)) for key, parents, _ in groups(schedule)]

    (document,) = schedule.documents
    grads = replace(m, flat=np.zeros_like(m.flat))
    dw, db, dh = nn.softmax_ce_backward(m.classifier, vectors[document].mean(axis=0), y)
    grads.classifier.w += dw
    grads.classifier.b += db
    d_vectors = np.zeros_like(vectors)
    d_vectors[document] = dh / len(document)
    operands = {}  # group -> its rows' (da, x) and, past the first step, (da, h_prev, h_prev * r)
    for g in [(h, key, k) for h, k in reversed(batches) for key in batches[h, k]]:
        key, parents, children, group, trace = replayed[g]
        n, k = children.shape
        up = d_vectors[parents] / k
        upstream = np.stack([up[:, None, :hd], up[:, None, hd:]])
        da = np.empty((2, n * k, 3 * hd))
        d_vectors[children] += nn.gru_backward(group, trace, np.broadcast_to(upstream, trace.h.shape), da)
        x = np.stack([vectors[children].reshape(n * k, -1), vectors[children[:, ::-1]].reshape(n * k, -1)])
        h_prev = trace.h[:, :, :-1].reshape(2, -1, hd)
        gated = (trace.h[:, :, :-1] * trace.r[:, :, 1:]).reshape(2, -1, hd)
        operands[g] = (da, x, da.reshape(2, n, k, -1)[:, :, 1:].reshape(2, -1, 3 * hd), h_prev, gated)

    def products(pair, parts):
        da, x, later, h_prev, gated = (np.concatenate(op, axis=1) for op in zip(*parts))
        for k in range(2):
            pair.w[k] = da[k].T @ x[k]
            if later.shape[1]:
                pair.u[k, :2 * hd] = later[k, :, :2 * hd].T @ h_prev[k]
                pair.u[k, 2 * hd:] = later[k, :, 2 * hd:].T @ gated[k]

    if first_seen:
        for g in reversed(walk):
            alone = nn.GruParams(np.zeros((2, 3 * hd, m.d)), np.zeros((2, 3 * hd, hd)))
            products(alone, [operands[g]])
            grads.registry[g[1]].w += alone.w
            grads.registry[g[1]].u += alone.u
    else:
        for key in dict.fromkeys(g[1] for g in replayed):
            products(grads.registry[key], [operands[g] for g in replayed if g[1] == key])
    return enc, grads


class TestBatchesAcrossKeys:
    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("ablation", list(AblationMode))
    def test_backward_equals_a_per_key_replay_bit_for_bit(self, mode, ablation):
        rng = np.random.default_rng(60)
        news = random_tree(rng, n_edus=12, edu_words=(6, 12), rr_arity=(2, 3)).tree
        for d, tree in ((8, parse_sexpr(CROSSED)), (8, parse_sexpr(MIXED)), (100, news)):
            table = random_embedding_table(rng, leaf_words(tree), d)
            m = make_model(mode, ablation, d=d, trees=[tree], seed=61)
            enc, expected = replay_backward(m, tree, table, 1)
            assert np.array_equal(backward(m, enc, 1).flat, expected.flat)

    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("ablation", list(AblationMode))
    def test_backward_agrees_with_a_first_seen_group_order_within_rtol_1e_10(self, mode, ablation):
        """One product per key and group-by-group sums in first-seen
        order add the same terms: a key's sums differ by rounding only."""
        rng = np.random.default_rng(60)
        news = random_tree(rng, n_edus=12, edu_words=(6, 12), rr_arity=(2, 3)).tree
        for d, tree in ((8, parse_sexpr(CROSSED)), (8, parse_sexpr(MIXED)), (100, news)):
            table = random_embedding_table(rng, leaf_words(tree), d)
            m = make_model(mode, ablation, d=d, trees=[tree], seed=61)
            enc, old_order = replay_backward(m, tree, table, 1, first_seen=True)
            np.testing.assert_allclose(backward(m, enc, 1).flat, old_order.flat, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("ablation", list(AblationMode))
    def test_h_doc_is_within_rounding_of_the_rowwise_kernel(self, mode, ablation, monkeypatch):
        rng = np.random.default_rng(62)
        gen = random_tree(rng, n_edus=25, edu_words=(10, 17), rr_arity=(2, 3))
        table = random_embedding_table(rng, gen.words, 100)
        m = make_model(mode, ablation, d=100, trees=[gen.tree], seed=63)
        (got,) = encode_document(m, [gen.tree], table)
        monkeypatch.setattr(nn, "gru_forward", gru_forward_rowwise)
        (want,) = encode_document(m, [gen.tree], table)
        np.testing.assert_allclose(got.h_doc, want.h_doc, rtol=0, atol=ROWWISE_ATOL)

    @pytest.mark.parametrize("single", [True, False])
    def test_attribute_encode_calls_the_kernel_once_per_height_and_child_count(self, monkeypatch, single):
        rng = np.random.default_rng(62)
        trees = [random_tree(rng, n_edus=6, rr_arity=(2, 3)).tree for _ in range(2)]
        table = random_embedding_table(rng, [w for t in trees for w in leaf_words(t)], 8)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=trees)
        encoded = trees[:1] if single else trees
        shapes = {(h, len(n.children)) for tree in encoded for h, found in internal_heights(tree).items()
                  for n in found}
        calls = []
        kernel = nn.gru_forward
        monkeypatch.setattr(nn, "gru_forward",
                            lambda params, x, steps: calls.append(steps) or kernel(params, x, steps))
        encode_document(m, trees[0] if single else trees, table)
        (schedule,) = compile_tree(encoded, m)
        assert len(calls) == len(shapes) == len(schedule.batches) < len(list(groups(schedule)))
        assert sorted(calls) == sorted(k for _, k in shapes)


class TestBatchedEncoding:
    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("ablation", list(AblationMode))
    def test_bit_identical_to_per_document_encoding(self, mode, ablation):
        tweets, trees, table = mixed_documents()
        m = make_model(mode, ablation, trees=tweets, seed=51)
        assert len(list(compile_tree(trees, m))) > 1
        singles = [encode_document(m, tree, table) for tree in trees]
        if mode is SharingMode.ATTRIBUTE_SPECIFIC and ablation is not AblationMode.NO_STRUCTURE:
            assert any(enc.unk for enc in singles)
        assert any(enc.oov for enc in singles)
        for batch in (trees, trees[1:2], trees[:1]):
            encodings = encode_document(m, batch, table)
            assert len(encodings) == len(batch)
            for enc, single in zip(encodings, singles[trees.index(batch[0]):]):
                assert np.array_equal(enc.h_doc, single.h_doc)
                assert predict(m, enc) == predict(m, single)
                assert (enc.oov, enc.unk) == (single.oov, single.unk)
                assert enc.schedule is enc.vectors is enc.traces is None

    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_merged_groups_restrict_to_each_trees_own_groups(self, mode):
        tweets, trees, _ = mixed_documents(52)
        m = make_model(mode, trees=tweets)
        schedules = list(compile_tree(trees, m))
        assert len(schedules) > 1
        pending = iter(trees)
        for merged in schedules:
            offset = 0
            # Documents first: zip stops before taking a tree of the next schedule.
            for document, unk, tree in zip(merged.documents, merged.unk, pending):
                own = schedule_of(m, tree)
                picked = []
                for key, parents, children in groups(merged):
                    mine = (parents >= offset) & (parents < offset + own.size)
                    if mine.any():
                        picked.append((key, parents[mine] - offset, children[mine] - offset))
                assert len(picked) == len(list(groups(own)))
                for (key, parents, children), g in zip(sorted(picked, key=lambda p: p[1][0]),
                                                       sorted(groups(own), key=lambda g: g[1][0])):
                    assert key == g[0]
                    assert np.array_equal(parents, g[1]) and np.array_equal(children, g[2])
                assert np.array_equal(document - offset, own.documents[0])
                assert unk == own.unk[0]
                offset += own.size
            assert offset == merged.size
        assert next(pending, None) is None

    def test_unk_counts_the_nodes_in_unk_groups(self):
        tweets, trees, table = mixed_documents(53)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=tweets)
        for tree in trees:
            enc = encode_document(m, tree, table)
            unk_groups = [parents for key, parents, _ in groups(enc.schedule) if key in (UNK_SYNTAX, UNK_RR)]
            assert enc.unk == sum(map(len, unk_groups))

    def test_backward_on_a_batched_encoding_raises(self):
        tree = parse_sexpr(TWO_EDU)
        table = random_embedding_table(np.random.default_rng(54), leaf_words(tree), 8)
        m = make_model(SharingMode.UNIFIED, trees=[tree])
        (enc,) = encode_document(m, [tree], table)
        with pytest.raises(MissingTraceError):
            backward(m, enc, 1)

    def test_chunks_close_at_the_row_bound(self):
        _, trees, _ = mixed_documents(55)
        m = make_model(SharingMode.UNIFIED)
        rows = [len(post_order(t.root)) for t in trees]
        schedules = list(compile_tree(trees, m))
        assert len(schedules) > 1
        start = 0
        for schedule in schedules:
            end = start + len(schedule.documents)
            assert schedule.size == sum(rows[start:end])
            # The last tree of a schedule is the one that reaches the bound.
            assert sum(rows[start:end - 1]) < CHUNK_ROWS
            assert schedule.size >= CHUNK_ROWS or end == len(trees)
            start = end
        assert start == len(trees)
        assert list(compile_tree([], m)) == []
        assert encode_document(m, [], EmbeddingTable(8, {})) == []

    def test_a_tree_that_reaches_the_bound_closes_its_schedule(self):
        rng = np.random.default_rng(56)
        big = random_tree(rng, n_edus=150, edu_words=(10, 17), rr_arity=(2, 3)).tree
        small = random_tree(rng, n_edus=2).tree
        assert len(post_order(big.root)) > CHUNK_ROWS
        m = make_model(SharingMode.UNIFIED)
        assert [len(s.documents) for s in compile_tree([small, big, small, big], m)] == [2, 2]
        assert [len(s.documents) for s in compile_tree([big, small], m)] == [1, 1]


def plain(schedule):
    """Every field of a schedule as plain Python values, batch by batch."""
    return (
        schedule.size, schedule.words.tolist(), [(i, list(rows)) for i, rows in schedule.word_means],
        [rows.tolist() for rows in schedule.documents], list(schedule.unk),
        [(b.height, b.keys, b.rows, b.parents.tolist(), b.children.tolist(), b.input_grad) for b in schedule.batches],
    )


class TestCompiledOnce:
    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("ablation", list(AblationMode))
    def test_compile_tree_equals_the_list_walk(self, mode, ablation):
        tweets, trees, _ = mixed_documents(57)
        rng = np.random.default_rng(58)
        big = random_tree(rng, n_edus=150, edu_words=(10, 17), rr_arity=(2, 3)).tree
        assert len(post_order(big.root)) > CHUNK_ROWS
        m = make_model(mode, ablation, trees=tweets)
        lists = (trees, tweets, trees[1:2], [tweets[0], big, tweets[1], tweets[0]], [big])
        assert sum(len(post_order(t.root)) for t in trees) > CHUNK_ROWS
        for _ in range(2):  # compiled, then from each tree's kept schedule
            for listed in lists:
                got = [plain(s) for s in compile_tree(listed, m)]
                assert got == [plain(s) for s in compile_reference(listed, m)]

    def test_a_second_encoding_reuses_the_schedule(self, monkeypatch):
        rng = np.random.default_rng(59)
        gen = random_tree(rng, n_edus=4, rr_arity=(2, 3))
        table = random_embedding_table(rng, gen.words, 8)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[gen.tree])
        walks = []
        walk = model.post_order
        monkeypatch.setattr(model, "post_order", lambda root: walks.append(root) or walk(root))
        first = encode_document(m, gen.tree, table)
        second = encode_document(m, gen.tree, table)
        (batched,) = encode_document(m, [gen.tree], table)
        assert walks == [gen.tree.root]
        assert second.schedule is first.schedule
        assert np.array_equal(second.h_doc, first.h_doc) and np.array_equal(batched.h_doc, first.h_doc)

    @pytest.mark.parametrize("change", ["mode", "ablation", "vocab"])
    def test_a_new_routing_compiles_the_tree_again(self, change):
        tweets, trees, table = mixed_documents(61)
        tree = trees[1]
        vocab = AttributeVocab.from_trees(tweets)
        missing = next(n.label for n in iter_nodes(tree.root)
                       if n.kind is NodeKind.SYNTAX and n.label not in vocab.syntax_labels)
        attribute, unified, full = SharingMode.ATTRIBUTE_SPECIFIC, SharingMode.UNIFIED, AblationMode.FULL
        routings = {
            "mode": ((attribute, full, vocab), (SharingMode.LEVEL_SPECIFIC, full, vocab)),
            # Unified sharing has the same registry keys under either ablation.
            "ablation": ((unified, full, vocab), (unified, AblationMode.NO_DISCOURSE, vocab)),
            "vocab": ((attribute, full, vocab),
                      (attribute, full, AttributeVocab((*vocab.syntax_labels, missing), vocab.rr_labels))),
        }
        before, after = (init_model(8, *routing, seed=62) for routing in routings[change])
        stale = encode_document(before, tree, table).schedule
        enc = encode_document(after, tree, table)
        fresh = parse_sexpr(serialize_sexpr(tree))
        (expected,) = compile_reference([fresh], after)
        assert plain(enc.schedule) == plain(expected) != plain(stale)
        assert np.array_equal(enc.h_doc, encode_document(after, fresh, table).h_doc)
        assert encode_document(before, tree, table).schedule is not stale  # one routing kept per tree

    def test_a_kept_schedule_cannot_be_changed(self):
        tweets, trees, table = mixed_documents(63)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, AblationMode.NO_SYNTAX, trees=tweets)
        for schedule in (encode_document(m, trees[1], table).schedule, *compile_tree(trees, m)):
            for seq in (schedule.word_means, schedule.batches, schedule.documents, schedule.unk,
                        schedule.batches[0].keys, schedule.batches[0].rows):
                assert type(seq) is tuple
            arrays = [schedule.words, *schedule.documents, *(rows for _, rows in schedule.word_means)]
            for batch in schedule.batches:
                arrays += [batch.parents, batch.children]
            assert not any(array.flags.writeable for array in arrays)
            with pytest.raises(ValueError):
                schedule.batches[0].parents[0] = 0


# Words recur within an EDU and across EDUs, under different parents and at
# different depths, so parse_sexpr hands one leaf object to several places.
REPEATED = (
    "(NS-elaboration (EDU (S (NP (DT the) (NN cat)) (VP (VBZ sees) (NP (DT the) (NN dog)))))"
    " (NN-joint (EDU (NP (DT the) (NN dog)))"
    " (EDU (S (NP (NN cat)) (VP (VBZ sees) (NN cat) (RB again))))))"
)


def unshared(node):
    """A copy of the subtree with a fresh leaf at every word occurrence."""
    if node.kind is NodeKind.WORD:
        return TreeNode(node.label, node.kind)
    return TreeNode(node.label, node.kind, tuple(unshared(child) for child in node.children))


class TestSharedLeaves:
    """A node's row is its place in the walk: a leaf object at several places
    fills several rows, exactly as distinct leaves would."""

    def test_fixture_shares_leaves_and_its_copy_does_not(self, monkeypatch):
        monkeypatch.setattr(ling_tree, "_WORDS", {})  # a memo with room for every word
        tree = parse_sexpr(REPEATED)
        copy = LingTree(unshared(tree.root))
        leaves = [n for n in iter_nodes(tree.root) if n.kind is NodeKind.WORD]
        fresh = [n for n in iter_nodes(copy.root) if n.kind is NodeKind.WORD]
        assert len({id(leaf) for leaf in leaves}) == len(set(leaf_words(tree))) == 5 < len(leaves) == 11
        assert len({id(leaf) for leaf in fresh}) == len(fresh) == 11
        assert leaf_words(tree) == leaf_words(copy)
        assert AttributeVocab.from_trees([tree]) == AttributeVocab.from_trees([copy])
        assert compute_tree_stats(tree) == compute_tree_stats(copy)
        assert serialize_sexpr(tree) == serialize_sexpr(copy) == REPEATED

    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("ablation", list(AblationMode))
    def test_shared_leaves_encode_and_backpropagate_as_fresh_ones(self, monkeypatch, mode, ablation):
        monkeypatch.setattr(ling_tree, "_WORDS", {})
        tree = parse_sexpr(REPEATED)
        copy = LingTree(unshared(tree.root))
        table = random_embedding_table(np.random.default_rng(64), leaf_words(tree), 8)
        m = make_model(mode, ablation, trees=[tree], seed=65)
        (expected,) = compile_reference([tree], m)
        assert plain(schedule_of(m, tree)) == plain(expected) == plain(schedule_of(m, copy))
        enc, enc_copy = encode_document(m, tree, table), encode_document(m, copy, table)
        assert enc.h_doc.tobytes() == enc_copy.h_doc.tobytes()
        listed = encode_document(m, [tree, copy, tree], table)
        assert all(e.h_doc.tobytes() == enc.h_doc.tobytes() for e in listed)
        assert backward(m, enc, 1).flat.tobytes() == backward(m, enc_copy, 1).flat.tobytes()
        np.testing.assert_allclose(enc.h_doc, encode_reference(m, tree, table), atol=1e-10)


class TestPredict:
    def test_zero_classifier_is_half(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.UNIFIED, trees=[tree], random_classifier=False)
        enc = DocumentEncoding(np.zeros(8), None, None, [])
        assert predict(m, enc) == 0.5

    def test_bias_only_logits(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.UNIFIED, trees=[tree], random_classifier=False)
        m.classifier.b[:] = [0.0, 2.0]
        enc = DocumentEncoding(np.zeros(8), None, None, [])
        assert predict(m, enc) == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-6)

    def test_probability_in_open_interval(self):
        rng = np.random.default_rng(6)
        gen = random_tree(rng)
        table = random_embedding_table(rng, gen.words, 8)
        m = make_model(SharingMode.UNIFIED, trees=[gen.tree])
        p = predict(m, encode_document(m, gen.tree, table))
        assert 0.0 < p < 1.0


class TestBackward:
    def test_saturated_correct_prediction_has_tiny_classifier_grad(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.UNIFIED, trees=[tree], random_classifier=False)
        m.classifier.b[:] = [-20.0, 20.0]
        rng = np.random.default_rng(7)
        table = random_embedding_table(rng, ["a", "runs", "the", "end"], 8)
        enc = encode_document(m, tree, table)
        grads = backward(m, enc, 1)
        assert np.abs(grads.classifier.w).max() < 1e-8
        assert np.abs(grads.classifier.b).max() < 1e-8

    def test_small_tree_gradcheck_tight(self):
        tree = parse_sexpr("(EDU (S a runs))")
        rng = np.random.default_rng(1)
        table = random_embedding_table(rng, ["a", "runs"], 4, scale=2.0)
        m = make_model(SharingMode.UNIFIED, d=4, seed=1, trees=[tree])
        assert gradient_check_model(m, tree, table, y=1, step=1e-4) < 1e-6

    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_gradcheck_all_modes_full(self, mode):
        rng = np.random.default_rng(9)
        gen, table = gradcheck_fixture(rng, 8)
        m = make_model(mode, trees=[gen.tree], seed=3)
        assert gradient_check_model(m, gen.tree, table, y=0) < 1e-4

    def test_attribute_grads_accumulate_over_reused_key(self):
        # Same tree twice, once with the three NP nodes given unique labels;
        # with tied weights the per-label gradients must sum to the shared one.
        shared_text = TWO_EDU
        renamed_text = shared_text.replace("(NP (NNP a))", "(NP1 (NNP a))")
        renamed_text = renamed_text.replace("(NP (DT the) (NN end))", "(NP2 (DT the) (NN end))")
        assert renamed_text.count("NP") == 2 + renamed_text.count("NNP")
        shared_tree = parse_sexpr(shared_text)
        renamed_tree = parse_sexpr(renamed_text)
        rng = np.random.default_rng(10)
        table = random_embedding_table(rng, ["a", "runs", "the", "end"], 8)

        m_shared = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[shared_tree], seed=21)
        m_renamed = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[renamed_tree], seed=21)
        np_pair = m_shared.registry["NP"]
        for key in ("NP1", "NP2"):
            m_renamed.registry[key] = np_pair.copy()
        for key in m_shared.registry:
            if key not in ("NP", UNK_SYNTAX, UNK_RR):
                m_renamed.registry[key] = m_shared.registry[key].copy()
        m_renamed.classifier = m_shared.classifier.copy()

        h_a = encode_document(m_shared, shared_tree, table).h_doc
        h_b = encode_document(m_renamed, renamed_tree, table).h_doc
        np.testing.assert_array_equal(h_a, h_b)

        g_shared = backward(m_shared, encode_document(m_shared, shared_tree, table), 1)
        g_renamed = backward(m_renamed, encode_document(m_renamed, renamed_tree, table), 1)
        for attr in ("fwd", "bwd"):
            for m_idx in range(6):
                total = getattr(g_renamed.registry["NP1"], attr).matrices()[m_idx] + \
                    getattr(g_renamed.registry["NP2"], attr).matrices()[m_idx]
                shared = getattr(g_shared.registry["NP"], attr).matrices()[m_idx]
                np.testing.assert_allclose(shared, total, atol=1e-12)

    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("ablation", list(AblationMode))
    def test_skipped_input_gradients_leave_parameter_gradients_bit_identical(self, mode, ablation):
        rng = np.random.default_rng(14)
        gen, table = gradcheck_fixture(rng, 8)
        m = make_model(mode, ablation, trees=[gen.tree], seed=8)
        enc = encode_document(m, gen.tree, table)
        skipped = [b for b in enc.schedule.batches if not b.input_grad]
        if ablation is not AblationMode.NO_STRUCTURE:
            assert skipped
        gru_rows = {i for b in enc.schedule.batches for i in b.parents}
        for b in enc.schedule.batches:
            # The children's gradient is needed iff some child is a Bi-GRU node.
            assert b.input_grad == any(c in gru_rows for c in b.children.ravel())
        grads = backward(m, enc, 0)
        enc = encode_document(m, gen.tree, table)  # backward consumes its encoding
        enc.schedule = replace(enc.schedule, batches=[replace(b, input_grad=True) for b in enc.schedule.batches])
        assert np.array_equal(backward(m, enc, 0).flat, grads.flat)

    def test_successive_calls_return_distinct_buffers(self):
        rng = np.random.default_rng(15)
        first, table = gradcheck_fixture(rng, 8)
        second = random_tree(rng, n_edus=2, vocab=tuple(first.words))
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[first.tree, second.tree], seed=5)
        alone = backward(m, encode_document(m, second.tree, table), 0).flat.tobytes()
        a = backward(m, encode_document(m, first.tree, table), 1)
        a_bytes = a.flat.tobytes()
        b = backward(m, encode_document(m, second.tree, table), 0)
        assert not np.shares_memory(a.flat, b.flat)
        assert b.flat.tobytes() == alone
        assert a.flat.tobytes() == a_bytes

    def test_missing_trace_raises(self):
        tree = parse_sexpr(TWO_EDU)
        rng = np.random.default_rng(11)
        table = random_embedding_table(rng, ["a", "runs", "the", "end"], 8)
        m = make_model(SharingMode.UNIFIED, trees=[tree])
        enc = encode_document(m, tree, table)
        enc.traces.clear()
        with pytest.raises(MissingTraceError):
            backward(m, enc, 1)

    def test_an_encoding_whose_workspace_was_reused_or_consumed_is_refused(self):
        rng = np.random.default_rng(16)
        first, table = gradcheck_fixture(rng, 8)
        second = random_tree(rng, n_edus=2, vocab=tuple(first.words))
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[first.tree, second.tree], seed=5)
        alone = backward(m, encode_document(m, first.tree, table), 1).flat.tobytes()
        work = model.Workspace()
        stale = encode_document(m, first.tree, table, work)
        fresh = encode_document(m, second.tree, table, work)
        with pytest.raises(MissingTraceError, match="reused"):
            backward(m, stale, 1)
        backward(m, fresh, 0)
        with pytest.raises(MissingTraceError, match="backward pass has run"):
            backward(m, fresh, 0)
        again = encode_document(m, first.tree, table, work)
        assert backward(m, again, 1).flat.tobytes() == alone

    def test_no_structure_has_zero_gru_grads(self):
        tree = parse_sexpr(TWO_EDU)
        rng = np.random.default_rng(12)
        table = random_embedding_table(rng, ["a", "runs", "the", "end"], 8)
        m = make_model(SharingMode.UNIFIED, AblationMode.NO_STRUCTURE, trees=[tree])
        grads = backward(m, encode_document(m, tree, table), 1)
        for pair in grads.registry.values():
            for mat in (*pair.fwd.matrices(), *pair.bwd.matrices()):
                np.testing.assert_array_equal(mat, np.zeros_like(mat))
        assert np.abs(grads.classifier.w).max() > 0


class TestParamCount:
    def test_unified_d100(self):
        m = init_model(100, SharingMode.UNIFIED)
        assert param_count(m) == 45_202

    def test_level_specific_d100(self):
        m = init_model(100, SharingMode.LEVEL_SPECIFIC)
        assert param_count(m) == 90_202

    def test_attribute_specific_m10_n5(self):
        vocab = AttributeVocab(
            tuple(f"P{i}" for i in range(10)),
            tuple(f"NS-r{j}" for j in range(5)),
        )
        m = init_model(100, SharingMode.ATTRIBUTE_SPECIFIC, vocab=vocab)
        assert param_count(m) == 765_202

    @pytest.mark.parametrize("mode, ablation, count", [
        (SharingMode.ATTRIBUTE_SPECIFIC, AblationMode.NO_DISCOURSE, 11 * 45_000 + 202),
        (SharingMode.ATTRIBUTE_SPECIFIC, AblationMode.NO_SYNTAX, 6 * 45_000 + 202),
        (SharingMode.LEVEL_SPECIFIC, AblationMode.NO_DISCOURSE, 45_202),
        (SharingMode.LEVEL_SPECIFIC, AblationMode.NO_SYNTAX, 45_202),
        (SharingMode.UNIFIED, AblationMode.NO_STRUCTURE, 202),
        (SharingMode.LEVEL_SPECIFIC, AblationMode.NO_STRUCTURE, 202),
        (SharingMode.ATTRIBUTE_SPECIFIC, AblationMode.NO_STRUCTURE, 202),
    ])
    def test_ablated_m10_n5_d100(self, mode, ablation, count):
        vocab = AttributeVocab(
            tuple(f"P{i}" for i in range(10)),
            tuple(f"NS-r{j}" for j in range(5)),
        )
        assert param_count(init_model(100, mode, ablation, vocab)) == count


class TestCheckpoint:
    def make(self, tmp_path, seed=0, text=TWO_EDU):
        tree = parse_sexpr(text)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree], seed=seed)
        path = tmp_path / "model.json"
        save_model(m, path)
        return m, tree, path

    @pytest.mark.parametrize("text", [TWO_EDU, UNK_LABELS], ids=["two_edu", "unk_labels"])
    def test_round_trip_is_bit_identical(self, tmp_path, text):
        m, tree, path = self.make(tmp_path, text=text)
        loaded = load_model(path)
        rng = np.random.default_rng(13)
        table = random_embedding_table(rng, leaf_words(tree), 8)
        h_before = encode_document(m, tree, table).h_doc
        h_after = encode_document(loaded, tree, table).h_doc
        assert np.array_equal(h_before, h_after)
        assert np.array_equal(m.flat, loaded.flat)
        assert loaded.mode is m.mode and loaded.ablation is m.ablation

    def test_save_is_deterministic(self, tmp_path):
        m, _, path = self.make(tmp_path)
        other = tmp_path / "model2.json"
        save_model(m, other)
        assert path.read_bytes() == other.read_bytes()

    @pytest.mark.parametrize("version", [0, 1, 2, 3, 5, 99, "4", None])
    def test_version_mismatch(self, tmp_path, version):
        _, _, path = self.make(tmp_path)
        header, payload = read_checkpoint(path)
        write_checkpoint(path, {**header, "version": version}, payload)
        with pytest.raises(VersionMismatchError, match=f"^checkpoint version {re.escape(repr(version))}, "):
            load_model(path)

    @pytest.mark.parametrize("spoil, message", [
        (lambda line, payload: b"", "unreadable"),
        (lambda line, payload: b"\n" + payload, "unreadable"),
        (lambda line, payload: line[: len(line) // 2], "unreadable"),
        (lambda line, payload: line.replace(b", ", b",\n", 1) + b"\n" + payload, "unreadable"),
        (lambda line, payload: line.replace(b'"NP"', b'"N\xffP"') + b"\n" + payload, "unreadable"),
        (lambda line, payload: b"[" * 200_000 + b"\n" + payload, "unreadable"),
        (lambda line, payload: line.replace(b'"d": 8', b'"d": 8' + b"0" * 5000) + b"\n" + payload, "unreadable"),
        (lambda line, payload: b"[4]\n" + payload, "not a model checkpoint"),
        (lambda line, payload: line.replace(b'"version": 4', b'"revision": 4') + b"\n" + payload,
         "not a model checkpoint"),
    ], ids=["empty_file", "blank_header", "header_cut", "line_break_in_header", "non_utf8_header",
            "deep_header", "over_long_integer", "header_not_an_object", "no_version"])
    def test_header_line_must_be_a_checkpoint_header(self, tmp_path, spoil, message):
        _, _, path = self.make(tmp_path)
        line, _, payload = path.read_bytes().partition(b"\n")
        spoiled = spoil(line, payload)
        assert spoiled != path.read_bytes()
        path.write_bytes(spoiled)
        with pytest.raises(CorruptCheckpointError, match=message):
            load_model(path)

    @pytest.mark.parametrize("change", [
        lambda header: header.update(mode="shared"),
        lambda header: header.update(mode=None),
        lambda header: header.update(ablation="no_words"),
        lambda header: header.pop("mode"),
        lambda header: header.pop("ablation"),
        lambda header: header.pop("d"),
        lambda header: header.pop("attribute_vocab"),
        lambda header: header["attribute_vocab"].pop("rr"),
        lambda header: header.update(attribute_vocab=["NP"]),
    ], ids=["mode_unknown", "mode_null", "ablation_unknown", "mode_missing", "ablation_missing",
            "width_missing", "vocabulary_missing", "level_missing", "vocabulary_not_an_object"])
    def test_header_fields_must_name_a_layout(self, tmp_path, change):
        _, _, path = self.make(tmp_path)
        header, payload = read_checkpoint(path)
        change(header)
        write_checkpoint(path, header, payload)
        with pytest.raises(CorruptCheckpointError, match="malformed checkpoint"):
            load_model(path)

    @pytest.mark.parametrize("shrink", [1, 8, "payload"])
    def test_file_that_shrinks_after_its_size_is_read(self, tmp_path, monkeypatch, shrink):
        # fstat still reports the saved size, so only the short read can
        # tell that bytes went missing.
        _, _, path = self.make(tmp_path)
        raw = path.read_bytes()
        if shrink == "payload":
            shrink = len(raw) - len(raw.partition(b"\n")[0]) - 1
        path.write_bytes(raw[:-shrink])
        real_fstat = os.fstat

        def saved_size(fd):
            fields = list(real_fstat(fd))
            fields[stat.ST_SIZE] = len(raw)
            return os.stat_result(fields)

        monkeypatch.setattr(model.os, "fstat", saved_size)
        expected = len(raw) - len(raw.partition(b"\n")[0]) - 1
        with pytest.raises(CorruptCheckpointError, match=f"{expected - shrink} bytes stored, {expected} expected"):
            load_model(path)

    def test_header_line_and_payload(self, tmp_path):
        m, _, path = self.make(tmp_path)
        header, payload = read_checkpoint(path)
        assert sorted(header) == ["ablation", "attribute_vocab", "d", "mode", "version"]
        assert path.read_bytes().startswith(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        assert payload == m.flat.astype("<f8").tobytes()

    def test_truncated_file(self, tmp_path):
        _, _, path = self.make(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_non_finite_weight_rejected(self, tmp_path, where, value):
        m, _, path = self.make(tmp_path)
        index = {"first": 0, "middle": m.flat.size // 2, "last": -1}[where]
        header, payload = read_checkpoint(path)
        flat = np.frombuffer(payload, dtype="<f8").copy()
        flat[index] = value
        write_checkpoint(path, header, flat.tobytes())
        with pytest.raises(CorruptCheckpointError, match="non-finite"):
            load_model(path)

    # 2**24 would lay out ~90 PiB: the stored byte count rejects it before
    # anything of that size is allocated.
    @pytest.mark.parametrize("d", [0, -8, 7, "8", 8.0, True, 2 ** 24])
    def test_bad_width_rejected(self, tmp_path, d):
        _, _, path = self.make(tmp_path)
        header, payload = read_checkpoint(path)
        write_checkpoint(path, {**header, "d": d}, payload)
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    @pytest.mark.parametrize("change, message", [
        (lambda vocab: vocab["syntax"].remove("NP"), "do not fit"),
        (lambda vocab: vocab["rr"].append(7), "lists of strings"),
        (lambda vocab: vocab.update(syntax="NP"), "lists of strings"),
        (lambda vocab: vocab["syntax"].append("NP"), "unique"),
        (lambda vocab: vocab["rr"].append("NP"), "unique"),
    ], ids=["label_removed", "label_not_a_string", "labels_not_a_list", "label_repeated",
            "label_at_both_levels"])
    def test_stored_parameters_must_fit_mode_and_vocabulary(self, tmp_path, change, message):
        _, _, path = self.make(tmp_path)
        header, payload = read_checkpoint(path)
        change(header["attribute_vocab"])
        write_checkpoint(path, header, payload)
        with pytest.raises(CorruptCheckpointError, match=message):
            load_model(path)

    @pytest.mark.parametrize("payload", [
        lambda payload: payload[:-8],
        lambda payload: payload[:-3],
        lambda payload: payload + bytes(8),
        lambda payload: payload + b"\n",
        lambda payload: b"",
        lambda payload: payload + b"\0",
        lambda payload: payload * 2,
    ], ids=["flat_short", "bytes_not_whole_values", "flat_long", "trailing_line_break", "empty",
            "one_byte_long", "flat_twice"])
    def test_payload_must_be_the_layout_bytes(self, tmp_path, payload):
        _, _, path = self.make(tmp_path)
        header, stored = read_checkpoint(path)
        write_checkpoint(path, header, payload(stored))
        with pytest.raises(CorruptCheckpointError, match="do not fit"):
            load_model(path)

    @pytest.mark.parametrize("syntax, rr, message", [
        (["NS-x", "NN"], [], "syntax label 'NS-x' is a RR"),
        (["NP"], ["NN"], "rr label 'NN' is a SYNTAX"),
        (["EDU"], [], "syntax label 'EDU' is a EDU"),
        ([], ["EDU"], "rr label 'EDU' is a EDU"),
        ([], ["NS-x", "SS-x"], "nuclearity-like prefix"),
        (["NP", "SS-x"], [], "nuclearity-like prefix"),
    ], ids=["relation_as_syntax", "syntax_as_relation", "edu_as_syntax", "edu_as_relation",
            "ss_prefix_relation", "ss_prefix_syntax"])
    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_label_must_belong_to_its_level(self, tmp_path, mode, syntax, rr, message):
        path = tmp_path / "model.json"
        save_model(make_model(mode, trees=[parse_sexpr(TWO_EDU)]), path)
        header, payload = read_checkpoint(path)
        write_checkpoint(path, {**header, "attribute_vocab": {"syntax": syntax, "rr": rr}}, payload)
        with pytest.raises(CorruptCheckpointError, match=message):
            load_model(path)


def legacy_save(params, path):
    """A version 3 checkpoint: one JSON object holding ``flat`` as base64 text."""
    doc = {
        "version": 3,
        "mode": params.mode.value,
        "ablation": params.ablation.value,
        "d": params.d,
        "attribute_vocab": {"syntax": list(params.vocab.syntax_labels), "rr": list(params.vocab.rr_labels)},
        "flat": base64.b64encode(params.flat.astype("<f8", copy=False)).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def test_version_3_checkpoint_is_refused(tmp_path):
    tree = parse_sexpr(TWO_EDU)
    legacy_save(make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree]), tmp_path / "v3.json")
    refusal = "checkpoint version 3, this build reads 4"
    with pytest.raises(VersionMismatchError, match=f"^{refusal}$"):
        load_model(tmp_path / "v3.json")
    table = random_embedding_table(np.random.default_rng(5), leaf_words(tree), 8)
    (tmp_path / "vectors.txt").write_text(
        "".join(word + "".join(f" {v!r}" for v in vec.tolist()) + "\n" for word, vec in table.vectors.items())
    )
    (tmp_path / "one.tree").write_text(TWO_EDU)
    line = assert_one_line_exit(["predict", "--model", str(tmp_path / "v3.json"), "--embeddings",
                                 str(tmp_path / "vectors.txt"), "--tree", str(tmp_path / "one.tree")], 2)
    assert line == f"error: {refusal}"


# Every mode and ablation at width 8, and the width-100 attribute model with
# 5 labels per level (12 keys, 540,202 values).
ROUND_TRIPS = [(mode, ablation, 8, 1) for mode in SharingMode for ablation in AblationMode]
ROUND_TRIPS.append((SharingMode.ATTRIBUTE_SPECIFIC, AblationMode.FULL, 100, 5))


@pytest.mark.parametrize("mode, ablation, d, labels", ROUND_TRIPS,
                         ids=[f"{m.value}-{a.value}-d{d}" for m, a, d, _ in ROUND_TRIPS])
def test_checkpoint_is_the_header_line_then_the_flat_bytes(tmp_path, mode, ablation, d, labels):
    vocab = AttributeVocab(tuple(f"P{i}" for i in range(labels)), tuple(f"NS-r{j}" for j in range(labels)))
    params = init_model(d, mode, ablation, vocab, seed=3, random_classifier=True)
    path = tmp_path / "model.json"
    save_model(params, path)
    loaded = load_model(path)
    assert loaded.flat.dtype == np.float64 and loaded.flat.flags.c_contiguous
    assert loaded.flat.tobytes() == params.flat.tobytes()
    first = path.read_bytes()
    size = model.flat_size(d, len(registry_keys(mode, ablation, vocab)))
    assert len(first) == len(first.partition(b"\n")[0]) + 1 + 8 * size
    save_model(params, path)
    assert path.read_bytes() == first


def test_load_peak_is_about_one_model(tmp_path):
    # The file's bytes are read straight into the parameter vector; the
    # rest of the peak is np.isfinite's bool mask, an eighth of the model.
    vocab = AttributeVocab(tuple(f"P{i}" for i in range(10)), tuple(f"NS-r{j}" for j in range(8)))
    params = init_model(100, SharingMode.ATTRIBUTE_SPECIFIC, vocab=vocab, seed=3)
    path = tmp_path / "model.json"
    save_model(params, path)
    tracemalloc.start()
    try:
        load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    model_bytes = params.flat.nbytes
    assert peak < 1.25 * model_bytes, f"{peak / model_bytes:.2f} models"


def test_header_line_is_looked_for_in_the_first_header_bytes(tmp_path):
    """A file of twice MAX_HEADER_BYTES with no line break is refused after
    one read of MAX_HEADER_BYTES; nothing past them is read or parsed."""
    path = tmp_path / "model.json"
    path.write_bytes(b'{"version": 4, "pad": "' + b"x" * (2 * MAX_HEADER_BYTES))
    refusal = f"{path} has no header line in its first {MAX_HEADER_BYTES} bytes"
    tracemalloc.start()
    try:
        with pytest.raises(CorruptCheckpointError, match=f"^{re.escape(refusal)}$"):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * MAX_HEADER_BYTES, f"{peak / MAX_HEADER_BYTES:.2f} caps"
    line = assert_one_line_exit(["predict", "--model", str(path), "--embeddings", str(tmp_path / "none.txt"),
                                 "--tree", str(tmp_path / "none.tree")], 2)
    assert line == f"error: {refusal}"


@pytest.mark.parametrize("pad, loads", [(0, True), (1, False)], ids=["line_fills_the_cap", "one_byte_over"])
def test_header_line_may_fill_the_header_bytes(tmp_path, pad, loads):
    """A header line of MAX_HEADER_BYTES, its line break included, loads (JSON
    allows trailing blanks); one byte longer and it is refused."""
    params = make_model(SharingMode.UNIFIED)
    path = tmp_path / "model.json"
    save_model(params, path)
    line, _, payload = path.read_bytes().partition(b"\n")
    write_checkpoint(path, line.ljust(MAX_HEADER_BYTES - 1 + pad), payload)
    if loads:
        assert load_model(path).flat.tobytes() == params.flat.tobytes()
    else:
        with pytest.raises(CorruptCheckpointError, match="has no header line in its first"):
            load_model(path)


def layout_views(m):
    """The registry and classifier views in the documented flat order."""
    for pair in m.registry.values():
        for gru in (pair.fwd, pair.bwd):
            yield from gru.matrices()
    yield m.classifier.w
    yield m.classifier.b


class TestFlatLayout:
    @pytest.mark.parametrize("random_classifier", [False, True])
    @pytest.mark.parametrize("d", [2, 8, 100])
    @pytest.mark.parametrize("ablation", list(AblationMode))
    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_init_equals_sequential_per_matrix_draws(self, mode, ablation, d, random_classifier):
        """Drawn in place, the bytes of the old per-matrix rng.uniform loop
        (tests/reference.py), and the generator left where it left it.
        Nothing else is drawn."""
        vocab = AttributeVocab(("NP", "VP"), ("NS-elaboration",))
        rng = np.random.default_rng(4)
        m = init_model(d, mode, ablation, vocab, rng=rng, random_classifier=random_classifier)
        ref = np.random.default_rng(4)
        expected = init_reference(d, len(registry_keys(mode, ablation, vocab)), ref, random_classifier)
        assert m.flat.dtype == np.float64
        assert m.flat.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("random_classifier", [False, True])
    @pytest.mark.parametrize("text", [TWO_EDU, UNK_LABELS], ids=["two_edu", "unk_labels"])
    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_writes_to_flat_are_seen_through_the_views(self, mode, text, random_classifier):
        """Every registry and classifier array of a fresh model is a view of
        ``flat``: init_model draws into them and rebinds none."""
        tree = parse_sexpr(text)
        m = make_model(mode, trees=[tree], seed=6, random_classifier=random_classifier)
        views = list(layout_views(m))
        assert all(np.shares_memory(v, m.flat) for v in views)
        assert sum(v.size for v in views) == param_count(m) == m.flat.size
        m.flat[...] = np.arange(m.flat.size, dtype=np.float64)
        assert np.array_equal(np.concatenate([v.ravel() for v in views]), m.flat)
        m.classifier.b[1] = -1.0
        assert m.flat[-1] == -1.0

    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_each_gru_is_two_contiguous_views_of_flat(self, mode):
        """The kernels read w and u as stored: each is a C-contiguous view of
        ``flat``, u right after w, holding the six gate matrices in order."""
        m = make_model(mode, trees=[parse_sexpr(UNK_LABELS)], seed=5)
        hd = m.d // 2
        start = m.flat.__array_interface__["data"][0]
        offset = 0
        for pair in m.registry.values():
            for gru in (pair.fwd, pair.bwd):
                assert gru.w.shape == (3 * hd, m.d) and gru.u.shape == (3 * hd, hd)
                for view in (gru.w, gru.u):
                    assert view.flags.c_contiguous and np.shares_memory(view, m.flat)
                    assert view.__array_interface__["data"][0] - start == 8 * offset
                    offset += view.size
                stacked = np.concatenate([gru.w.ravel(), gru.u.ravel()])
                assert np.array_equal(stacked, np.concatenate([mat.ravel() for mat in gru.matrices()]))
        assert offset == m.flat.size - m.classifier.w.size - m.classifier.b.size

    def test_copy_and_load_own_their_buffers(self, tmp_path):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.LEVEL_SPECIFIC, trees=[tree], seed=2)
        vec = m.flat.copy()
        path = tmp_path / "model.json"
        save_model(m, path)
        for other in (copy_model(m), load_model(path)):
            assert np.array_equal(other.flat, vec)
            assert not np.shares_memory(other.flat, m.flat)
            other.flat[...] = 0.0
            assert all(np.abs(v).max() == 0.0 for v in layout_views(other))
            assert np.array_equal(m.flat, vec)
            other.flat[...] = vec
            assert np.array_equal(other.flat, vec)

    def test_wrong_flat_size_rejected(self):
        m = make_model(SharingMode.UNIFIED)
        with pytest.raises(nn.ShapeMismatchError):
            ModelParams(m.d, m.mode, m.ablation, m.vocab, np.zeros(m.flat.size - 1))
