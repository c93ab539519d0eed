import base64
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hero import nn
from hero.embed import EmbeddingTable
from hero.ling_tree import LingTree, NodeKind, TreeNode, edu_nodes, leaf_words, parse_sexpr, post_order
from hero.model import (
    AblationMode, AttributeVocab, CorruptCheckpointError,
    DimMismatchError, DocumentEncoding, MissingTraceError, ModelParams,
    SharingMode, VersionMismatchError,
    DISCOURSE_KEY, SYNTAX_KEY, UNIFIED_KEY, UNK_RR, UNK_SYNTAX,
    backward, compile_tree, copy_model, encode_document, gradient_check_model, init_model,
    load_model, param_count, predict, registry_keys, save_model,
)
from hero.synthetic import gradcheck_fixture, random_embedding_table, random_tree
from reference import encode_reference

TWO_EDU = "(NS-elaboration (EDU (S (NP (NNP a)) (VP (VBZ runs)))) (EDU (NP (DT the) (NN end))))"
# Constituency labels spelled like the old UNK keys: each is a label like any other.
UNK_LABELS = "(NS-elaboration (EDU (UNK_SYNTAX (NN a))) (EDU (UNK_RR (NN b))))"


def row_of(tree, node):
    """A node's row in the encoder's node matrix: its post-order index."""
    return post_order(tree.root).index(node)


def make_model(mode, ablation=AblationMode.FULL, d=8, seed=0, trees=(), random_classifier=True):
    vocab = AttributeVocab.from_trees(trees)
    return init_model(d, mode, ablation, vocab, seed=seed, random_classifier=random_classifier)


def group_key(m, tree, node):
    """The registry key of the schedule group that embeds ``node``."""
    row = row_of(tree, node)
    return next(g.key for g in compile_tree(tree, m).groups if row in g.parents)


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
        used = {g.key for tree in trees for g in compile_tree(tree, m).groups}
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
        fwd = nn.gru_forward(pair.fwd, x_word)
        bwd = nn.gru_forward(pair.bwd, x_word)
        pos_node = tree.root.children[0]
        np.testing.assert_array_equal(
            enc.vectors[row_of(tree, pos_node)], np.concatenate([fwd.h[0, 0], bwd.h[0, 0]])
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
    edus = iter(edu_nodes(tree)[::-1])

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
        schedule = compile_tree(tree, m)
        assert sum(len(g.parents) for g in schedule.groups) == sum(map(len, by_height.values()))
        assert len(schedule.groups) > len(by_height)

    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_matches_reference_and_gradcheck(self, mode):
        tree = parse_sexpr(MIXED)
        rng = np.random.default_rng(32)
        table = random_embedding_table(rng, leaf_words(tree), 4)
        m = make_model(mode, d=4, trees=[tree], seed=33)
        enc = encode_document(m, tree, table)
        np.testing.assert_allclose(enc.h_doc, encode_reference(m, tree, table), atol=1e-10)
        assert gradient_check_model(m, tree, table, y=1) < 1e-4


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
        skipped = [g for g in enc.schedule.groups if not g.input_grad]
        if ablation is not AblationMode.NO_STRUCTURE:
            assert skipped
        gru_rows = {i for g in enc.schedule.groups for i in g.parents}
        for g in enc.schedule.groups:
            # The children's gradient is needed iff some child is a Bi-GRU node.
            assert g.input_grad == any(c in gru_rows for c in g.children.ravel())
        grads = backward(m, enc, 0)
        enc.schedule = replace(enc.schedule, groups=[replace(g, input_grad=True) for g in enc.schedule.groups])
        assert np.array_equal(backward(m, enc, 0).flat, grads.flat)

    def test_reused_gradient_buffer_equals_a_fresh_one(self):
        rng = np.random.default_rng(15)
        first, table = gradcheck_fixture(rng, 8)
        second = random_tree(rng, n_edus=2, vocab=tuple(first.words))
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[first.tree, second.tree], seed=5)
        buf = backward(m, encode_document(m, first.tree, table), 1)
        fresh = backward(m, encode_document(m, second.tree, table), 0)
        reused = backward(m, encode_document(m, second.tree, table), 0, out=buf)
        assert reused is buf
        assert np.array_equal(reused.flat, fresh.flat)
        other = make_model(SharingMode.UNIFIED)
        with pytest.raises(nn.ShapeMismatchError):
            backward(m, encode_document(m, first.tree, table), 1, out=other)

    def test_missing_trace_raises(self):
        tree = parse_sexpr(TWO_EDU)
        rng = np.random.default_rng(11)
        table = random_embedding_table(rng, ["a", "runs", "the", "end"], 8)
        m = make_model(SharingMode.UNIFIED, trees=[tree])
        enc = encode_document(m, tree, table)
        enc.traces.clear()
        with pytest.raises(MissingTraceError):
            backward(m, enc, 1)

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


def decode_flat(doc):
    return np.frombuffer(base64.b64decode(doc["flat"], validate=True), dtype="<f8").copy()


def edit_flat(change):
    """A checkpoint edit that changes the decoded parameter vector."""
    def edit(doc):
        vec = change(decode_flat(doc))
        doc["flat"] = base64.b64encode(np.asarray(vec, dtype="<f8").tobytes()).decode("ascii")
    return edit


class TestCheckpoint:
    def make(self, tmp_path, seed=0, text=TWO_EDU):
        tree = parse_sexpr(text)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree], seed=seed)
        path = tmp_path / "model.json"
        save_model(m, path)
        return m, tree, path

    def edit(self, path, change):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))

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

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_version_mismatch(self, tmp_path, version):
        _, _, path = self.make(tmp_path)
        self.edit(path, lambda doc: doc.update(version=version))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_top_level_keys(self, tmp_path):
        m, _, path = self.make(tmp_path)
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["ablation", "attribute_vocab", "d", "flat", "mode", "version"]
        assert isinstance(doc["flat"], str)
        assert doc["flat"] == base64.b64encode(m.flat.astype("<f8").tobytes()).decode("ascii")
        assert np.array_equal(decode_flat(doc), m.flat)

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

        def poison(vec):
            vec[index] = value
            return vec

        self.edit(path, edit_flat(poison))
        with pytest.raises(CorruptCheckpointError, match="non-finite"):
            load_model(path)

    @pytest.mark.parametrize("d", [0, -8, 7, "8", 8.0, True])
    def test_bad_width_rejected(self, tmp_path, d):
        _, _, path = self.make(tmp_path)
        self.edit(path, lambda doc: doc.update(d=d))
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    @pytest.mark.parametrize("change, message", [
        (lambda doc: doc["attribute_vocab"]["syntax"].remove("NP"), "do not fit"),
        (edit_flat(lambda vec: vec[:-1]), "do not fit"),
        (lambda doc: doc["attribute_vocab"]["rr"].append(7), "lists of strings"),
        (lambda doc: doc["attribute_vocab"].update(syntax="NP"), "lists of strings"),
        (lambda doc: doc["attribute_vocab"]["syntax"].append("NP"), "unique"),
        (lambda doc: doc["attribute_vocab"]["rr"].append("NP"), "unique"),
    ], ids=["label_removed", "flat_short", "label_not_a_string", "labels_not_a_list",
            "label_repeated", "label_at_both_levels"])
    def test_stored_parameters_must_fit_mode_and_vocabulary(self, tmp_path, change, message):
        _, _, path = self.make(tmp_path)
        self.edit(path, change)
        with pytest.raises(CorruptCheckpointError, match=message):
            load_model(path)

    @pytest.mark.parametrize("flat, message", [
        (lambda flat: decode_flat({"flat": flat}).tolist(), "malformed"),
        (lambda flat: 1.5, "malformed"),
        (lambda flat: "1.5", "malformed"),
        (lambda flat: flat[:-4] + "!!==", "malformed"),
        (lambda flat: flat[:40] + "\n" + flat[40:], "malformed"),
        (lambda flat: flat[:-4], "do not fit"),
    ], ids=["json_list", "json_number", "number_as_text", "not_base64", "line_break",
            "bytes_not_whole_values"])
    def test_flat_must_be_base64_of_the_layout(self, tmp_path, flat, message):
        _, _, path = self.make(tmp_path)
        self.edit(path, lambda doc: doc.update(flat=flat(doc["flat"])))
        with pytest.raises(CorruptCheckpointError, match=message):
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
        self.edit(path, lambda doc: doc.update(attribute_vocab={"syntax": syntax, "rr": rr}))
        with pytest.raises(CorruptCheckpointError, match=message):
            load_model(path)


def legacy_save(params, path):
    """The checkpoint writer the chunked save_model must reproduce byte for byte."""
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


@pytest.mark.parametrize("mode, ablation, labels, size", [
    (SharingMode.UNIFIED, AblationMode.FULL, 0, 45_202),
    (SharingMode.ATTRIBUTE_SPECIFIC, AblationMode.FULL, 5, 12 * 45_000 + 202),
    (SharingMode.ATTRIBUTE_SPECIFIC, AblationMode.NO_STRUCTURE, 5, 202),
], ids=["unified", "attribute", "no_structure"])
@pytest.mark.parametrize("chunk", [3, 6, 300, None], ids=lambda c: f"chunk{c}")
def test_save_matches_the_single_dump_bytes(tmp_path, monkeypatch, mode, ablation, labels, size, chunk):
    if chunk is not None:
        monkeypatch.setattr("hero.model._SAVE_CHUNK", chunk)
    vocab = AttributeVocab(tuple(f"P{i}" for i in range(labels)), tuple(f"NS-r{j}" for j in range(labels)))
    params = init_model(100, mode, ablation, vocab, seed=3, random_classifier=True)
    assert params.flat.size == size
    save_model(params, tmp_path / "new.json")
    legacy_save(params, tmp_path / "old.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def layout_views(m):
    """The registry and classifier views in the documented flat order."""
    for pair in m.registry.values():
        for gru in (pair.fwd, pair.bwd):
            yield from gru.matrices()
    yield m.classifier.w
    yield m.classifier.b


class TestFlatLayout:
    @pytest.mark.parametrize("mode", list(SharingMode))
    @pytest.mark.parametrize("random_classifier", [False, True])
    def test_init_equals_sequential_per_matrix_draws(self, mode, random_classifier):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(mode, trees=[tree], seed=4, random_classifier=random_classifier)
        rng = np.random.default_rng(4)
        drawn = [mat for _ in range(2 * len(m.registry)) for mat in nn.GruParams.init(8, rng).matrices()]
        clf = nn.ClassifierParams.init(8, rng) if random_classifier else nn.ClassifierParams.zeros(8)
        expected = np.concatenate([a.ravel() for a in (*drawn, clf.w, clf.b)])
        assert m.flat.dtype == np.float64
        assert np.array_equal(m.flat, expected)

    @pytest.mark.parametrize("text", [TWO_EDU, UNK_LABELS], ids=["two_edu", "unk_labels"])
    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_writes_to_flat_are_seen_through_the_views(self, mode, text):
        tree = parse_sexpr(text)
        m = make_model(mode, trees=[tree], seed=6)
        views = list(layout_views(m))
        assert all(np.shares_memory(v, m.flat) for v in views)
        assert sum(v.size for v in views) == param_count(m) == m.flat.size
        m.flat[...] = np.arange(m.flat.size, dtype=np.float64)
        assert np.array_equal(np.concatenate([v.ravel() for v in views]), m.flat)
        m.classifier.b[1] = -1.0
        assert m.flat[-1] == -1.0

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
