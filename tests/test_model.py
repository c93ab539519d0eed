import json
import math

import numpy as np
import pytest

from hero import nn
from hero.embed import EmbeddingTable
from hero.ling_tree import LingTree, NodeKind, TreeNode, edu_nodes, leaf_words, parse_sexpr, post_order
from hero.model import (
    AblationMode, AttributeVocab, CorruptCheckpointError,
    DimMismatchError, DocumentEncoding, MissingTraceError,
    SharingMode, VersionMismatchError,
    DISCOURSE_KEY, SYNTAX_KEY, UNIFIED_KEY, UNK_RR, UNK_SYNTAX,
    backward, compile_tree, copy_model, encode_document, gradient_check_model, init_model,
    load_model, param_count, params_to_vec, predict, registry_keys,
    save_model, select_aggregator, vec_to_params, zeros_like_model,
)
from hero.synthetic import gradcheck_fixture, random_embedding_table, random_tree
from reference import encode_reference

TWO_EDU = "(NS-elaboration (EDU (S (NP (NNP a)) (VP (VBZ runs)))) (EDU (NP (DT the) (NN end))))"


def row_of(tree, node):
    """A node's row in the encoder's node matrix: its post-order index."""
    return post_order(tree.root).index(node)


def make_model(mode, ablation=AblationMode.FULL, d=8, seed=0, trees=(), random_classifier=True):
    vocab = AttributeVocab.from_trees(trees)
    return init_model(d, mode, ablation, vocab, seed=seed, random_classifier=random_classifier)


class TestSelectAggregator:
    def test_unified_always_shared(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.UNIFIED, trees=[tree])
        root = tree.root
        assert select_aggregator(m, root, root.children[0]) == UNIFIED_KEY
        edu = root.children[0]
        assert select_aggregator(m, edu, edu.children[0]) == UNIFIED_KEY

    def test_level_specific_keys_on_child_level(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.LEVEL_SPECIFIC, trees=[tree])
        root = tree.root
        edu = root.children[0]
        assert select_aggregator(m, root, edu) == DISCOURSE_KEY
        assert select_aggregator(m, edu, edu.children[0]) == SYNTAX_KEY

    def test_attribute_specific_keys_on_parent_label(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree])
        root = tree.root
        edu = root.children[0]
        s_node = edu.children[0]
        np_node = s_node.children[0]
        assert select_aggregator(m, root, edu) == "NS-elaboration"
        assert select_aggregator(m, edu, s_node) == "S"  # EDU borrows its root child label
        assert select_aggregator(m, np_node, np_node.children[0]) == "NP"

    def test_unseen_labels_fall_back_to_unk(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree])
        other = parse_sexpr("(SN-background (EDU (ADJP (JJ hot))) (EDU (NNS facts)))")
        root = other.root
        edu = root.children[0]
        adjp = edu.children[0]
        assert select_aggregator(m, root, edu) == UNK_RR
        assert select_aggregator(m, adjp, adjp.children[0]) == UNK_SYNTAX


class TestRegistry:
    def test_cardinality_per_mode(self):
        vocab = AttributeVocab(("NP", "VP", "S"), ("NS-elaboration",))
        assert len(registry_keys(SharingMode.UNIFIED, vocab)) == 1
        assert len(registry_keys(SharingMode.LEVEL_SPECIFIC, vocab)) == 2
        assert len(registry_keys(SharingMode.ATTRIBUTE_SPECIFIC, vocab)) == 3 + 1 + 2

    def test_init_is_seed_deterministic(self):
        tree = parse_sexpr(TWO_EDU)
        a = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree], seed=5)
        b = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree], seed=5)
        assert np.array_equal(params_to_vec(a), params_to_vec(b))

    def test_odd_dims_rejected(self):
        with pytest.raises(DimMismatchError):
            init_model(7, SharingMode.UNIFIED)


class TestEncode:
    def test_zero_params_zero_document(self):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.UNIFIED, trees=[tree], random_classifier=False)
        vec_to_params(m, np.zeros(param_count(m)))
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
        schedule = compile_tree(tree, m.mode, m.ablation, m.vocab)
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


class TestCheckpoint:
    def make(self, tmp_path, seed=0):
        tree = parse_sexpr(TWO_EDU)
        m = make_model(SharingMode.ATTRIBUTE_SPECIFIC, trees=[tree], seed=seed)
        path = tmp_path / "model.json"
        save_model(m, path)
        return m, tree, path

    def test_round_trip_is_bit_identical(self, tmp_path):
        m, tree, path = self.make(tmp_path)
        loaded = load_model(path)
        rng = np.random.default_rng(13)
        table = random_embedding_table(rng, ["a", "runs", "the", "end"], 8)
        h_before = encode_document(m, tree, table).h_doc
        h_after = encode_document(loaded, tree, table).h_doc
        assert np.array_equal(h_before, h_after)
        assert np.array_equal(params_to_vec(m), params_to_vec(loaded))
        assert loaded.mode is m.mode and loaded.ablation is m.ablation

    def test_save_is_deterministic(self, tmp_path):
        m, _, path = self.make(tmp_path)
        other = tmp_path / "model2.json"
        save_model(m, other)
        assert path.read_bytes() == other.read_bytes()

    def test_version_mismatch(self, tmp_path):
        _, _, path = self.make(tmp_path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatchError):
            load_model(path)

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
    @pytest.mark.parametrize("where", [("classifier", "W"), ("classifier", "b"), ("registry", "NP", "fwd", "U_z")])
    def test_non_finite_weight_rejected(self, tmp_path, where, value):
        _, _, path = self.make(tmp_path)
        doc = json.loads(path.read_text())
        matrix = doc
        for name in where:
            matrix = matrix[name]
        if isinstance(matrix[0], list):
            matrix = matrix[0]
        matrix[-1] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError, match="non-finite"):
            load_model(path)

    def test_registry_key_mismatch(self, tmp_path):
        _, _, path = self.make(tmp_path)
        doc = json.loads(path.read_text())
        del doc["registry"]["NP"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError):
            load_model(path)


def test_zeros_like_and_vec_round_trip():
    tree = parse_sexpr(TWO_EDU)
    m = make_model(SharingMode.LEVEL_SPECIFIC, trees=[tree], seed=2)
    z = zeros_like_model(m)
    assert param_count(z) == param_count(m)
    assert np.abs(params_to_vec(z)).max() == 0.0
    vec = params_to_vec(m)
    c = copy_model(m)
    vec_to_params(c, np.zeros_like(vec))
    assert np.abs(params_to_vec(c)).max() == 0.0
    vec_to_params(c, vec)
    assert np.array_equal(params_to_vec(c), vec)
