import dataclasses
import math

import numpy as np
import pytest

from hero.ling_tree import NodeKind, iter_nodes, parse_sexpr
from hero.stats import (
    ComparisonRow, CorpusReport, SingleClassCorpusError, TooFewSamplesError, ZeroVarianceError,
    compare_groups, compute_tree_stats, corpus_report,
    regularized_incomplete_beta, t_two_sided_p,
)
from hero.synthetic import random_tree
from hero.trainer import LabeledDocument
from reference import t_two_sided_p_reference, tree_stats_reference

MINIMAL = "(EDU (S (NP (NNP Obama)) (VP (VBD spoke))))"
FIG_SHAPED = "(NS-elaboration (EDU (NP (NNP X))) (EDU (NP (NNP Y))))"


class TestTreeStats:
    def test_minimal_chain(self):
        ts = compute_tree_stats(parse_sexpr("(EDU (NNP Obama))"))
        assert ts.node_count == 3
        assert ts.depth == 2
        assert ts.max_width == 1
        assert ts.avg_children == 1.0
        assert ts.leaf_count == 1
        assert ts.max_children == 1

    def test_two_edu_toy(self):
        ts = compute_tree_stats(parse_sexpr(FIG_SHAPED))
        assert ts.node_count == 9
        assert ts.discourse_size == 3
        assert ts.discourse_depth == 1
        assert ts.discourse_max_width == 2
        assert ts.syntax_size_mean == 3.0
        assert ts.syntax_size_max == 3
        assert ts.kind_proportions["EDU"] == pytest.approx(2 / 9)
        assert ts.label_proportions["NNP"] == pytest.approx(2 / 9)
        assert ts.label_proportions["WORD"] == pytest.approx(2 / 9)

    def test_proportions_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ts = compute_tree_stats(random_tree(rng).tree)
            assert sum(ts.kind_proportions.values()) == pytest.approx(1.0, abs=1e-9)
            assert sum(ts.label_proportions.values()) == pytest.approx(1.0, abs=1e-9)
            assert ts.depth < ts.node_count

    def test_corpus_mean_edu_count_tracks_generator(self):
        rng = np.random.default_rng(1)
        edu_counts = []
        for _ in range(300):
            gen = random_tree(rng, n_edus=int(rng.integers(1, 4)))
            ts = compute_tree_stats(gen.tree)
            edu_counts.append(ts.kind_proportions["EDU"] * ts.node_count)
        assert np.mean(edu_counts) == pytest.approx(2.0, abs=0.15)

    def test_width_fields(self):
        # Root with 3 EDUs directly under one relation: width 3 at depth 1.
        text = "(NN-joint (EDU (NNP a)) (EDU (NNP b)) (EDU (NNP c)))"
        ts = compute_tree_stats(parse_sexpr(text))
        assert ts.max_width == 3
        assert ts.max_children == 3
        assert ts.discourse_max_width == 3
        assert ts.avg_width == pytest.approx(10 / 4)
        assert ts.avg_leaf_depth == 3.0

    def test_numbers_list_scalars_then_kinds_then_labels(self):
        numbers = compute_tree_stats(parse_sexpr(FIG_SHAPED)).as_numbers()
        assert list(numbers) == [
            "node_count", "leaf_count", "depth", "max_width", "avg_width",
            "avg_leaf_depth", "avg_children", "max_children",
            "discourse_size", "discourse_max_width", "discourse_depth",
            "syntax_size_mean", "syntax_size_max",
            "syntax_width_mean", "syntax_width_max",
            "syntax_depth_mean", "syntax_depth_max",
            "kind_prop:RR", "kind_prop:EDU", "kind_prop:SYNTAX", "kind_prop:WORD",
            "label_prop:NS-elaboration", "label_prop:EDU", "label_prop:NP",
            "label_prop:NNP", "label_prop:WORD",
        ]


def assert_matches_reference(tree):
    ts = compute_tree_stats(tree)
    ref = tree_stats_reference(tree)
    assert dataclasses.asdict(ts) == ref
    assert list(ts.kind_proportions) == list(ref["kind_proportions"])
    assert list(ts.label_proportions) == list(ref["label_proportions"])


class TestAgainstReference:
    def test_seeded_random_trees(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            gen = random_tree(
                rng, n_edus=int(rng.integers(1, 13)), rr_arity=(2, 4),
                max_branch=int(rng.integers(2, 5)),
            )
            assert_matches_reference(gen.tree)

    @pytest.mark.parametrize("text", [MINIMAL, FIG_SHAPED])
    def test_fixed_trees(self, text):
        assert_matches_reference(parse_sexpr(text))


class TestDiscourseAndSyntaxShape:
    def test_single_edu_degenerate(self):
        ts = compute_tree_stats(parse_sexpr(MINIMAL))
        assert ts.discourse_size == 1
        assert ts.discourse_depth == 0
        assert ts.syntax_size_max == ts.node_count - 1

    def test_edu_count_matches_generator(self):
        rng = np.random.default_rng(3)
        for n_edus in (1, 2, 10):
            gen = random_tree(rng, n_edus=n_edus)
            ts = compute_tree_stats(gen.tree)
            assert ts.kind_proportions["EDU"] == n_edus / ts.node_count

    def test_discourse_plus_syntax_counts_match_full_tree(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            gen = random_tree(rng)
            ts = compute_tree_stats(gen.tree)
            syntax_words = sum(
                1 for n in iter_nodes(gen.tree.root)
                if n.kind in (NodeKind.SYNTAX, NodeKind.WORD)
            )
            assert ts.discourse_size + syntax_words == ts.node_count


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        # I_x(1, 1) is the identity.
        for x in (0.1, 0.42, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_symmetry(self):
        for a, b, x in [(2.5, 4.0, 0.3), (0.5, 9.0, 0.77), (6.0, 0.5, 0.1)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-13)


class TestTTail:
    def test_cauchy_closed_form(self):
        # dof=1 is Cauchy: two-sided p = 1 - (2/pi) arctan|t|.
        for t in (0.5, 1.0, 3.0):
            expected = 1.0 - 2.0 / math.pi * math.atan(t)
            assert t_two_sided_p(t, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_against_integration_oracle(self):
        for dof in (1, 2, 3, 5, 8, 13, 30, 77, 120, 200):
            for t in (0.0, 0.3, 1.0, 2.4, 6.0):
                mine = t_two_sided_p(t, float(dof))
                ref = t_two_sided_p_reference(t, float(dof))
                assert mine == pytest.approx(ref, abs=1e-6)


class TestCompareGroups:
    def test_identical_groups(self):
        res = compare_groups([1, 2, 3], [1, 2, 3])
        assert res.t == 0.0
        assert res.p_value == 1.0

    def test_textbook_fixture(self):
        res = compare_groups([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert res.t == pytest.approx(-1.0, abs=1e-12)
        assert res.dof == pytest.approx(8.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.3466, abs=1e-4)

    def test_constant_groups(self):
        with pytest.raises(ZeroVarianceError):
            compare_groups([0, 0, 0], [0, 0, 0])
        with pytest.raises(ZeroVarianceError):
            compare_groups([1, 1, 1], [2, 2, 2])

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            compare_groups([1], [1, 2])

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(0, 1, int(rng.integers(2, 12))).tolist()
            b = rng.normal(0.5, 2, int(rng.integers(2, 12))).tolist()
            ab = compare_groups(a, b)
            ba = compare_groups(b, a)
            assert ab.t == pytest.approx(-ba.t, abs=1e-12)
            assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)
            assert ab.dof == pytest.approx(ba.dof, abs=1e-12)


def arity_corpus(seed, n_per_group=200, shuffle_labels=False):
    """Fake trees get wider relations and branchier syntax than true trees."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_per_group):
        gen = random_tree(rng, n_edus=int(rng.integers(3, 6)), rr_arity=(2, 4), max_branch=4)
        docs.append(LabeledDocument(f"f{i}", gen.tree, 1))
    for i in range(n_per_group):
        gen = random_tree(rng, n_edus=int(rng.integers(3, 6)), rr_arity=(2, 2), max_branch=2)
        docs.append(LabeledDocument(f"t{i}", gen.tree, 0))
    if shuffle_labels:
        labels = [d.y for d in docs]
        perm = rng.permutation(len(labels))
        docs = [
            LabeledDocument(d.doc_id, d.tree, labels[perm[i]])
            for i, d in enumerate(docs)
        ]
    return docs


class TestCorpusReport:
    def test_detects_planted_arity_effect(self):
        report = corpus_report(arity_corpus(seed=3))
        by_name = {row.statistic: row for row in report.rows}
        row = by_name["avg_children"]
        assert row.fake_mean > row.true_mean
        assert row.p_value < 0.001

    def test_shuffled_labels_wash_out_the_effect(self):
        report = corpus_report(arity_corpus(seed=3, shuffle_labels=True))
        by_name = {row.statistic: row for row in report.rows}
        assert by_name["avg_children"].p_value > 0.05

    def test_identical_trees_degenerate_or_p_one(self):
        tree = parse_sexpr(FIG_SHAPED)
        docs = [LabeledDocument(f"d{i}", tree, i % 2) for i in range(20)]
        report = corpus_report(docs)
        for row in report.rows:
            assert row.degenerate or row.p_value == pytest.approx(1.0)

    def test_single_class_rejected(self):
        tree = parse_sexpr(FIG_SHAPED)
        docs = [LabeledDocument(f"d{i}", tree, 1) for i in range(5)]
        with pytest.raises(SingleClassCorpusError):
            corpus_report(docs)

    def test_duplicating_documents_keeps_means(self):
        docs = arity_corpus(seed=5, n_per_group=30)
        a = corpus_report(docs)
        b = corpus_report(docs + docs)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.statistic == rb.statistic
            assert rb.fake_mean == pytest.approx(ra.fake_mean, abs=1e-12)
            assert rb.true_mean == pytest.approx(ra.true_mean, abs=1e-12)

    def test_csv_and_json_shapes(self):
        docs = arity_corpus(seed=7, n_per_group=10)
        report = corpus_report(docs)
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "statistic,fake_mean,true_mean,t,dof,p_value"
        assert len(lines) == len(report.rows) + 1
        assert all(line.count(",") == 5 for line in lines)
        import json

        payload = json.loads(report.to_json())
        assert len(payload) == len(report.rows)
        assert {"statistic", "fake_mean", "true_mean", "t", "dof", "p_value", "degenerate"} <= set(payload[0])

    def test_degenerate_rows_have_empty_cells(self):
        tree = parse_sexpr(FIG_SHAPED)
        docs = [LabeledDocument(f"d{i}", tree, i % 2) for i in range(10)]
        csv = corpus_report(docs).to_csv()
        row = csv.strip().split("\n")[1]
        assert row.endswith(",,,")

    def test_csv_and_json_bytes(self):
        """A normal and a degenerate row, byte for byte: floats by repr, a
        missing t, dof or p as an empty CSV cell and as null in JSON."""
        report = CorpusReport([
            ComparisonRow("depth", 4.5, 3.25, 2.0000000000000004, 17.5, 0.06117),
            ComparisonRow("label_prop:NN", 0.0, 0.0, None, None, None, True),
        ])
        assert report.to_csv() == (
            "statistic,fake_mean,true_mean,t,dof,p_value\n"
            "depth,4.5,3.25,2.0000000000000004,17.5,0.06117\n"
            "label_prop:NN,0.0,0.0,,,\n"
        )
        assert report.to_json() == """[
  {
    "degenerate": false,
    "dof": 17.5,
    "fake_mean": 4.5,
    "p_value": 0.06117,
    "statistic": "depth",
    "t": 2.0000000000000004,
    "true_mean": 3.25
  },
  {
    "degenerate": true,
    "dof": null,
    "fake_mean": 0.0,
    "p_value": null,
    "statistic": "label_prop:NN",
    "t": null,
    "true_mean": 0.0
  }
]"""
