import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hero.ling_tree import (
    EmptyNodeError, KindViolationError, Level, NodeKind,
    UnbalancedParensError, UnknownRRPrefixError, _tokenize,
    edu_nodes, iter_nodes, leaf_words,
    parse_sexpr, serialize_sexpr, tree_equal, validate_tree,
)
from hero.synthetic import random_tree

MINIMAL = "(EDU (S (NP (NNP Obama)) (VP (VBD spoke))))"
FIG_SHAPED = "(NS-elaboration (EDU (NP (NNP X))) (EDU (NP (NNP Y))))"

# One tree per sentence of a 29-token news statement, EDUs joined by RRs.
NEWS_TREE = (
    "(NN-joint"
    " (NS-elaboration"
    "  (EDU (S (WHADVP (WRB Why)) (SQ (VBD did) (NP (DT the) (NNP US))"
    " (PP (IN in) (NP (CD 2017)))"
    " (VP (VB give) (NP (CD $3.7m)) (PP (TO to) (NP (DT the) (NNP Wuhan) (NNP Lab)))"
    " (PP (IN in) (NP (NNP China))))) (. ?)))"
    "  (EDU (S (NP (JJ Such) (NNS grants))"
    " (VP (VBD were) (VP (VBN prohibited) (PP (IN in) (NP (CD 2014))))) (. .))))"
    " (EDU (SQ (VBD Did) (NP (NNP President) (NNP Obama))"
    " (VP (VB grant) (NP (DT an) (NN exception))) (. ?))))"
)
NEWS_TOKENS = (
    "Why did the US in 2017 give $3.7m to the Wuhan Lab in China ? "
    "Such grants were prohibited in 2014 . "
    "Did President Obama grant an exception ?"
).split()


def kinds(tree):
    counts = {}
    for node in iter_nodes(tree.root):
        counts[node.kind] = counts.get(node.kind, 0) + 1
    return counts


class TestParse:
    def test_minimal_two_word_document(self):
        tree = parse_sexpr(MINIMAL)
        assert tree.root.kind is NodeKind.EDU
        counts = kinds(tree)
        assert counts[NodeKind.SYNTAX] == 5
        assert counts[NodeKind.WORD] == 2
        assert leaf_words(tree) == ["Obama", "spoke"]

    def test_rr_over_two_edus(self):
        tree = parse_sexpr(FIG_SHAPED)
        assert tree.root.kind is NodeKind.RR
        assert [c.kind for c in tree.root.children] == [NodeKind.EDU, NodeKind.EDU]

    def test_levels_follow_kinds(self):
        tree = parse_sexpr(FIG_SHAPED)
        for node in iter_nodes(tree.root):
            expected = Level.DISCOURSE if node.kind in (NodeKind.RR, NodeKind.EDU) else Level.SYNTAX
            assert node.level is expected

    def test_doc_id_is_attached(self):
        assert parse_sexpr(MINIMAL, doc_id="d1").doc_id == "d1"

    @pytest.mark.parametrize("text", ["(S (NP", "(EDU (NNP x)", "(EDU (NNP x)))", "x"])
    def test_unbalanced(self, text):
        with pytest.raises(UnbalancedParensError):
            parse_sexpr(text)

    def test_trailing_content_rejected(self):
        with pytest.raises(UnbalancedParensError):
            parse_sexpr("(EDU (NNP x)) (EDU (NNP y))")

    @pytest.mark.parametrize("text", ["", "()", "(NP)", "((EDU (NNP x)))"])
    def test_empty_nodes(self, text):
        with pytest.raises(EmptyNodeError):
            parse_sexpr(text)

    @pytest.mark.parametrize(
        "text",
        [
            "(S (NP (NNP x)))",              # syntax root
            "(EDU word)",                    # word directly under an EDU
            "(NS-elaboration (NP (NNP x)))",  # syntax child of an RR
            "(EDU (NS-x (EDU (NNP a))))",    # discourse node below an EDU
        ],
    )
    def test_kind_violations(self, text):
        with pytest.raises(KindViolationError):
            parse_sexpr(text)

    def test_unknown_nuclearity_prefix(self):
        with pytest.raises(UnknownRRPrefixError):
            parse_sexpr("(SS-elaboration (EDU (NNP x)) (EDU (NNP y)))")

    def test_tokens_split_on_whitespace_and_parentheses_only(self):
        wrong = []
        for code in range(sys.maxunicode + 1):
            c = chr(code)
            if c in "()":
                expected = ["a", c, "b"]
            elif c.isspace():
                expected = ["a", "b"]
            else:
                expected = ["a" + c + "b"]
            if _tokenize("a" + c + "b") != expected:
                wrong.append(hex(code))
        assert wrong == []

    def test_tokens_with_escapes_are_verbatim(self):
        tree = parse_sexpr("(EDU (NNP -LRB-))")
        assert leaf_words(tree) == ["-LRB-"]


class TestSerialize:
    def test_round_trip_is_canonical(self):
        text = serialize_sexpr(parse_sexpr("(EDU   (NNP   Obama)  )"))
        assert text == "(EDU (NNP Obama))"
        assert serialize_sexpr(parse_sexpr(text)) == text

    def test_escape_preserved(self):
        text = serialize_sexpr(parse_sexpr("(EDU (NNP -LRB-))"))
        assert "-LRB-" in text

    def test_random_trees_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            gen = random_tree(rng)
            text = serialize_sexpr(gen.tree)
            again = parse_sexpr(text)
            assert tree_equal(gen.tree.root, again.root)
            assert serialize_sexpr(again) == text


class TestLeafWords:
    def test_minimal(self):
        assert leaf_words(parse_sexpr(MINIMAL)) == ["Obama", "spoke"]

    def test_transcribed_news_statement_has_29_tokens(self):
        tree = parse_sexpr(NEWS_TREE)
        assert len(NEWS_TOKENS) == 29
        assert leaf_words(tree) == NEWS_TOKENS

    def test_generator_agrees_on_leaves(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            gen = random_tree(rng)
            assert leaf_words(gen.tree) == gen.words

    def test_leaf_order_stable_under_round_trip(self):
        rng = np.random.default_rng(6)
        gen = random_tree(rng, n_edus=5)
        again = parse_sexpr(serialize_sexpr(gen.tree))
        assert leaf_words(again) == gen.words


def test_kind_stratification():
    rng = np.random.default_rng(8)
    for _ in range(25):
        gen = random_tree(rng)
        for node in iter_nodes(gen.tree.root):
            if node.kind is NodeKind.SYNTAX:
                for below in iter_nodes(node):
                    assert below.kind in (NodeKind.SYNTAX, NodeKind.WORD)


def test_validate_tree_accepts_generated_and_parsed():
    rng = np.random.default_rng(9)
    validate_tree(random_tree(rng).tree)
    validate_tree(parse_sexpr(NEWS_TREE))


def test_edu_nodes_in_document_order():
    tree = parse_sexpr(FIG_SHAPED)
    labels = [leaf_words_of(e) for e in edu_nodes(tree)]
    assert labels == [["X"], ["Y"]]


def leaf_words_of(node):
    return [n.label for n in iter_nodes(node) if n.kind is NodeKind.WORD]


_token = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(_token, min_size=1, max_size=6),
    tag=_token.filter(lambda t: t != "EDU"),
)
def test_round_trip_arbitrary_tokens(words, tag):
    body = " ".join(f"({tag} {w})" for w in words)
    tree = parse_sexpr(f"(EDU (S {body}))")
    again = parse_sexpr(serialize_sexpr(tree))
    assert tree_equal(tree.root, again.root)
    assert leaf_words(again) == words
