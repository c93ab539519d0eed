import sys
import tracemalloc
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hero import ling_tree
from hero.ling_tree import (
    EmptyNodeError, KindViolationError, LingTree, NodeKind, TreeError, TreeNode,
    UnbalancedParensError, UnknownRRPrefixError, _tokenize,
    iter_nodes, leaf_words,
    parse_sexpr, serialize_sexpr, validate_tree,
)
from hero.synthetic import random_tree
from reference import parse_reference, tree_equal

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


def outcome(parse, text, doc_id=""):
    """What one parser makes of text: its tree, or its error's type and message."""
    try:
        return parse(text, doc_id)
    except TreeError as exc:
        return type(exc), str(exc)


def assert_same_outcome(text, doc_id=""):
    got, want = outcome(parse_sexpr, text, doc_id), outcome(parse_reference, text, doc_id)
    if not isinstance(want, LingTree):
        assert got == want, text
        return
    assert type(got) is LingTree and got.doc_id == want.doc_id and got.compiled is None, text
    for x, y in zip_longest(iter_nodes(got.root), iter_nodes(want.root)):
        assert type(x) is TreeNode, text
        assert x.label is y.label and x.kind is y.kind and len(x.children) == len(y.children), text
        assert type(x.children) is tuple, text


# Every error parse_sexpr raises, and inputs where two errors compete.
MALFORMED = [
    # no tree, or parentheses out of place
    "", "   \n\t", "(", ")", "x", "x y", "()", "( )", "((EDU (NN x)))", "(EDU (", "(EDU )", "(EDU (( a)))",
    "(EDU (NN (a)))", "(S (NP", "(S (NP (NN a)", "(EDU (NN a) (NP (NN b)", "(SS-",
    # content after the root
    "(EDU (NN x)) )", "(EDU (NN x)) y", "(EDU (NN x)) x y", "(EDU (NN x)) (EDU (NN y))", "(EDU (NN x)) (",
    "(EDU (NN x)) (SS-bad", "(EDU (NN a)))",
    # empty nodes and unknown nuclearity prefixes, in either order
    "(NP)", "(EDU (NP))", "(SS-x)", "(SS-x (NP))", "(SS-x (EDU (NN a))", "(SS-x (EDU (NN a)))",
    "(EDU (SS-y (NN a)))", "(NN-joint (EDU (NN a)) (SS-y (EDU (NN b))))", "(XS-x (EDU (NN a)))",
    # kinds out of place
    "(S (NP (NNP x)))", "(NP x)", "(EDU word)", "(EDU (NN a) word)", "(NS-elaboration (NP (NNP x)))",
    "(NS-x word (EDU (NN a)))", "(EDU (NS-x (EDU (NNP a))))", "(EDU (EDU (NN a)))", "(NP (EDU (NN a)))",
    "(NP (NN a) (EDU (NN b)))", "(EDU (NN a) (NN-x (NN b)))",
]

# Unusual but well-formed: a one-child relation, a bare nuclearity prefix.
ODD_BUT_VALID = ["(NN-joint (EDU (NN a)))", "(NS-x (EDU (NN a)) (EDU (NN b)) (SN- (EDU (NN c))))",
                 "(EDU (SS (NN a)))", "(EDU (S-x (NN a)))", "(EDU (-LRB- (NN a)))"]

MUTATION_TOKENS = ("(", ")", "EDU", "NP", "SS-bad", "NS-elaboration", "word")


def mutate(rng, text):
    """text with one to three tokens deleted, duplicated, swapped or inserted."""
    tokens = _tokenize(text)
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(len(tokens)))
        edit = int(rng.integers(4))
        if edit == 0 and len(tokens) > 1:
            del tokens[i]
        elif edit == 1:
            tokens.insert(i, tokens[i])
        elif edit == 2:
            j = int(rng.integers(len(tokens)))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens.insert(i, MUTATION_TOKENS[int(rng.integers(len(MUTATION_TOKENS)))])
    return " ".join(tokens)


class TestParseAgreesWithReference:
    """parse_sexpr against the index-walking loop in tests/reference.py."""

    def test_seeded_random_trees(self):
        rng = np.random.default_rng(2301)
        for i in range(240):
            gen = random_tree(rng, n_edus=1 + i % 6, edu_words=(1, 4 + i % 9), rr_arity=(2, 2 + i % 3),
                              max_branch=2 + i % 3)
            text = serialize_sexpr(gen.tree)
            if i % 3 == 0:  # the tokenizer splits on any whitespace run
                text = text.replace(" ", " \t\n ").replace("(", " ( ")
            assert_same_outcome(text, doc_id=f"d{i}")

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_strings(self, text):
        assert_same_outcome(text)
        with pytest.raises(TreeError):
            parse_sexpr(text)

    @pytest.mark.parametrize("text", ODD_BUT_VALID)
    def test_odd_but_valid_strings(self, text):
        assert_same_outcome(text)
        parse_sexpr(text)

    def test_seeded_mutations(self):
        rng = np.random.default_rng(2302)
        failed = 0
        for _ in range(400):
            text = mutate(rng, serialize_sexpr(random_tree(rng).tree))
            assert_same_outcome(text)
            failed += not isinstance(outcome(parse_sexpr, text), LingTree)
        assert failed > 300  # most edits break the tree, so the error paths are exercised

    def test_label_memo_is_capped_and_keeps_no_rejected_label(self, monkeypatch):
        labels = {}
        monkeypatch.setattr(ling_tree, "_LABELS", labels)
        monkeypatch.setattr(ling_tree, "_LABELS_MAX", 3)
        for text in [NEWS_TREE, FIG_SHAPED, "(SS-x (EDU (NN a)))"]:
            assert_same_outcome(text)
        assert len(labels) == 3 and "SS-x" not in labels
        assert_same_outcome(NEWS_TREE)
        assert len(labels) == 3

    def test_word_memo_is_capped_and_shares_a_leaf_per_word_under_the_cap(self, monkeypatch):
        words = {}
        monkeypatch.setattr(ling_tree, "_WORDS", words)
        monkeypatch.setattr(ling_tree, "_WORDS_MAX", 3)
        text = "(NN-joint (EDU (NP (DT the) (NN cat) (DT the))) (EDU (S (NP (NN dog)) (VP (VBZ runs) (NN dog)))))"
        tree = parse_sexpr(text)
        assert tree_equal(tree.root, parse_reference(text).root)
        assert_same_outcome(text)
        assert list(words) == ["the", "cat", "dog"]
        leaves = [n for n in iter_nodes(tree.root) if n.kind is NodeKind.WORD]
        assert [leaf.label for leaf in leaves] == ["the", "cat", "the", "dog", "runs", "dog"]
        # Under the cap a repeated word is one object, in this document and the next.
        assert leaves[0] is leaves[2] is words["the"] and leaves[3] is leaves[5] is words["dog"]
        again = [n for n in iter_nodes(parse_sexpr(text).root) if n.kind is NodeKind.WORD]
        assert all(x is y for x, y in zip(leaves, again) if x.label != "runs")
        # Past it, each occurrence gets a fresh leaf and the memo stays at the cap.
        assert "runs" not in words and again[4] is not leaves[4] and again[4].label == "runs"
        assert_same_outcome(NEWS_TREE)
        assert len(words) == 3


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


class TestLayout:
    def test_nodes_and_trees_carry_no_instance_dict(self):
        tree = parse_sexpr(NEWS_TREE)
        assert not hasattr(tree, "__dict__")
        assert not any(hasattr(node, "__dict__") for node in iter_nodes(tree.root))

    def test_nodes_stay_identity_hashed(self):
        a, b = parse_sexpr(MINIMAL).root, parse_sexpr(MINIMAL).root
        assert a != b and len({a, b}) == 2

    def test_two_parses_share_label_and_word_strings(self):
        first, second = parse_sexpr(NEWS_TREE), parse_sexpr(NEWS_TREE)
        pairs = list(zip(iter_nodes(first.root), iter_nodes(second.root)))
        assert len(pairs) == len(list(iter_nodes(first.root)))
        assert all(x.label is y.label for x, y in pairs)
        # Within one document, a repeated token is one string too.
        nnp = [n.label for n in iter_nodes(first.root) if n.label == "NNP"]
        assert len(nnp) == 6 and all(label is nnp[0] for label in nnp)

    def test_parsed_bytes_per_node_bound(self, monkeypatch):
        # A slotted node with interned labels and one shared leaf per word
        # takes ~63 traced bytes, the word memo's own entries included; with
        # a leaf per occurrence it took ~81, and with an instance dict and a
        # string per node ~170.
        monkeypatch.setattr(ling_tree, "_WORDS", {})
        rng = np.random.default_rng(5)
        texts = [serialize_sexpr(random_tree(rng).tree) for _ in range(300)]
        tracemalloc.start()
        try:
            trees = [parse_sexpr(text) for text in texts]
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nodes = sum(1 for tree in trees for _ in iter_nodes(tree.root))
        assert size / nodes < 66, f"{size / nodes:.1f} bytes per node"


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
