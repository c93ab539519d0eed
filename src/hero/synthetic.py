"""Seeded generators for valid random trees, embedding tables and corpora.

Used by the gradcheck command and by the test suite; everything is driven by
an explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import EmbeddingTable
from .ling_tree import EDU_LABEL, LingTree, NodeKind, TreeNode, validate_tree

POS_LABELS = ("NN", "NNS", "NNP", "VBD", "VBZ", "DT", "IN", "JJ", "PRP", "RB")
PHRASE_LABELS = ("S", "NP", "VP", "PP", "SBAR", "ADJP")
RR_LABELS = (
    "NS-elaboration", "NN-joint", "SN-background",
    "NS-attribution", "NN-same-unit", "SN-condition",
)
WORDS = (
    "the", "a", "government", "virus", "said", "report", "officials", "new",
    "data", "health", "city", "vaccine", "study", "people", "week", "cases",
    "online", "claim", "experts", "country", "shows", "found", "rose", "fell",
    "plan", "local", "warned", "early", "major", "public",
)
# The word that marks every fake document of marker_corpus.
MARKER = "zzhoax"


def _pick(rng: np.random.Generator, items) -> str:
    return items[int(rng.integers(len(items)))]


def random_syntax_subtree(
    rng: np.random.Generator,
    words: list[str],
    max_branch: int = 3,
    pos_labels=POS_LABELS,
    phrase_labels=PHRASE_LABELS,
) -> TreeNode:
    """A random constituency tree over the given words, one POS per word."""
    if len(words) == 1:
        leaf = TreeNode(words[0], NodeKind.WORD)
        return TreeNode(_pick(rng, pos_labels), NodeKind.SYNTAX, (leaf,))
    parts = int(rng.integers(2, min(max_branch, len(words)) + 1))
    cuts = sorted(rng.choice(np.arange(1, len(words)), size=parts - 1, replace=False).tolist())
    spans = [words[a:b] for a, b in zip([0, *cuts], [*cuts, len(words)])]
    children = tuple(random_syntax_subtree(rng, s, max_branch, pos_labels, phrase_labels)
                     for s in spans)
    return TreeNode(_pick(rng, phrase_labels), NodeKind.SYNTAX, children)


@dataclass
class GeneratedTree:
    """A valid random tree plus the facts the generator knows about it."""

    tree: LingTree
    words: list[str]
    n_edus: int


def random_tree(
    rng: np.random.Generator,
    n_edus: int | None = None,
    edu_words: tuple[int, int] = (2, 6),
    rr_arity: tuple[int, int] = (2, 2),
    max_branch: int = 3,
    vocab=WORDS,
    rr_labels=RR_LABELS,
    pos_labels=POS_LABELS,
    phrase_labels=PHRASE_LABELS,
    force_word: str | None = None,
    doc_id: str = "",
) -> GeneratedTree:
    """Build a random valid document tree.

    ``rr_arity`` bounds how many units each relation node groups;
    ``force_word`` overwrites one randomly chosen word, which lets corpus
    generators plant a class marker.
    """
    if n_edus is None:
        n_edus = int(rng.integers(1, 5))
    edu_word_lists = []
    for _ in range(n_edus):
        k = int(rng.integers(edu_words[0], edu_words[1] + 1))
        edu_word_lists.append([_pick(rng, vocab) for _ in range(k)])
    if force_word is not None:
        i = int(rng.integers(n_edus))
        j = int(rng.integers(len(edu_word_lists[i])))
        edu_word_lists[i][j] = force_word
    words = [w for ws in edu_word_lists for w in ws]

    units: list[TreeNode] = [
        TreeNode(
            EDU_LABEL, NodeKind.EDU,
            (random_syntax_subtree(rng, ws, max_branch, pos_labels, phrase_labels),),
        )
        for ws in edu_word_lists
    ]
    while len(units) > 1:
        arity = int(rng.integers(rr_arity[0], rr_arity[1] + 1))
        arity = max(2, min(arity, len(units)))
        pos = int(rng.integers(len(units) - arity + 1))
        group = tuple(units[pos:pos + arity])
        units[pos:pos + arity] = [TreeNode(_pick(rng, rr_labels), NodeKind.RR, group)]
    tree = LingTree(units[0], doc_id)
    validate_tree(tree)
    return GeneratedTree(tree, words, n_edus)


def gradcheck_fixture(rng: np.random.Generator, dim: int):
    """A small 3-EDU tree with a matching random table, sized so that even an
    attribute-specific registry stays cheap to probe coordinate by coordinate."""
    gen = random_tree(
        rng,
        n_edus=3,
        edu_words=(2, 3),
        max_branch=2,
        pos_labels=("NN", "VBZ", "DT"),
        phrase_labels=("NP", "VP"),
        rr_labels=("NS-elaboration", "NN-joint"),
    )
    table = random_embedding_table(rng, gen.words, dim)
    return gen, table


def random_embedding_table(
    rng: np.random.Generator, tokens, dim: int, scale: float = 1.0
) -> EmbeddingTable:
    """Uniform random vectors in +-scale for each distinct token."""
    distinct = list(dict.fromkeys(tokens))
    vectors = {tok: rng.uniform(-scale, scale, dim) for tok in distinct}
    return EmbeddingTable(dim, vectors)


def marker_corpus(rng: np.random.Generator, n_docs: int, dim: int):
    """A linearly separable corpus: every fake document contains ``MARKER``.
    Each document has 1 to 3 EDUs of 2 to 5 words.

    Returns (documents, table): a list of LabeledDocument and a table that
    covers the whole vocabulary.
    """
    from .trainer import LabeledDocument  # local import to avoid a cycle

    docs = []
    for i in range(n_docs):
        label = int(rng.integers(2))
        gen = random_tree(
            rng,
            n_edus=int(rng.integers(1, 4)),
            edu_words=(2, 5),
            force_word=MARKER if label == 1 else None,
            doc_id=f"doc{i:04d}",
        )
        docs.append(LabeledDocument(gen.tree.doc_id, gen.tree, label))
    table = random_embedding_table(rng, [*WORDS, MARKER], dim)
    return docs, table
