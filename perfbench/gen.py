"""Seeded input generator for the benchmark.

Everything a workload reads is written here before any timing starts: JSONL
datasets, GloVe-style embedding text files, a tree file and a checkpoint.
The program under test only ever sees these files. Trees come from
``hero.synthetic.random_tree`` with realistic label sets (Penn Treebank POS
and phrase tags, RST-style relations) and a vocabulary of several thousand
words, some capitalised (exercising the lowercase fallback) and a few
missing from the table (out-of-vocabulary leaves).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path

import numpy as np

from hero import model as hero_model
from hero.ling_tree import NodeKind, iter_nodes, parse_sexpr, serialize_sexpr
from hero.synthetic import random_tree

# Penn Treebank POS tags (45) plus HYPH.
POS_TAGS = (
    "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD", "NN",
    "NNS", "NNP", "NNPS", "PDT", "POS", "PRP", "PRP$", "RB", "RBR", "RBS",
    "RP", "SYM", "TO", "UH", "VB", "VBD", "VBG", "VBN", "VBP", "VBZ", "WDT",
    "WP", "WP$", "WRB", "#", "$", ".", ",", ":", "``", "''", "-LRB-", "-RRB-",
    "HYPH",
)
PHRASE_TAGS = (
    "ADJP", "ADVP", "CONJP", "FRAG", "INTJ", "LST", "NAC", "NP", "NX", "PP",
    "PRN", "PRT", "QP", "RRC", "S", "SBAR", "SBARQ", "SINV", "SQ", "UCP", "VP",
    "WHADJP", "WHADVP", "WHNP", "WHPP", "X", "NML",
)
RELATIONS = tuple(
    f"{nuc}-{rel}"
    for nuc, rels in (
        ("NS", ("elaboration", "attribution", "explanation", "background",
                "evaluation", "enablement", "cause", "comparison", "condition",
                "contrast", "manner-means", "summary", "temporal", "topic-comment")),
        ("SN", ("attribution", "background", "condition", "contrast", "cause",
                "enablement", "evaluation", "explanation", "manner-means",
                "temporal", "elaboration", "topic-change", "comparison", "summary")),
        ("NN", ("joint", "same-unit", "contrast", "list", "sequence", "comparison",
                "textual-organization", "topic-change", "temporal", "cause",
                "condition", "evaluation", "explanation", "background", "summary",
                "topic-comment")),
    )
    for rel in rels
)
_RR_LABEL = re.compile(r"\((?:NN|NS|SN)-[^\s()]+")
_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu", "na", "pe",
    "qui", "ro", "sa", "te", "vi", "wo", "xa", "ze", "an", "el", "in", "or",
    "us", "ar", "en", "ir", "ol", "um", "st", "tr",
)

DIM = 100


@dataclass(frozen=True)
class Size:
    """How much input one workload run gets; ``tiny`` is for the self-test."""

    dim: int
    vocab: int
    news_edus: int
    news_edu_words: tuple[int, int]
    train_docs: int
    heldout_docs: int
    tweets: int
    predict_table_lines: int


SIZES = {
    # predict-cold's table has 25k lines rather than a full GloVe file's
    # 100k+, so that one run holds enough cold invocations for a steady
    # median (about 14 at --seconds 20).
    "full": Size(DIM, 5000, 25, (10, 17), 2, 4, 3000, 25_000),
    "tiny": Size(8, 300, 3, (2, 4), 2, 2, 60, 2_000),
}

OOV_SHARE = 0.02
CAPITALISED_SHARE = 0.1


def make_vocab(rng: np.random.Generator, n: int) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < n:
        k = int(rng.integers(2, 5))
        words["".join(_SYLLABLES[int(i)] for i in rng.integers(len(_SYLLABLES), size=k))] = None
    return list(words)


def news_sexpr(rng, size: Size, vocab, relation_cycle, doc_id: str = "") -> str:
    """A news-article-sized tree; relation labels follow a cycle so that a
    few documents together use every relation (a stable attribute registry)."""
    gen = random_tree(
        rng, n_edus=size.news_edus, edu_words=size.news_edu_words, max_branch=3,
        vocab=vocab, rr_labels=RELATIONS, pos_labels=POS_TAGS,
        phrase_labels=PHRASE_TAGS, doc_id=doc_id,
    )
    return _RR_LABEL.sub(lambda _: "(" + next(relation_cycle), serialize_sexpr(gen.tree))


def tweet_sexpr(rng, vocab, n_edus: int, doc_id: str = "") -> str:
    gen = random_tree(
        rng, n_edus=n_edus, edu_words=(3, 10), max_branch=3,
        vocab=vocab, rr_labels=RELATIONS, pos_labels=POS_TAGS,
        phrase_labels=PHRASE_TAGS, doc_id=doc_id,
    )
    return serialize_sexpr(gen.tree)


def write_jsonl(path: Path, texts: list[str], rng) -> None:
    labels = rng.permutation(np.arange(len(texts)) % 2)
    with open(path, "w", encoding="utf-8") as fh:
        for i, (text, y) in enumerate(zip(texts, labels)):
            fh.write(json.dumps({"id": f"doc{i:05d}", "label": int(y), "tree": text}) + "\n")


def write_table(path: Path, rng, vocab_rows: dict[str, np.ndarray], total_lines: int, dim: int) -> None:
    """GloVe-style text: the vocabulary rows (exact float reprs) scattered
    among filler rows whose tokens no tree uses."""
    n_fill = max(0, total_lines - len(vocab_rows))
    pool = [f"{v:.5f}" for v in rng.normal(0.0, 0.4, 20_000)]
    fill_idx = rng.integers(len(pool), size=(n_fill, dim)).tolist()
    slots = np.zeros(n_fill + len(vocab_rows), dtype=bool)
    slots[rng.choice(slots.size, size=len(vocab_rows), replace=False)] = True
    rows = iter(vocab_rows.items())
    fills = iter(fill_idx)
    with open(path, "w", encoding="utf-8") as fh:
        for i, is_vocab in enumerate(slots.tolist()):
            if is_vocab:
                tok, vec = next(rows)
                fh.write(tok + " " + " ".join(map(repr, vec.tolist())) + "\n")
            else:
                fh.write(f"zz{i}q " + " ".join(map(pool.__getitem__, next(fills))) + "\n")


def tree_shape(texts: list[str]) -> dict:
    """Mean input-shape counts over a set of trees."""
    nodes = internal = children = height = 0
    for text in texts:
        tree = parse_sexpr(text)
        depth = {tree.root: 0}
        for node in iter_nodes(tree.root):
            nodes += 1
            if node.children:
                internal += 1
                children += len(node.children)
            for child in node.children:
                depth[child] = depth[node] + 1
        height += max(depth.values())
    n = len(texts)
    return {
        "ling_tree.nodes_per_doc": nodes / n,
        "ling_tree.internal_per_doc": internal / n,
        "ling_tree.mean_children": children / internal,
        "ling_tree.height": height / n,
    }


def used_rows(texts: list[str], vectors: dict[str, np.ndarray]) -> int:
    """Distinct table rows the trees look up (exact, then lowercased)."""
    used = set()
    for text in texts:
        for node in iter_nodes(parse_sexpr(text).root):
            if node.kind is NodeKind.WORD:
                tok = node.label if node.label in vectors else node.label.lower()
                if tok in vectors:
                    used.add(tok)
    return len(used)


def generate(workload: str, seed: int, size_name: str, out: Path) -> dict:
    """Write every input file of one workload run into ``out``; return the
    paths and the input properties to record."""
    size = SIZES[size_name]
    # Both train workloads get the same trees, so an encoder change should
    # move them alike.
    stream = "train" if workload.startswith("train-") else workload
    rng = np.random.default_rng([seed, sum(stream.encode())])
    base = make_vocab(rng, size.vocab)
    vocab = base + [w.capitalize() for w in base[: int(CAPITALISED_SHARE * len(base))]]
    in_table = base[int(OOV_SHARE * len(base)):]
    vectors = {w: rng.normal(0.0, 0.4, size.dim) for w in in_table}
    relation_cycle = cycle(rng.permutation(RELATIONS).tolist())

    files = {"dim": size.dim}
    if workload.startswith("train-"):
        n = size.train_docs + size.heldout_docs
        texts = [news_sexpr(rng, size, vocab, relation_cycle) for _ in range(n)]
        shapes = list(texts)
        texts += [tweet_sexpr(rng, vocab, 2) for _ in range(2)]  # validation and test
        files["data"] = str(out / "news.jsonl")
        write_jsonl(out / "news.jsonl", texts, rng)
    elif workload == "corpus-short":
        # EDU counts cycle through 1-4, so every slice of the corpus has
        # the same mix of tree sizes whatever the seed.
        texts = shapes = [tweet_sexpr(rng, vocab, 1 + i % 4) for i in range(size.tweets)]
        files["data"] = str(out / "tweets.jsonl")
        write_jsonl(out / "tweets.jsonl", texts, rng)
    elif workload == "predict-cold":
        texts = shapes = [news_sexpr(rng, size, vocab, relation_cycle)]
        files["tree"] = str(out / "doc.tree")
        (out / "doc.tree").write_text(texts[0] + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")

    lines = size.predict_table_lines if workload == "predict-cold" else len(vectors)
    files["table"] = str(out / "vectors.txt")
    write_table(out / "vectors.txt", rng, vectors, lines, size.dim)
    if workload in ("predict-cold", "corpus-short"):
        params = hero_model.init_model(
            size.dim, hero_model.SharingMode.UNIFIED, seed=seed, random_classifier=True,
        )
        files["model"] = str(out / "model.json")
        hero_model.save_model(params, out / "model.json")

    used = used_rows(texts, vectors)
    props = {
        **tree_shape(shapes),
        "docs": len(texts),
        "embed.table_rows": lines,
        "embed.rows_used": used,
        "embed.load_table.used_frac": used / lines,
    }
    return {"files": files, "props": props}
