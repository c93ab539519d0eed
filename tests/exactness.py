"""Digests of seeded training, scoring and gradient output, for checking that
two versions of the package give byte-identical results.

Run it from the repository root of each version and diff the two outputs:

    PYTHONPATH=src python3 tests/exactness.py > digests.txt

Each line is the sha256 of one artifact and its name. For every sharing mode
and ablation (12 combinations) it covers:

- ``hero train`` on a seeded ``marker_corpus``: the checkpoint, the report,
  stdout and stderr;
- ``hero eval`` of that checkpoint on its training data, and on documents
  with unseen relation and phrase labels scored with a table that misses a
  third of the words (OOV leaves and UNK-routed nodes);
- ``hero predict`` on a news-sized tree from a file and on an unseen-label
  tree from stdin;
- ``backward`` of a freshly initialised model on a news-sized tree and on
  three corpus trees: the flat gradient vector;
- the same at width 100 on two news-sized trees, and the document vectors
  of both trees and the corpus scored as one list (merged batches);

one ``hero train --grid`` run, and one attribute-specific ``hero train`` run
at width 64 (442,498 parameters), large enough for ``nn.adam_step`` to
split each update across two threads when the process may use two CPUs
(the runs above stay on one thread). It also covers the re-serialised form of
every tree parsed back from the corpus and unseen-label datasets, ``hero
stats`` CSV output on the corpus and, on a seeded many-label corpus
(``many_label_corpus`` of ``tests/test_stats.py``: 1-12 EDUs, 40+ relations,
punctuation tags, one-class labels, a degenerate row), its CSV on stdout
and its ``--csv`` and ``--json`` files, and the parameter bytes of a
width-100 attribute-specific checkpoint after ``load_model``. A change
meant to keep every result bit-identical must leave the output unchanged.
Pytest does not collect this file (its name does not start with
``test_``); it takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from hero.cli import run
from hero.embed import EmbeddingTable
from hero.ling_tree import leaf_words, serialize_sexpr
from hero.model import (
    AblationMode, AttributeVocab, SharingMode, backward, encode_document, init_model, load_model, save_model,
)
from hero.synthetic import marker_corpus, random_embedding_table, random_tree
from hero.trainer import LabeledDocument, read_dataset, write_dataset
from test_stats import many_label_corpus

D = 8
WIDE = 100
SPLIT = 64
UNSEEN = {"rr_labels": ("NS-contrast", "SN-cause", "NN-joint"), "phrase_labels": ("WHNP", "QP", "NP")}


def digest(name: str, data: bytes | str) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    print(hashlib.sha256(data).hexdigest(), name)


def hero(name: str, argv: list[str], stdin: str = "") -> None:
    """Run ``hero argv`` in this process; digest its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    digest(f"{name} exit {code} stdout", out.getvalue())
    digest(f"{name} stderr", err.getvalue())


def write_table(table, path: str, skip_every: int = 0) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (token, vec) in enumerate(table.vectors.items()):
            if skip_every and i % skip_every == 0:
                continue
            fh.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def main() -> None:
    docs, table = marker_corpus(np.random.default_rng(42), 60, D)
    rng = np.random.default_rng(43)
    unseen = [random_tree(rng, n_edus=1 + i % 5, **UNSEEN).tree for i in range(30)]
    news, news2 = (random_tree(rng, n_edus=25, edu_words=(10, 17), rr_arity=(2, 3)).tree for _ in range(2))
    words = sorted({w for tree in [*unseen, news, news2] for w in leaf_words(tree)})
    side_table = random_embedding_table(rng, words, D)
    wide_table = random_embedding_table(rng, [*words, *table.vectors], WIDE)

    write_dataset(docs, "train.jsonl")
    write_dataset([LabeledDocument(f"u{i}", t, i % 2) for i, t in enumerate(unseen)], "unseen.jsonl")
    write_table(table, "vectors.txt")
    # Every corpus word plus two thirds of the side words.
    merged = EmbeddingTable(D, {**table.vectors, **side_table.vectors})
    write_table(merged, "partial.txt", skip_every=3)
    Path("news.tree").write_text(serialize_sexpr(news), encoding="utf-8")

    for name in ("train.jsonl", "unseen.jsonl"):
        digest(f"parsed {name}", "\n".join(serialize_sexpr(doc.tree) for doc in read_dataset(name)))
    hero("stats train", ["stats", "--data", "train.jsonl"])
    write_dataset(many_label_corpus(seed=23, n_docs=80), "labels.jsonl")
    hero("stats labels", ["stats", "--data", "labels.jsonl"])
    hero("stats labels to files", ["stats", "--data", "labels.jsonl", "--csv", "labels.csv", "--json", "labels.json"])
    digest("stats labels csv file", Path("labels.csv").read_bytes())
    digest("stats labels json file", Path("labels.json").read_bytes())
    vocab = AttributeVocab.from_trees([news, news2, *unseen])
    save_model(init_model(WIDE, SharingMode.ATTRIBUTE_SPECIFIC, vocab=vocab, seed=9, random_classifier=True),
               "wide.json")
    digest(f"d={WIDE} attribute_specific load_model flat", load_model("wide.json").flat.tobytes())

    for mode in SharingMode:
        for ablation in AblationMode:
            tag = f"{mode.value}/{ablation.value}"
            Path("c.cfg").write_text(
                f"lr=0.01\nmax_epochs=3\nseed=1\nd={D}\nmode={mode.value}\nablation={ablation.value}\n",
                encoding="utf-8")
            hero(f"{tag} train", ["train", "--data", "train.jsonl", "--embeddings", "vectors.txt",
                                  "--config", "c.cfg", "--out", "m.json", "--report", "r.json"])
            digest(f"{tag} checkpoint", Path("m.json").read_bytes())
            digest(f"{tag} report", Path("r.json").read_bytes())
            hero(f"{tag} eval train", ["eval", "--model", "m.json", "--data", "train.jsonl",
                                       "--embeddings", "vectors.txt"])
            hero(f"{tag} eval unseen", ["eval", "--model", "m.json", "--data", "unseen.jsonl",
                                        "--embeddings", "partial.txt"])
            hero(f"{tag} predict news", ["predict", "--model", "m.json", "--embeddings", "partial.txt",
                                         "--tree", "news.tree"])
            hero(f"{tag} predict unseen", ["predict", "--model", "m.json", "--embeddings", "partial.txt"],
                 stdin=serialize_sexpr(unseen[4]))

            vocab = AttributeVocab.from_trees(doc.tree for doc in docs)
            params = init_model(D, mode, ablation, vocab, seed=7, random_classifier=True)
            for name, tree, y in [("news", news, 1), *((doc.doc_id, doc.tree, doc.y) for doc in docs[:3])]:
                grads = backward(params, encode_document(params, tree, merged), y)
                digest(f"{tag} backward {name}", grads.flat.tobytes())

            params = init_model(WIDE, mode, ablation, AttributeVocab.from_trees([news]), seed=8)
            for name, tree in (("news", news), ("news2", news2)):
                grads = backward(params, encode_document(params, tree, wide_table), 1)
                digest(f"{tag} d={WIDE} backward {name}", grads.flat.tobytes())
            encodings = encode_document(params, [news, *(doc.tree for doc in docs), news2], wide_table)
            digest(f"{tag} d={WIDE} batched h_doc", b"".join(enc.h_doc.tobytes() for enc in encodings))

    Path("c.cfg").write_text(f"max_epochs=2\nseed=3\nd={D}\nmode=attribute_specific\n", encoding="utf-8")
    hero("grid train", ["train", "--data", "train.jsonl", "--embeddings", "vectors.txt", "--config", "c.cfg",
                        "--grid", "--out", "g.json", "--report", "gr.json"])
    digest("grid checkpoint", Path("g.json").read_bytes())
    digest("grid report", Path("gr.json").read_bytes())

    write_table(random_embedding_table(np.random.default_rng(44), list(table.vectors), SPLIT), "split.txt")
    Path("c.cfg").write_text(f"lr=0.01\nmax_epochs=2\nseed=5\nd={SPLIT}\nmode=attribute_specific\n",
                             encoding="utf-8")
    hero(f"d={SPLIT} split train", ["train", "--data", "train.jsonl", "--embeddings", "split.txt",
                                   "--config", "c.cfg", "--out", "s.json", "--report", "sr.json"])
    digest(f"d={SPLIT} split checkpoint", Path("s.json").read_bytes())
    digest(f"d={SPLIT} split report", Path("sr.json").read_bytes())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        main()
