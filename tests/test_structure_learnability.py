"""Learnability from discourse structure alone: fake and true documents
differ only in which relation labels their RR nodes carry."""

import numpy as np
import pytest

from hero.ling_tree import NodeKind, iter_nodes
from hero.model import AblationMode, SharingMode
from hero.synthetic import RR_LABELS, WORDS, random_embedding_table, random_tree
from hero.trainer import LabeledDocument, TrainConfig, split_dataset, train

FAKE_RELATIONS, TRUE_RELATIONS = RR_LABELS[:3], RR_LABELS[3:]


def relation_corpus(rng: np.random.Generator, n_docs: int, dim: int):
    """Documents of 2-4 EDUs whose words and shape come from one process; a
    fake document's relations are drawn from FAKE_RELATIONS, a true one's
    from TRUE_RELATIONS. Returns (documents, table)."""
    docs = []
    for i in range(n_docs):
        label = int(rng.integers(2))
        gen = random_tree(
            rng,
            n_edus=int(rng.integers(2, 5)),
            edu_words=(1, 2),
            rr_labels=FAKE_RELATIONS if label else TRUE_RELATIONS,
            doc_id=f"doc{i:04d}",
        )
        docs.append(LabeledDocument(gen.tree.doc_id, gen.tree, label))
    return docs, random_embedding_table(rng, WORDS, dim)


def test_corpus_differs_only_in_relation_labels():
    docs, _ = relation_corpus(np.random.default_rng(0), 240, 8)
    relations = {0: set(), 1: set()}
    for doc in docs:
        kinds = [node.kind for node in iter_nodes(doc.tree.root)]
        assert kinds.count(NodeKind.EDU) >= 2
        relations[doc.y] |= {n.label for n in iter_nodes(doc.tree.root) if n.kind is NodeKind.RR}
    assert relations == {0: set(TRUE_RELATIONS), 1: set(FAKE_RELATIONS)}


@pytest.mark.parametrize("ablation, separates", [
    (AblationMode.FULL, True),
    # Neither sees a relation label: the document is a mean of EDU or word
    # vectors, whose distribution is the same for both classes.
    (AblationMode.NO_DISCOURSE, False),
    (AblationMode.NO_STRUCTURE, False),
])
def test_relation_labels_alone_are_learnable_by_attribute_specific_sharing(ablation, separates):
    docs, table = relation_corpus(np.random.default_rng(0), 240, 8)
    config = TrainConfig(lr=0.03, max_epochs=5, seed=0, d=8,
                         mode=SharingMode.ATTRIBUTE_SPECIFIC, ablation=ablation)
    _, report = train(split_dataset(docs, 0), config, table)
    auc = report.test.auc
    if separates:
        assert auc >= 0.9, f"held-out AUC {auc}"
    else:
        assert auc <= 0.75, f"held-out AUC {auc}"
