"""Pretrained word-vector tables and word-leaf embedding.

Vectors are read from GloVe-style text files (``token v1 ... vd`` per line)
and are frozen: they are inputs to the encoder, never trained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ling_tree import LingTree, NodeKind, iter_nodes


class EmbeddingError(ValueError):
    pass


class DimMismatchError(EmbeddingError):
    """A vector width that disagrees with the expected one: a table line
    (``line_no`` set), a table against a model, or an invalid model width."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


class EmbeddingParseError(EmbeddingError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyFileError(EmbeddingError):
    pass


@dataclass
class EmbeddingTable:
    """Immutable token -> float64 vector map of a fixed dimension."""

    dim: int
    vectors: dict[str, np.ndarray]
    duplicates: int = 0

    def get(self, token: str) -> np.ndarray | None:
        """Exact lookup, then a lowercased retry; None if both miss."""
        vec = self.vectors.get(token)
        if vec is None:
            vec = self.vectors.get(token.lower())
        return vec

    def __len__(self) -> int:
        return len(self.vectors)


def load_table(path, expected_dim: int) -> EmbeddingTable:
    """Load a vector file, checking every line against ``expected_dim``.

    Duplicate tokens keep the last occurrence; the table's ``duplicates``
    field counts how many lines were overridden. Blank lines are skipped.
    """
    vectors: dict[str, np.ndarray] = {}
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.split()
            token, values = parts[0], parts[1:]
            if len(values) != expected_dim:
                raise DimMismatchError(
                    f"line {line_no}: expected {expected_dim} values, got {len(values)}", line_no
                )
            try:
                vec = np.array(values, dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingParseError(line_no, str(exc)) from exc
            if not np.all(np.isfinite(vec)):
                raise EmbeddingParseError(line_no, "non-finite value")
            if token in vectors:
                duplicates += 1
            vectors[token] = vec
    if not vectors:
        raise EmptyFileError(f"no vectors in {path}")
    return EmbeddingTable(expected_dim, vectors, duplicates)


@dataclass
class LeafEmbeddings:
    """One row per word leaf, in document order, plus the count of
    out-of-vocabulary leaves (which get the zero vector)."""

    vectors: np.ndarray  # (leaves, dim)
    oov: int = 0


def embed_leaves(table: EmbeddingTable, tree: LingTree) -> LeafEmbeddings:
    found = [table.get(n.label) for n in iter_nodes(tree.root) if n.kind is NodeKind.WORD]
    zero = np.zeros(table.dim)
    vectors = np.array([zero if vec is None else vec for vec in found]).reshape(-1, table.dim)
    return LeafEmbeddings(vectors, sum(vec is None for vec in found))
