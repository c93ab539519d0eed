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


def load_table(path, expected_dim: int, vocab=None) -> EmbeddingTable:
    """Load a vector file of width ``expected_dim``.

    With ``vocab`` (the words a run will look up), only the lines that
    ``EmbeddingTable.get`` can return for those words, each word as written
    and lowercased, are parsed and checked; every other line costs reading
    its token. Without it every line is kept. A kept line of the wrong
    width, or with a value that is not a finite float, raises with its line
    number. Duplicate tokens keep the last occurrence, and ``duplicates``
    counts the lines of the whole file whose token appeared earlier, kept or
    not. Blank lines are skipped; a file with no other line raises
    EmptyFileError, and a file that shares no token with ``vocab`` gives an
    empty table.
    """
    wanted = None
    if vocab is not None:
        wanted = set(vocab)
        wanted |= {word.lower() for word in wanted}
    vectors: dict[str, np.ndarray] = {}
    skipped: set[str] = set()
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            head = line.split(None, 1)
            if not head:
                continue
            token = head[0]
            if token in vectors or token in skipped:
                duplicates += 1
            if wanted is not None and token not in wanted:
                skipped.add(token)
                continue
            values = head[1].split() if len(head) > 1 else []
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
            vectors[token] = vec
    if not vectors and not skipped:
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
