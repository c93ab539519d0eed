import numpy as np
import pytest

from hero.embed import (
    DimMismatchError, EmbeddingParseError, EmbeddingTable, EmptyFileError,
    embed_leaves, load_table, lookup,
)
from hero.ling_tree import leaf_words, parse_sexpr
from hero.synthetic import random_embedding_table, random_tree


def write_vectors(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadTable:
    def test_small_file(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2 3", "dog 4 5 6"])
        table = load_table(path, 3)
        assert len(table) == 2
        assert table.dim == 3
        np.testing.assert_array_equal(table.vectors["dog"], [4.0, 5.0, 6.0])

    def test_dim_mismatch_carries_line_number(self, tmp_path):
        lines = ["ok " + " ".join(["0.5"] * 100), "bad " + " ".join(["0.5"] * 99)]
        path = write_vectors(tmp_path / "v.txt", lines)
        with pytest.raises(DimMismatchError) as err:
            load_table(path, 100)
        assert err.value.line_no == 2

    def test_parse_error(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2 3", "dog 4 x 6"])
        with pytest.raises(EmbeddingParseError) as err:
            load_table(path, 3)
        assert err.value.line_no == 2

    def test_non_finite_rejected(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 nan 3"])
        with pytest.raises(EmbeddingParseError):
            load_table(path, 3)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyFileError):
            load_table(path, 3)
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(EmptyFileError):
            load_table(path, 3)

    def test_duplicates_last_wins(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2", "cat 3 4", "dog 5 6"])
        table = load_table(path, 2)
        assert table.duplicates == 1
        np.testing.assert_array_equal(table.vectors["cat"], [3.0, 4.0])

    def test_larger_file_spot_checked_against_source(self, tmp_path):
        rng = np.random.default_rng(0)
        n, dim = 10_000, 50
        values = rng.standard_normal((n, dim))
        lines = [
            f"tok{i} " + " ".join(repr(float(v)) for v in values[i])
            for i in range(n)
        ]
        path = write_vectors(tmp_path / "big.txt", lines)
        table = load_table(path, dim)
        assert len(table) == n
        for i in rng.integers(0, n, size=5):
            np.testing.assert_array_equal(table.vectors[f"tok{i}"], values[i])


class TestLookup:
    @pytest.fixture
    def table(self):
        return EmbeddingTable(2, {"obama": np.array([1.0, 2.0]), "Lab": np.array([3.0, 4.0])})

    def test_exact_hit(self, table):
        np.testing.assert_array_equal(lookup(table, "Lab"), [3.0, 4.0])

    def test_lowercase_fallback(self, table):
        np.testing.assert_array_equal(lookup(table, "Obama"), [1.0, 2.0])

    def test_miss_is_zero_vector(self, table):
        np.testing.assert_array_equal(lookup(table, "wuhan"), [0.0, 0.0])


class TestEmbedLeaves:
    def test_both_words_present(self):
        table = EmbeddingTable(2, {"obama": np.array([1.0, 2.0]), "spoke": np.array([3.0, 4.0])})
        tree = parse_sexpr("(EDU (S (NP (NNP Obama)) (VP (VBD spoke))))")
        res = embed_leaves(table, tree)
        assert len(res.vectors) == 2
        assert res.oov == 0
        np.testing.assert_array_equal(res.vectors, [[1.0, 2.0], [3.0, 4.0]])  # document order

    def test_all_oov_counts_leaves(self):
        table = EmbeddingTable(2, {"unrelated": np.array([9.0, 9.0])})
        tree = parse_sexpr("(EDU (S (NP (NNP Obama)) (VP (VBD spoke))))")
        res = embed_leaves(table, tree)
        assert res.oov == 2
        np.testing.assert_array_equal(res.vectors, np.zeros((2, 2)))

    def test_generated_tree_vectors_match_generator_table(self):
        rng = np.random.default_rng(12)
        vocab = tuple(f"w{i}" for i in range(50))
        table = random_embedding_table(rng, vocab, 8)
        gen = random_tree(rng, vocab=vocab)
        res = embed_leaves(table, gen.tree)
        assert len(res.vectors) == len(gen.words)
        assert res.oov == 0
        for word, vec in zip(leaf_words(gen.tree), res.vectors, strict=True):
            np.testing.assert_array_equal(vec, table.vectors[word])
