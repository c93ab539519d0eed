import numpy as np
import pytest

from hero.embed import (
    DimMismatchError, EmbeddingParseError, EmbeddingTable, EmptyFileError,
    embed_leaves, load_table,
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
        assert str(err.value) == "line 2: expected 100 values, got 99"

    def test_one_dim_mismatch_class_for_tables_and_models(self):
        from hero import model

        assert model.DimMismatchError is DimMismatchError

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



class TestLoadTableForVocabulary:
    """``load_table(path, dim, vocab)`` keeps only the rows ``get`` can return
    for the vocabulary and reads just the token of every other line."""

    LINES = ["the 1 2", "The 3 4", "obama 5 6", "Paris 7 8", "PARIS 9 10", "dog 11 12", "cat 13 14"]

    @pytest.mark.parametrize("vocab", [
        ["The", "Obama", "paris", "PARIS", "Dog", "wuhan"],
        ["OBAMA", "CAT", "the"],
        ["nothing", "shared"],
    ])
    def test_get_matches_the_full_load(self, tmp_path, vocab):
        path = write_vectors(tmp_path / "v.txt", self.LINES)
        full, used = load_table(path, 2), load_table(path, 2, vocab)
        for word in vocab + [w.lower() for w in vocab]:
            want, got = full.get(word), used.get(word)
            assert (want is None) == (got is None), word
            if want is not None:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert set(used.vectors) == {t for w in vocab for t in (w, w.lower())} & set(full.vectors)

    @pytest.mark.parametrize("bad, error", [
        ("bad 1 2", DimMismatchError),
        ("bad", DimMismatchError),
        ("bad 1 x 3", EmbeddingParseError),
        ("bad 1 nan 3", EmbeddingParseError),
        ("bad 1 -inf 3", EmbeddingParseError),
    ], ids=["short", "token_only", "not_a_float", "nan", "inf"])
    def test_bad_line_is_checked_only_when_used(self, tmp_path, bad, error):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2 3", bad, "dog 4 5 6"])
        table = load_table(path, 3, ["cat", "Dog"])
        assert sorted(table.vectors) == ["cat", "dog"]
        for vocab in (["bad"], ["BAD", "cat"]):
            with pytest.raises(error) as err:
                load_table(path, 3, vocab)
            assert err.value.line_no == 2

    def test_tokens_split_like_str_split(self, tmp_path):
        lines = ["\tcat\t1\t2", "   dog 3 4", "eel\t5 6\t", " \t fox  7\t\t8 "]
        path = write_vectors(tmp_path / "v.txt", lines)
        tokens = [line.split()[0] for line in lines]
        assert list(load_table(path, 2).vectors) == tokens
        table = load_table(path, 2, tokens[1:])
        assert list(table.vectors) == tokens[1:]
        for line in lines[1:]:
            parts = line.split()
            np.testing.assert_array_equal(table.vectors[parts[0]], np.array(parts[1:], dtype=float))

    def test_duplicates_count_the_whole_file(self, tmp_path):
        lines = ["cat 1 2", "dog 3 4", "cat 5 6", "dog 7 8", "eel 9 9", "dog 0 0"]
        path = write_vectors(tmp_path / "v.txt", lines)
        for vocab in (None, ["cat"], ["eel"], ["nothing"]):
            assert load_table(path, 2, vocab).duplicates == 3
        np.testing.assert_array_equal(load_table(path, 2, ["cat"]).vectors["cat"], [5.0, 6.0])

    def test_no_shared_token_gives_an_empty_table(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2", "dog 3 4"])
        table = load_table(path, 2, ["Obama", "spoke"])
        assert len(table) == 0 and table.dim == 2
        res = embed_leaves(table, parse_sexpr("(EDU (S (NP (NNP Obama)) (VP (VBD spoke))))"))
        assert res.oov == 2
        np.testing.assert_array_equal(res.vectors, np.zeros((2, 2)))

    def test_empty_file_with_vocabulary(self, tmp_path):
        path = tmp_path / "v.txt"
        for text in ("", "\n \n\t\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(EmptyFileError):
                load_table(path, 3, ["cat"])


class TestLookup:
    @pytest.fixture
    def table(self):
        return EmbeddingTable(2, {"obama": np.array([1.0, 2.0]), "Lab": np.array([3.0, 4.0])})

    def test_exact_hit(self, table):
        np.testing.assert_array_equal(table.get("Lab"), [3.0, 4.0])

    def test_lowercase_fallback(self, table):
        np.testing.assert_array_equal(table.get("Obama"), [1.0, 2.0])

    def test_miss_is_zero_vector(self, table):
        assert table.get("wuhan") is None
        res = embed_leaves(table, parse_sexpr("(EDU (NP (NNP Obama) (NNP wuhan)))"))
        np.testing.assert_array_equal(res.vectors, [[1.0, 2.0], [0.0, 0.0]])
        assert res.oov == 1


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
