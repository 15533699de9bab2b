"""Word-vector loading, centroids, cosine."""

import dataclasses

import numpy as np
import pytest

from lexlearn.corpus import Document, build_corpus
from lexlearn.embeddings import centroid, cosine, centroids, load_embeddings
from lexlearn.errors import DataError, DimensionError, FormatError

from _worlds import embedding_table


@pytest.fixture
def small_vec(tmp_path):
    path = tmp_path / "small.vec"
    path.write_text("2 3\napple 1 0 0\nbanana 0 1 0\n", encoding="utf-8")
    return str(path)


class TestLoad:
    def test_header_skipped_dim_inferred(self, small_vec):
        table = load_embeddings(small_vec)
        assert table.dim == 3
        assert len(table) == 2
        assert np.allclose(table.lookup("apple"), [1, 0, 0])

    def test_restrict_to(self, small_vec):
        table = load_embeddings(small_vec, restrict_to={"apple"})
        assert len(table) == 1
        assert "banana" not in table

    def test_no_header_file(self, tmp_path):
        path = tmp_path / "n.vec"
        path.write_text("apple 1 0 0\nbanana 0 1 0\n", encoding="utf-8")
        assert load_embeddings(str(path)).dim == 3

    def test_oov_lookup_is_zero_vector(self, small_vec):
        table = load_embeddings(small_vec)
        vec = table.lookup("zzzunknown")
        assert vec.shape == (3,)
        assert not vec.any()

    def test_wrong_arity_skipped_within_budget(self, tmp_path):
        lines = ["w%03d 1 2 3" % i for i in range(200)] + ["broken 1 2"]
        path = tmp_path / "s.vec"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = load_embeddings(str(path))
        assert table.skipped_lines == 1
        assert len(table) == 200

    def test_skip_budget_exceeded(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("a 1 2 3\nb 1 2\nc 4 5 6\n", encoding="utf-8")
        with pytest.raises(FormatError, match="budget"):
            load_embeddings(str(path))

    def test_empty_table_is_error(self, tmp_path):
        path = tmp_path / "e.vec"
        path.write_text("", encoding="utf-8")
        with pytest.raises(FormatError):
            load_embeddings(str(path))

    def test_restrict_to_nothing_is_error(self, small_vec):
        with pytest.raises(FormatError):
            load_embeddings(small_vec, restrict_to={"nope"})

    def test_repeated_word_keeps_first_row_and_last_vector(self, tmp_path):
        path = tmp_path / "r.vec"
        path.write_text("apple 1 0 0\nbanana 0 1 0\napple 0 0 2\n", encoding="utf-8")
        table = load_embeddings(str(path))
        assert table.words == ("apple", "banana")
        assert table.vectors.shape == (2, 3) and table.vectors.dtype == np.float32
        assert np.array_equal(table.lookup("apple"), [0, 0, 2])

    def test_matrix_rows_with_zero_rows_for_absent_words(self, small_vec):
        table = load_embeddings(small_vec)
        got = table.matrix(["banana", "zzz", "apple", "banana"])
        assert got.dtype == np.float32
        assert np.array_equal(got, [[0, 1, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert table.matrix([]).shape == (0, 3)


class TestCentroid:
    def test_two_words(self, small_vec):
        table = load_embeddings(small_vec)
        doc = Document("d", ("apple", "banana"), {})
        assert np.allclose(centroid(doc, table), [0.5, 0.5, 0.0])

    def test_oov_dilutes_the_mean(self, small_vec):
        table = load_embeddings(small_vec)
        got = centroid(["apple", "zzzunknown"], table)
        assert np.allclose(got, [0.5, 0.0, 0.0])

    def test_repetition_counts(self, small_vec):
        table = load_embeddings(small_vec)
        assert np.allclose(centroid(["apple", "apple"], table), [1.0, 0.0, 0.0])

    def test_single_token_equals_vector(self):
        rng = np.random.default_rng(0)
        vec = rng.standard_normal(5).astype(np.float32)
        table = embedding_table({"w": vec})
        assert np.array_equal(centroid(["w"], table), vec.astype(np.float64))

    def test_norm_bounded_by_max_vector_norm(self):
        rng = np.random.default_rng(1)
        words = [f"w{i}" for i in range(30)]
        table = embedding_table(
            {w: rng.standard_normal(4).astype(np.float32) for w in words}
        )
        max_norm = np.linalg.norm(table.vectors, axis=1).max()
        for _ in range(50):
            toks = list(rng.choice(words + ["zzz"], size=rng.integers(1, 12)))
            assert np.linalg.norm(centroid(toks, table)) <= max_norm + 1e-12

    def test_table_not_mutated(self, small_vec):
        table = load_embeddings(small_vec)
        before = table.vectors.copy()
        centroid(["apple", "banana", "apple"], table)
        vec = table.lookup("apple")
        vec[:] = 99.0  # lookup returns a copy
        assert np.array_equal(table.vectors, before)


class TestCorpusCentroids:
    @staticmethod
    def world(seed):
        # 150 documents (three 64-row blocks) over 40 words, 30 of them
        # embedded; short documents repeat tokens
        rng = np.random.default_rng(seed)
        words = [f"w{i:02d}" for i in range(40)]
        table = embedding_table(
            {w: rng.standard_normal(6).astype(np.float32) for w in words[:30]}
        )
        docs = [
            Document(f"d{i}", tuple(rng.choice(words, rng.integers(1, 15))), {"a": 0.0})
            for i in range(150)
        ]
        return rng, table, build_corpus(docs, ["a"], min_df=30)

    @staticmethod
    def assert_matches_centroid(corpus, table):
        got = centroids(corpus, table)
        want = np.stack([centroid(doc, table) for doc in corpus.documents])
        assert got.shape == want.shape == (len(corpus), table.dim)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_equal_stacked_centroids(self, seed):
        rng, table, corpus = self.world(seed)
        tokens = [t for doc in corpus.documents for t in doc.tokens]
        assert any(t not in table for t in tokens)  # OOV tokens dilute
        assert len(tokens) > len(corpus.entry_rows())  # repeated tokens
        assert len(corpus.vocab) < len(corpus.terms)  # min_df masks words
        self.assert_matches_centroid(corpus, table)
        fold = corpus.select(rng.permutation(len(corpus))[:70])
        self.assert_matches_centroid(fold, table)

    def test_zero_token_document_is_an_error(self):
        _, table, corpus = self.world(0)
        lengths = corpus.lengths.copy()
        lengths[5] = 0
        with pytest.raises(DataError, match="no tokens"):
            centroids(dataclasses.replace(corpus, lengths=lengths), table)


class TestCosine:
    def test_parallel(self):
        assert cosine([1, 0], [1, 0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_collinear_scaled(self):
        assert cosine([1, 2], [2, 4]) == pytest.approx(1.0)

    def test_zero_norm_convention(self):
        assert cosine([0, 0], [1, 2]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            cosine([1, 0], [1, 0, 0])
