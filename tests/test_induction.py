"""The four lexicon-learning methods and log min-max rescaling."""

import dataclasses
import json
import time
import tracemalloc

import numpy as np
import pytest

from lexlearn import induction
from lexlearn.corpus import Document, build_corpus
from lexlearn.embeddings import centroid
from lexlearn.errors import DataError, DegenerateLabelsError
from lexlearn.induction import (
    fit_mean_binary,
    fit_mean_star,
    fit_mlffn,
    fit_regression_weights,
    load_lexicon,
    rescale_log_minmax,
    save_lexicon,
)
from lexlearn.neural import NetConfig, forward_batch
from lexlearn.numerics import pearson

from _worlds import (
    brute_force_mean_binary,
    brute_force_mean_star,
    embedding_table,
    lexicon,
    linear_world,
    random_corpus,
    ratings_of,
)


def toy_corpus():
    docs = [
        Document("d1", ("a", "sad", "story"), {"empathy": 6.0}),
        Document("d2", ("a", "sad", "joke"), {"empathy": 2.0}),
    ]
    return build_corpus(docs, ["empathy"])


class TestMeanStar:
    def test_toy_averages(self):
        lex = fit_mean_star(toy_corpus(), "empathy")
        ratings = ratings_of(lex, "empathy")
        assert ratings["sad"] == 4.0
        assert ratings["story"] == 6.0
        assert ratings["joke"] == 2.0

    def test_single_document_word(self):
        lex = fit_mean_star(toy_corpus(), "empathy")
        assert ratings_of(lex, "empathy")["story"] == 6.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            corpus = random_corpus(rng, max_docs=50, max_vocab=80)
            lex = fit_mean_star(corpus, "aff")
            oracle = brute_force_mean_star(corpus, "aff")
            assert ratings_of(lex, "aff") == oracle

    def test_ratings_within_label_range(self):
        rng = np.random.default_rng(22)
        corpus = random_corpus(rng)
        labels = [d.ratings["aff"] for d in corpus.documents]
        ratings = ratings_of(fit_mean_star(corpus, "aff"), "aff")
        assert all(min(labels) <= r <= max(labels) for r in ratings.values())

    def test_rates_exactly_the_vocabulary(self):
        rng = np.random.default_rng(23)
        corpus = random_corpus(rng)
        lex = fit_mean_star(corpus, "aff")
        assert set(lex.entries) == set(corpus.vocab)


class TestMeanBinary:
    def test_median_split_with_high_ties(self):
        docs = [
            Document(f"d{i}", (f"w{i}",), {"aff": float(v)})
            for i, v in enumerate([1, 2, 3, 4, 5])
        ]
        corpus = build_corpus(docs, ["aff"])
        ratings = ratings_of(fit_mean_binary(corpus, "aff"), "aff")
        # median 3; labels [1,2,3,4,5] -> binary [0,0,1,1,1]
        assert [ratings[f"w{i}"] for i in range(5)] == [0.0, 0.0, 1.0, 1.0, 1.0]

    def test_low_tie_rule(self):
        docs = [
            Document(f"d{i}", (f"w{i}",), {"aff": float(v)})
            for i, v in enumerate([1, 2, 3, 4, 5])
        ]
        corpus = build_corpus(docs, ["aff"])
        ratings = ratings_of(fit_mean_binary(corpus, "aff", ties="low"), "aff")
        assert [ratings[f"w{i}"] for i in range(5)] == [0.0, 0.0, 0.0, 1.0, 1.0]

    def test_word_only_in_high_documents(self):
        docs = [
            Document("d1", ("lo1",), {"aff": 1.0}),
            Document("d2", ("lo2",), {"aff": 2.0}),
            Document("d3", ("hi", "lo2"), {"aff": 5.0}),
            Document("d4", ("hi",), {"aff": 6.0}),
        ]
        corpus = build_corpus(docs, ["aff"])
        assert ratings_of(fit_mean_binary(corpus, "aff"), "aff")["hi"] == 1.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            corpus = random_corpus(rng, max_docs=50, max_vocab=80)
            lex = fit_mean_binary(corpus, "aff")
            assert ratings_of(lex, "aff") == brute_force_mean_binary(corpus, "aff")

    def test_ratings_in_unit_interval(self):
        rng = np.random.default_rng(25)
        corpus = random_corpus(rng)
        assert all(
            0.0 <= r <= 1.0 for r in ratings_of(fit_mean_binary(corpus, "aff"), "aff").values()
        )

    def test_identical_labels_rejected(self):
        docs = [Document(f"d{i}", ("w",), {"aff": 3.0}) for i in range(4)]
        corpus = build_corpus(docs, ["aff"])
        with pytest.raises(DegenerateLabelsError):
            fit_mean_binary(corpus, "aff")

    def test_identical_labels_rejected_beside_a_varying_construct(self):
        docs = [Document(f"d{i}", ("w", f"v{i}"), {"aff": -1.5, "other": float(i)})
                for i in range(5)]
        corpus = build_corpus(docs, ["other", "aff"])
        with pytest.raises(DegenerateLabelsError, match="'aff'"):
            fit_mean_binary(corpus, "aff")
        assert len(fit_mean_binary(corpus, "other")) == 6


def plain_word_means(corpus, labels, min_df):
    """Per-word label means by plain float addition in ascending document
    order, over the words in at least ``min_df`` documents."""
    members = {}
    for i, doc in enumerate(corpus.documents):
        for w in set(doc.tokens):
            members.setdefault(w, []).append(i)
    out = {}
    for w, ids in members.items():
        if len(ids) >= min_df:
            total = 0.0
            for i in ids:
                total += labels[i]
            out[w] = total / len(ids)
    return out


class TestCountArrays:
    """The mean methods read the corpus's count arrays; a row selection of a
    corpus stands for the corpus built from those documents."""

    def test_means_bit_identical_on_corpus_and_row_selection(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            min_df = int(rng.integers(2, 4))
            base = random_corpus(rng, max_docs=80, max_vocab=60)
            corpus = build_corpus(base.documents, base.constructs, min_df=min_df)
            rows = rng.permutation(len(corpus))[: max(2, 3 * len(corpus) // 4)]
            for sub in (corpus, corpus.select(rows)):
                labels = [d.ratings["aff"] for d in sub.documents]
                star = plain_word_means(sub, labels, min_df)
                assert sub.vocab == build_corpus(sub.documents, min_df=min_df).vocab
                if not star:
                    with pytest.raises(DataError, match="vocabulary is empty"):
                        fit_mean_star(sub, "aff")
                    continue
                assert ratings_of(fit_mean_star(sub, "aff"), "aff") == star
                if len(set(labels)) < 2:
                    continue
                med = float(np.median(labels))
                binary = [1.0 if v >= med else 0.0 for v in labels]
                lex = fit_mean_binary(sub, "aff")
                assert ratings_of(lex, "aff") == plain_word_means(sub, binary, min_df)

    def test_regression_on_selection_equals_rebuilt_corpus(self):
        rng = np.random.default_rng(32)
        base = random_corpus(rng, max_docs=60, max_vocab=120)
        corpus = build_corpus(base.documents, base.constructs, min_df=2)
        rows = rng.permutation(len(corpus))[: len(corpus) // 2 + 1]
        sub = corpus.select(rows)
        rebuilt = build_corpus([corpus.documents[i] for i in rows], min_df=2)
        a = fit_regression_weights(sub, "aff", 0.5)
        b = fit_regression_weights(rebuilt, "aff", 0.5)
        assert ratings_of(a, "aff") == ratings_of(b, "aff")
        assert a.provenance == b.provenance

    @pytest.mark.parametrize(
        "fit", [fit_mean_star, fit_mean_binary, fit_regression_weights]
    )
    def test_empty_vocabulary_refused(self, fit):
        docs = [
            Document("d1", ("a", "b"), {"aff": 1.0}),
            Document("d2", ("a", "c"), {"aff": 2.0}),
        ]
        corpus = build_corpus(docs, ["aff"], min_df=3)
        with pytest.raises(DataError, match="vocabulary is empty"):
            fit(corpus, "aff")


class TestRegressionWeights:
    def test_constant_column_collapses_to_intercept(self):
        docs = [
            Document("d1", ("w",), {"aff": 3.0}),
            Document("d2", ("w",), {"aff": 5.0}),
        ]
        corpus = build_corpus(docs, ["aff"])
        lex = fit_regression_weights(corpus, "aff", ridge_lambda=0.0)
        assert ratings_of(lex, "aff")["w"] == pytest.approx(0.0, abs=1e-12)
        assert lex.provenance["intercept"] == pytest.approx(4.0, abs=1e-12)

    def test_orthogonal_documents_reproduce_labels(self):
        docs = [
            Document("d1", ("a",), {"aff": 4.0}),
            Document("d2", ("b",), {"aff": 6.0}),
        ]
        corpus = build_corpus(docs, ["aff"])
        lex = fit_regression_weights(corpus, "aff", ridge_lambda=0.0)
        ratings = ratings_of(lex, "aff")
        intercept = lex.provenance["intercept"]
        assert intercept + ratings["a"] == pytest.approx(4.0, abs=1e-6)
        assert intercept + ratings["b"] == pytest.approx(6.0, abs=1e-6)

    def test_solution_beats_single_coordinate_perturbations(self):
        rng = np.random.default_rng(26)
        corpus = random_corpus(rng, max_docs=30, max_vocab=25)
        lam = 0.5
        lex = fit_regression_weights(corpus, "aff", ridge_lambda=lam)
        words = sorted(corpus.vocab)
        coef = np.array([ratings_of(lex, "aff")[w] for w in words])
        intercept = lex.provenance["intercept"]
        X = np.zeros((len(corpus), len(words)))
        col = {w: j for j, w in enumerate(words)}
        for i, doc in enumerate(corpus.documents):
            for tok in doc.tokens:
                X[i, col[tok]] += 1.0 / len(doc.tokens)
        y = np.array([d.ratings["aff"] for d in corpus.documents])

        def loss(c):
            resid = y - intercept - X @ c
            return float(resid @ resid + lam * c @ c)

        base = loss(coef)
        for j in range(len(words)):
            for delta in (1e-3, -1e-3):
                bumped = coef.copy()
                bumped[j] += delta
                assert loss(bumped) >= base

    def test_paper_scale_fit_is_stationary(self):
        # 10k documents of 100 Zipfian tokens over 20k words, as EmoBank
        rng = np.random.default_rng(34)
        n, size, length, lam = 10_000, 20_000, 100, 1.0
        zipf = 1.0 / np.arange(1, size + 1)
        ids = rng.choice(size, size=(n, length), p=zipf / zipf.sum())
        names = np.array([f"w{i:05d}" for i in range(size)], dtype=object)
        planted = rng.standard_normal(size)
        labels = planted[ids].mean(axis=1) + 0.1 * rng.standard_normal(n)
        docs = [Document(str(i), tuple(names[ids[i]]), {"aff": float(labels[i])})
                for i in range(n)]
        corpus = build_corpus(docs, ["aff"], min_df=2)
        start = time.perf_counter()
        lex = fit_regression_weights(corpus, "aff", ridge_lambda=lam)
        assert time.perf_counter() - start < 10.0
        assert len(lex) == len(corpus.vocab) > 10_000
        assert lex.provenance["cg_iterations"] > 0
        # gradient of the penalized loss through the CSR arrays: the residual
        # sums to 0 and X'r = lam * a over the vocabulary columns
        column = {t: j for j, t in enumerate(corpus.terms)}
        coef = np.zeros(len(corpus.terms))
        for word, rating in ratings_of(lex, "aff").items():
            coef[column[word]] = rating
        rows = corpus.entry_rows()
        freq = corpus.counts / corpus.lengths[rows]
        freq[coef[corpus.indices] == 0.0] = 0.0  # words outside the vocabulary
        fitted = np.bincount(rows, weights=freq * coef[corpus.indices], minlength=n)
        resid = labels - lex.provenance["intercept"] - fitted
        grad = np.bincount(corpus.indices, weights=freq * resid[rows],
                           minlength=len(corpus.terms)) - lam * coef
        scale = np.linalg.norm(np.bincount(
            corpus.indices, weights=freq * (labels - labels.mean())[rows]))
        assert abs(resid.sum()) <= 1e-9 * n
        assert np.linalg.norm(grad[corpus.vocab_columns]) <= 1e-9 * scale


class TestMlffn:
    def test_planted_linear_world_heldout_words(self):
        corpus, table, _, planted, heldout = linear_world(
            0, n_words=150, dim=24, n_docs=500, words_per_doc=5, noise=0.0,
            n_heldout=50,
        )
        cfg = NetConfig(24, 1, (32,), l2=1e-3, max_epochs=150, dropout_input=0,
                        dropout_hidden=0, seed=0)
        lex, _ = fit_mlffn(corpus, ["aff"], table, cfg, rate_all_embedded=True)
        pred = [lex.entries[w][0] for w in heldout]
        ref = [planted[w] for w in heldout]
        assert pearson(pred, ref) >= 0.95

    def test_oov_words_share_the_zero_vector_output(self):
        corpus, table, _, _, _ = linear_world(
            1, n_words=40, dim=8, n_docs=60, words_per_doc=4, noise=0.0
        )
        docs = list(corpus.documents)
        docs.append(Document("extra", ("unembedded1", "unembedded2"), {"aff": 1.0}))
        corpus2 = build_corpus(docs, ["aff"])
        cfg = NetConfig(8, 1, (8,), dropout_input=0, dropout_hidden=0,
                        max_epochs=10, seed=1)
        lex, net = fit_mlffn(corpus2, ["aff"], table, cfg, include_oov_words=True)
        zero_out = forward_batch(net, np.zeros((1, 8)))[0, 0]
        assert lex.entries["unembedded1"][0] == pytest.approx(zero_out, abs=0)
        assert lex.entries["unembedded2"][0] == pytest.approx(zero_out, abs=0)
        assert lex.provenance["zero_vector_words"] == 2

    def test_document_predictions_beat_mean_star_reconstruction(self):
        corpus, table, _, _, _ = linear_world(
            2, n_words=150, dim=24, n_docs=500, words_per_doc=5, noise=0.0
        )
        cfg = NetConfig(24, 1, (32,), l2=1e-3, max_epochs=150, dropout_input=0,
                        dropout_hidden=0, seed=2)
        lex, net = fit_mlffn(corpus, ["aff"], table, cfg)
        X = np.stack([centroid(d, table) for d in corpus.documents])
        y = [d.ratings["aff"] for d in corpus.documents]
        net_r = pearson(forward_batch(net, X).ravel(), y)
        star = ratings_of(fit_mean_star(corpus, "aff"), "aff")
        star_doc = [float(np.mean([star[t] for t in d.tokens])) for d in corpus.documents]
        assert net_r > pearson(star_doc, y)

    def test_empty_intersection_is_an_error(self):
        corpus, _, _, _, _ = linear_world(
            4, n_words=20, dim=6, n_docs=30, words_per_doc=4, noise=0.0
        )
        from lexlearn.errors import DataError

        alien = embedding_table({"zzz": np.ones(6, dtype=np.float32)})
        cfg = NetConfig(6, 1, (4,), dropout_input=0, dropout_hidden=0,
                        max_epochs=3, seed=4)
        with pytest.raises(DataError):
            fit_mlffn(corpus, ["aff"], alien, cfg, rate_all_embedded=True)

    def test_rating_memory_follows_the_block_not_the_table(self, monkeypatch):
        # 20,000 embedded words: one pass over all of them holds 20,000 rows
        # of 64 inputs and 256 hidden units in float64
        corpus, table, _, _, _ = linear_world(
            5, n_words=40, dim=64, n_docs=60, words_per_doc=4, noise=0.0,
            n_heldout=19_960,
        )
        cfg = NetConfig(64, 1, (256,), dropout_input=0, dropout_hidden=0,
                        max_epochs=2, seed=5)
        row_bytes = 8 * (64 + 256)

        def rate_all(block_rows):
            monkeypatch.setattr(induction, "RATE_BLOCK_ROWS", block_rows)
            tracemalloc.start()
            try:
                lex, net = fit_mlffn(corpus, ["aff"], table, cfg,
                                     rate_all_embedded=True)
                return lex, net, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole, net, whole_peak = rate_all(induction.RATE_BLOCK_ROWS)
        blocked, _, blocked_peak = rate_all(256)
        assert blocked_peak < 2_000 * row_bytes < 20_000 * row_bytes < whole_peak
        # a table no larger than one block is rated in one pass, as before
        vectors = table.matrix(whole.words).astype(np.float64)
        assert np.array_equal(whole.ratings, forward_batch(net, vectors))
        assert blocked.words == whole.words
        np.testing.assert_allclose(blocked.ratings, whole.ratings,
                                   rtol=1e-12, atol=1e-12)

    def test_default_rates_corpus_vocab_intersection(self):
        corpus, table, _, _, heldout = linear_world(
            3, n_words=40, dim=8, n_docs=60, words_per_doc=4, noise=0.0,
            n_heldout=10,
        )
        cfg = NetConfig(8, 1, (8,), dropout_input=0, dropout_hidden=0,
                        max_epochs=5, seed=3)
        lex, _ = fit_mlffn(corpus, ["aff"], table, cfg)
        assert set(lex.entries) == set(corpus.vocab) & set(table.words)
        assert not set(heldout) & set(lex.entries)


class TestRescale:
    def test_forced_endpoints(self):
        lex = lexicon({"a": 0.0, "b": np.e - 1.0}, ("v",))
        out = rescale_log_minmax(lex, 1.0, 7.0)
        assert out.entries["a"][0] == 1.0
        assert out.entries["b"][0] == 7.0

    def test_random_min_max_map_to_bounds(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            values = rng.normal(0, 5, size=rng.integers(2, 40))
            lex = lexicon({f"w{i}": v for i, v in enumerate(values)}, ("v",))
            out = rescale_log_minmax(lex, 1.0, 7.0)
            got = out.values("v")
            assert got.min() == 1.0
            assert got.max() == 7.0

    def test_rank_preserved(self):
        rng = np.random.default_rng(28)
        values = rng.normal(0, 3, size=60)
        lex = lexicon({f"w{i}": v for i, v in enumerate(values)}, ("v",))
        out = rescale_log_minmax(lex, 1.0, 7.0)
        got = np.array([out.entries[f"w{i}"][0] for i in range(60)])
        assert np.array_equal(np.argsort(values), np.argsort(got))

    def test_argmax_argmin_preserved(self):
        rng = np.random.default_rng(29)
        values = rng.normal(0, 2, size=30)
        lex = lexicon({f"w{i}": v for i, v in enumerate(values)}, ("v",))
        out = rescale_log_minmax(lex, 1.0, 7.0)
        got = np.array([out.entries[f"w{i}"][0] for i in range(30)])
        assert np.argmax(values) == np.argmax(got)
        assert np.argmin(values) == np.argmin(got)

    @pytest.mark.parametrize("lo,hi", [(0.0, np.inf), (-1e308, 1e308)])
    def test_non_finite_ratings_refused(self, lo, hi):
        # the end points map to lo and hi exactly; the middle word overflows
        lex = lexicon(dict(zip("abc", (0.0, 1.0, 2.0))), ("v",))
        with pytest.raises(DataError, match="non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            rescale_log_minmax(lex, lo, hi)

    def test_all_equal_collapses_to_midpoint_with_warning(self):
        lex = lexicon({"a": 2.0, "b": 2.0}, ("v",))
        with pytest.warns(UserWarning, match="midpoint"):
            out = rescale_log_minmax(lex, 1.0, 7.0)
        assert out.entries["a"][0] == 4.0

    def test_midpoint_of_a_wide_range_is_finite(self):
        lex = lexicon({"a": 2.0, "b": 2.0}, ("v",))
        with pytest.warns(UserWarning, match="midpoint"):
            out = rescale_log_minmax(lex, 1e308, 1.7e308)
        assert out.entries["a"][0] == 1.35e308

    def test_bad_range(self):
        lex = lexicon({"a": 1.0, "b": 2.0}, ("v",))
        with pytest.raises(ValueError):
            rescale_log_minmax(lex, 7.0, 1.0)


class TestLexiconIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(30)
        lex = lexicon(
            {f"w{i}": [rng.normal(), rng.normal()] for i in range(50)},
            ("empathy", "distress"),
            {"method": "mean_star"},
        )
        path = tmp_path / "lex.tsv"
        save_lexicon(lex, path)
        sidecar = tmp_path / "lex.tsv.prov"
        assert not sidecar.exists()  # the command line writes .prov
        sidecar.write_text(json.dumps(lex.provenance), encoding="utf-8")
        back = load_lexicon(path)
        assert back.constructs == lex.constructs
        assert set(back.entries) == set(lex.entries)
        for w in lex.entries:
            assert np.array_equal(back.entries[w], lex.entries[w])
        assert back.provenance == {"method": "mean_star"}

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"\xef\xbb\xbfword\taff\nbad\t1.0\ngood\t3.0\n")
        back = load_lexicon(path)
        assert back.constructs == ("aff",)
        assert back.words == ("bad", "good")
        assert back.ratings.tolist() == [[1.0], [3.0]]

    def test_repeated_word_keeps_its_last_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("word\ta\tb\nx\t1\t2\ny\t3\t4\nx\t5\t6\n",
                        encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.words == ("x", "y")
        assert lex.ratings.tolist() == [[5.0, 6.0], [3.0, 4.0]]

    def test_entries_are_cached_and_the_lexicon_is_frozen(self):
        lex = lexicon({"b": 2.0, "a": 1.0})
        assert lex.entries is lex.entries
        assert lex.words == ("a", "b") and lex.rows == {"a": 0, "b": 1}
        with pytest.raises(dataclasses.FrozenInstanceError):
            lex.words = ("c",)
        with pytest.raises(dataclasses.FrozenInstanceError):
            lex.ratings = np.zeros((2, 1))

    def test_deterministic_refit(self):
        rng = np.random.default_rng(31)
        corpus = random_corpus(rng)
        a = ratings_of(fit_mean_star(corpus, "aff"), "aff")
        b = ratings_of(fit_mean_star(corpus, "aff"), "aff")
        assert a == b
