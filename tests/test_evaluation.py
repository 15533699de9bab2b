"""Intrinsic cross-validation and extrinsic user-level evaluation."""

import random
import tracemalloc
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from lexlearn import corpus as corpus_module
from lexlearn import evaluation
from lexlearn.corpus import Document, _parse_number, _read_table, build_corpus
from lexlearn.errors import (DataError, LexlearnError, RowError,
                             UndefinedCorrelationError)
from lexlearn.evaluation import (
    Users,
    eval_extrinsic,
    eval_intrinsic,
    load_user_corpora,
)
from lexlearn.induction import MethodSpec, fit_method, rescale_log_minmax
from lexlearn.neural import NetConfig
from lexlearn.numerics import pearson

from _worlds import lexicon, linear_world, ratings_of


def exact_world(seed=0, n_words=100, n_docs=500, wpd=10):
    """Gold ratings generate the labels exactly: label = mean member rating."""
    rng = np.random.default_rng(seed)
    words = [f"w{i:03d}" for i in range(n_words)]
    planted = {w: float(rng.normal(4.0, 1.5)) for w in words}
    docs = []
    for i in range(n_docs):
        toks = tuple(words[j] for j in rng.integers(0, n_words, wpd))
        label = float(np.mean([planted[t] for t in toks]))
        docs.append(Document(f"d{i:04d}", toks, {"aff": label}))
    corpus = build_corpus(docs, ["aff"])
    gold = lexicon(planted)
    return corpus, gold


class TestIntrinsic:
    def test_mean_star_recovers_exact_world(self):
        corpus, gold = exact_world()
        report = eval_intrinsic(corpus, gold, MethodSpec("mean_star"), "aff",
                                folds=10, seed=0)
        assert report.mean_r >= 0.9
        assert len(report.per_fold) == 10
        assert not report.fold_failures
        assert report.mean_r == pytest.approx(float(np.mean(report.per_fold)))
        assert report.coverage == 1.0

    def test_mlffn_beats_mean_star_on_encoding_embeddings(self):
        corpus, table, gold, _, _ = linear_world(
            5, n_words=100, dim=24, n_docs=400, words_per_doc=8, noise=0.1
        )
        star = eval_intrinsic(corpus, gold, MethodSpec("mean_star"), "aff",
                              folds=3, seed=5)
        cfg = NetConfig(24, 1, (32,), l2=1e-3, max_epochs=80, dropout_input=0,
                        dropout_hidden=0, seed=5)
        net = eval_intrinsic(
            corpus, gold, MethodSpec("mlffn", net=cfg, table=table), "aff",
            folds=3, seed=5,
        )
        assert net.mean_r >= star.mean_r

    def test_two_documents_two_folds_degenerate(self):
        # each fold trains on one document; mean_star rates only that
        # document's words, all at the same label, so correlation is
        # undefined and both folds are recorded as failed
        words_a = tuple(f"a{i}" for i in range(20))
        words_b = tuple(f"b{i}" for i in range(20))
        docs = [
            Document("d1", words_a + ("shared",) * 11, {"aff": 1.0}),
            Document("d2", words_b + ("shared",) * 11, {"aff": 2.0}),
        ]
        corpus = build_corpus(docs, ["aff"])
        gold = lexicon(
            {w: float(i) for i, w in enumerate(words_a + words_b + ("shared",))}
        )
        report = eval_intrinsic(corpus, gold, MethodSpec("mean_star"), "aff",
                                folds=2, seed=0)
        assert set(report.fold_failures) == {0, 1}
        assert report.mean_r != report.mean_r  # NaN
        assert all(v != v for v in report.per_fold)

    def test_small_overlap_rejected(self):
        docs = [
            Document("d1", ("x", "y"), {"aff": 1.0}),
            Document("d2", ("x", "z"), {"aff": 2.0}),
        ]
        corpus = build_corpus(docs, ["aff"])
        gold = lexicon({"x": 1.0})
        with pytest.raises(DataError, match="30"):
            eval_intrinsic(corpus, gold, MethodSpec("mean_star"), "aff")

    def test_document_order_invariance(self):
        corpus, gold = exact_world(seed=3, n_docs=120)
        shuffled = list(corpus.documents)
        np.random.default_rng(99).shuffle(shuffled)
        corpus2 = build_corpus(shuffled, ["aff"])
        a = eval_intrinsic(corpus, gold, MethodSpec("mean_star"), "aff",
                           folds=5, seed=7)
        b = eval_intrinsic(corpus2, gold, MethodSpec("mean_star"), "aff",
                           folds=5, seed=7)
        assert a.per_fold == b.per_fold
        assert a.mean_r == b.mean_r

    @pytest.mark.parametrize("kind", ["mean_star", "mean_binary", "regression_weights"])
    def test_folds_honour_min_df(self, kind):
        min_df, folds, seed = 4, 5, 2
        world, gold = exact_world(seed=8, n_words=400, n_docs=300, wpd=6)
        corpus = build_corpus(world.documents, ["aff"], min_df=min_df)
        spec = MethodSpec(kind)
        report = eval_intrinsic(corpus, gold, spec, "aff", folds=folds, seed=seed)
        # the same split, each training corpus built from its documents
        docs = sorted(
            corpus.documents,
            key=lambda d: (d.id, " ".join(d.tokens), sorted(d.ratings.items())),
        )
        perm = np.random.default_rng(seed).permutation(len(docs))
        expected = []
        for group in np.array_split(perm, folds):
            held_out = set(group.tolist())
            train = [docs[i] for i in range(len(docs)) if i not in held_out]
            sub = build_corpus(train, min_df=min_df)
            rated = ratings_of(fit_method(sub, ["aff"], spec), "aff")
            gold_rated = ratings_of(gold, "aff")
            common = sorted(set(rated) & set(gold_rated))
            ref = [gold_rated[w] for w in common]
            expected.append(pearson([rated[w] for w in common], ref))
        assert report.per_fold == expected
        unfiltered = eval_intrinsic(world, gold, spec, "aff", folds=folds, seed=seed)
        assert unfiltered.evaluated_vocab_size > report.evaluated_vocab_size

    def test_folds_hash_no_corpus(self, monkeypatch):
        # a fold's lexicon is never written, so nothing needs its corpus
        # fingerprint
        hashed = []
        monkeypatch.setattr(corpus_module, "hashlib",
                            SimpleNamespace(sha256=lambda: hashed.append(1)))
        corpus, gold = exact_world(seed=4, n_docs=60)
        for kind in ("mean_star", "mean_binary", "regression_weights"):
            eval_intrinsic(corpus, gold, MethodSpec(kind), "aff", folds=3)
        assert hashed == []

    def test_bad_fold_count(self):
        corpus, gold = exact_world(seed=4, n_docs=60)
        with pytest.raises(ValueError):
            eval_intrinsic(corpus, gold, MethodSpec("mean_star"), "aff", folds=1)

    def test_net_coverage_superset_when_gold_exceeds_vocab(self):
        # gold includes words no document contains: counting methods top out
        # at the corpus vocabulary, the net covers the embedding vocabulary
        corpus, table, _, planted, heldout = linear_world(
            6, n_words=60, dim=12, n_docs=120, words_per_doc=5, noise=0.05,
            n_heldout=40,
        )
        gold = lexicon(planted)
        star = eval_intrinsic(corpus, gold, MethodSpec("mean_star"), "aff",
                              folds=3, seed=6)
        cfg = NetConfig(12, 1, (16,), dropout_input=0, dropout_hidden=0,
                        max_epochs=30, seed=6)
        spec = MethodSpec("mlffn", net=cfg, table=table, rate_all_embedded=True)
        net = eval_intrinsic(corpus, gold, spec, "aff", folds=3, seed=6)
        assert star.coverage <= len(corpus.vocab) / len(gold) + 1e-12
        assert net.coverage == 1.0
        assert net.coverage > star.coverage


@dataclass(frozen=True)
class UserCorpus:
    """One user's word counts (in first-use order) plus their trait score."""

    user_id: str
    counts: dict
    trait_score: float


def users_of(records):
    """The Users structure of UserCorpus records, entries in counts order."""
    terms, user, term, count = {}, [], [], []
    for u, record in enumerate(records):
        for word, c in record.counts.items():
            user.append(u)
            term.append(terms.setdefault(word, len(terms)))
            count.append(c)
    return Users(
        tuple(r.user_id for r in records),
        np.array([r.trait_score for r in records], dtype=np.float64),
        tuple(terms),
        np.array(user, dtype=np.intp),
        np.array(term, dtype=np.intp),
        np.array(count, dtype=np.float64),
    )


def records_of(users):
    """UserCorpus records of a Users structure, counts as ints."""
    counts = [{} for _ in users.ids]
    for u, t, c in zip(users.user.tolist(), users.term.tolist(), users.count.tolist()):
        counts[u][users.terms[t]] = int(c)
    return [UserCorpus(uid, words, float(trait))
            for uid, words, trait in zip(users.ids, counts, users.traits.tolist())]


def monotone_users():
    return [
        UserCorpus("u_hi", {"great": 3}, 7.0),
        UserCorpus("u_mid", {"meh": 5}, 4.0),
        UserCorpus("u_lo", {"awful": 2}, 1.0),
    ]


def three_word_lexicon(hi=7.0, mid=4.0, lo=1.0):
    return lexicon({"great": hi, "meh": mid, "awful": lo})


class TestExtrinsic:
    def test_monotone_three_users(self):
        r, scores = eval_extrinsic(three_word_lexicon(), "aff",
                                   users_of(monotone_users()))
        assert r == pytest.approx(1.0)
        assert scores["u_hi"] == 7.0

    def test_equal_ratings_undefined(self):
        lex = three_word_lexicon(4.0, 4.0, 4.0)
        with pytest.raises(UndefinedCorrelationError):
            eval_extrinsic(lex, "aff", users_of(monotone_users()))

    def test_monte_carlo_population(self):
        rng = np.random.default_rng(41)
        words = [f"w{i:03d}" for i in range(80)]
        ratings = {w: float(rng.normal(4.0, 1.5)) for w in words}
        lex = lexicon(ratings)
        users = []
        true_scores = []
        noise_sd = 0.5
        for u in range(100):
            chosen = rng.integers(0, 80, size=rng.integers(5, 30))
            counts = {}
            for j in chosen:
                counts[words[j]] = counts.get(words[j], 0) + 1
            score = sum(ratings[w] * c for w, c in counts.items()) / sum(counts.values())
            trait = score + float(rng.normal(0.0, noise_sd))
            users.append(UserCorpus(f"u{u:03d}", counts, trait))
            true_scores.append(score)
        r, scores = eval_extrinsic(lex, "aff", users_of(users))
        sd_s = float(np.std(true_scores))
        analytic = sd_s / np.sqrt(sd_s**2 + noise_sd**2)
        assert abs(r - analytic) <= 0.05
        # eval recomputes exactly the generator's weighted average
        assert scores["u000"] == pytest.approx(true_scores[0], abs=0)

    def test_zero_overlap_user_excluded_with_warning(self):
        users = monotone_users() + [UserCorpus("u_none", {"unknown": 4}, 3.0)]
        with pytest.warns(UserWarning, match="u_none"):
            r, scores = eval_extrinsic(three_word_lexicon(), "aff", users_of(users))
        assert "u_none" not in scores

    def test_too_few_scorable_users(self):
        users = [
            UserCorpus("a", {"great": 1}, 1.0),
            UserCorpus("b", {"meh": 1}, 2.0),
            UserCorpus("c", {"zzz": 1}, 3.0),
        ]
        with pytest.raises(DataError):
            with pytest.warns(UserWarning):
                eval_extrinsic(three_word_lexicon(), "aff", users_of(users))

    def test_sum_past_the_float_range_scores_the_finite_mean(self):
        lex = three_word_lexicon(lo=1e308)
        users = [UserCorpus("a", {"awful": 2}, 1.0), UserCorpus("b", {"meh": 1}, 2.0),
                 UserCorpus("c", {"great": 1}, 3.0),
                 UserCorpus("d", {"awful": 3, "meh": 2, "great": 1}, 4.0)]
        r, scores = eval_extrinsic(lex, "aff", users_of(users))
        assert np.isfinite(r)
        assert scores["a"] == 1e308 and scores["d"] == pytest.approx(5e307)
        # a user whose sum does not overflow keeps the bytes of sum / total
        assert scores["b"] == 4.0 and scores["c"] == 7.0

    def test_scores_are_convex_combinations(self):
        rng = np.random.default_rng(42)
        words = [f"w{i}" for i in range(30)]
        lex = lexicon({w: float(rng.uniform(1, 7)) for w in words})
        lo = min(float(v[0]) for v in lex.entries.values())
        hi = max(float(v[0]) for v in lex.entries.values())
        users = [
            UserCorpus(
                f"u{u}",
                {words[j]: int(rng.integers(1, 5)) for j in rng.integers(0, 30, 6)},
                float(rng.normal()),
            )
            for u in range(10)
        ]
        _, scores = eval_extrinsic(lex, "aff", users_of(users))
        assert all(lo - 1e-12 <= s <= hi + 1e-12 for s in scores.values())

    def test_monotone_rescale_preserves_ranks_for_single_word_users(self):
        # with one word per user the score IS the (rescaled) rating, so a
        # monotone rescale preserves score ranks exactly; weighted means over
        # several words do not commute with the nonlinear transform
        rng = np.random.default_rng(43)
        words = [f"w{i}" for i in range(25)]
        lex = lexicon({w: float(rng.normal(0, 2)) for w in words})
        users = [
            UserCorpus(f"u{i}", {words[i]: int(rng.integers(1, 5))},
                       float(lex.entries[words[i]][0] + rng.normal(0, 0.5)))
            for i in range(25)
        ]
        r1, s1 = eval_extrinsic(lex, "aff", users_of(users))
        r2, s2 = eval_extrinsic(rescale_log_minmax(lex, 1, 7), "aff", users_of(users))
        ids = sorted(s1)
        a = np.array([s1[u] for u in ids])
        b = np.array([s2[u] for u in ids])
        assert np.array_equal(np.argsort(a), np.argsort(b))
        assert np.sign(r1) == np.sign(r2)

    def test_monotone_rescale_preserves_sign_on_multiword_population(self):
        rng = np.random.default_rng(44)
        words = [f"w{i}" for i in range(40)]
        lex = lexicon({w: float(rng.normal(0, 2)) for w in words})
        users = []
        for u in range(30):
            counts = {words[j]: int(rng.integers(1, 4)) for j in rng.integers(0, 40, 8)}
            score = sum(lex.entries[w][0] * c for w, c in counts.items()) / sum(
                counts.values()
            )
            users.append(UserCorpus(f"u{u}", counts, float(score + rng.normal(0, 1.0))))
        r1, _ = eval_extrinsic(lex, "aff", users_of(users))
        r2, _ = eval_extrinsic(rescale_log_minmax(lex, 1, 7), "aff", users_of(users))
        assert np.sign(r1) == np.sign(r2)


class TestUserCorpusLoading:
    def test_text_format(self, tmp_path):
        usage = tmp_path / "usage.csv"
        usage.write_text(
            "user_id,text\nu1,Happy happy day!\nu1,another day\nu2,sad story\n",
            encoding="utf-8",
        )
        traits = tmp_path / "traits.csv"
        traits.write_text("user_id,empathy\nu1,5.5\nu2,2.5\n", encoding="utf-8")
        users = records_of(load_user_corpora(str(usage), str(traits), "empathy"))
        by_id = {u.user_id: u for u in users}
        assert by_id["u1"].counts == {"happy": 2, "day": 2, "another": 1}
        assert by_id["u2"].trait_score == 2.5

    @pytest.mark.parametrize("layout", ["text", "count"])
    def test_byte_order_marks_are_not_part_of_the_headers(self, tmp_path, layout):
        bom = b"\xef\xbb\xbf"
        usage = tmp_path / "usage.csv"
        usage.write_bytes(bom + {
            "text": "user_id,text\nu1,happy day\nu2,sad\n",
            "count": "user_id,word,count\nu1,happy,1\nu1,day,1\nu2,sad,1\n",
        }[layout].encode("utf-8"))
        traits = tmp_path / "traits.csv"
        traits.write_bytes(bom + b"user_id,t\nu1,1.0\nu2,2.0\n")
        users = records_of(load_user_corpora(str(usage), str(traits), "t"))
        assert {u.user_id: (u.counts, u.trait_score) for u in users} == {
            "u1": ({"happy": 1, "day": 1}, 1.0), "u2": ({"sad": 1}, 2.0)}

    def test_count_format(self, tmp_path):
        usage = tmp_path / "usage.csv"
        usage.write_text(
            "user_id,word,count\nu1,happy,3\nu1,day,1\nu2,sad,2\n", encoding="utf-8"
        )
        traits = tmp_path / "traits.csv"
        traits.write_text("user_id,t\nu1,1.0\nu2,2.0\n", encoding="utf-8")
        users = records_of(load_user_corpora(str(usage), str(traits), "t"))
        by_id = {u.user_id: u for u in users}
        assert by_id["u1"].counts == {"happy": 3, "day": 1}

    def test_count_layout_words_are_tokenized_like_text(self, tmp_path):
        usage = tmp_path / "usage.csv"
        usage.write_text("user_id,word,count\na,Awful,2\nb,(meh),1\nb,MEH!,3\n"
                         "c,great,1\n", encoding="utf-8")
        traits = tmp_path / "traits.csv"
        traits.write_text("user_id,t\na,1.0\nb,2.0\nc,3.0\n", encoding="utf-8")
        users = load_user_corpora(str(usage), str(traits), "t")
        assert [u.counts for u in records_of(users)] == [
            {"awful": 2}, {"meh": 4}, {"great": 1}]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # user a shares a word with the lexicon
            _, scores = eval_extrinsic(three_word_lexicon(), "aff", users)
        assert scores == {"a": 1.0, "b": 4.0, "c": 7.0}

    def test_missing_trait_user_dropped_with_warning(self, tmp_path):
        usage = tmp_path / "usage.csv"
        usage.write_text("user_id,text\nu1,hello\nu2,world\n", encoding="utf-8")
        traits = tmp_path / "traits.csv"
        traits.write_text("user_id,t\nu1,1.0\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="u2"):
            users = records_of(load_user_corpora(str(usage), str(traits), "t"))
        assert [u.user_id for u in users] == ["u1"]

    def test_count_past_float_range_is_a_row_error(self, tmp_path):
        usage = tmp_path / "usage.csv"
        usage.write_text("user_id,word,count\na,great,1e308\na,meh,1e308\n",
                         encoding="utf-8")
        traits = tmp_path / "traits.csv"
        traits.write_text("user_id,t\na,1.0\n", encoding="utf-8")
        with pytest.raises(RowError, match=r"usage.csv: line 2: .* 2\*\*53"):
            load_user_corpora(str(usage), str(traits), "t")

    def test_one_users_counts_sum_to_at_most_2_53(self, tmp_path):
        traits = tmp_path / "traits.csv"
        traits.write_text("user_id,t\na,1.0\nb,2.0\n", encoding="utf-8")
        usage = tmp_path / "usage.csv"
        usage.write_text(f"user_id,word,count\na,great,{2**52}\nb,meh,{2**53}\n"
                         f"a,meh,{2**52}\n", encoding="utf-8")
        users = records_of(load_user_corpora(str(usage), str(traits), "t"))
        assert [u.counts for u in users] == [{"great": 2**52, "meh": 2**52},
                                             {"meh": 2**53}]
        usage.write_text(f"user_id,word,count\na,great,{2**52}\nb,meh,1\n"
                         f"a,great,{2**52 + 1}\n", encoding="utf-8")
        with pytest.raises(RowError, match=r"line 4: .*'a'.* 2\*\*53"):
            load_user_corpora(str(usage), str(traits), "t")


def reference_form(raw):
    """Strip edge punctuation unless nothing would remain."""
    start, end = 0, len(raw)
    while start < end and not raw[start].isalnum():
        start += 1
    while end > start and not raw[end - 1].isalnum():
        end -= 1
    return raw[start:end] or raw


def reference_tokenize(text):
    """Lowercase, split, strip each token's edge punctuation."""
    return [reference_form(raw) for raw in text.lower().split()]


def reference_load_users(usage_path, traits_path, trait_column):
    """One Counter per user, filled row by row: UserCorpus records."""
    counts = defaultdict(Counter)
    for line, cells in _read_table(
        usage_path, None, ("user_id", "text"), ("user_id", "word", "count")
    ):
        user = counts[cells[0]]
        if len(cells) == 2:
            user.update(reference_tokenize(cells[1]))
            continue
        value = int(_parse_number(cells[2], "count", usage_path, line))
        if value <= 0:
            raise RowError(f"{usage_path}: line {line}: count must be positive")
        user[reference_form(cells[1].lower())] += value
    if not counts:
        raise DataError(f"{usage_path}: no user rows found")
    traits = {
        uid: _parse_number(cell, trait_column, traits_path, line)
        for line, (uid, cell) in _read_table(
            traits_path, None, ("user_id", trait_column)
        )
    }
    users, missing = [], []
    for uid, words in counts.items():
        if not words:
            continue
        if uid not in traits:
            missing.append(uid)
            continue
        users.append(UserCorpus(uid, dict(words), traits[uid]))
    if missing:
        warnings.warn(
            f"{len(missing)} user(s) have no trait score and were dropped: "
            f"{missing[:10]}",
            stacklevel=2,
        )
    if not users:
        raise DataError("no user has both word counts and a trait score")
    return users


def reference_eval_extrinsic(lexicon, construct, users):
    """The weighted mean rating of each user, one (user, word) at a time."""
    ratings = ratings_of(lexicon, construct)
    scores, traits, excluded = {}, [], []
    for user in users:
        total = 0
        weighted = 0.0
        for word, count in user.counts.items():
            rating = ratings.get(word)
            if rating is not None:
                total += count
                weighted += rating * count
        if total == 0:
            excluded.append(user.user_id)
            continue
        scores[user.user_id] = weighted / total
        traits.append(user.trait_score)
    if excluded:
        warnings.warn(
            f"{len(excluded)} user(s) share no word with the lexicon and were "
            f"excluded: {excluded[:10]}",
            stacklevel=2,
        )
    if len(scores) < 3:
        raise DataError(
            f"extrinsic evaluation needs at least 3 scorable users, got {len(scores)}"
        )
    return pearson(list(scores.values()), traits), scores


def outcome(call, *args):
    """(result or None, error type and text or None, warning texts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = call(*args), None
        except LexlearnError as exc:
            result, error = None, (type(exc), str(exc))
    return result, error, [str(w.message) for w in caught]


LEXICON_WORDS = ["great", "meh", "awful", "café", "naïve", "!!", "x2", "straße"]
TOKENS = LEXICON_WORDS + [
    "Great!", "(meh)", "AWFUL...", "Café", "--", "?!", "—", "…", "zzz", "ok",
    "a-b", "'quoted'", "ÉCOLE", "İstanbul", "ﬁne", "日本", "٣", "x2,",
]


def random_users_files(rng, tmp_path):
    """A users file (either layout) and a traits file, both perhaps CRLF."""
    uids = [f"u{i}" for i in range(rng.randrange(2, 12))] + ["ü", "user 1"]
    text_layout = rng.random() < 0.5
    rows = []
    for _ in range(rng.randrange(60)):
        uid = rng.choice(uids)
        if text_layout:
            n = rng.choice([0, 0, 1, 2, 5, 12])
            text = " ".join(rng.choice(TOKENS + ["", " ", "!!!"]) for _ in range(n))
            rows.append(f"{uid},\"{text}\"")
        else:
            count = rng.choice(["1", "2", "3", "7", "2.5", "1e3", "12345678901"])
            rows.append(f"{uid},\"{rng.choice(TOKENS)}\",{count}")
    if rows and not text_layout and rng.random() < 0.3:
        bad = rng.choice(["0", "-1", "x", "nan", "0.5", ""])
        rows[rng.randrange(len(rows))] = f"{rng.choice(uids)},great,{bad}"
    header = "user_id,text" if text_layout else "user_id,word,count"
    end = rng.choice(["\n", "\r\n"])
    usage = tmp_path / "usage.csv"
    usage.write_bytes((end.join([header, *rows]) + end).encode("utf-8"))
    traits = tmp_path / "traits.csv"
    scored = [uid for uid in uids if rng.random() < 0.85]
    traits.write_bytes(end.join(
        ["user_id,t", *(f"{uid},{rng.uniform(-3, 3)!r}" for uid in scored)]
    ).encode("utf-8") + end.encode())
    return str(usage), str(traits)


class TestUsersAgainstReference:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_users_files(self, tmp_path, seed):
        rng = random.Random(seed)
        usage, traits = random_users_files(rng, tmp_path)
        want, want_error, want_warnings = outcome(
            reference_load_users, usage, traits, "t")
        got, got_error, got_warnings = outcome(load_user_corpora, usage, traits, "t")
        assert got_error == want_error
        assert got_warnings == want_warnings
        if want is None:
            return
        assert [(u.user_id, list(u.counts.items()), u.trait_score)
                for u in records_of(got)] == [
            (u.user_id, list(u.counts.items()), u.trait_score) for u in want]
        lex = lexicon({w: rng.uniform(-2, 2) for w in rng.sample(LEXICON_WORDS, 5)})
        want, want_error, want_warnings = outcome(
            reference_eval_extrinsic, lex, "aff", want)
        got, got_error, got_warnings = outcome(eval_extrinsic, lex, "aff", got)
        assert got_error == want_error
        assert got_warnings == want_warnings
        if want is not None:
            assert repr(got[0]) == repr(want[0])
            assert [(u, repr(v)) for u, v in got[1].items()] == [
                (u, repr(v)) for u, v in want[1].items()]

    @pytest.mark.parametrize("seed", range(20))
    def test_int64_keys_give_the_same_users(self, tmp_path, monkeypatch, seed):
        # keys go int64 only past 2**31 kept users x terms, far beyond a test
        # file; a zero limit sends these files down that branch
        monkeypatch.setattr(evaluation, "_INT32_KEYS", 0)
        self.test_random_users_files(tmp_path, seed)


def zipf_users_file(tmp_path, users=1350, rows=4, tokens=50, vocab=3000):
    """A (user_id, text) file of users x rows x tokens Zipf-drawn words,
    and a traits file for every user."""
    rng = np.random.default_rng(0)
    p = 1.0 / (np.arange(vocab) + 300.0)
    words = np.array([f"w{i:04d}" for i in range(vocab)])
    drawn = words[rng.choice(vocab, size=(users * rows, tokens), p=p / p.sum())]
    usage = tmp_path / "usage.csv"
    usage.write_text("user_id,text\n" + "".join(
        f"u{i // rows},{' '.join(row)}\n" for i, row in enumerate(drawn.tolist())),
        encoding="utf-8")
    traits = tmp_path / "traits.csv"
    traits.write_text("user_id,t\n" + "".join(
        f"u{u},{rng.normal()!r}\n" for u in range(users)), encoding="utf-8")
    return str(usage), str(traits), users * rows * tokens


class TestUsersMemory:
    def test_load_peak_per_token(self, tmp_path):
        usage, traits, n_tokens = zipf_users_file(tmp_path)
        assert n_tokens == 270_000
        tracemalloc.start()
        try:
            users = load_user_corpora(usage, traits, "t")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert users.count.sum() == n_tokens
        assert users.user.dtype == users.term.dtype == np.int32
        # about 42 bytes a token with int32 keys and entry ids; 70 when the
        # keys were int64 and every temporary lived to the end
        assert peak <= 56 * n_tokens
