"""Corpus loading, tokenization, and gold-lexicon ingestion."""

import numpy as np
import pytest

from lexlearn.corpus import (
    Document,
    build_corpus,
    canonical_order,
    corpus_fingerprint,
    load_corpus,
    tokenize,
)
from lexlearn.errors import DataError, EmptyCorpusError, RowError, SchemaError
from lexlearn.evaluation import load_gold_lexicon

from _worlds import random_corpus


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestTokenize:
    def test_strips_edge_punctuation(self):
        assert tokenize("A sad, sad story.") == ["a", "sad", "sad", "story"]

    def test_trailing_ellipsis(self):
        assert tokenize("Dunno...") == ["dunno"]

    def test_pure_punctuation_kept(self):
        assert tokenize("!!") == ["!!"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_internal_punctuation_survives(self):
        assert tokenize("don't stop-start") == ["don't", "stop-start"]

    def test_idempotent_on_random_strings(self):
        rng = np.random.default_rng(11)
        alphabet = list("abcXYZ0189 .,!?-_'\"()\t:;")
        for _ in range(300):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 60)))
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once


class TestLoadCorpus:
    def test_toy_corpus(self, tmp_path):
        path = write(
            tmp_path / "toy.csv",
            "id,text,empathy\nd1,a sad story,6.0\nd2,a sad joke,2.0\n",
        )
        corpus = load_corpus(path, "text", ["empathy"], id_column="id")
        assert len(corpus) == 2
        assert sorted(corpus.vocab) == ["a", "joke", "sad", "story"]
        sad = corpus.terms.index("sad")
        assert corpus.entry_rows()[corpus.indices == sad].tolist() == [0, 1]
        assert corpus.vocab["sad"] == 2 and corpus.vocab["story"] == 1
        assert corpus.documents[0].ratings == {"empathy": 6.0}

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # as Excel writes a UTF-8 CSV: without utf-8-sig the first column
        # is named "\ufeffid" and the id column is missing
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + "id,text,empathy\nd1,a sad story,6.0\n"
                         "d2,a sad joke,2.0\n".encode("utf-8"))
        corpus = load_corpus(path, "text", ["empathy"], id_column="id")
        assert corpus.ids == ("d1", "d2")
        assert sorted(corpus.vocab) == ["a", "joke", "sad", "story"]

    def test_row_stripping_to_no_tokens_then_empty(self, tmp_path):
        # pure-punctuation tokens are kept, so only token-free text strips
        # to nothing
        path = write(tmp_path / "p.csv", 'text,empathy\n"   ",1.0\n')
        with pytest.raises(EmptyCorpusError):
            load_corpus(path, "text", ["empathy"])

    def test_dropped_rows_counted(self, tmp_path):
        path = write(tmp_path / "p.csv", 'text,empathy\n"  ",1.0\nok text,2.0\n')
        corpus = load_corpus(path, "text", ["empathy"])
        assert len(corpus) == 1
        assert corpus.report.rows_read == 2
        assert corpus.report.dropped_empty == 1

    def test_punctuation_only_text_stays_a_document(self, tmp_path):
        path = write(tmp_path / "p.csv", 'text,empathy\n"!!",1.0\n')
        corpus = load_corpus(path, "text", ["empathy"])
        assert corpus.documents[0].tokens == ("!!",)

    def test_missing_column_names_it(self, tmp_path):
        path = write(tmp_path / "m.csv", "text,empathy\nhi,1.0\n")
        with pytest.raises(SchemaError, match="distress"):
            load_corpus(path, "text", ["distress"])

    def test_bad_rating_reports_line(self, tmp_path):
        path = write(tmp_path / "b.csv", "text,empathy\nhi,1.0\nyo,oops\n")
        with pytest.raises(RowError, match="line 3"):
            load_corpus(path, "text", ["empathy"])

    def test_nonfinite_rating_rejected(self, tmp_path):
        path = write(tmp_path / "b.csv", "text,empathy\nhi,nan\n")
        with pytest.raises(RowError):
            load_corpus(path, "text", ["empathy"])

    def test_short_row_reports_line(self, tmp_path):
        path = write(tmp_path / "s.csv", "id,text,empathy\nd1,hi,1.0\nd2,yo\n")
        with pytest.raises(RowError, match="line 3: row has too few fields"):
            load_corpus(path, "text", ["empathy"], id_column="id")

    def test_non_utf8_reports_line_of_bad_bytes(self, tmp_path):
        # the bad bytes sit past the first decode chunk of the text reader
        rows = [f"word {i},{i}.0\n".encode() for i in range(2000)]
        rows[1500] = b"caf\xe9 au lait,1.0\n"
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"text,empathy\n" + b"".join(rows))
        with pytest.raises(RowError, match=r"line 1502: bytes are not valid UTF-8"):
            load_corpus(str(path), "text", ["empathy"])

    def test_malformed_csv_reports_line(self, tmp_path):
        # a field beyond the csv module's size limit is a csv.Error
        long_text = "word " * 40_000
        path = write(tmp_path / "l.csv", f"text,empathy\nhi,1.0\n{long_text},2.0\n")
        with pytest.raises(RowError, match="line 3: field larger than field limit"):
            load_corpus(path, "text", ["empathy"])

    def test_tsv_delimiter_inferred(self, tmp_path):
        path = write(tmp_path / "t.tsv", "text\tempathy\na sad story\t6.0\n")
        corpus = load_corpus(path, "text", ["empathy"])
        assert "sad" in corpus.vocab

    def test_delimiter_override(self, tmp_path):
        path = write(tmp_path / "t.weird", "text;empathy\na sad story;6.0\n")
        corpus = load_corpus(path, "text", ["empathy"], delimiter=";")
        assert "story" in corpus.vocab

    def test_row_index_ids_when_no_id_column(self, tmp_path):
        path = write(tmp_path / "t.csv", "text,empathy\nalpha one,1.0\nbeta two,2.0\n")
        corpus = load_corpus(path, "text", ["empathy"])
        assert [d.id for d in corpus.documents] == ["0", "1"]

    def test_min_df_filters_vocab_only(self, tmp_path):
        path = write(tmp_path / "t.csv", "text,empathy\na b,1.0\na c,2.0\n")
        corpus = load_corpus(path, "text", ["empathy"], min_df=2)
        assert sorted(corpus.vocab) == ["a"]
        assert corpus.documents[0].tokens == ("a", "b")


class TestCorpusInvariants:
    def test_document_term_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            corpus = random_corpus(rng, max_docs=40, max_vocab=60)
            corpus = build_corpus(
                corpus.documents, corpus.constructs, min_df=int(rng.integers(1, 4))
            )
            docs = corpus.documents
            for i, j in zip(corpus.entry_rows().tolist(), corpus.indices.tolist()):
                assert corpus.terms[j] in docs[i].tokens
            df = corpus.document_frequency
            assert ((1 <= df) & (df <= len(corpus))).all()
            # the same words, counts and order as one int() per word gives
            want = {t: int(d) for t, d in zip(corpus.terms, df) if d >= corpus.min_df}
            assert list(corpus.vocab.items()) == list(want.items())
            assert {type(d) for d in corpus.vocab.values()} <= {int}

    def test_build_corpus_rejects_mismatched_constructs(self):
        docs = [
            Document("a", ("x",), {"e": 1.0}),
            Document("b", ("y",), {"d": 1.0}),
        ]
        with pytest.raises(Exception, match="constructs"):
            build_corpus(docs, ["e"])


# constructs named out of alphabetical order; two documents share id "a", so
# their texts break the tie, and two share id and text, so their ratings do
RECORD_DOCS = [
    Document("b", ("hello", "world"), {"zeal": 1.5, "anger": -2.0}),
    Document("a", ("zz", "top"), {"zeal": 0.1, "anger": 3.0}),
    Document("a", ("aa", "top"), {"zeal": 2.0, "anger": 0.25}),
    Document("b", ("hello", "world"), {"zeal": 1.0, "anger": -1.0}),
]


class TestDocumentRecord:
    """The per-document record (id, text, ratings) that provenance hashes and
    the fold split sorts by."""

    def test_fingerprint_and_canonical_order_are_pinned(self):
        # literal values: a drift in either changes every .prov's corpus
        # fingerprint or every eval intrinsic fold split
        corpus = build_corpus(RECORD_DOCS, ["zeal", "anger"])
        assert corpus_fingerprint(corpus) == (
            "a4c126bd07f9875240a0ee05e7b4a7d79acfd60d5e2b3b265591ccb6bd2d0b75"
        )
        # ids first, then texts, then ratings in construct-name order: anger
        # puts document 0 (-2.0) before document 3 (-1.0), though zeal would not
        assert canonical_order(corpus) == [2, 1, 0, 3]

    def test_fields_hold_each_document_once(self):
        corpus = build_corpus(RECORD_DOCS, ["zeal", "anger"])
        assert corpus.ids == ("b", "a", "a", "b")
        assert corpus.texts == ("hello world", "zz top", "aa top", "hello world")
        assert corpus.ratings.dtype == np.float64
        np.testing.assert_array_equal(
            corpus.ratings, [[1.5, -2.0], [0.1, 3.0], [2.0, 0.25], [1.0, -1.0]]
        )

    def test_documents_view_rebuilds_the_input(self):
        corpus = build_corpus(RECORD_DOCS)
        assert corpus.documents == tuple(RECORD_DOCS)
        rows = [3, 0, 2, 2]
        assert corpus.select(rows).documents == tuple(RECORD_DOCS[i] for i in rows)
        rebuilt = build_corpus(corpus.documents, corpus.constructs)
        assert corpus_fingerprint(rebuilt) == corpus_fingerprint(corpus)

    def test_values_is_a_ratings_column(self):
        corpus = build_corpus(RECORD_DOCS, ["zeal", "anger"])
        np.testing.assert_array_equal(corpus.values("anger"), [-2.0, 3.0, 0.25, -1.0])
        np.testing.assert_array_equal(corpus.select([3, 1]).values("zeal"), [1.0, 0.1])

    def test_values_of_unknown_construct_is_data_error(self):
        corpus = build_corpus(RECORD_DOCS, ["zeal", "anger"])
        with pytest.raises(DataError, match="unknown construct 'joy'"):
            corpus.values("joy")


class TestGoldLexicon:
    def test_basic_load(self, tmp_path):
        path = write(tmp_path / "g.tsv", "word\tvalence\nsad\t2.10\nhappy\t8.47\n")
        gold = load_gold_lexicon(path, "word", ["valence"])
        assert gold.words == ("happy", "sad")
        assert gold.constructs == ("valence",)
        assert gold.ratings.dtype == np.float64
        assert gold.ratings.tolist() == [[8.47], [2.10]]

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes(b"\xef\xbb\xbfword\tvalence\nsad\t2.10\nhappy\t8.47\n")
        gold = load_gold_lexicon(path, "word", ["valence"])
        assert gold.words == ("happy", "sad")
        assert gold.ratings.tolist() == [[8.47], [2.10]]

    def test_header_only_is_empty(self, tmp_path):
        path = write(tmp_path / "g.tsv", "word\tvalence\n")
        with pytest.raises(EmptyCorpusError):
            load_gold_lexicon(path, "word", ["valence"])

    def test_duplicates_last_wins_and_counted(self, tmp_path):
        path = write(tmp_path / "g.tsv", "word\tv\nsad\t1.0\nsad\t3.0\n")
        gold = load_gold_lexicon(path, "word", ["v"])
        assert gold.words == ("sad",)
        assert gold.values("v").tolist() == [3.0]
        assert gold.provenance == {"rows_read": 2, "duplicates": 1}

    def test_words_lowercased(self, tmp_path):
        path = write(tmp_path / "g.tsv", "word\tv\nSAD\t1.0\nHappy\t2.0\nsad\t3.0\n")
        gold = load_gold_lexicon(path, "word", ["v"])
        assert gold.words == ("happy", "sad")
        assert gold.values("v").tolist() == [2.0, 3.0]
