"""Word-vector loading and centroids."""

import dataclasses
import hashlib
import mmap
import random
import shutil
from unittest import mock

import numpy as np
import pytest

from lexlearn import embeddings
from lexlearn.corpus import Document, build_corpus
from lexlearn.embeddings import centroid, centroids, load_embeddings
from lexlearn.errors import DataError, FormatError

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
        assert np.allclose(table.matrix(["apple"])[0], [1, 0, 0])

    def test_a_warm_full_load_maps_its_vectors(self, small_vec):
        # read from the cache entry without a copy into memory
        digest = hashlib.sha256(open(small_vec, "rb").read()).hexdigest()
        cold = load_embeddings(small_vec, digest=lambda: digest)
        warm = load_embeddings(small_vec, digest=lambda: digest)
        assert cold.vectors.flags.writeable and not warm.vectors.flags.writeable
        base = warm.vectors
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)
        assert (warm.words, warm.vectors.tobytes()) == (cold.words, cold.vectors.tobytes())

    def test_restrict_to(self, small_vec):
        table = load_embeddings(small_vec, restrict_to={"apple"})
        assert len(table) == 1
        assert "banana" not in table

    def test_no_header_file(self, tmp_path):
        path = tmp_path / "n.vec"
        path.write_text("apple 1 0 0\nbanana 0 1 0\n", encoding="utf-8")
        assert load_embeddings(str(path)).dim == 3

    @pytest.mark.parametrize("header", ["2 3\n", ""])
    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path, header):
        # a header read with the mark is a one-value record; a first word
        # read with it is not the word a restricted load keeps
        path = tmp_path / "bom.vec"
        path.write_bytes(b"\xef\xbb\xbf"
                         + f"{header}w0 1 0 0\nw1 0 1 0\n".encode("utf-8"))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        for restrict_to, key in [(None, None), ({"w0"}, None),
                                 ({"w0"}, lambda: digest), ({"w0"}, lambda: digest)]:
            table = load_embeddings(path, restrict_to, digest=key)
            assert table.words == (("w0", "w1") if restrict_to is None else ("w0",))
            assert table.skipped_lines == 0
            assert table.matrix(["w0"]).tolist() == [[1, 0, 0]]
        # the cold restricted load wrote the line index, which the warm one read
        assert len(list(embeddings._LINES.directory().iterdir())) == 1

    def test_oov_lookup_is_zero_vector(self, small_vec):
        table = load_embeddings(small_vec)
        vec = table.matrix(["zzzunknown"])[0]
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
        assert np.array_equal(table.matrix(["apple"])[0], [0, 0, 2])

    def test_matrix_rows_with_zero_rows_for_absent_words(self, small_vec):
        table = load_embeddings(small_vec)
        got = table.matrix(["banana", "zzz", "apple", "banana"])
        assert got.dtype == np.float32
        assert np.array_equal(got, [[0, 1, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert table.matrix([]).shape == (0, 3)


def reference_load(path, restrict_to=None):
    """The skip rule applied one line at a time: ``(words, float32 matrix,
    skipped)``, or FormatError.  Once the first valid record has fixed the
    dimension, a restricted load neither checks nor counts the lines of
    words it does not keep."""
    keep = set(restrict_to) if restrict_to is not None else None
    rows, dim, data_lines, skipped = {}, None, 0, 0
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line_no, line in enumerate(handle):
            parts = line.split()
            if not parts:
                continue
            if line_no == 0 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue
                except ValueError:
                    pass
            if dim is not None and keep is not None and parts[0] not in keep:
                continue  # past the first record an unkept line is not read
            data_lines += 1
            if len(parts) < 2 or (dim is not None and len(parts) != dim + 1):
                skipped += 1
                continue
            try:
                with np.errstate(over="ignore"):
                    values = np.array(parts[1:], dtype=np.float32)
            except ValueError:
                skipped += 1
                continue
            if not np.isfinite(values).all():
                skipped += 1
                continue
            dim = len(values)
            if keep is None or parts[0] in keep:
                rows.setdefault(parts[0], []).append(values)
    if data_lines == 0:
        raise FormatError(f"{path}: no vector records found")
    if skipped > 0.01 * data_lines:
        raise FormatError(
            f"{path}: {skipped} of {data_lines} lines skipped (wrong arity or "
            f"unparsable values), over the 1% budget"
        )
    if not rows:
        raise FormatError(f"{path}: no embedding vectors loaded")
    return tuple(rows), np.array([v[-1] for v in rows.values()]), skipped


# tokens the skip rule rejects: non-finite once parsed (float32 range), or
# refused by one parser or both
BAD_TOKENS = ["nan", "-inf", "Infinity", "1e40", "-3.5e39", "1_0", "x", "١",
              "1e", "0x10", "1,5", "--1"]


def random_vec_file(rng, path, lines, dim, bad_share):
    """A ``.vec`` file of ``lines`` lines in the formats found in the wild,
    with a ``bad_share`` of lines the skip rule rejects; ``rng`` is a
    ``random.Random``.  Returns the word pool."""
    pool = [f"w{i}" for i in range(lines // 3)] + ["café", "дом", "a�b"]
    formats = [
        lambda v: repr(float(v)),
        lambda v: f"{v:.4f}",
        lambda v: f"{v:.3e}",
        # just past a float32 rounding midpoint
        lambda v: f"{(float(v) + float(np.nextafter(v, np.float32(9)))) / 2:.25e}1",
        lambda v: str(int(v * 3)),
    ]
    out = [f"{lines} {dim}"] if rng.random() < 0.5 else []
    for _ in range(lines):
        if rng.random() < 0.03:
            out.append(rng.choice(["", "   ", "\t"]))  # blank
            continue
        word = rng.choice(pool)
        fmt = rng.choice(formats)
        vals = [fmt(np.float32(rng.gauss(0, 1))) for _ in range(dim)]
        if rng.random() < bad_share:
            kind = rng.randrange(4)
            if kind == 0:
                vals[rng.randrange(dim)] = rng.choice(BAD_TOKENS)
            elif kind == 1:
                vals = vals[: rng.randrange(dim)]  # short, maybe a lone word
            elif kind == 2:
                vals.append("0.5")  # long
            else:
                word, vals = "5", [str(dim)]  # a header-like line past line 0
        sep = rng.choice([" ", " ", "\t", "  "])
        out.append(word + sep + sep.join(vals) + rng.choice(["", "", " ", "\t"]))
    path.write_bytes("".join(
        line + rng.choice(["\n", "\r\n"]) for line in out).encode("utf-8"))
    return pool


class TestLoaderMatchesPerLineRule:
    """The block loader returns the per-line reference's table, skipped count
    and error text, on files that cross block boundaries; a full load does
    so also cold (the cache entry is written) and warm (it is read)."""

    @staticmethod
    def assert_same(path, restrict_to):
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        entry = embeddings._CACHE.directory() / f"{len(data)}-{digest}"
        shutil.rmtree(entry, ignore_errors=True)
        # uncached, then for a full load cold and warm: whether each parses
        loads = [(None, True)] + ([(lambda: digest, True), (lambda: digest, False)]
                                  if restrict_to is None else [])
        try:
            want = reference_load(path, restrict_to)
        except FormatError as exc:
            for key, _ in loads:
                with pytest.raises(FormatError) as got:
                    load_embeddings(path, restrict_to, digest=key)
                assert str(got.value) == str(exc)
            assert not entry.exists()
            return
        for key, parses in loads:
            with mock.patch.object(embeddings, "_parse", wraps=embeddings._parse) as parse:
                table = load_embeddings(path, restrict_to, digest=key)
            assert parse.called == parses
            assert entry.exists() == (key is not None)
            assert table.words == want[0]
            assert table.vectors.dtype == np.float32
            assert table.vectors.tobytes() == want[1].tobytes()
            assert table.skipped_lines == want[2]

    @pytest.mark.parametrize("block,seed", [
        *((None, seed) for seed in range(4)), *((5, seed) for seed in range(12)),
    ])
    def test_random_files(self, tmp_path, monkeypatch, block, seed):
        if block is not None:
            monkeypatch.setattr(embeddings, "_BLOCK_LINES", block)
        rng = random.Random(seed)
        lines = max(2 * embeddings._BLOCK_LINES, 1000) + rng.randrange(1, 300)
        bad_share = [0.0, 0.003, 0.008, 0.05][seed % 4]
        path = tmp_path / "v.vec"
        pool = random_vec_file(rng, path, lines, rng.randrange(1, 6), bad_share)
        self.assert_same(path, None)
        self.assert_same(path, set(rng.sample(pool, len(pool) // 4)))
        self.assert_same(path, {"absent"})

    def test_clean_blocks_take_the_c_reader(self, tmp_path, monkeypatch):
        # only the lines up to the first record are checked one at a time
        calls = []
        check = embeddings._check_lines
        monkeypatch.setattr(embeddings, "_check_lines",
                            lambda lines, dim: calls.append(dim) or check(lines, dim))
        path = tmp_path / "v.vec"
        random_vec_file(random.Random(0), path, 3 * embeddings._BLOCK_LINES, 4, 0.0)
        assert len(load_embeddings(path)) > 0
        assert calls == [None]

    def test_a_rejected_block_checks_only_the_segment_it_rejects(self, tmp_path,
                                                                 monkeypatch):
        # np.loadtxt refuses 1_0, which Python's float reads as 10: the
        # block is halved down to a segment of _CHECK_LINES lines holding
        # that line, and only that segment is checked line by line
        checked = []
        check = embeddings._check_lines
        monkeypatch.setattr(embeddings, "_check_lines", lambda lines, dim: check(
            map(lambda line: checked.append(line) or line, lines), dim))
        lines = [f"w{i} {i} 0.5" for i in range(3 * embeddings._BLOCK_LINES)]
        lines[1500] = "w1500 1_0 0.5"
        path = tmp_path / "v.vec"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = load_embeddings(path)
        segment = [f"{line}\n" for line in lines]
        start = segment.index(checked[1])
        assert checked[0] == "w0 0 0.5\n"  # the line that fixes dim
        assert checked[1:] == segment[start:start + embeddings._CHECK_LINES]
        assert "w1500 1_0 0.5\n" in checked
        assert len(table) == len(lines) and table.skipped_lines == 0
        assert np.array_equal(table.matrix(["w1500"])[0], [10, 0.5])
        self.assert_same(path, None)

    @pytest.mark.parametrize("text", [
        "\n\n",
        "3 2\n",
        "x 1_0 2\na 1 2\n" + "b 3 4\n" * 150,
        "a 1\n" + "b 1 2\n" * 150,
        "a 1 nan\n" + "b 1 2\n" * 150,
        "lone\n" + "b 1 2\n" * 150,
        "4 2\r\n\r\nw 1 2\r\n" + "v 1 1e40\r\nu 3 4\r\n" * 3,
        "a 1 2\rb 3 4\r" + "u 5 6\r" * 150,
        "a 1 2\n" + "b\u00a01 2\nu 1\u00a02\n" * 80,
        "a 1 2\n" + "b\u30001 2\nu 1\u30002\n" * 80,
        "a 1 2\n" + "b\x1c1 2\nu 1\x1c2\n" * 80,
        b"a 1 2\n" + b"caf\xe9 1 2\n" + b"b 3 4\n" * 150,
        "a 1 2\nb 3 4\nu 5 6\nb 7 8\na 9 0\n" + "u 1 2\n" * 150,
        "a 1 2\n" + "b 1 x\n" * 2 + "u 3 4\n" * 150,
    ], ids=["blank", "header-only", "first-line-bad", "first-record-sets-dim",
            "first-line-nan", "first-line-lone-word", "crlf-overflow",
            "lone-cr", "no-break-space", "ideographic-space", "file-separator",
            "invalid-utf8-word", "repeated-word", "over-budget"])
    def test_edge_files(self, tmp_path, text):
        path = tmp_path / "e.vec"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        self.assert_same(path, None)
        self.assert_same(path, {"b", "u"})


class TestRestrictedLoad:
    """Past the first record, a restricted load reads only the kept words'
    lines: the others are neither parsed nor counted."""

    @staticmethod
    def write(tmp_path, lines):
        path = tmp_path / "r.vec"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_bad_unkept_lines_are_not_counted(self, tmp_path):
        # 10 bad lines in 62: a full load is over the budget
        path = self.write(tmp_path, ["a 1 2 3", *(f"u{i} 0 1 2" for i in range(50)),
                                     *(["x 1 2", "y 1 nan", "lone"] * 3), "z 1 x 3",
                                     "b 4 5 6"])
        with pytest.raises(FormatError, match="10 of 62 lines skipped"):
            load_embeddings(path)
        table = load_embeddings(path, {"a", "b"})
        assert table.words == ("a", "b")
        assert table.skipped_lines == 0

    def test_bad_kept_lines_still_count(self, tmp_path):
        unkept = [f"u{i} 0 1 2" for i in range(300)]
        # one bad line in 102 kept ones is within the budget
        path = self.write(tmp_path, [*(f"k{i} 1 2 3" for i in range(101)), *unkept,
                                     "k7 1 2"])
        table = load_embeddings(path, {f"k{i}" for i in range(101)})
        assert len(table) == 101 and table.skipped_lines == 1
        # a lone word, wrong arity, a value that does not parse, a non-finite
        # value: 4 of 5 kept lines
        path = self.write(tmp_path, ["a 1 2 3", *unkept, "b", "c 1 2", "d 1 x 3",
                                     "e 1 inf 3"])
        with pytest.raises(FormatError) as got:
            load_embeddings(path, {"a", "b", "c", "d", "e"})
        assert str(got.value) == (
            f"{path}: 4 of 5 lines skipped (wrong arity or unparsable values), "
            f"over the 1% budget")

    def test_first_record_of_an_unkept_word_fixes_dim(self, tmp_path):
        # z fixes dim 3, so "a 1 2" is a wrong-arity line, counted with z's
        path = self.write(tmp_path, ["z 1 2 3", "a 1 2", *(["a 4 5 6"] * 120)])
        table = load_embeddings(path, {"a"})
        assert table.words == ("a",) and table.dim == 3
        assert np.array_equal(table.matrix(["a"])[0], [4, 5, 6])
        assert table.skipped_lines == 1

    def test_only_kept_values_reach_the_c_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_BLOCK_LINES", 5)
        lines = [f"w{i} {i} {i + 0.5} -{i}" for i in range(30)]
        path = self.write(tmp_path, lines)
        parsed = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda rows, *args, **kwargs: (
            parsed.extend(rows) or loadtxt(rows, *args, **kwargs)))
        keep = {"w3", "w4", "w17", "w29"}
        table = load_embeddings(path, keep)
        # w0, the first record, is checked on its own
        assert [row.rstrip("\n") for row in parsed] == [
            line.split(None, 1)[1] for line in lines if line.split()[0] in keep]
        assert table.words == ("w3", "w4", "w17", "w29")
        assert np.array_equal(table.matrix(["w17"])[0], [17, 17.5, -17])


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
        vec = table.matrix(["apple"])[0]
        vec[:] = 99.0  # matrix returns a copy
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
