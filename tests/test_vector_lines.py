"""Restricted word-vector loads served from the line index in the parse cache.

A restricted load of a regular file with a digest writes the file's line
index (``vector-lines/``) as it scans, and a later restricted load of the
same bytes, whatever its kept words, reads only the lines it keeps and
stores their rows in the index, so that no later load reads or parses them
again.  The table, ``skipped_lines`` and every ``FormatError`` text are
those of the uncached parse, on the uncached, cold and warm paths and from
stored rows.
"""

import hashlib
import io
import os
import shutil
import threading
import zlib
from unittest import mock

import numpy as np
import pytest

from lexlearn import cli, embeddings
from lexlearn._files import DigestMemo
from lexlearn.embeddings import load_embeddings
from lexlearn.errors import FormatError

from _worlds import damage, entry_damages

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402


def outcome(load):
    """``(words, vector bytes, skipped)`` of a load, or its FormatError text."""
    try:
        table = load()
    except FormatError as exc:
        return str(exc)
    assert table.vectors.dtype == np.float32
    return table.words, table.vectors.tobytes(), table.skipped_lines


def digest_of(path):
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    return lambda: sha


def entries():
    folder = embeddings._LINES.directory()
    return sorted(folder.iterdir()) if folder.exists() else []


def no_scan(*args):
    raise AssertionError("a warm restricted load scanned the file")


def no_parse(*args):
    raise AssertionError("a load parsed a line whose row is stored")


def indexable(data: bytes) -> bool:
    """Whether a scan can count the file's lines exactly in bytes."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return "\r" not in text and "\ufffd" not in text


WORDS = ["a", "b", "c", "é", "дом", "日本", "3"]
SEPARATORS = [" ", " ", "\t", "\xa0", "\x1c", "　"]
VALUES = ["0.5", "-1", "2e3", "7", "nan", "1e40", "x", "1_0", "-inf"]


@st.composite
def vec_files(draw):
    """The bytes of a small ``.vec`` file in the shapes found in the wild,
    and malformed ones: a header or none, blank lines, wrong arity, bad
    values, repeated and non-ASCII words, Unicode whitespace, CRLF or bare
    CR line ends, a byte order mark and invalid UTF-8.  A run of 150 valid
    records puts a few bad lines within the 1% budget."""
    dim = draw(st.integers(1, 3))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from([f"9 {dim}", "9 x", "2"])))
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["record"] * 8 + ["blank", "arity", "lone", "run"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\x1c"])))
            continue
        word = draw(st.sampled_from(WORDS))
        if kind == "run":
            lines += [f"{word} " + " ".join(["0.25"] * dim)] * 150
            continue
        size = {"record": dim, "arity": draw(st.integers(1, dim + 2)), "lone": 0}[kind]
        cells = [draw(st.sampled_from(VALUES[:4] if draw(st.integers(0, 9)) else VALUES))
                 for _ in range(size)]
        sep = draw(st.sampled_from(SEPARATORS))
        lines.append(sep.join([word, *cells]) + draw(st.sampled_from(["", "", " "])))
    ends = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "mixed"]))
    text = "".join(
        line + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends)
        for line in lines)
    if lines and draw(st.booleans()):
        text = text[:-1] if ends != "\r\n" else text[:-2]  # no final line end
    data = text.encode("utf-8")
    if data and draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        # one byte, or the first three of a four-byte sequence: one
        # replacement character each, of three bytes
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xf0\x9f\x98"])) + data[cut:]
    if draw(st.integers(0, 3)) == 0:
        data = b"\xef\xbb\xbf" + data
    return data


# "\ud800", a lone surrogate, is no word of a decoded file
KEEPS = st.sets(st.sampled_from(WORDS + ["zz", "", "\ud800"]), min_size=1, max_size=5)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(vec_files(), KEEPS, KEEPS, st.sampled_from([None, 1, 3]))
def test_restricted_loads_match_the_uncached_parse(tmp_path_factory, data, keep,
                                                   other, keys):
    path = tmp_path_factory.mktemp("vec") / "v.vec"
    path.write_bytes(data)
    shutil.rmtree(embeddings._LINES.directory(), ignore_errors=True)
    want = {frozenset(k): outcome(lambda: embeddings._parse(path, k))
            for k in (keep, other, keep | other)}
    digest = digest_of(path)
    # the index keys words by their crc32, or, so that words collide, by it
    # modulo 1 or 3; a line of a kept word's key holding another word is
    # left out
    key = embeddings._key if keys is None else (lambda word: zlib.crc32(word) % keys)
    with mock.patch.object(embeddings, "_key", key):
        loads_match(path, data, keep, other, want, digest)


def loads_match(path, data, keep, other, want, digest):
    assert outcome(lambda: load_embeddings(path, keep)) == want[frozenset(keep)]
    assert entries() == []
    # cold: the scan writes the index, when its byte counts are exact
    assert outcome(lambda: load_embeddings(path, keep, digest=digest)) == \
        want[frozenset(keep)]
    assert len(entries()) == indexable(data)
    if not entries():
        return
    # warm, for the kept words of the scan and for others: no scan
    with mock.patch.object(embeddings, "_parse", no_scan):
        for k in (keep, other):
            assert outcome(lambda: load_embeddings(path, k, digest=digest)) == \
                want[frozenset(k)]
    assert len(entries()) == 1
    # those loads stored the rows of the lines they parsed: each kept line is
    # served from them, and none is parsed again
    with mock.patch.object(embeddings, "_parse", no_scan), \
            mock.patch.object(embeddings, "_parse_records", no_parse):
        for k in (keep, other, keep | other):
            assert outcome(lambda: load_embeddings(path, k, digest=digest)) == \
                want[frozenset(k)]


@pytest.fixture
def vec(tmp_path):
    path = tmp_path / "v.vec"
    path.write_text("4 2\n" + "".join(f"w{i} {i} 0.5\n" for i in range(60))
                    + "\nshort 1\nw3 7 8\n", encoding="utf-8")
    return path


KEEP = {"w3", "w10", "w59", "absent"}


def test_warm_load_reads_only_the_first_record_and_the_kept_lines(vec, monkeypatch):
    want = outcome(lambda: embeddings._parse(vec, KEEP))
    assert want[0] == ("w3", "w10", "w59") and want[2] == 0
    digest = digest_of(vec)
    assert outcome(lambda: load_embeddings(vec, KEEP, digest=digest)) == want
    (entry,) = entries()
    assert entry.name.startswith(f"{vec.stat().st_size}-")
    reads = []
    real_open = open

    class Handle:
        def __init__(self, handle):
            self.handle = handle

        def __getattr__(self, name):
            return getattr(self.handle, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def read(self, size):
            reads.append(size)
            return self.handle.read(size)

    monkeypatch.setattr(embeddings, "_parse", no_scan)
    monkeypatch.setattr("builtins.open",
                        lambda *a, **k: Handle(real_open(*a, **k)) if a[0] == vec
                        else real_open(*a, **k))
    assert outcome(lambda: load_embeddings(vec, KEEP, digest=digest)) == want
    # the header and first record, then the lines of w3, w10, w59 and w3
    assert reads[0] == len("4 2\nw0 0 0.5\n")
    assert len(reads) == 5 and sum(reads) < vec.stat().st_size // 5


def test_a_load_of_stored_rows_reads_only_the_first_record(vec, monkeypatch):
    want = outcome(lambda: embeddings._parse(vec, KEEP))
    digest = digest_of(vec)
    for _ in range(2):  # a scan, then a load that stores the kept rows
        assert outcome(lambda: load_embeddings(vec, KEEP, digest=digest)) == want
    reads = []

    class Reader(io.BufferedReader):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    monkeypatch.setattr(embeddings, "_parse", no_scan)
    monkeypatch.setattr(embeddings, "_parse_records", no_parse)
    # _served opens the file by the name open, which this global shadows
    monkeypatch.setattr(embeddings, "open", lambda path, mode: Reader(io.FileIO(path)),
                        raising=False)
    assert outcome(lambda: load_embeddings(vec, KEEP, digest=digest)) == want
    assert reads == [len("4 2\nw0 0 0.5\n")]


def test_a_load_of_stored_rows_keys_each_kept_word_once(tmp_path):
    # whatever the number of lines indexed: no word of the index is looked at
    # but those of the kept words' keys
    path = tmp_path / "big.vec"
    path.write_text("".join(f"w{i} {i} 1\n" for i in range(20_000)), encoding="utf-8")
    keep = {f"w{i}" for i in range(0, 20_000, 97)} | {"absent", "日本"}
    want = outcome(lambda: embeddings._parse(path, keep))
    digest = digest_of(path)
    for _ in range(2):  # a scan, then a load that stores the kept rows
        assert outcome(lambda: load_embeddings(path, keep, digest=digest)) == want
    keyed = []

    def key(word):
        keyed.append(word)
        return zlib.crc32(word)

    with mock.patch.object(embeddings, "_key", key), \
            mock.patch.object(embeddings, "_parse", no_scan), \
            mock.patch.object(embeddings, "_parse_records", no_parse):
        assert outcome(lambda: load_embeddings(path, keep, digest=digest)) == want
    assert sorted(keyed) == sorted(word.encode("utf-8") for word in keep)


def test_a_fifo_is_scanned_and_writes_no_index(vec, tmp_path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs here")
    want = outcome(lambda: embeddings._parse(vec, KEEP))
    fifo = tmp_path / "fifo.vec"
    os.mkfifo(fifo)
    data = vec.read_bytes()

    def feed():
        with open(fifo, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = outcome(lambda: load_embeddings(
            fifo, KEEP, digest=lambda: hashlib.sha256(data).hexdigest()))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == want
    assert entries() == []


def test_an_index_of_other_bytes_is_a_miss(vec, tmp_path):
    other = tmp_path / "other.vec"
    digest = digest_of(vec)
    load_embeddings(vec, KEEP, digest=digest)
    (entry,) = entries()
    index = embeddings._LINES.read(entry, digest())
    # the same size, the kept lines at other offsets
    other.write_text(vec.read_text(encoding="utf-8").replace("w1 1 0.5\n", "w1 1 0.5")
                     .replace("w50 50 0.5\n", "w50 50 0.5\n\n"), encoding="utf-8")
    assert other.stat().st_size == vec.stat().st_size
    assert embeddings._served(other, KEEP, index) is None
    # another size
    other.write_bytes(vec.read_bytes() + b"\n")
    assert embeddings._served(other, KEEP, index) is None
    # the same spans and words, another separator: served
    other.write_text(vec.read_text(encoding="utf-8").replace("w10 ", "w10\t"),
                     encoding="utf-8")
    assert embeddings._served(other, KEEP, index) is not None
    # a kept word's span holds another word: a miss, and the load scans
    other.write_text(vec.read_text(encoding="utf-8").replace("w10 ", "x10 "),
                     encoding="utf-8")
    assert embeddings._served(other, KEEP, index) is None
    assert outcome(lambda: load_embeddings(other, KEEP, digest=digest)) == \
        outcome(lambda: embeddings._parse(other, KEEP))


def test_a_rewritten_vec_is_not_served_stale_spans(vec, digest_memo):
    # rewritten in place at the same size with its modification time put
    # back: an unkept word becomes a kept one, so stale spans would miss it

    def digest():
        """The digest that the command line takes: from the digest memo,
        or hashed and kept in it."""
        return DigestMemo(vec).sha256(cli._file_sha256)

    first = outcome(lambda: load_embeddings(vec, KEEP, digest=digest))
    old = vec.stat()
    vec.write_text(vec.read_text(encoding="utf-8").replace("w55 ", "w10 "),
                   encoding="utf-8")
    os.utime(vec, ns=(old.st_atime_ns, old.st_mtime_ns))
    assert vec.stat().st_size == old.st_size
    second = outcome(lambda: load_embeddings(vec, KEEP, digest=digest))
    assert second == outcome(lambda: embeddings._parse(vec, KEEP)) != first
    assert len(entries()) == 2


def stored(entry, name):
    """The value of an entry's ``<name>.npy``, in memory."""
    return np.load(entry / f"{name}.npy", allow_pickle=False)


def rewrite(entry, **fields):
    """Rewrite an entry's ``rows.npy`` with ``fields`` changed, and the
    records' crcs as they were."""
    value = stored(entry, "rows")
    arrays = {field: value[field] for field in value.dtype.names}
    arrays.update(fields)
    out = np.zeros((), [(field, a.dtype, a.shape) for field, a in arrays.items()])
    for field, a in arrays.items():
        out[field] = a
    np.save(entry / "rows.npy", out)


def flip(entry, field, subfield=None):
    """Flip the lowest bit of the first byte of ``field`` in an entry's
    ``rows.npy``, or of ``subfield`` of its second record (a valid record's
    1 becomes 0)."""
    path = entry / "rows.npy"
    data = bytearray(path.read_bytes())
    layout = stored(entry, "rows").dtype
    kind, at = layout.fields[field][:2]
    if subfield is not None:
        record = kind.base
        kind, inner = record.fields[subfield][:2]
        at += record.itemsize + inner
    at += len(data) - layout.itemsize
    data[at] ^= 0x01
    path.write_bytes(bytes(data))


INDEX_FILES = ["crc32", "keys.npy", "meta.npy", "order.npy", "spans.npy", "words.npy"]
DAMAGES = entry_damages(INDEX_FILES, every=("truncated", "garbage", "missing"))
RECORD_FIELDS = ["crc", "valid", "line", "row"]
# damage to the rows a load stores: each damaged record, or the rows file
# when it does not hold records of the first record's dimension, counts as
# none stored, and its lines are parsed again; the index stays
ROWS_DAMAGE = ["ordinals-out-of-order", "ordinal-past-index", "valid-length",
               "rows-float64", "rows-fewer", "rows-flat", "rows-other-dim",
               "rows-non-finite", "rows-truncated", "rows-missing", "rows-empty",
               "rows-flipped-lines", *(f"rows-flipped-{f}" for f in RECORD_FIELDS)]
# beside an entry: left alone, never read
BESIDE = ["leftover-temporary"]


@pytest.mark.parametrize("how", [
    *DAMAGES,
    "span-past-eof", "spans-out-of-order", "fewer-words", "more-spans",
    "float-spans", "int32-spans", "size-dtype", "start-past-size",
    "words-not-utf8", "version-shape", "extra-array", "header-dtype",
    "old-layout", *ROWS_DAMAGE, *BESIDE,
])
def test_a_damaged_entry_is_a_miss_and_rewritten(vec, how):
    want = outcome(lambda: embeddings._parse(vec, KEEP))
    digest = digest_of(vec)
    load_embeddings(vec, KEEP, digest=digest)
    if how in ROWS_DAMAGE:  # a second load stores the kept lines' rows
        load_embeddings(vec, KEEP, digest=digest)
    (entry,) = entries()
    files = sorted(INDEX_FILES + ["rows.npy"] if how in ROWS_DAMAGE else INDEX_FILES)
    assert sorted(p.name for p in entry.iterdir()) == files
    written = {name: (entry / name).read_bytes() for name in INDEX_FILES}
    spans, words, meta = (stored(entry, name) for name in ("spans", "words", "meta"))
    if how in ROWS_DAMAGE:
        rows = stored(entry, "rows")
        lines, records = rows["lines"], rows["records"]
        assert len(records) == 4
    size = vec.stat().st_size
    if how in DAMAGES:
        kind, names = DAMAGES[how]
        for name in names:
            damage(entry / name, kind)
    elif how == "span-past-eof":
        spans[-1, 1] = size + 5
        np.save(entry / "spans.npy", spans)
    elif how == "spans-out-of-order":
        np.save(entry / "spans.npy", spans[::-1])
    elif how == "fewer-words":
        np.save(entry / "words.npy", words[:-4])
    elif how == "more-spans":
        np.save(entry / "spans.npy", np.vstack([spans, [size, size, len(words)]]))
    elif how == "float-spans":
        np.save(entry / "spans.npy", spans.astype(np.float64))
    elif how == "int32-spans":
        np.save(entry / "spans.npy", spans.astype(np.int32))
    elif how == "size-dtype":
        np.save(entry / "meta.npy", meta.astype(np.float64))
    elif how == "start-past-size":
        np.save(entry / "meta.npy", np.array([size, size + 1]))
    elif how == "words-not-utf8":
        np.save(entry / "words.npy", np.full_like(words, 0xFF))
    elif how == "version-shape":  # the checksum in another shape
        (entry / "crc32").write_bytes(written["crc32"] * 2)
    elif how == "extra-array":
        np.save(entry / "extra.npy", meta)
    elif how == "header-dtype":  # the keys read as signed
        (entry / "keys.npy").write_bytes(
            written["keys.npy"].replace(b"'<u4'", b"'<i4'", 1))
    elif how == "old-layout":
        # the entry that the previous version wrote: one structured value
        # with a trailing crc32, and the zipped one of the version before
        # it beside, which the rewrite removes
        for name in INDEX_FILES:
            (entry / name).unlink()
        old = np.zeros((), [("meta", "<i8", 2), ("spans", "<i8", spans.shape),
                            ("words", "u1", words.shape), ("crc32", "<u4")])
        old["meta"], old["spans"], old["words"] = meta, spans, words
        np.save(entry / "index.npy", old)
        np.savez(entry.with_name(entry.name + ".npz"), format_version=np.int64(2),
                 starts=spans[:, 0], ends=spans[:, 1], words=words)
    elif how == "ordinals-out-of-order":
        rewrite(entry, lines=lines[::-1], records=records[::-1])
    elif how == "ordinal-past-index":
        records["line"][-1] = lines[-1] = len(spans)
        rewrite(entry, lines=lines, records=records)
    elif how == "valid-length":  # more lines than records
        rewrite(entry, lines=np.append(lines, len(spans)))
    elif how == "rows-float64":
        wide = np.zeros(len(records), [(f, np.float64 if f == "row" else records.dtype[f],
                                        records.dtype[f].shape) for f in RECORD_FIELDS])
        for f in RECORD_FIELDS:
            wide[f] = records[f]
        rewrite(entry, records=wide)
    elif how == "rows-fewer":
        rewrite(entry, lines=lines[:-1], records=records[:-1])
    elif how == "rows-flat":
        np.save(entry / "rows.npy", records["row"].ravel())
    elif how == "rows-other-dim":
        np.save(entry / "rows.npy", embeddings._grown(
            None, lines, records["valid"], np.hstack([records["row"]] * 2)))
    elif how == "rows-non-finite":
        records["row"][1, 0] = np.inf
        rewrite(entry, records=records)
    elif how == "rows-truncated":
        data = (entry / "rows.npy").read_bytes()
        (entry / "rows.npy").write_bytes(data[:len(data) - 10])
    elif how == "rows-missing":
        (entry / "rows.npy").unlink()
    elif how == "rows-empty":  # an entry with no stored rows
        empty = np.empty(0, np.int64)
        np.save(entry / "rows.npy", embeddings._grown(
            None, empty, empty.astype(bool), np.empty((0, 2), np.float32)))
    elif how == "rows-flipped-lines":
        flip(entry, "lines")
    elif how.startswith("rows-flipped-"):
        flip(entry, "records", how.removeprefix("rows-flipped-"))
    else:  # a leftover temporary directory, of a write that never ended
        beside = entry.with_name(f".{entry.name}.0123456789ab.tmp")
        beside.mkdir()
        (beside / "keys.npy").write_bytes(written["keys.npy"][:100])
    rescan = how not in ROWS_DAMAGE + BESIDE
    assert (embeddings._LINES.read(entry, digest()) is None) == rescan
    with mock.patch.object(embeddings, "_parse", wraps=embeddings._parse) as parse:
        assert outcome(lambda: load_embeddings(vec, KEEP, digest=digest)) == want
    assert parse.called == rescan
    # rewritten: by the scan, with no rows, or by a load that parsed the
    # kept lines again; either serves the next load
    index = embeddings._LINES.read(entry, digest())
    assert (index.rows is None) == rescan
    assert {name: (entry / name).read_bytes() for name in INDEX_FILES} == written
    if not rescan:  # the lines of w3, w10, w59 and w3, after w0's
        records = embeddings._stored_rows(index.rows, 2)[1]
        assert {2, 9, 58, 60} <= set(records["line"].tolist())
    with mock.patch.object(embeddings, "_parse", no_scan):
        assert outcome(lambda: load_embeddings(vec, KEEP, digest=digest)) == want
    with mock.patch.object(embeddings, "_parse", no_scan), \
            mock.patch.object(embeddings, "_parse_records", no_parse):
        assert outcome(lambda: load_embeddings(vec, KEEP, digest=digest)) == want
    assert entries() == sorted([entry, beside] if how in BESIDE else [entry])
    assert sorted(p.name for p in entry.iterdir()) == sorted(INDEX_FILES + ["rows.npy"])


def test_rows_past_the_size_of_one_value_are_not_stored(vec):
    # numpy refuses a value of more than 2 GiB, about 1.7M stored 300-d rows
    want = outcome(lambda: embeddings._parse(vec, KEEP))
    digest = digest_of(vec)
    load_embeddings(vec, KEEP, digest=digest)
    too_large = ValueError("dtype size in bytes must fit into a C int")
    with mock.patch.object(embeddings, "_rows_layout", side_effect=too_large):
        for _ in range(2):
            assert outcome(lambda: load_embeddings(vec, KEEP, digest=digest)) == want
    (entry,) = entries()
    assert not (entry / "rows.npy").exists()
    assert outcome(lambda: load_embeddings(vec, KEEP, digest=digest)) == want
    assert (entry / "rows.npy").exists()


def test_a_file_that_changes_size_while_it_is_scanned_writes_no_index(
        vec, monkeypatch):
    data = vec.read_bytes()
    parse_block = embeddings._parse_block

    def shrink(*args):
        # the small file has been read whole by now
        vec.write_bytes(data[:-len("w3 7 8\n")])
        return parse_block(*args)

    monkeypatch.setattr(embeddings, "_parse_block", shrink)
    got = outcome(lambda: load_embeddings(
        vec, KEEP, digest=lambda: hashlib.sha256(data).hexdigest()))
    vec.write_bytes(data)
    assert got == outcome(lambda: embeddings._parse(vec, KEEP))
    assert entries() == []
