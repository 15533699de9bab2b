"""Pre-trained word-vector loading and document centroids.

The file format is the common ``.vec`` text convention: an optional first
line ``count dim`` (two integers), then one record per line, ``word f1 ...
fdim``.  Vectors are stored at 32-bit precision, as the rows of one matrix;
centroid accumulation runs at 64-bit.  Tables are read-only after loading
and safe to share across threads.
"""

from __future__ import annotations

import codecs
import os
import stat
import zlib
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._files import ParseCache
from .errors import DataError, FormatError

__all__ = ["EmbeddingTable", "load_embeddings", "centroid", "centroids"]


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Word -> fixed-dimension vector map with zero-vector fallback.

    ``vectors`` is one float32 (len(words), dim) matrix, row i for words[i].
    An absent word gets the zero vector from :meth:`matrix`; it is never an
    error.
    """

    words: tuple[str, ...]
    vectors: np.ndarray
    skipped_lines: int = 0

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def rows(self) -> dict[str, int]:
        return dict(zip(self.words, range(len(self.words))))

    def __contains__(self, word: str) -> bool:
        return word in self.rows

    def __len__(self) -> int:
        return len(self.words)

    def matrix(self, words: Sequence[str]) -> np.ndarray:
        """(len(words), dim) float32 rows for ``words``; absent words get zeros."""
        index = np.fromiter(map(self.rows.get, words, repeat(-1)), np.intp, len(words))
        out = self.vectors[index]
        out[index < 0] = 0.0
        return out


_BLOCK_LINES = 1024  # lines whose values one np.loadtxt call parses
# records of a rejected block that the per-line rule checks at once, rather
# than halving them further: a call of np.loadtxt costs as much as checking
# about this many lines
_CHECK_LINES = 32


def load_embeddings(
    path: str | Path, restrict_to: Iterable[str] | None = None, *,
    digest: Callable[[], str | None] | None = None,
) -> EmbeddingTable:
    """Load a text word-vector file (UTF-8, with or without a byte order
    mark).

    Lines with the wrong number of fields or unparsable or non-finite values
    are skipped and counted; more than 1% skipped lines is treated as a
    broken file.  A repeated word keeps its first row and takes its last
    vector.  ``restrict_to`` keeps only the named words.

    Every line up to and including the first valid record is checked and
    counted, whatever its word; that record fixes the dimension.  After it,
    a line whose word ``restrict_to`` does not keep is neither parsed nor
    counted, so the skips and the 1% budget are those of the kept lines.
    The values of each block's kept lines are parsed by one call of numpy's
    C reader (``np.loadtxt``); a block it rejects is split in halves, each
    given back to it, down to segments of a few lines, which are checked
    line by line under the same skip rules, so the table and the counts do
    not depend on the path taken.  A value beyond the float32 range reads as
    infinite, so its line is skipped, with no overflow warning.

    ``digest`` returns the sha256 hex digest of the file's bytes (None for
    none).  Given it, a load of a regular file uses the cache entry of that
    digest under ``$XDG_CACHE_HOME/lexlearn`` (see
    :class:`~lexlearn._files.ParseCache`), and writes one after a parse.
    A full load (no ``restrict_to``) maps its table from ``vectors/``: its
    ``vectors`` are then a read-only memory map of the entry.  A
    restricted load maps the file's line index from ``vector-lines/``: the
    byte span and word of every line after the first valid record, whatever
    the kept words, the words' keys, sorted, and the outcome of each line
    that a load has parsed through the index: whether it is a valid record,
    and its float32 row.  It then checks the lines up to that record again,
    finds the kept words' lines by their keys, takes each one whose outcome
    the index holds from it, with no read of the line, and reads,
    word-checks and parses only the kept lines never parsed before; it then
    replaces the entry's stored outcomes with the union of those stored and
    those parsed.  An outcome takes 4 bytes a value and 24 bytes more.
    Stored rows are trusted as a ``vectors/`` table is, once the checksums
    of the index and of each stored outcome hold: the entry is that of the
    file's digest, and the file must still be of the indexed size, while
    each line that is read must still start with its indexed word.  A scan
    stores no rows, and writes no index for a file it cannot count exactly
    in bytes: one with a carriage return or with bytes that are not UTF-8.
    The table, its counts and any ``FormatError`` are the same either way.
    """
    if restrict_to is None:
        # _parse by its module-level name, so that a wrapper set on it sees
        # this call too
        return _CACHE.load(path, lambda: _parse(path, None), digest)
    keep = set(restrict_to)
    if digest is None:
        return _parse(path, keep)
    scanned = []  # a scan's table or FormatError

    def scan() -> _LineIndex | None:
        spans = _Spans()
        try:
            scanned.append(_parse(path, keep, spans))
        except FormatError as exc:
            scanned.append(exc)
        return spans.index()

    index = _LINES.load(path, scan, digest)
    if scanned:
        result = scanned[0]
    else:
        served = _served(path, keep, index)
        if served is None:  # the file is not the one indexed
            return _parse(path, keep)
        result, grown = served
        if grown is not None:
            _LINES.replace_rows(path, grown, digest)
    if isinstance(result, FormatError):
        raise result
    return result


def _pack(table: EmbeddingTable) -> dict[str, np.ndarray]:
    return {
        "words": np.frombuffer("\n".join(table.words).encode("utf-8"), dtype=np.uint8),
        "vectors": table.vectors,
        "skipped_lines": np.int64(table.skipped_lines),
    }


def _unpack(data) -> EmbeddingTable | None:
    words = bytes(data["words"]).decode("utf-8").split("\n")
    vectors = data["vectors"]
    skipped = int(data["skipped_lines"])
    if (vectors.dtype != np.float32 or vectors.ndim != 2
            or vectors.shape[0] != len(words) or vectors.shape[1] < 1
            or skipped < 0):
        return None
    return EmbeddingTable(tuple(words), vectors, skipped)


# a word holds no whitespace, so the words are one newline-joined blob; the
# version covers the layout of an entry and the parse it holds: a change to
# either takes a new one
_CACHE = ParseCache("vectors", 3, _pack, _unpack)


@dataclass(frozen=True, eq=False)
class _LineIndex:
    """Where the lines of a ``.vec`` file lie, found by their words, and what
    those parsed through it hold.  ``start`` is the byte offset just past
    its first valid record; the lines after it that are not blank are
    numbered in file order.  ``spans`` gives each line's byte span in the
    file and the end of its first field in ``words``, the newline-joined
    UTF-8 first fields; ``keys`` are the :data:`_key` of those fields,
    ascending, and ``order`` the line of each.  ``rows``, when a load has
    stored any, is the ``rows.npy`` value of :func:`_stored_rows`."""

    size: int  # the file's length in bytes
    start: int
    keys: np.ndarray  # uint32
    order: np.ndarray  # int64
    spans: np.ndarray  # int64, (lines, 3): start, end, end of the word
    words: np.ndarray  # uint8
    rows: np.ndarray | None = None


# the key of a word's UTF-8 bytes in the index; two words may share one
_key = zlib.crc32


def _pack_lines(index: _LineIndex) -> dict[str, np.ndarray]:
    return {"meta": np.array([index.size, index.start], np.int64),
            "order": index.order, "spans": index.spans, "keys": index.keys,
            "words": index.words}


def _unpack_lines(data) -> _LineIndex:
    size, start = data["meta"].tolist()
    return _LineIndex(size, start, data["keys"], data["order"], data["spans"],
                      data["words"], data.get("rows"))


# the index depends on the file's bytes alone, not on the kept words, so one
# entry serves every restricted load of them; the version covers the layout
# of an entry, the key and the line rules (decoding, blank lines, first
# fields, the skip rule of the stored rows)
_LINES = ParseCache("vector-lines", 4, _pack_lines, _unpack_lines)


def _record(dim: int) -> np.dtype:
    """One stored line: a crc32 of the bytes after it, whether the line is a
    valid record (1) or not (0), its number and its values (zero for an
    invalid one), each field aligned."""
    return np.dtype([("crc", "<u4"), ("valid", "<u4"), ("line", "<i8"),
                     ("row", "<f4", (dim,))])


def _rows_layout(count: int, dim: int) -> np.dtype:
    # the records by line, and their lines apart, which a load searches
    return np.dtype([("lines", "<i8", (count,)), ("records", _record(dim), (count,))])


def _stored_rows(rows: np.ndarray | None, dim: int
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """The lines and records of a ``rows.npy`` value of ``dim`` values a
    line, or None for none or another layout."""
    if rows is None or rows.shape != () or rows.dtype.names != ("lines", "records"):
        return None
    lines = rows["lines"]
    if lines.ndim != 1 or rows.dtype != _rows_layout(len(lines), dim):
        return None
    return lines, rows["records"]


def _crc32s(records: np.ndarray) -> np.ndarray:
    """The crc32 of each record's bytes after its crc."""
    raw = records.view(np.uint8).reshape(len(records), records.itemsize)
    return np.fromiter(map(zlib.crc32, raw[:, 4:]), np.uint32, len(records))


def _byte_size(line: str) -> int:
    return len(line) if line.isascii() else len(line.encode("utf-8"))


class _Spans:
    """The line index of a file, built while :func:`_parse` reads it.
    ``index()`` is None unless the byte counts are exact: a regular file,
    decoded with no replaced bytes and no carriage return (universal
    newlines turn one into a newline), whose size equals the counted
    bytes."""

    def __init__(self):
        self.exact = False
        self.offset = 0
        self.start: int | None = None
        self.words: list[bytes] = []  # the newline-joined words of each block
        self.keys: list[np.ndarray] = []
        self.starts: list[np.ndarray] = []
        self.ends: list[np.ndarray] = []

    def lines(self, handle) -> Iterator[str]:
        """``handle``'s lines, read from its start, each counted into
        ``offset`` as it is taken, after the file's byte order mark."""
        self.exact = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
        if self.exact and handle.buffer.peek(3).startswith(codecs.BOM_UTF8):
            self.offset = 3
        return map(self._count, handle)

    def _count(self, line: str) -> str:
        if not line.isascii() and "\ufffd" in line:
            self.exact = False
        self.offset += _byte_size(line)
        return line

    def add(self, block: list[str]) -> list[list[str]]:
        """Record the lines of ``block``, which follow those counted so far;
        return their :func:`_heads`."""
        if self.start is None:
            self.start = self.offset
        heads = _heads(block)
        if not self.exact:
            return heads
        if all(map(str.isascii, block)):
            sizes = list(map(len, block))
        else:
            self.exact = not any("\ufffd" in line for line in block)
            sizes = list(map(_byte_size, block))
        ends = np.cumsum(sizes, dtype=np.int64)
        ends += self.offset
        self.offset = int(ends[-1])
        filled = np.fromiter(map(bool, heads), bool, len(heads))
        if filled.any():
            words = "\n".join([h[0] for h in compress(heads, filled)]).encode("utf-8")
            self.words.append(words)
            self.keys.append(np.fromiter(map(_key, words.split(b"\n")), np.uint32))
            self.starts.append((ends - sizes)[filled])
            self.ends.append(ends[filled])
        return heads

    def end(self, handle) -> None:
        """Check the counts against the file once it has been read whole."""
        if self.start is None:
            self.start = self.offset
        if "\r" in "".join(handle.newlines or ()):
            self.exact = False
        if self.exact and os.fstat(handle.fileno()).st_size != self.offset:
            self.exact = False

    def index(self) -> _LineIndex | None:
        if not self.exact:
            return None
        empty = np.empty(0, np.int64)
        keys = np.concatenate([np.empty(0, np.uint32), *self.keys])
        order = np.argsort(keys)
        words = np.frombuffer(b"\n".join(self.words), np.uint8)
        word_ends = np.append(np.flatnonzero(words == ord("\n")), len(words))
        spans = np.stack([np.concatenate([empty, *self.starts]),
                          np.concatenate([empty, *self.ends]),
                          word_ends[:len(keys)]], axis=1)
        return _LineIndex(self.offset, self.start, keys[order], order, spans, words)


def _parse(path: str | Path, restrict_to: Iterable[str] | None,
           spans: _Spans | None = None) -> EmbeddingTable:
    """The table of a text word-vector file, parsed by the rules that
    :func:`load_embeddings` gives; ``spans`` records the file's line index
    as it is read."""
    keep = set(restrict_to) if restrict_to is not None else None
    with open(path, encoding="utf-8-sig", errors="replace") as handle:
        lines = handle if spans is None else spans.lines(handle)
        blocks = iter(lambda: list(islice(handle, _BLOCK_LINES)), [])
        heads = map(_heads if spans is None else spans.add, blocks)
        found = _records(lines, heads, keep)
        if spans is not None:
            spans.end(handle)
    return _table(path, *found)


def _served(path: str | Path, keep: set[str], index: _LineIndex
            ) -> tuple[EmbeddingTable | FormatError, np.ndarray | None] | None:
    """The table of a restricted load, or the FormatError that :func:`_parse`
    raises, read through the line index of the file: the lines up to the
    first valid record, then the kept words' lines, each from the rows the
    index stores or else read and parsed; and the ``rows.npy`` value that
    adds the lines parsed here to those stored (None when it stored them
    all, or when that value would pass numpy's 2 GiB limit on one value).
    None when the file does not match the index: another size, or a line
    read of another word."""
    lines, kept = _find(index, keep)
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size != index.size:
            return None
        try:
            head = handle.read(index.start).decode("utf-8-sig")
        except UnicodeDecodeError:
            return None
        words, data, dim, data_lines, skipped = _records(
            iter(head.split("\n")), (), keep)
        if dim is None and len(index.order):  # lines after no valid record
            return None
        # stored rows of another layout or dimension hold no usable record
        stored = _stored_rows(index.rows, dim or 0)
        held, valid, values = _held(stored, lines, dim or 0)
        new = np.flatnonzero(~held)
        reads = []
        for start, end in index.spans[lines[new], :2].tolist():
            handle.seek(start)
            reads.append(handle.read(end - start))
    try:
        heads = _heads([line.decode("utf-8") for line in reads])
    except UnicodeDecodeError:
        return None
    if [h[0] if h else None for h in heads] != [kept[i] for i in new.tolist()]:
        return None
    grown = None
    if heads:
        with np.errstate(over="ignore"):
            ok, parsed = _outcomes(heads, dim)
        valid[new] = ok
        values[new] = 0.0
        values[new[ok]] = parsed
        with suppress(ValueError):  # over numpy's 2 GiB limit on one value
            grown = _grown(stored, lines[new], valid[new], values[new])
    rows = values[valid]
    skipped += len(lines) - len(rows)
    if data:  # the first record is kept
        rows = np.concatenate([np.frombuffer(data, np.float32).reshape(1, dim), rows])
    words += compress(kept, valid)
    try:
        return _table(path, words, rows, dim, data_lines + len(lines), skipped), grown
    except FormatError as exc:
        return exc, grown


def _find(index: _LineIndex, keep: set[str]) -> tuple[np.ndarray, list[str]]:
    """The lines of ``index`` whose word is in ``keep``, in file order, and
    the word of each: the lines of each kept word's key, less those whose
    stored word is another."""
    keep = list(keep)
    encoded = [word.encode("utf-8", "surrogatepass") for word in keep]
    keys = np.fromiter(map(_key, encoded), np.uint32, len(keep))
    by_key = np.argsort(keys)  # sorted needles search faster
    first = index.keys.searchsorted(keys[by_key])
    count = index.keys.searchsorted(keys[by_key], "right") - first
    which = np.repeat(by_key, count)  # the kept word of each
    at = np.arange(len(which)) + np.repeat(first + count - np.cumsum(count), count)
    lines = index.order[at]
    ends = index.spans[:, 2]
    starts = np.where(lines > 0, ends[lines - 1] + 1, 0)
    stored = memoryview(index.words)
    same = np.array([stored[a:b] == encoded[w] for a, b, w in zip(
        starts.tolist(), ends[lines].tolist(), which.tolist())], bool)
    lines, which = lines[same], which[same]
    order = np.argsort(lines)
    return lines[order], [keep[w] for w in which[order].tolist()]


def _held(stored: tuple[np.ndarray, np.ndarray] | None, lines: np.ndarray,
          dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which of ``lines`` have a record among the :func:`_stored_rows`
    ``stored`` that its crc32 vouches for; whether each such line is a
    valid record; and a writable float32 (len(lines), dim) matrix holding
    their values, and other values in other rows."""
    if stored is None or not len(stored[0]) or not len(lines):
        return (np.zeros(len(lines), bool), np.zeros(len(lines), bool),
                np.zeros((len(lines), dim), np.float32))
    numbers, records = stored
    got = records[np.minimum(numbers.searchsorted(lines), len(numbers) - 1)]
    held = (got["line"] == lines) & (_crc32s(got) == got["crc"])
    return held, held & (got["valid"] != 0), got["row"]


def _grown(stored: tuple[np.ndarray, np.ndarray] | None, lines: np.ndarray,
           valid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The ``rows.npy`` value holding the records of ``stored`` and those of
    ``lines``, parsed now: whether each is valid, and its ``values``; a
    stored line parsed again (its record failed its checks) keeps only its
    new record.  Each stored record is copied once, into place."""
    new = np.zeros(len(lines), _record(values.shape[1]))
    new["line"], new["valid"], new["row"] = lines, valid, values
    new["crc"] = _crc32s(new)
    old = new[:0] if stored is None else stored[1]
    again = np.isin(old["line"], lines)
    if again.any():
        old = old[~again]
    numbers = np.concatenate([old["line"], lines])
    order = np.argsort(numbers, kind="stable")
    rows = np.zeros((), _rows_layout(len(numbers), values.shape[1]))
    rows["lines"] = numbers[order]
    at = np.argsort(order)  # the place of each record
    rows["records"][at[:len(old)]] = old
    rows["records"][at[len(old):]] = new
    return rows


def _records(lines: Iterator[str], blocks: Iterable[list[list[str]]],
             keep: set[str] | None) -> tuple:
    """The kept records of a file whose lines, from its start, are ``lines``
    up to the first valid record, which fixes the dimension, and then the
    :func:`_heads` of each of ``blocks``: ``(words, float32 bytes, dim,
    data_lines, skipped)``."""
    words: list[str] = []  # the kept records in file order, repeats included
    data = bytearray()  # their float32 rows
    dim: int | None = None
    data_lines = 0
    skipped = 0
    with np.errstate(over="ignore"):
        first = next(lines, "")
        # line by line until the first valid record fixes dim
        for word, values in _check_lines(
                chain([] if _is_header(first) else [first], lines), None):
            data_lines += 1
            if values is None:
                skipped += 1
                continue
            dim = len(values)
            if keep is None or word in keep:
                words.append(word)
                data += values.tobytes()
            break
        for block in blocks if dim is not None else ():
            block_words, vectors, records = _parse_block(block, dim, keep)
            data_lines += records
            skipped += records - len(block_words)
            words += block_words
            data += vectors.tobytes()
    return words, data, dim, data_lines, skipped


def _table(path: str | Path, words: list[str], data, dim: int | None,
           data_lines: int, skipped: int) -> EmbeddingTable:
    """The table of the kept records, whose float32 rows are the bytes of
    ``data``, or the FormatError of a file with none or with too many
    skipped lines."""
    if data_lines == 0:
        raise FormatError(f"{path}: no vector records found")
    if skipped > 0.01 * data_lines:
        raise FormatError(
            f"{path}: {skipped} of {data_lines} lines skipped (wrong arity or "
            f"unparsable values), over the 1% budget"
        )
    if not words:
        raise FormatError(f"{path}: no embedding vectors loaded")
    matrix = np.frombuffer(data, dtype=np.float32).reshape(len(words), dim)
    # first-seen order, each word's last record
    last = dict(zip(words, range(len(words))))
    if len(last) < len(words):
        matrix = matrix[np.fromiter(last.values(), np.intp, len(last))]
    return EmbeddingTable(tuple(last), matrix, skipped)


def _is_header(line: str) -> bool:
    """``count dim``: two integers, allowed only as the first line."""
    parts = line.split()
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


def _check_lines(lines: Iterable[str], dim: int | None):
    """The skip rule, one line at a time: yield ``(word, values)`` for each
    line that is not blank, ``values`` being None when the line is skipped
    (fewer than two fields, other than ``dim`` values, or a value that does
    not parse or is not finite).  With ``dim`` None any count passes."""
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        values = None
        if len(parts) >= 2 and (dim is None or len(parts) == dim + 1):
            try:
                values = np.array(parts[1:], dtype=np.float32)
            except ValueError:
                pass
        if values is not None and not np.isfinite(values).all():
            values = None
        yield parts[0], values


def _heads(lines: list[str]) -> list[list[str]]:
    """Each line split once at whitespace: ``[word, values]``, ``[word]``
    for a lone word, ``[]`` for a blank line."""
    return [line.split(None, 1) for line in lines]


def _parse_block(heads: list[list[str]], dim: int,
                 keep: set[str] | None) -> tuple[list[str], np.ndarray, int]:
    """The words and (n, dim) float32 values of the valid records among the
    kept lines of a block, given by their :func:`_heads`, and the number of
    kept lines: those that are not blank and whose word is in ``keep`` (any
    word when it is None)."""
    heads = [h for h in heads if h and (keep is None or h[0] in keep)]
    valid, values = _outcomes(heads, dim)
    return list(compress((h[0] for h in heads), valid)), values, len(heads)


def _outcomes(heads: list[list[str]], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Whether each line, given by its :func:`_heads` and not blank, is a
    valid record, and the values of those that are."""
    valid = np.fromiter(map(len, heads), np.intp, len(heads)) == 2
    ok, values = _parse_records(list(compress(heads, valid)), dim)
    valid[valid] = ok  # a lone word is skipped
    return valid, values


def _parse_records(records: list[list[str]], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Whether each ``[word, values]`` record is valid, and the values of
    those that are: one ``np.loadtxt`` call for all; when it rejects them,
    the same for each half, down to segments of at most ``_CHECK_LINES``
    records, which the per-line rule checks."""
    if not records:
        return np.empty(0, bool), np.empty((0, dim), np.float32)
    try:
        values = np.loadtxt([h[1] for h in records], dtype=np.float32,
                            comments=None, ndmin=2)
    except ValueError:  # a token it does not parse, or rows of unequal length
        values = None
    if values is not None and values.shape == (len(records), dim):
        ok = np.isfinite(values).all(axis=1)
        return ok, values[ok]
    if len(records) <= _CHECK_LINES:
        checked = [v for _, v in _check_lines(map(" ".join, records), dim)]
        ok = np.array([v is not None for v in checked])
        vectors = np.array([v for v in checked if v is not None], dtype=np.float32)
        return ok, vectors.reshape(-1, dim)
    half = len(records) // 2
    head_ok, head_values = _parse_records(records[:half], dim)
    tail_ok, tail_values = _parse_records(records[half:], dim)
    return np.concatenate([head_ok, tail_ok]), np.concatenate([head_values, tail_values])


def centroid(doc, table: EmbeddingTable) -> np.ndarray:
    """Token-count-weighted mean vector of a document.

    The divisor is the total token count, including out-of-vocabulary
    tokens, whose vectors are zero; repeated tokens contribute once per
    occurrence.  Returns a float64 vector of length ``table.dim``.
    """
    tokens = getattr(doc, "tokens", doc)
    if len(tokens) == 0:
        raise DataError("centroid of a document with no tokens is undefined")
    return table.matrix(tokens).sum(axis=0, dtype=np.float64) / len(tokens)


def centroids(corpus, table: EmbeddingTable) -> np.ndarray:
    """Every document's :func:`centroid` as counts @ vectors / lengths over a
    corpus's CSR counts, 64 documents at a time, each block dense over just
    the terms it holds: no temporary grows with the corpus."""
    if not corpus.lengths.all():
        raise DataError("centroid of a document with no tokens is undefined")
    vectors = table.matrix(corpus.terms).astype(np.float64)
    out = np.empty((len(corpus.lengths), table.dim))
    rows = corpus.entry_rows()
    for start in range(0, len(out), 64):
        stop = min(start + 64, len(out))
        lo, hi = corpus.indptr[start], corpus.indptr[stop]
        terms, cols = np.unique(corpus.indices[lo:hi], return_inverse=True)
        counts = np.zeros((stop - start, len(terms)))
        counts[rows[lo:hi] - start, cols] = corpus.counts[lo:hi]
        out[start:stop] = counts @ vectors[terms]
    out /= corpus.lengths[:, None]
    return out
