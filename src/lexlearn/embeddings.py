"""Pre-trained word-vector loading and document centroids.

The file format is the common ``.vec`` text convention: an optional first
line ``count dim`` (two integers), then one record per line, ``word f1 ...
fdim``.  Vectors are stored at 32-bit precision, as the rows of one matrix;
centroid accumulation runs at 64-bit.  Tables are read-only after loading
and safe to share across threads.
"""

from __future__ import annotations

import shutil  # noqa: F401  the cache's free-space check, patchable here
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

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
    """Load a text word-vector file.

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
    none).  Given it, a full load (no ``restrict_to``) of a regular file
    reads the table from the cache entry of that digest instead of parsing
    the file, and writes the entry after a parse, in
    ``$XDG_CACHE_HOME/lexlearn/vectors`` (see
    :meth:`~lexlearn._files.ParseCache.load`).  The table is the same
    either way.  A restricted load never uses the cache.
    """
    if restrict_to is not None:
        return _parse(path, restrict_to)
    # _parse by its module-level name, so that a wrapper set on it sees this
    # call too
    return _CACHE.load(path, lambda: _parse(path, None), digest)


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
_CACHE = ParseCache("vectors", 1, _pack, _unpack)
cache_dir = _CACHE.directory
_read_entry = _CACHE.read


def _parse(path: str | Path, restrict_to: Iterable[str] | None) -> EmbeddingTable:
    """The table of a text word-vector file, parsed by the rules that
    :func:`load_embeddings` gives."""
    keep = set(restrict_to) if restrict_to is not None else None
    words: list[str] = []  # the kept records in file order, repeats included
    data = bytearray()  # their float32 rows
    dim: int | None = None
    data_lines = 0
    skipped = 0
    with open(path, encoding="utf-8", errors="replace") as handle, \
            np.errstate(over="ignore"):
        first = handle.readline()
        lines = chain([] if _is_header(first) else [first], handle)
        # line by line until the first valid record fixes dim
        for word, values in _check_lines(lines, None):
            data_lines += 1
            if values is None:
                skipped += 1
                continue
            dim = len(values)
            if keep is None or word in keep:
                words.append(word)
                data += values.tobytes()
            break
        while dim is not None and (block := list(islice(handle, _BLOCK_LINES))):
            block_words, vectors, records = _parse_block(block, dim, keep)
            data_lines += records
            skipped += records - len(block_words)
            words += block_words
            data += vectors.tobytes()
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


def _parse_block(lines: list[str], dim: int,
                 keep: set[str] | None) -> tuple[list[str], np.ndarray, int]:
    """The words and (n, dim) float32 values of the valid records among the
    kept lines of ``lines``, and the number of kept lines: those that are
    not blank and whose word is in ``keep`` (any word when it is None)."""
    heads = [h for h in (line.split(None, 1) for line in lines)
             if h and (keep is None or h[0] in keep)]
    records = [h for h in heads if len(h) == 2]  # a lone word is skipped
    words, values = _parse_records(records, dim)
    return words, values, len(heads)


def _parse_records(records: list[list[str]], dim: int) -> tuple[list[str], np.ndarray]:
    """The words and values of the valid ``[word, values]`` records: one
    ``np.loadtxt`` call for all; when it rejects them, the same for each
    half, down to segments of at most ``_CHECK_LINES`` records, which the
    per-line rule checks."""
    if not records:
        return [], np.empty((0, dim), np.float32)
    try:
        values = np.loadtxt([h[1] for h in records], dtype=np.float32,
                            comments=None, ndmin=2)
    except ValueError:  # a token it does not parse, or rows of unequal length
        values = None
    if values is not None and values.shape == (len(records), dim):
        ok = np.isfinite(values).all(axis=1)
        return list(compress((h[0] for h in records), ok)), values[ok]
    if len(records) <= _CHECK_LINES:
        valid = [(w, v) for w, v in _check_lines(map(" ".join, records), dim)
                 if v is not None]
        vectors = np.array([v for _, v in valid], dtype=np.float32)
        return [w for w, _ in valid], vectors.reshape(len(valid), dim)
    half = len(records) // 2
    head_words, head_values = _parse_records(records[:half], dim)
    tail_words, tail_values = _parse_records(records[half:], dim)
    return head_words + tail_words, np.concatenate([head_values, tail_values])


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
