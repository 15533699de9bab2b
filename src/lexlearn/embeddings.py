"""Pre-trained word-vector loading and document centroids.

The file format is the common ``.vec`` text convention: an optional first
line ``count dim`` (two integers), then one record per line, ``word f1 ...
fdim``.  Vectors are stored at 32-bit precision, as the rows of one matrix;
centroid accumulation runs at 64-bit.  Tables are read-only after loading
and safe to share across threads.
"""

from __future__ import annotations

import os
import re
import shutil
import stat
import zipfile
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ._files import atomic_write
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
    C reader (``np.loadtxt``); a block it rejects is checked again line by
    line under the same skip rules, so the table and the counts do not
    depend on the path taken.  A value beyond the float32 range reads as
    infinite, so its line is skipped, with no overflow warning.

    ``digest`` returns the sha256 hex digest of the file's bytes (None for
    none).  Given it, a full load (no ``restrict_to``) of a regular file
    reads the table from the cache entry of that digest instead of parsing
    the file, and writes the entry after a parse; see :func:`cache_dir`.
    ``digest`` is called before the parse only when the cache holds an
    entry of the file's size, and otherwise after it, so a digest taken on
    another thread runs beside the parse of a file never seen.  The table
    is the same either way.  A restricted load never uses the cache.
    """
    if restrict_to is not None or digest is None:
        return _parse(path, restrict_to)
    try:
        info = os.stat(path)
        folder = cache_dir()
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return _parse(path, None)
    if not stat.S_ISREG(info.st_mode):
        return _parse(path, None)
    # named by size as well, so that a file of a size never cached is parsed
    # at once rather than after its digest
    if any(folder.glob(f"{info.st_size}-*.npz")):
        key = _checked(digest())
        table = None if key is None else _read_entry(
            folder / f"{info.st_size}-{key}.npz", key)
        if table is not None:
            return table
    table = _parse(path, None)
    key = _checked(digest())
    if key is not None:
        _write_entry(folder / f"{info.st_size}-{key}.npz", key, table)
    return table


def cache_dir() -> Path:
    """Where full loads keep their parsed tables, one ``<size>-<sha256>.npz``
    entry per file content: ``$XDG_CACHE_HOME/lexlearn/vectors``, or
    ``~/.cache/lexlearn/vectors`` when that variable is unset or empty."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "lexlearn" / "vectors"


def _checked(digest: str | None) -> str | None:
    if digest is not None and not _SHA256_HEX.fullmatch(digest):
        raise ValueError(f"digest must be a sha256 hex digest, got {digest!r}")
    return digest


_SHA256_HEX = re.compile(r"[0-9a-f]{64}")
# the layout of a cache entry, and of the parse it holds: a change to either
# takes a new version, and an entry of another version is a miss
_ENTRY_VERSION = 1


def _read_entry(entry: Path, digest: str) -> EmbeddingTable | None:
    """The table in the cache entry, or None for a miss: no entry, or one
    that does not open or read back whole, or whose version, digest or
    shapes do not match."""
    try:
        with np.load(entry, allow_pickle=False) as data:
            if (int(data["format_version"]) != _ENTRY_VERSION
                    or bytes(data["sha256"]) != digest.encode("ascii")):
                return None
            words = bytes(data["words"]).decode("utf-8").split("\n")
            vectors = data["vectors"]
            skipped = int(data["skipped_lines"])
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    if (vectors.dtype != np.float32 or vectors.ndim != 2
            or vectors.shape[0] != len(words) or vectors.shape[1] < 1
            or skipped < 0):
        return None
    return EmbeddingTable(tuple(words), vectors, skipped)


def _write_entry(entry: Path, digest: str, table: EmbeddingTable) -> None:
    """Write the cache entry of a parsed table, unless it would take more
    than half of the free space; a cache that cannot be written is left
    alone, and the load goes on without it."""
    words = np.frombuffer("\n".join(table.words).encode("utf-8"), dtype=np.uint8)
    payload = {
        "format_version": np.int64(_ENTRY_VERSION),
        "sha256": np.frombuffer(digest.encode("ascii"), dtype=np.uint8),
        "words": words,
        "vectors": table.vectors,
        "skipped_lines": np.int64(table.skipped_lines),
    }
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        if shutil.disk_usage(entry.parent).free < 2 * (table.vectors.nbytes + words.nbytes):
            return
        with atomic_write(entry) as (temp,), open(temp, "wb") as handle:
            np.savez(handle, **payload)
    except OSError:
        pass


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
    try:
        values = np.loadtxt([h[1] for h in records], dtype=np.float32,
                            comments=None, ndmin=2) if records else None
    except ValueError:  # a token it does not parse, or rows of unequal length
        values = None
    if values is None or values.shape != (len(records), dim):
        valid = [(w, v) for w, v in _check_lines(map(" ".join, heads), dim)
                 if v is not None]
        vectors = np.array([v for _, v in valid], dtype=np.float32)
        return [w for w, _ in valid], vectors.reshape(len(valid), dim), len(heads)
    ok = np.isfinite(values).all(axis=1)
    return list(compress((h[0] for h in records), ok)), values[ok], len(heads)


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
