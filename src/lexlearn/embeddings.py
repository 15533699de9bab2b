"""Pre-trained word-vector loading and document centroids.

The file format is the common ``.vec`` text convention: an optional first
line ``count dim`` (two integers), then one record per line, ``word f1 ...
fdim``.  Vectors are stored at 32-bit precision, as the rows of one matrix;
centroid accumulation runs at 64-bit.  Tables are read-only after loading
and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, DimensionError, FormatError

__all__ = ["EmbeddingTable", "load_embeddings", "centroid", "centroids", "cosine"]


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Word -> fixed-dimension vector map with zero-vector fallback.

    ``vectors`` is one float32 (len(words), dim) matrix, row i for words[i].
    An absent word looks up as the zero vector; it is never an error.
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

    def lookup(self, word: str) -> np.ndarray:
        return self.matrix([word])[0]

    def matrix(self, words: Sequence[str]) -> np.ndarray:
        """(len(words), dim) float32 rows for ``words``; absent words get zeros."""
        index = np.fromiter(map(self.rows.get, words, repeat(-1)), np.intp, len(words))
        out = self.vectors[index]
        out[index < 0] = 0.0
        return out


def load_embeddings(
    path: str | Path, restrict_to: Iterable[str] | None = None
) -> EmbeddingTable:
    """Load a text word-vector file.

    Lines with the wrong number of fields or unparsable values are skipped
    and counted; more than 1% skipped lines is treated as a broken file.
    ``restrict_to`` keeps only the named words (memory control for large
    files).
    """
    keep = set(restrict_to) if restrict_to is not None else None
    rows: dict[str, int] = {}
    data = bytearray()  # the float32 rows, appended in place
    dim: int | None = None
    data_lines = 0
    skipped = 0
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line_no, line in enumerate(handle):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            if line_no == 0 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # "count dim" header
                except ValueError:
                    pass
            data_lines += 1
            if len(parts) < 2 or (dim is not None and len(parts) != dim + 1):
                skipped += 1
                continue
            try:
                values = np.array(parts[1:], dtype=np.float32)
            except ValueError:
                values = None
            if values is None or not np.isfinite(values).all():
                skipped += 1
                continue
            dim = len(values)
            if keep is not None and parts[0] not in keep:
                continue
            # a repeated word keeps its first row and takes the last vector
            row = rows.setdefault(parts[0], len(rows))
            data[row * values.nbytes : (row + 1) * values.nbytes] = values.tobytes()
    if data_lines == 0:
        raise FormatError(f"{path}: no vector records found")
    if skipped > 0.01 * data_lines:
        raise FormatError(
            f"{path}: {skipped} of {data_lines} lines skipped (wrong arity or "
            f"unparsable values), over the 1% budget"
        )
    if not rows:
        raise FormatError(f"{path}: no embedding vectors loaded")
    matrix = np.frombuffer(data, dtype=np.float32).reshape(len(rows), dim)
    return EmbeddingTable(tuple(rows), matrix, skipped)


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


def cosine(u, v) -> float:
    """Cosine similarity with the zero-norm convention: either norm 0 -> 0.0."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError(f"cosine: incompatible shapes {a.shape} and {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))
