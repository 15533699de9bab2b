"""Corpus ingestion and the delimited-table reader.

Input files are delimiter-separated values with a header row (UTF-8).  The
delimiter is inferred from the extension (``.tsv`` -> tab, anything else ->
comma) and can be overridden.  ``_read_table`` reads every such table,
including the gold-lexicon, users and traits files of
:mod:`lexlearn.evaluation`.  Documents are tokenized at load time; rows
whose text tokenizes to nothing are dropped and counted in the load report.
"""

from __future__ import annotations

import csv
import hashlib
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, EmptyCorpusError, RowError, SchemaError

__all__ = [
    "Document",
    "Corpus",
    "LoadReport",
    "tokenize",
    "load_corpus",
    "build_corpus",
    "corpus_fingerprint",
    "canonical_order",
]


def _strip_edges(token: str) -> str:
    start, end = 0, len(token)
    while start < end and not token[start].isalnum():
        start += 1
    while end > start and not token[end - 1].isalnum():
        end -= 1
    return token[start:end]


class _TokenForms(dict):
    """Raw lowercased token -> its :func:`tokenize` form, each computed once."""

    def __missing__(self, raw: str) -> str:
        self[raw] = form = raw if raw.isalnum() else _strip_edges(raw) or raw
        return form


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation per token.

    Tokens with no alphanumeric character at all (``!!``, ``--``) are kept
    verbatim so punctuation-only vocabulary survives; every other token
    loses leading and trailing non-alphanumeric characters.  The function
    is idempotent on its own output joined by spaces.
    """
    return list(map(_TokenForms().__getitem__, text.lower().split()))


@dataclass(frozen=True)
class LoadReport:
    """Bookkeeping emitted by the loaders (never raises by itself)."""

    rows_read: int = 0
    dropped_empty: int = 0


@dataclass(frozen=True)
class Document:
    id: str
    tokens: tuple[str, ...]
    ratings: dict[str, float]


@dataclass(frozen=True, eq=False)
class Corpus:
    """An immutable collection of tokenized, document-labeled texts.

    Document ``i`` has id ``ids[i]``, its tokens joined by single spaces in
    ``texts[i]`` and its labels in row ``i`` of the float64 ``ratings``
    matrix, one column per name in ``constructs``.  Its term counts are held
    once, in CSR form over ``terms``, the sorted distinct tokens of all
    documents: its entries are ``indptr[i]:indptr[i + 1]``, each giving a
    term column (``indices``, ascending within a document) and its
    occurrence count (``counts``); ``lengths`` holds each token count.

    ``min_df`` is a column mask, not a filter on the documents: ``vocab``
    maps each term with document frequency >= ``min_df`` to that frequency.
    Documents keep all their tokens.
    """

    ids: tuple[str, ...]
    texts: tuple[str, ...]
    ratings: np.ndarray
    constructs: tuple[str, ...]
    terms: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray
    min_df: int = 1
    report: LoadReport = field(default_factory=LoadReport)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def documents(self) -> tuple[Document, ...]:
        """The documents as :class:`Document` records, rebuilt on each read."""
        return tuple(Document(i, tuple(t.split(" ")), dict(zip(self.constructs, r)))
                     for i, t, r in zip(self.ids, self.texts, self.ratings.tolist()))

    def values(self, construct: str) -> np.ndarray:
        """The documents' labels for one construct, in document order."""
        if construct not in self.constructs:
            raise DataError(
                f"unknown construct {construct!r}; available: {list(self.constructs)}"
            )
        return self.ratings[:, self.constructs.index(construct)]

    def entry_rows(self) -> np.ndarray:
        """Document index of every (document, term) entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    @cached_property
    def document_frequency(self) -> np.ndarray:
        """Number of documents containing each term, by term column."""
        return np.bincount(self.indices, minlength=len(self.terms))

    @cached_property
    def vocab_columns(self) -> np.ndarray:
        """Term columns of the vocabulary words, ascending (= sorted words)."""
        return np.flatnonzero(self.document_frequency >= max(self.min_df, 1))

    @cached_property
    def vocab(self) -> dict[str, int]:
        cols = self.vocab_columns
        return dict(zip(map(self.terms.__getitem__, cols.tolist()),
                        self.document_frequency[cols].tolist()))

    def select(self, rows) -> Corpus:
        """Sub-corpus of the given document indices, in the given order.

        The sub-corpus keeps ``terms`` and ``min_df``; its vocabulary is the
        words whose document frequency among the selected rows reaches
        ``min_df``, exactly as :func:`build_corpus` on those documents.
        """
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.indptr[rows]
        sizes = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        pos = np.repeat(starts - indptr[:-1], sizes) + np.arange(indptr[-1])
        return Corpus(
            tuple(map(self.ids.__getitem__, rows.tolist())),
            tuple(map(self.texts.__getitem__, rows.tolist())),
            self.ratings[rows],
            self.constructs,
            self.terms,
            indptr,
            self.indices[pos],
            self.counts[pos],
            self.lengths[rows],
            self.min_df,
            LoadReport(rows_read=len(rows)),
        )


def _infer_delimiter(path: str | Path, delimiter: str | None) -> str:
    if delimiter is not None:
        return delimiter
    return "\t" if Path(path).suffix.lower() == ".tsv" else ","


def _first_non_utf8_line(path: str | Path) -> int:
    """Number of the first line of ``path`` that is not UTF-8 (0 if none)."""
    # a newline byte never occurs inside a multi-byte UTF-8 sequence, so
    # each line can be checked on its own
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0


def _read_table(
    path: str | Path, delimiter: str | None, *layouts: Sequence[str]
) -> Iterator[tuple[int, list[str]]]:
    """Stream the rows of a delimited UTF-8 table that has a header row; a
    byte order mark before the header is dropped.

    ``layouts`` are sequences of column names; the first one whose columns
    all appear in the header is read.  Yields ``(line, cells)`` per data
    row: the file line the row ends on and the layout's cells, in layout
    order.

    Raises:
        EmptyCorpusError: the file has no header row.
        SchemaError: no layout fits the header.
        RowError: a row is too short to hold the layout's columns or is not
            valid CSV, or the file holds bytes that are not UTF-8; the
            message names the file and the line.
    """
    sep = _infer_delimiter(path, delimiter)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=sep)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyCorpusError(f"{path}: file is empty")
            for layout in layouts:
                if all(name in header for name in layout):
                    break
            else:
                missing = " or ".join(
                    "+".join(repr(name) for name in layout if name not in header)
                    for layout in layouts
                )
                raise SchemaError(
                    f"{path}: column {missing} not found in header {header}"
                )
            columns = [header.index(name) for name in layout]
            width = max(columns) + 1
            for row in reader:
                if len(row) < width:
                    raise RowError(
                        f"{path}: line {reader.line_num}: row has too few fields"
                    )
                yield reader.line_num, [row[i] for i in columns]
        except UnicodeDecodeError:
            raise RowError(
                f"{path}: line {_first_non_utf8_line(path)}: bytes are not valid UTF-8"
            ) from None
        except csv.Error as exc:
            raise RowError(f"{path}: line {reader.line_num}: {exc}") from None


def _parse_number(cell: str, column: str, path, line_num: int) -> float:
    """The cell as a finite float; ``RowError`` naming the file and line if not."""
    try:
        value = float(cell)
    except ValueError:
        raise RowError(
            f"{path}: line {line_num}: cannot parse {column!r} value {cell!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise RowError(f"{path}: line {line_num}: non-finite {column!r} value {cell!r}")
    return value


def build_corpus(
    documents: Iterable[Document],
    constructs: Iterable[str] | None = None,
    min_df: int = 1,
    report: LoadReport | None = None,
) -> Corpus:
    """Assemble a Corpus from ready-made documents, building the counts.

    Every document must carry a non-empty token tuple and the same set of
    construct names; ``min_df`` drops words whose document frequency falls
    below the threshold from the vocabulary (documents keep their tokens).
    """
    docs = tuple(documents)
    if not docs:
        raise EmptyCorpusError("corpus contains no documents")
    if constructs is None:
        constructs = tuple(docs[0].ratings.keys())
    else:
        constructs = tuple(constructs)
    ckeys = set(constructs)
    first_seen = defaultdict(count().__next__)  # term -> id, first seen first
    token_ids = array("q")
    for doc in docs:
        if not doc.tokens:
            raise DataError(f"document {doc.id!r} has no tokens")
        if set(doc.ratings.keys()) != ckeys:
            raise DataError(
                f"document {doc.id!r} ratings {sorted(doc.ratings)} do not match "
                f"corpus constructs {sorted(ckeys)}"
            )
        if not all(map(math.isfinite, doc.ratings.values())):
            raise DataError(f"document {doc.id!r} carries a non-finite rating")
        token_ids.extend(map(first_seen.__getitem__, doc.tokens))
    terms = tuple(sorted(first_seen))
    column = np.empty(len(terms), dtype=np.int64)
    column[[first_seen[t] for t in terms]] = np.arange(len(terms))
    lengths = np.array([len(doc.tokens) for doc in docs], dtype=np.int64)
    rows = np.repeat(np.arange(len(docs), dtype=np.int64), lengths)
    # one key per (document, term) pair; sorting them gives CSR order
    keys, counts = np.unique(
        rows * len(terms) + column[np.frombuffer(token_ids, dtype=np.int64)],
        return_counts=True,
    )
    indptr = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // len(terms), minlength=len(docs)), out=indptr[1:])
    return Corpus(
        tuple(doc.id for doc in docs),
        tuple(" ".join(doc.tokens) for doc in docs),
        np.array([[doc.ratings[c] for c in constructs] for doc in docs], dtype=float),
        constructs,
        terms,
        indptr,
        keys % len(terms),
        counts,
        lengths,
        min_df,
        report or LoadReport(rows_read=len(docs)),
    )


def load_corpus(
    path: str | Path,
    text_column: str,
    rating_columns: list[str],
    *,
    id_column: str | None = None,
    delimiter: str | None = None,
    min_df: int = 1,
) -> Corpus:
    """Load a document corpus from a delimited file.

    Args:
        path: file to read; delimiter inferred from the extension unless given.
        text_column: name of the column holding the raw document text.
        rating_columns: numeric gold-label columns; their names become the
            corpus constructs, in order.
        id_column: optional id column; the data row index is used if absent.
        min_df: minimum document frequency for vocabulary inclusion.

    Raises:
        SchemaError: a named column is missing from the header.
        RowError: a row is short or not UTF-8, or a rating cell does not
            parse as a finite number.
        EmptyCorpusError: no documents survive tokenization.
    """
    if not rating_columns:
        raise SchemaError(f"{path}: at least one rating column is required")
    columns = [text_column, *rating_columns]
    if id_column is not None:
        columns.append(id_column)
    docs: list[Document] = []
    dropped = 0
    rows = 0
    forms = _TokenForms()
    for line, cells in _read_table(path, delimiter, columns):
        ratings = {
            c: _parse_number(cell, c, path, line)
            for c, cell in zip(rating_columns, cells[1:])
        }
        doc_id = cells[-1] if id_column is not None else str(rows)
        rows += 1
        tokens = tuple(map(forms.__getitem__, cells[0].lower().split()))
        if not tokens:
            dropped += 1
            continue
        docs.append(Document(doc_id, tokens, ratings))
    if not docs:
        raise EmptyCorpusError(
            f"{path}: no documents left after tokenization ({rows} rows read, "
            f"{dropped} dropped as empty)"
        )
    report = LoadReport(rows_read=rows, dropped_empty=dropped)
    return build_corpus(docs, rating_columns, min_df=min_df, report=report)


def corpus_fingerprint(corpus: Corpus) -> str:
    """Stable content hash of a corpus (order-sensitive, used in provenance)."""
    digest = hashlib.sha256()
    digest.update("\x1f".join(corpus.constructs).encode("utf-8"))
    for doc_id, text, row in zip(corpus.ids, corpus.texts, corpus.ratings.tolist()):
        record = "\x1f".join([doc_id, text, *map(repr, row)])
        digest.update(b"\x1e" + record.encode("utf-8"))
    return digest.hexdigest()


def canonical_order(corpus: Corpus) -> list[int]:
    """Document indices sorted by id, then text, then the ratings taken in
    construct-name order: a fixed order that does not depend on the order
    the documents came in."""
    by_name = sorted(range(len(corpus.constructs)), key=corpus.constructs.__getitem__)
    ratings = corpus.ratings[:, by_name].tolist()
    return sorted(range(len(corpus)),
                  key=lambda i: (corpus.ids[i], corpus.texts[i], ratings[i]))
