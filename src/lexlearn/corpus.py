"""Corpus and gold-lexicon ingestion.

Input files are delimiter-separated values with a header row (UTF-8).  The
delimiter is inferred from the extension (``.tsv`` -> tab, anything else ->
comma) and can be overridden.  Documents are tokenized at load time; rows
whose text tokenizes to nothing are dropped and counted in the load report.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import DataError, EmptyCorpusError, RowError, SchemaError

__all__ = [
    "Document",
    "Corpus",
    "GoldWordLexicon",
    "LoadReport",
    "tokenize",
    "load_corpus",
    "save_corpus",
    "build_corpus",
    "load_gold_lexicon",
    "corpus_fingerprint",
]


def _strip_edges(token: str) -> str:
    start, end = 0, len(token)
    while start < end and not token[start].isalnum():
        start += 1
    while end > start and not token[end - 1].isalnum():
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation per token.

    Tokens with no alphanumeric character at all (``!!``, ``--``) are kept
    verbatim so punctuation-only vocabulary survives; every other token
    loses leading and trailing non-alphanumeric characters.  The function
    is idempotent on its own output joined by spaces.
    """
    out = []
    for raw in text.lower().split():
        core = _strip_edges(raw)
        out.append(core if core else raw)
    return out


@dataclass(frozen=True)
class LoadReport:
    """Bookkeeping emitted by the loaders (never raises by itself)."""

    rows_read: int = 0
    dropped_empty: int = 0
    duplicates: int = 0


@dataclass(frozen=True)
class Document:
    id: str
    tokens: tuple[str, ...]
    ratings: dict[str, float]


@dataclass(frozen=True, eq=False)
class Corpus:
    """An immutable collection of tokenized, document-labeled texts.

    The document-term counts are held once, in CSR form over ``terms``, the
    sorted distinct tokens of all documents: the entries of document ``i``
    are ``indptr[i]:indptr[i + 1]``, each giving a term column
    (``indices``, ascending within a document) and its occurrence count
    (``counts``); ``lengths`` holds each document's token count.

    ``min_df`` is a column mask, not a filter on the documents: ``vocab``
    maps each term with document frequency >= ``min_df`` to that frequency,
    and ``inverted_index`` maps the same words to the set of indices of the
    documents containing them.  Documents keep all their tokens.
    """

    documents: tuple[Document, ...]
    constructs: tuple[str, ...]
    terms: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray
    min_df: int = 1
    report: LoadReport = field(default_factory=LoadReport)

    def __len__(self) -> int:
        return len(self.documents)

    def entry_rows(self) -> np.ndarray:
        """Document index of every (document, term) entry."""
        return np.repeat(np.arange(len(self.documents)), np.diff(self.indptr))

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
        df = self.document_frequency
        return {self.terms[j]: int(df[j]) for j in self.vocab_columns}

    @cached_property
    def inverted_index(self) -> dict[str, frozenset[int]]:
        df = self.document_frequency
        by_term = self.entry_rows()[np.argsort(self.indices, kind="stable")]
        members = np.split(by_term, np.cumsum(df)[:-1])
        return {
            self.terms[j]: frozenset(members[j].tolist()) for j in self.vocab_columns
        }

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
            tuple(self.documents[i] for i in rows.tolist()),
            self.constructs,
            self.terms,
            indptr,
            self.indices[pos],
            self.counts[pos],
            self.lengths[rows],
            self.min_df,
            LoadReport(rows_read=len(rows)),
        )


@dataclass(frozen=True)
class GoldWordLexicon:
    """Reference word ratings used as the intrinsic evaluation target."""

    constructs: tuple[str, ...]
    ratings: dict[str, tuple[float, ...]]
    report: LoadReport = field(default_factory=LoadReport)

    def __len__(self) -> int:
        return len(self.ratings)


def _infer_delimiter(path: str | Path, delimiter: str | None) -> str:
    if delimiter is not None:
        return delimiter
    return "\t" if Path(path).suffix.lower() == ".tsv" else ","


def _header_index(header: list[str], wanted: Iterable[str], path) -> dict[str, int]:
    index = {}
    for name in wanted:
        if name not in header:
            raise SchemaError(f"{path}: column {name!r} not found in header {header}")
        index[name] = header.index(name)
    return index


def _parse_rating(cell: str, column: str, path, line_num: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise RowError(
            f"{path}: line {line_num}: cannot parse {column!r} value {cell!r} as a number"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
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
    first_seen: dict[str, int] = {}
    token_ids: list[int] = []
    for doc in docs:
        if not doc.tokens:
            raise DataError(f"document {doc.id!r} has no tokens")
        if set(doc.ratings.keys()) != ckeys:
            raise DataError(
                f"document {doc.id!r} ratings {sorted(doc.ratings)} do not match "
                f"corpus constructs {sorted(ckeys)}"
            )
        for value in doc.ratings.values():
            if value != value or value in (float("inf"), float("-inf")):
                raise DataError(f"document {doc.id!r} carries a non-finite rating")
        token_ids.extend(
            first_seen.setdefault(tok, len(first_seen)) for tok in doc.tokens
        )
    terms = tuple(sorted(first_seen))
    column = np.empty(len(terms), dtype=np.int64)
    column[[first_seen[t] for t in terms]] = np.arange(len(terms))
    lengths = np.array([len(doc.tokens) for doc in docs], dtype=np.int64)
    rows = np.repeat(np.arange(len(docs), dtype=np.int64), lengths)
    # one key per (document, term) pair; sorting them gives CSR order
    keys, counts = np.unique(
        rows * len(terms) + column[np.array(token_ids, dtype=np.int64)],
        return_counts=True,
    )
    indptr = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // len(terms), minlength=len(docs)), out=indptr[1:])
    return Corpus(
        docs,
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
    tokenizer: Callable[[str], list[str]] = tokenize,
    min_df: int = 1,
) -> Corpus:
    """Load a document corpus from a delimited file.

    Args:
        path: file to read; delimiter inferred from the extension unless given.
        text_column: name of the column holding the raw document text.
        rating_columns: numeric gold-label columns; their names become the
            corpus constructs, in order.
        id_column: optional id column; the data row index is used if absent.
        tokenizer: pluggable tokenizer (defaults to :func:`tokenize`).
        min_df: minimum document frequency for vocabulary inclusion.

    Raises:
        SchemaError: a named column is missing from the header.
        RowError: a rating cell does not parse as a finite number.
        EmptyCorpusError: no documents survive tokenization.
    """
    if not rating_columns:
        raise SchemaError(f"{path}: at least one rating column is required")
    sep = _infer_delimiter(path, delimiter)
    docs: list[Document] = []
    dropped = 0
    rows = 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=sep)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyCorpusError(f"{path}: file is empty") from None
        wanted = [text_column] + list(rating_columns)
        if id_column is not None:
            wanted.append(id_column)
        cols = _header_index(header, wanted, path)
        for row_index, row in enumerate(reader):
            rows += 1
            line = reader.line_num
            try:
                text = row[cols[text_column]]
                ratings = {
                    c: _parse_rating(row[cols[c]], c, path, line) for c in rating_columns
                }
                doc_id = row[cols[id_column]] if id_column is not None else str(row_index)
            except IndexError:
                raise RowError(f"{path}: line {line}: row has too few fields") from None
            tokens = tuple(tokenizer(text))
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


def save_corpus(corpus: Corpus, path: str | Path, *, delimiter: str | None = None) -> None:
    """Write a corpus back to a delimited file (id, text, one column per construct)."""
    sep = _infer_delimiter(path, delimiter)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=sep)
        writer.writerow(["id", "text", *corpus.constructs])
        for doc in corpus.documents:
            writer.writerow(
                [doc.id, " ".join(doc.tokens)]
                + [repr(float(doc.ratings[c])) for c in corpus.constructs]
            )


def load_gold_lexicon(
    path: str | Path,
    word_column: str,
    rating_columns: list[str],
    *,
    delimiter: str | None = None,
    lowercase: bool = True,
) -> GoldWordLexicon:
    """Load a gold word-rating table.

    Words are lowercased by default so they intersect the corpus vocabulary.
    Duplicate words keep the last occurrence; the duplicate count lands in
    the load report.
    """
    if not rating_columns:
        raise SchemaError(f"{path}: at least one rating column is required")
    sep = _infer_delimiter(path, delimiter)
    ratings: dict[str, tuple[float, ...]] = {}
    duplicates = 0
    rows = 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=sep)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyCorpusError(f"{path}: file is empty") from None
        cols = _header_index(header, [word_column] + list(rating_columns), path)
        for row in reader:
            rows += 1
            line = reader.line_num
            try:
                word = row[cols[word_column]]
                values = tuple(
                    _parse_rating(row[cols[c]], c, path, line) for c in rating_columns
                )
            except IndexError:
                raise RowError(f"{path}: line {line}: row has too few fields") from None
            if lowercase:
                word = word.lower()
            if word in ratings:
                duplicates += 1
            ratings[word] = values
    if not ratings:
        raise EmptyCorpusError(f"{path}: no word entries found")
    report = LoadReport(rows_read=rows, duplicates=duplicates)
    return GoldWordLexicon(tuple(rating_columns), ratings, report)


def corpus_fingerprint(corpus: Corpus) -> str:
    """Stable content hash of a corpus (order-sensitive, used in provenance)."""
    digest = hashlib.sha256()
    digest.update("\x1f".join(corpus.constructs).encode("utf-8"))
    for doc in corpus.documents:
        record = "\x1f".join(
            [doc.id, " ".join(doc.tokens)]
            + [repr(float(doc.ratings[c])) for c in corpus.constructs]
        )
        digest.update(b"\x1e" + record.encode("utf-8"))
    return digest.hexdigest()
