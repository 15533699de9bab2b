"""Intrinsic and extrinsic lexicon evaluation, and their input loaders.

Intrinsic: k-fold cross-validation over documents; each fold's model is
fit on the remaining folds and its word ratings are correlated (Pearson)
against a gold word lexicon over the words both sides cover.  The gold
lexicon is a :class:`~lexlearn.induction.Lexicon` read from a delimited
table, so a fold joins it to the learned lexicon by row index.  Extrinsic:
score each user by the relative-frequency-weighted average rating of their
lexicon words and correlate the scores with a user-level trait.
"""

from __future__ import annotations

import warnings
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from pathlib import Path
from typing import Callable

import numpy as np

from ._files import ParseCache

# build_corpus stays importable from here for code that wraps it by module
# attribute; folds themselves are row selections of one Corpus
from .corpus import (  # noqa: F401
    Corpus,
    _infer_delimiter,
    _parse_number,
    _read_table,
    _TokenForms,
    build_corpus,
    canonical_order,
)
from .errors import (DataError, EmptyCorpusError, LexlearnError, RowError,
                     SchemaError, UndefinedCorrelationError)
from .induction import Lexicon, MethodSpec, fit_method
from .numerics import pearson

__all__ = [
    "EvalReport",
    "Users",
    "eval_intrinsic",
    "eval_extrinsic",
    "load_gold_lexicon",
    "load_user_corpora",
    "EVAL_TSV_HEADER",
]


@dataclass
class EvalReport:
    """Cross-validated intrinsic result for one method and construct.

    ``per_fold`` holds one Pearson value per fold, NaN where the fold
    failed; failures carry their reason in ``fold_failures`` and stay out
    of ``mean_r``.  ``coverage`` is the mean fraction of gold words the
    method rated per successful fold.
    """

    method: str
    construct: str
    folds: int
    per_fold: list[float]
    fold_failures: dict[int, str] = field(default_factory=dict)
    mean_r: float = float("nan")
    sd_r: float = float("nan")
    evaluated_vocab_size: int = 0
    coverage: float = 0.0


EVAL_TSV_HEADER = "method\tconstruct\tfolds\tmean_r\tsd_r\tcoverage"


def report_tsv_row(report: EvalReport) -> str:
    return "\t".join(
        [
            report.method,
            report.construct,
            str(report.folds),
            repr(report.mean_r),
            repr(report.sd_r),
            repr(report.coverage),
        ]
    )


def eval_intrinsic(
    corpus: Corpus,
    gold: Lexicon,
    method: MethodSpec,
    construct: str,
    folds: int = 10,
    seed: int = 0,
) -> EvalReport:
    """Document-partitioned cross-validation against a gold word lexicon.

    Documents are shuffled once (seeded, over a canonical order) and split
    into ``folds`` groups; for each fold the method is fit on the other
    groups' documents and its ratings are correlated with the gold ratings
    over rated-and-gold words.  A fold's training corpus is a row selection
    of ``corpus`` in canonical order, so its vocabulary honours the corpus's
    ``min_df`` among the training documents.  Folds with undefined
    correlation are recorded as failed and excluded from the mean.
    """
    if folds < 2:
        raise ValueError(f"eval_intrinsic: folds must be >= 2, got {folds}")
    if construct not in gold.constructs:
        raise DataError(
            f"construct {construct!r} not in gold lexicon {list(gold.constructs)}"
        )
    corpus.values(construct)  # DataError if the corpus lacks the construct
    overlap = sum(map(gold.rows.__contains__, corpus.vocab))
    if overlap < 30:
        raise DataError(
            f"corpus and gold lexicon share only {overlap} words; need at least 30"
        )
    order = canonical_order(corpus)
    if folds > len(order):
        raise DataError(
            f"eval_intrinsic: folds={folds} exceeds document count {len(order)}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(order))
    groups = np.array_split(perm, folds)
    fold_seeds = [
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(folds)
    ]

    per_fold: list[float] = []
    failures: dict[int, str] = {}
    coverages: list[float] = []
    evaluated = np.zeros(len(gold), dtype=bool)  # gold rows some fold rated
    for f, group in enumerate(groups):
        try:
            sub = corpus.select(np.delete(order, group))
            lex = fit_method(sub, [construct], method, seed=fold_seeds[f])
            idx = np.fromiter(map(gold.rows.get, lex.words, repeat(-1)), np.intp,
                              len(lex.words))
            known = idx >= 0
            if known.sum() < 2:
                raise UndefinedCorrelationError(
                    f"only {known.sum()} rated words overlap the gold lexicon"
                )
            r = pearson(lex.values(construct)[known], gold.values(construct)[idx[known]])
        except LexlearnError as exc:
            per_fold.append(float("nan"))
            failures[f] = str(exc)
            continue
        per_fold.append(r)
        coverages.append(known.sum() / len(gold))
        evaluated[idx[known]] = True
    good = [v for v in per_fold if v == v]
    report = EvalReport(
        method=method.kind,
        construct=construct,
        folds=folds,
        per_fold=per_fold,
        fold_failures=failures,
        evaluated_vocab_size=int(evaluated.sum()),
    )
    if good:
        report.mean_r = float(np.mean(good))
        report.sd_r = float(np.std(good, ddof=1)) if len(good) > 1 else float("nan")
        report.coverage = float(np.mean(coverages))
    return report


@dataclass(frozen=True, eq=False)
class Users:
    """Users and their word counts, held as entry arrays.

    ``ids`` are the users in first-seen order and ``traits`` their float64
    trait scores.  Entry ``k``: user ``user[k]`` used ``terms[term[k]]``
    ``count[k]`` times (int32 indices, a whole float64 count); each user's
    entries come in the order the user first used the words."""

    ids: tuple[str, ...]
    traits: np.ndarray
    terms: tuple[str, ...]
    user: np.ndarray
    term: np.ndarray
    count: np.ndarray


def eval_extrinsic(
    lexicon: Lexicon, construct: str, users: Users
) -> tuple[float, dict[str, float]]:
    """Correlate lexicon-based user scores with user trait scores.

    A user's score is the relative-frequency-weighted mean rating over the
    words they share with the lexicon, finite for every finite lexicon;
    users with no overlap are excluded with a warning.  Returns
    (Pearson r, user_id -> score).
    """
    column = lexicon.values(construct)
    # each user's counts sum to at most 2**53, so ratings below 2**970 in
    # magnitude cannot overflow a sum; a column holding larger ones is
    # divided by 2**s first and the means multiplied back (exact while the
    # ratings stay normal; s is 0 for every column below 2**970)
    s = max(0, int(np.frexp(np.abs(column).max(initial=0.0))[1]) - 970)
    row = np.fromiter(map(lexicon.rows.get, users.terms, repeat(-1)), np.intp,
                      len(users.terms))
    known = row >= 0
    n, user = len(users.ids), users.user.astype(np.intp, copy=False)
    total = np.bincount(user, known.take(users.term) * users.count, minlength=n)
    # a word outside the lexicon weighs and rates 0.0; bincount adds each
    # user's products in entry order starting from +0.0, so adding those
    # zeros changes no sum
    weighted = np.where(known, np.ldexp(column, -s)[row], 0.0).take(users.term)
    weighted *= users.count
    weighted = np.bincount(user, weighted, minlength=n)
    scorable = total > 0
    excluded = list(compress(users.ids, (~scorable).tolist()))
    if excluded:
        warnings.warn(
            f"{len(excluded)} user(s) share no word with the lexicon and were "
            f"excluded: {excluded[:10]}",
            stacklevel=2,
        )
    score = np.ldexp(weighted[scorable] / total[scorable], s)
    if len(score) < 3:
        raise DataError(
            f"extrinsic evaluation needs at least 3 scorable users, got {len(score)}"
        )
    r = pearson(score, users.traits[scorable])
    return r, dict(zip(compress(users.ids, scorable.tolist()), score.tolist()))


def load_gold_lexicon(
    path: str | Path,
    word_column: str,
    rating_columns: list[str],
    *,
    delimiter: str | None = None,
) -> Lexicon:
    """Load a gold word-rating table as a lexicon whose constructs are the
    rating columns.

    Words are lowercased so they meet the corpus vocabulary, and a word
    listed twice keeps its last row; the provenance counts the rows read and
    the repeats.  Bad input raises as in :func:`~lexlearn.corpus.load_corpus`.
    """
    if not rating_columns:
        raise SchemaError(f"{path}: at least one rating column is required")
    rows: dict[str, list[float]] = {}
    read = 0
    for line, (word, *cells) in _read_table(
        path, delimiter, [word_column, *rating_columns]
    ):
        read += 1
        rows[word.lower()] = [
            _parse_number(cell, c, path, line) for c, cell in zip(rating_columns, cells)
        ]
    if not rows:
        raise EmptyCorpusError(f"{path}: no word entries found")
    words = tuple(sorted(rows))
    ratings = np.array([rows[w] for w in words], dtype=np.float64)
    prov = {"rows_read": read, "duplicates": read - len(rows)}
    return Lexicon(tuple(rating_columns), words, ratings, prov)


# (user, term) grouping keys are int32 while kept users x terms is below
# this, and int64 from it on
_INT32_KEYS = 2**31


class _TermIds(dict):
    """Raw lowercased token -> the id of its :func:`~lexlearn.corpus.tokenize`
    form in ``terms``, each looked up once; ids follow the forms' first-seen
    order."""

    def __init__(self):
        super().__init__()
        self.forms = _TokenForms()
        self.terms = defaultdict(count().__next__)

    def __missing__(self, raw: str) -> int:
        self[raw] = term = self.terms[self.forms[raw]]
        return term


@dataclass(frozen=True, eq=False)
class _Usage:
    """A users file as parsed, before the traits join: the users that have
    a word, in first-seen order, every term form seen, and entry ``k``:
    user ``user[k]`` used ``terms[term[k]]`` ``count[k]`` times, in the
    order of each entry's first token (int32 ids, float64 counts)."""

    ids: tuple[str, ...]
    terms: tuple[str, ...]
    user: np.ndarray
    term: np.ndarray
    count: np.ndarray


def load_user_corpora(
    usage_path: str | Path,
    traits_path: str | Path,
    trait_column: str,
    *,
    delimiter: str | None = None,
    digest: Callable[[], str | None] | None = None,
) -> Users:
    """Load per-user word counts plus trait scores from two delimited files.

    The usage file carries either (user_id, text) rows, repeatable per user
    and tokenized here, or pre-counted (user_id, word, count) rows, whose
    word is lowercased and stripped as a text token is; rows whose words
    meet in one form add their counts.  The traits file maps user_id to
    numeric trait columns.  Counts and traits must be finite numbers, and
    one user's counts may sum to at most 2**53 (so float64 holds every sum
    exactly); a short row, a bad cell or bytes that are not UTF-8 raise
    ``RowError`` naming the file and line.  Users whose rows hold no word
    are left out; users missing a trait row are dropped with a warning.

    ``digest`` returns the sha256 hex digest of the usage file's bytes
    (None for none).  Given it, the parsed usage table of a regular file is
    mapped from the cache entry of that digest and delimiter, in
    ``$XDG_CACHE_HOME/lexlearn/users``, instead of parsing the file, and the
    entry is written after a parse (see
    :class:`~lexlearn._files.ParseCache`); the ``user``, ``term`` and
    ``count`` arrays are then read-only memory maps of the entry, or copies
    of them when users are dropped.  The traits file is read on every call,
    and the result is the same either way.
    """
    sep = _infer_delimiter(usage_path, delimiter)
    usage = _USAGE_CACHE.load(usage_path, lambda: _parse_usage(usage_path, sep),
                              digest, delimiter=sep)
    traits = {
        uid: _parse_number(cell, trait_column, traits_path, line)
        for line, (uid, cell) in _read_table(
            traits_path, delimiter, ("user_id", trait_column)
        )
    }
    ids, user, term, counts = usage.ids, usage.user, usage.term, usage.count
    missing = [uid for uid in ids if uid not in traits]
    if missing:
        warnings.warn(
            f"{len(missing)} user(s) have no trait score and were dropped: "
            f"{missing[:10]}",
            stacklevel=2,
        )
        keep = np.fromiter(map(traits.__contains__, ids), bool, len(ids))
        ids = tuple(compress(ids, keep.tolist()))
        # entries keep their order, so each user's still follow first use
        kept = keep[user]
        user = (np.cumsum(keep, dtype=np.int32) - 1)[user[kept]]
        term, counts = term[kept], counts[kept]
    if not ids:
        raise DataError("no user has both word counts and a trait score")
    return Users(ids, np.fromiter(map(traits.__getitem__, ids), np.float64, len(ids)),
                 usage.terms, user, term, counts)


def _parse_usage(usage_path: str | Path, delimiter: str) -> _Usage:
    """The usage table of a users file, by the rules that
    :func:`load_user_corpora` gives."""
    owners = defaultdict(count().__next__)  # user id -> index, first seen first
    term_ids = _TermIds()
    # one term id per token (or per count row), the user and size of each row
    tokens, owner, sizes = array("i"), array("i"), array("q")
    counts, totals = array("d"), {}
    for line, cells in _read_table(
        usage_path, delimiter, ("user_id", "text"), ("user_id", "word", "count")
    ):
        u = owners[cells[0]]
        owner.append(u)
        if len(cells) == 2:  # the (user_id, text) layout
            row = list(map(term_ids.__getitem__, cells[1].lower().split()))
            tokens.fromlist(row)
            sizes.append(len(row))
            continue
        value = int(_parse_number(cells[2], "count", usage_path, line))
        if value <= 0:
            raise RowError(f"{usage_path}: line {line}: count must be positive")
        totals[u] = total = totals.get(u, 0) + value
        if total > 2**53:
            raise RowError(f"{usage_path}: line {line}: the counts of user "
                           f"{cells[0]!r} sum past 2**53")
        tokens.append(term_ids[cells[1].lower()])
        sizes.append(1)
        counts.append(value)
    if not owners:
        raise DataError(f"{usage_path}: no user rows found")

    terms = tuple(term_ids.terms)
    row_user, row_size = np.frombuffer(owner, np.intc), np.frombuffer(sizes, np.int64)
    used = np.bincount(row_user, row_size, minlength=len(owners)) > 0
    ids = tuple(compress(owners, used.tolist()))
    if not tokens:
        empty = np.empty(0, np.int32)
        return _Usage(ids, terms, empty, empty, np.empty(0))
    # key the tokens by (user, term), in int32 while every key fits; a
    # stable sort groups them by key with each group in file order.  Each
    # temporary is deleted once the next is built.
    width = len(terms)
    key_type = np.int32 if len(ids) * width < _INT32_KEYS else np.int64
    token = np.frombuffer(tokens, np.intc)
    weight = np.frombuffer(counts, np.float64) if counts else None
    del tokens, counts
    index = np.cumsum(used, dtype=key_type) - 1  # user -> user with a word
    keys = np.repeat(index[row_user], row_size)
    keys *= width
    keys += token
    del token
    perm = np.argsort(keys, kind="stable")
    keys = keys[perm]
    first = np.empty(len(keys), bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    start = np.flatnonzero(first)
    del first
    if weight is not None:
        sums = np.add.reduceat(weight[perm], start)
        del weight
    else:  # a group's size, written straight into float64
        sums = np.empty(len(start))
        np.subtract(start[1:], start[:-1], out=sums[:-1])
        sums[-1] = len(keys) - start[-1]
    # one entry per (user, term), ordered by its first token
    perm = perm[start]  # the first token of each entry
    order = np.argsort(perm)
    del perm
    keys = keys[start[order]]
    del start
    user, term = np.divmod(keys, width)
    del keys
    return _Usage(ids, terms, user.astype(np.int32, copy=False),
                  term.astype(np.int32, copy=False), sums[order])


def _pack_strings(name: str, strings: tuple[str, ...]) -> dict[str, np.ndarray]:
    """``strings`` as one UTF-8 blob and the end offset of each."""
    encoded = [s.encode("utf-8") for s in strings]
    return {name: np.frombuffer(b"".join(encoded), np.uint8),
            f"{name}_ends": np.cumsum(list(map(len, encoded)), dtype=np.int64)}


def _unpack_strings(data, name: str) -> tuple[str, ...] | None:
    blob, ends = data[name], data[f"{name}_ends"]
    if (blob.dtype != np.uint8 or blob.ndim != 1
            or ends.dtype != np.int64 or ends.ndim != 1):
        return None
    bounds = np.concatenate([[0], ends])
    if bounds[-1] != len(blob) or (np.diff(bounds) < 0).any():
        return None
    raw, bounds = blob.tobytes(), bounds.tolist()
    return tuple(raw[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:]))


def _pack_usage(usage: _Usage) -> dict[str, np.ndarray]:
    return {**_pack_strings("ids", usage.ids), **_pack_strings("terms", usage.terms),
            "user": usage.user, "term": usage.term, "count": usage.count}


def _unpack_usage(data) -> _Usage | None:
    ids, terms = _unpack_strings(data, "ids"), _unpack_strings(data, "terms")
    user, term, counts = data["user"], data["term"], data["count"]
    if (ids is None or terms is None or user.dtype != np.int32
            or term.dtype != np.int32 or counts.dtype != np.float64
            or user.ndim != 1 or user.shape != term.shape
            or user.shape != counts.shape):
        return None
    if len(user) and not (0 <= user.min() and user.max() < len(ids)
                          and 0 <= term.min() and term.max() < len(terms)):
        return None
    return _Usage(ids, terms, user, term, counts)


# an id or a count-layout word may hold any character, so strings are stored
# as a blob and end offsets; the version covers the layout of an entry and
# the parse it holds (tokenize and _TokenForms included): a change to either
# takes a new one
_USAGE_CACHE = ParseCache("users", 3, _pack_usage, _unpack_usage)
