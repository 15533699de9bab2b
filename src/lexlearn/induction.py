"""Lexicon learning: four methods behind one fit interface, plus rescaling.

``mean_star`` averages the gold labels of the documents containing a word.
``mean_binary`` median-splits the labels first and averages the 0/1 codes.
``regression_weights`` reads word ratings off the coefficients of a ridge
model over relative-frequency bag-of-words features.  ``mlffn`` trains a
feed-forward net on (document centroid, label) pairs and rates a word by
running its embedding vector through the trained net, which also lets it
rate words that never occur in the corpus.

The first three methods read the corpus's document-term count arrays.  The
two mean methods sum labels per word in ascending document-index order
(``np.bincount`` adds its weights one by one, in input order), so their
output is exactly reproducible by a straightforward float recomputation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import Corpus, _first_non_utf8_line
# centroid stays importable from here for code that wraps it by module
# attribute; fit_mlffn takes all document centroids at once
from .embeddings import EmbeddingTable, centroid, centroids  # noqa: F401
from .errors import DataError, DegenerateLabelsError, DimensionError
from .neural import FeedForwardNet, NetConfig, forward_batch, train
# ridge_fit stays importable from here for code that wraps it by module
# attribute; fit_regression_weights passes the count arrays to the solver
from .numerics import ridge_fit, ridge_fit_sparse  # noqa: F401

__all__ = [
    "Lexicon",
    "MethodSpec",
    "METHOD_KINDS",
    "fit_mean_star",
    "fit_mean_binary",
    "fit_regression_weights",
    "fit_mlffn",
    "fit_method",
    "join_lexica",
    "rescale_log_minmax",
    "save_lexicon",
    "load_lexicon",
]

METHOD_KINDS = ("mean_star", "mean_binary", "regression_weights", "mlffn")

# words fit_mlffn rates per forward pass.  Blocks bound the memory of rating
# a crawl-size vocabulary; they stay large because BLAS may round a product
# of a few rows differently from the same rows in a large one.
RATE_BLOCK_ROWS = 65_536


@dataclass(frozen=True, eq=False)
class Lexicon:
    """Word -> per-construct rating table with provenance.

    ``words`` are sorted and distinct; ``ratings`` is one float64
    (len(words), len(constructs)) matrix, row i for words[i].
    """

    constructs: tuple[str, ...]
    words: tuple[str, ...]
    ratings: np.ndarray
    provenance: dict = field(default_factory=dict)

    @cached_property
    def rows(self) -> dict[str, int]:
        return dict(zip(self.words, range(len(self.words))))

    @cached_property
    def entries(self) -> dict[str, np.ndarray]:
        return dict(zip(self.words, self.ratings))

    def __len__(self) -> int:
        return len(self.words)

    def construct_index(self, construct: str) -> int:
        if construct not in self.constructs:
            raise DataError(
                f"unknown construct {construct!r}; available: {list(self.constructs)}"
            )
        return self.constructs.index(construct)

    def values(self, construct: str) -> np.ndarray:
        return self.ratings[:, self.construct_index(construct)]


@dataclass
class MethodSpec:
    """Which learning method to run and its method-specific knobs."""

    kind: str
    ridge_lambda: float = 1.0
    median_ties: str = "high"
    net: NetConfig | None = None
    table: EmbeddingTable | None = None
    rate_all_embedded: bool = False
    include_oov_words: bool = False

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}; one of {METHOD_KINDS}")
        if self.median_ties not in ("high", "low"):
            raise ValueError("median_ties must be 'high' or 'low'")
        if self.kind == "mlffn" and self.table is None:
            raise DataError("mlffn needs an embedding table")


def _require_vocab(corpus: Corpus, method: str) -> None:
    if not corpus.vocab:
        raise DataError(
            f"{method}: the corpus vocabulary is empty (no word reaches "
            f"min_df={corpus.min_df} in {len(corpus)} documents)"
        )


def _word_means(corpus: Corpus, labels: np.ndarray) -> np.ndarray:
    # bincount accumulates in entry order, which is ascending document order
    weights = labels[corpus.entry_rows()]
    sums = np.bincount(corpus.indices, weights=weights, minlength=len(corpus.terms))
    cols = corpus.vocab_columns
    return (sums[cols] / corpus.document_frequency[cols])[:, None]


def fit_mean_star(corpus: Corpus, construct: str) -> Lexicon:
    """Word rating = mean gold label of the documents containing the word."""
    _require_vocab(corpus, "mean_star")
    means = _word_means(corpus, corpus.values(construct))
    prov = {"method": "mean_star", "construct": construct}
    return Lexicon((construct,), tuple(corpus.vocab), means, prov)


def fit_mean_binary(corpus: Corpus, construct: str, ties: str = "high") -> Lexicon:
    """Median-split the labels to 0/1, then average per word.

    ``ties`` controls labels equal to the median: "high" codes them 1,
    "low" codes them 0.  All-identical labels are rejected.
    """
    _require_vocab(corpus, "mean_binary")
    labels = corpus.values(construct)
    if (labels == labels[0]).all():
        raise DegenerateLabelsError(
            f"mean_binary: all {construct!r} labels are identical"
        )
    med = float(np.median(labels))
    if ties not in ("high", "low"):
        raise ValueError("ties must be 'high' or 'low'")
    binary = (labels >= med) if ties == "high" else (labels > med)
    means = _word_means(corpus, binary.astype(np.float64))
    prov = {
        "method": "mean_binary",
        "construct": construct,
        "median": med,
        "ties": ties,
    }
    return Lexicon((construct,), tuple(corpus.vocab), means, prov)


def fit_regression_weights(
    corpus: Corpus, construct: str, ridge_lambda: float = 1.0
) -> Lexicon:
    """Word ratings = coefficients of a ridge model over relative word
    frequencies; the intercept stays out of the lexicon."""
    _require_vocab(corpus, "regression_weights")
    labels = corpus.values(construct)
    cols = corpus.vocab_columns
    col = np.full(len(corpus.terms), -1)
    col[cols] = np.arange(len(cols))
    rows, j = corpus.entry_rows(), col[corpus.indices]
    keep = j >= 0
    rows = rows[keep]
    frequencies = corpus.counts[keep] / corpus.lengths[rows]
    model = ridge_fit_sparse(rows, j[keep], frequencies, len(cols), labels,
                             ridge_lambda)
    prov = {
        "method": "regression_weights",
        "construct": construct,
        "ridge_lambda": ridge_lambda,
        "intercept": model.intercept,
        "cg_iterations": model.iterations,
    }
    return Lexicon((construct,), tuple(corpus.vocab), model.coefficients[:, None], prov)


def fit_mlffn(
    corpus: Corpus,
    constructs: list[str],
    table: EmbeddingTable,
    config: NetConfig,
    *,
    rate_all_embedded: bool = False,
    include_oov_words: bool = False,
) -> tuple[Lexicon, FeedForwardNet]:
    """Train the net on document centroids, then rate words by their vectors.

    By default only corpus-vocabulary words that have an embedding are
    rated.  ``rate_all_embedded`` extends the lexicon to the full embedding
    vocabulary; ``include_oov_words`` adds corpus words without an embedding,
    which all receive the net's zero-vector output (flagged in provenance).
    """
    if table.dim != config.input_dim:
        raise DimensionError(
            f"embedding dim {table.dim} != config input_dim {config.input_dim}"
        )
    if config.output_dim != len(constructs):
        raise DimensionError(
            f"config output_dim {config.output_dim} != {len(constructs)} constructs"
        )
    Y = np.column_stack([corpus.values(c) for c in constructs])
    _require_vocab(corpus, "mlffn")
    in_vocab = sorted(w for w in corpus.vocab if w in table)
    if not in_vocab:
        raise DataError("mlffn: no corpus word has an embedding vector")
    X = centroids(corpus, table)
    net, log = train(config, X, Y)

    words = sorted(table.words) if rate_all_embedded else in_vocab
    oov: list[str] = []
    if include_oov_words:
        oov = sorted(w for w in corpus.vocab if w not in table)
        words = sorted(set(words) | set(oov))
    ratings = np.empty((len(words), net.output_dim))
    for start in range(0, len(words), RATE_BLOCK_ROWS):
        block = table.matrix(words[start:start + RATE_BLOCK_ROWS]).astype(np.float64)
        ratings[start:start + len(block)] = forward_batch(net, block)
    prov = {
        "method": "mlffn",
        "constructs": list(constructs),
        "config": dataclasses.asdict(config),
        "best_epoch": log.best_epoch,
        "stopped_epoch": log.stopped_epoch,
        "best_val_mse": log.best_val,
        "rate_all_embedded": rate_all_embedded,
        "zero_vector_words": len(oov),
    }
    return Lexicon(tuple(constructs), tuple(words), ratings, prov), net


def join_lexica(parts: list[Lexicon]) -> Lexicon:
    """Put the construct columns of lexica over the same words side by side;
    a single part comes back as is."""
    if len(parts) == 1:
        return parts[0]
    constructs = tuple(c for lex in parts for c in lex.constructs)
    ratings = np.hstack([lex.ratings for lex in parts])
    prov = {"per_construct": [lex.provenance for lex in parts]}
    return Lexicon(constructs, parts[0].words, ratings, prov)


def fit_method(
    corpus: Corpus, constructs: list[str], spec: MethodSpec, seed: int | None = None
) -> Lexicon:
    """The one fit entry point: a counting method fits each construct and
    joins the columns with :func:`join_lexica`; ``mlffn`` trains one net with
    an output per construct, seeded ``seed`` when it is given."""
    if spec.kind == "mean_star":
        return join_lexica([fit_mean_star(corpus, c) for c in constructs])
    if spec.kind == "mean_binary":
        return join_lexica([fit_mean_binary(corpus, c, spec.median_ties)
                            for c in constructs])
    if spec.kind == "regression_weights":
        return join_lexica([fit_regression_weights(corpus, c, spec.ridge_lambda)
                            for c in constructs])
    config = spec.net or NetConfig(input_dim=spec.table.dim)
    config = dataclasses.replace(config, output_dim=len(constructs))
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    lex, _ = fit_mlffn(
        corpus,
        list(constructs),
        spec.table,
        config,
        rate_all_embedded=spec.rate_all_embedded,
        include_oov_words=spec.include_oov_words,
    )
    return lex


RESCALE_FORMULA = "lo + (hi - lo) * log1p(x - min) / log1p(max - min)"


def rescale_log_minmax(lex: Lexicon, lo: float, hi: float) -> Lexicon:
    """Log min-max rescaling of every construct into [lo, hi].

    Per construct: g(x) = ln(x - min + 1), then linear min-max of g onto
    [lo, hi].  Strictly monotone; the minimum maps to lo and the maximum to
    hi exactly.  A construct whose values are all equal collapses to the
    midpoint with a warning.  A range whose ratings overflow raises
    DataError.
    """
    if not lo < hi:
        raise ValueError(f"rescale: lo={lo} must be < hi={hi}")
    out = np.empty_like(lex.ratings)
    for ci, construct in enumerate(lex.constructs):
        col = lex.ratings[:, ci]
        vmin = col.min()
        vmax = col.max()
        with np.errstate(over="ignore"):
            span = vmax - vmin
        if not np.isfinite(span):
            raise DataError(f"rescale: {construct!r} ratings from {vmin} to "
                            f"{vmax} span more than a float64 holds")
        if vmax == vmin:
            warnings.warn(
                f"rescale: all {construct!r} ratings equal; assigning midpoint",
                stacklevel=2,
            )
            out[:, ci] = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
            continue
        g = np.log1p(col - vmin)
        scaled = lo + (hi - lo) * g / np.log1p(span)
        scaled[col == vmin] = lo
        scaled[col == vmax] = hi
        out[:, ci] = scaled
    if not np.isfinite(out).all():
        raise DataError(f"rescale: range [{lo}, {hi}] gives non-finite ratings")
    prov = dict(lex.provenance)
    prov["rescale"] = {"lo": lo, "hi": hi, "formula": RESCALE_FORMULA}
    return Lexicon(lex.constructs, lex.words, out, prov)


def save_lexicon(lex: Lexicon, path: str | Path) -> None:
    """Write the lexicon TSV: word + one column per construct, full-precision
    decimals.  The command line writes the ``<path>.prov`` sidecar."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\t".join(["word", *lex.constructs]) + "\n")
        columns = [map(repr, column) for column in lex.ratings.T.tolist()]
        rows = map("\t".join, zip(lex.words, *columns))
        handle.writelines(f"{row}\n" for row in rows)


def load_lexicon(path: str | Path) -> Lexicon:
    """Read a lexicon TSV written by :func:`save_lexicon` (or compatible).

    Every rating must be finite and every construct column named once; a bad
    line raises ``DataError`` naming the file and the line.  A repeated word
    keeps its last line's ratings.  Rows may come in any order; the lexicon
    holds them sorted by word.  A byte order mark before the header is
    dropped.
    """
    path = Path(path)
    rows: dict[str, list[float]] = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            header = handle.readline().rstrip("\n").split("\t")
            if len(header) < 2 or header[0] != "word":
                raise DataError(
                    f"{path}: expected a header starting with 'word' and one or "
                    f"more construct columns"
                )
            constructs = tuple(header[1:])
            if len(set(constructs)) < len(constructs):
                raise DataError(
                    f"{path}: line 1: construct columns repeat: {list(constructs)}"
                )
            for line_no, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t")
                if len(parts) != len(header):
                    raise DataError(f"{path}: line {line_no}: wrong field count")
                try:
                    row = [float(v) for v in parts[1:]]
                except ValueError:
                    raise DataError(
                        f"{path}: line {line_no}: unparsable rating value"
                    ) from None
                if not all(map(math.isfinite, row)):
                    raise DataError(f"{path}: line {line_no}: non-finite rating value")
                rows[parts[0]] = row  # a repeated word keeps its last line
    except UnicodeDecodeError:
        raise DataError(
            f"{path}: line {_first_non_utf8_line(path)}: bytes are not valid UTF-8"
        ) from None
    if not rows:
        raise DataError(f"{path}: lexicon has no entries")
    words = tuple(sorted(rows))
    prov_path = Path(str(path) + ".prov")
    provenance = {}
    if prov_path.exists():
        try:
            provenance = json.loads(prov_path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DataError(f"{prov_path}: malformed sidecar: {exc}") from None
        if not isinstance(provenance, dict):
            raise DataError(f"{prov_path}: provenance sidecar is not a JSON object")
    return Lexicon(constructs, words, np.array([rows[w] for w in words]), provenance)
