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
from pathlib import Path

import numpy as np

from .corpus import Corpus, _first_non_utf8_line, corpus_fingerprint
# centroid stays importable from here for code that wraps it by module
# attribute; fit_mlffn takes all document centroids at once
from .embeddings import EmbeddingTable, centroid, centroids  # noqa: F401
from .errors import DataError, DegenerateLabelsError, DimensionError
from .neural import FeedForwardNet, NetConfig, forward_batch, train
from .numerics import ridge_fit

__all__ = [
    "Lexicon",
    "MethodSpec",
    "METHOD_KINDS",
    "fit_mean_star",
    "fit_mean_binary",
    "fit_regression_weights",
    "fit_mlffn",
    "fit_method",
    "rescale_log_minmax",
    "save_lexicon",
    "load_lexicon",
]

METHOD_KINDS = ("mean_star", "mean_binary", "regression_weights", "mlffn")


@dataclass
class Lexicon:
    """Word -> per-construct rating table with provenance."""

    constructs: tuple[str, ...]
    entries: dict[str, np.ndarray]
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def construct_index(self, construct: str) -> int:
        if construct not in self.constructs:
            raise DataError(
                f"unknown construct {construct!r}; available: {list(self.constructs)}"
            )
        return self.constructs.index(construct)

    def ratings_for(self, construct: str) -> dict[str, float]:
        ci = self.construct_index(construct)
        return {w: float(v[ci]) for w, v in self.entries.items()}

    def values(self, construct: str) -> np.ndarray:
        ci = self.construct_index(construct)
        return np.array([v[ci] for v in self.entries.values()], dtype=np.float64)


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


def _label_vector(corpus: Corpus, construct: str) -> list[float]:
    if construct not in corpus.constructs:
        raise DataError(
            f"unknown construct {construct!r}; available: {list(corpus.constructs)}"
        )
    return [doc.ratings[construct] for doc in corpus.documents]


def _require_vocab(corpus: Corpus, method: str) -> None:
    if not corpus.vocab:
        raise DataError(
            f"{method}: the corpus vocabulary is empty (no word reaches "
            f"min_df={corpus.min_df} in {len(corpus)} documents)"
        )


def _word_means(corpus: Corpus, labels: list[float]) -> dict[str, float]:
    # bincount accumulates in entry order, which is ascending document order
    weights = np.asarray(labels, dtype=np.float64)[corpus.entry_rows()]
    sums = np.bincount(corpus.indices, weights=weights, minlength=len(corpus.terms))
    cols = corpus.vocab_columns
    means = sums[cols] / corpus.document_frequency[cols]
    return {corpus.terms[j]: float(m) for j, m in zip(cols.tolist(), means)}


def fit_mean_star(corpus: Corpus, construct: str) -> Lexicon:
    """Word rating = mean gold label of the documents containing the word."""
    _require_vocab(corpus, "mean_star")
    labels = _label_vector(corpus, construct)
    means = _word_means(corpus, labels)
    entries = {w: np.array([r]) for w, r in means.items()}
    prov = {
        "method": "mean_star",
        "construct": construct,
        "corpus_fingerprint": corpus_fingerprint(corpus),
    }
    return Lexicon((construct,), entries, prov)


def fit_mean_binary(corpus: Corpus, construct: str, ties: str = "high") -> Lexicon:
    """Median-split the labels to 0/1, then average per word.

    ``ties`` controls labels equal to the median: "high" codes them 1,
    "low" codes them 0.  All-identical labels are rejected.
    """
    _require_vocab(corpus, "mean_binary")
    labels = _label_vector(corpus, construct)
    if len(set(labels)) < 2:
        raise DegenerateLabelsError(
            f"mean_binary: all {construct!r} labels are identical"
        )
    med = float(np.median(np.array(labels)))
    if ties == "high":
        binary = [1.0 if v >= med else 0.0 for v in labels]
    elif ties == "low":
        binary = [1.0 if v > med else 0.0 for v in labels]
    else:
        raise ValueError("ties must be 'high' or 'low'")
    means = _word_means(corpus, binary)
    entries = {w: np.array([r]) for w, r in means.items()}
    prov = {
        "method": "mean_binary",
        "construct": construct,
        "median": med,
        "ties": ties,
        "corpus_fingerprint": corpus_fingerprint(corpus),
    }
    return Lexicon((construct,), entries, prov)


def fit_regression_weights(
    corpus: Corpus, construct: str, ridge_lambda: float = 1.0
) -> Lexicon:
    """Word ratings = coefficients of a ridge model over relative word
    frequencies; the intercept stays out of the lexicon."""
    _require_vocab(corpus, "regression_weights")
    labels = _label_vector(corpus, construct)
    cols = corpus.vocab_columns
    words = [corpus.terms[j] for j in cols.tolist()]
    col = np.full(len(corpus.terms), -1)
    col[cols] = np.arange(len(cols))
    rows, j = corpus.entry_rows(), col[corpus.indices]
    keep = j >= 0
    X = np.zeros((len(corpus), len(words)))
    X[rows[keep], j[keep]] = corpus.counts[keep] / corpus.lengths[rows[keep]]
    model = ridge_fit(X, np.array(labels), ridge_lambda)
    entries = {w: np.array([model.coefficients[j]]) for j, w in enumerate(words)}
    prov = {
        "method": "regression_weights",
        "construct": construct,
        "ridge_lambda": ridge_lambda,
        "intercept": model.intercept,
        "corpus_fingerprint": corpus_fingerprint(corpus),
    }
    return Lexicon((construct,), entries, prov)


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
    for c in constructs:
        if c not in corpus.constructs:
            raise DataError(
                f"unknown construct {c!r}; available: {list(corpus.constructs)}"
            )
    if table.dim != config.input_dim:
        raise DimensionError(
            f"embedding dim {table.dim} != config input_dim {config.input_dim}"
        )
    if config.output_dim != len(constructs):
        raise DimensionError(
            f"config output_dim {config.output_dim} != {len(constructs)} constructs"
        )
    _require_vocab(corpus, "mlffn")
    in_vocab = sorted(w for w in corpus.vocab if w in table)
    if not in_vocab:
        raise DataError("mlffn: no corpus word has an embedding vector")
    X = centroids(corpus, table)
    Y = np.array([[doc.ratings[c] for c in constructs] for doc in corpus.documents])
    net, log = train(config, X, Y)

    words = sorted(table.words) if rate_all_embedded else in_vocab
    oov: list[str] = []
    if include_oov_words:
        oov = sorted(w for w in corpus.vocab if w not in table)
        words = sorted(set(words) | set(oov))
    vectors = table.matrix(words).astype(np.float64)
    ratings = forward_batch(net, vectors)
    entries = {w: ratings[i].copy() for i, w in enumerate(words)}
    prov = {
        "method": "mlffn",
        "constructs": list(constructs),
        "config": dataclasses.asdict(config),
        "corpus_fingerprint": corpus_fingerprint(corpus),
        "best_epoch": log.best_epoch,
        "stopped_epoch": log.stopped_epoch,
        "best_val_mse": log.best_val,
        "rate_all_embedded": rate_all_embedded,
        "zero_vector_words": len(oov),
    }
    return Lexicon(tuple(constructs), entries, prov), net


def fit_method(
    corpus: Corpus, construct: str, spec: MethodSpec, seed: int | None = None
) -> Lexicon:
    """Uniform single-construct dispatch used by evaluation and the CLI."""
    if spec.kind == "mean_star":
        return fit_mean_star(corpus, construct)
    if spec.kind == "mean_binary":
        return fit_mean_binary(corpus, construct, spec.median_ties)
    if spec.kind == "regression_weights":
        return fit_regression_weights(corpus, construct, spec.ridge_lambda)
    config = spec.net
    if config is None:
        config = NetConfig(input_dim=spec.table.dim, output_dim=1)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    config = dataclasses.replace(config, output_dim=1)
    lex, _ = fit_mlffn(
        corpus,
        [construct],
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
    midpoint with a warning.
    """
    if not lo < hi:
        raise ValueError(f"rescale: lo={lo} must be < hi={hi}")
    words = list(lex.entries)
    values = np.array([lex.entries[w] for w in words], dtype=np.float64)
    out = np.empty_like(values)
    for ci, construct in enumerate(lex.constructs):
        col = values[:, ci]
        vmin = col.min()
        vmax = col.max()
        if vmax == vmin:
            warnings.warn(
                f"rescale: all {construct!r} ratings equal; assigning midpoint",
                stacklevel=2,
            )
            out[:, ci] = 0.5 * (lo + hi)
            continue
        g = np.log1p(col - vmin)
        scaled = lo + (hi - lo) * g / np.log1p(vmax - vmin)
        scaled[col == vmin] = lo
        scaled[col == vmax] = hi
        out[:, ci] = scaled
    entries = {w: out[i].copy() for i, w in enumerate(words)}
    prov = dict(lex.provenance)
    prov["rescale"] = {"lo": lo, "hi": hi, "formula": RESCALE_FORMULA}
    return Lexicon(lex.constructs, entries, prov)


def save_lexicon(lex: Lexicon, path: str | Path, *, provenance: bool = True) -> None:
    """Write the lexicon TSV (word + one column per construct, full-precision
    decimals) and a JSON provenance sidecar at ``<path>.prov``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\t".join(["word", *lex.constructs]) + "\n")
        for word in sorted(lex.entries):
            row = [word] + [repr(float(v)) for v in lex.entries[word]]
            handle.write("\t".join(row) + "\n")
    if provenance:
        with open(str(path) + ".prov", "w", encoding="utf-8", newline="\n") as handle:
            json.dump(lex.provenance, handle, indent=2, sort_keys=True)
            handle.write("\n")


def load_lexicon(path: str | Path) -> Lexicon:
    """Read a lexicon TSV written by :func:`save_lexicon` (or compatible).

    Every rating must be a finite number; a bad line raises ``DataError``
    naming the file and the line.
    """
    path = Path(path)
    entries: dict[str, np.ndarray] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n").split("\t")
            if len(header) < 2 or header[0] != "word":
                raise DataError(
                    f"{path}: expected a header starting with 'word' and one or "
                    f"more construct columns"
                )
            constructs = tuple(header[1:])
            for line_no, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t")
                if len(parts) != len(header):
                    raise DataError(f"{path}: line {line_no}: wrong field count")
                try:
                    values = [float(v) for v in parts[1:]]
                except ValueError:
                    raise DataError(
                        f"{path}: line {line_no}: unparsable rating value"
                    ) from None
                if not all(map(math.isfinite, values)):
                    raise DataError(f"{path}: line {line_no}: non-finite rating value")
                entries[parts[0]] = np.array(values)
    except UnicodeDecodeError:
        raise DataError(
            f"{path}: line {_first_non_utf8_line(path)}: bytes are not valid UTF-8"
        ) from None
    if not entries:
        raise DataError(f"{path}: lexicon has no entries")
    prov_path = Path(str(path) + ".prov")
    provenance = {}
    if prov_path.exists():
        try:
            provenance = json.loads(prov_path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DataError(f"{prov_path}: malformed sidecar: {exc}") from None
        if not isinstance(provenance, dict):
            raise DataError(f"{prov_path}: provenance sidecar is not a JSON object")
    return Lexicon(constructs, entries, provenance)
