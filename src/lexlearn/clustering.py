"""Signed spectral clustering of a lexicon.

Words become graph nodes; each word connects to its nearest neighbors by
embedding cosine, and the edge weight is that (clipped) cosine gated by
rating agreement: w_ij = max(cos, 0) * (1 - |r_i - r_j| / rho).  Words of
similar rating attract, words whose ratings differ by more than rho repel.
Clusters come from k-means over the k smallest eigenvectors of the signed
Laplacian L = D - W with D_ii = sum_j |w_ij|, which is symmetric positive
semidefinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError
from .induction import Lexicon
from .numerics import CSRMatrix, kmeans, sym_eig_smallest

__all__ = [
    "SignedGraph",
    "ClusterResult",
    "build_signed_graph",
    "signed_laplacian",
    "cluster",
    "save_clusters",
    "format_preview",
]


EDGE_DTYPE = np.dtype([("i", np.intp), ("j", np.intp), ("w", np.float64)])


@dataclass(frozen=True, eq=False)
class SignedGraph:
    """Undirected signed graph over lexicon words: ``edges`` is an EDGE_DTYPE
    array of (i, j, w) records, one per edge with i < j, sorted by (i, j)."""

    node_words: tuple[str, ...]
    edges: np.ndarray
    construct: str
    rho: float
    dropped_words: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return len(self.node_words)


@dataclass
class ClusterResult:
    """k-way partition of lexicon words with per-cluster rating summaries.

    ``clusters[c]`` lists (word, rating) pairs sorted by rating, descending
    for clusters whose mean sits at or above the overall mean (high pole)
    and ascending otherwise.  ``metrics`` holds the deterministic counters
    of the graph and the eigensolve.
    """

    k: int
    construct: str
    assignment: dict[str, int]
    clusters: list[list[tuple[str, float]]]
    cluster_means: list[float]
    dropped_words: tuple[str, ...] = ()
    provenance: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)


def build_signed_graph(
    lex: Lexicon,
    construct: str,
    table: EmbeddingTable,
    knn: int = 20,
    rho: float | None = None,
    *,
    clip_negative_cosine: bool = True,
) -> SignedGraph:
    """kNN graph by cosine similarity with rating-gated signed weights.

    ``rho`` is the rating gap at which an edge's sign flips; it defaults to
    half the construct's rating range over the lexicon.  Words with a zero
    embedding cannot sit in the graph and are reported as dropped.
    """
    if knn < 1:
        raise ValueError(f"build_signed_graph: knn must be >= 1, got {knn}")
    ci = lex.construct_index(construct)
    vectors = table.matrix(lex.words).astype(np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    usable = norms > 0.0
    dropped = tuple(compress(lex.words, ~usable))
    words = list(compress(lex.words, usable))
    n = len(words)
    if n < knn + 1:
        raise DataError(
            f"only {n} words have nonzero embeddings; need at least knn+1 = {knn + 1}"
        )
    if rho is None:
        rho = float(np.ptp(lex.ratings[:, ci])) / 2.0
    if not 0 < rho < np.inf:
        raise DataError(f"rho must be finite and positive, got {rho}")
    unit = vectors[usable] / norms[usable][:, None]
    ratings = lex.ratings[usable, ci]

    # each row's knn nearest neighbours, rows in order, keyed i * n + j, i < j
    keys, weights = [], []
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        sims = unit[start:stop] @ unit.T
        rows = np.arange(start, stop)[:, None]
        sims[rows - start, rows] = -np.inf  # no self-loops
        nbrs = np.argpartition(sims, -knn, axis=1)[:, -knn:]
        cos = np.clip(np.take_along_axis(sims, nbrs, axis=1), -1.0, 1.0)
        base = np.maximum(cos, 0.0) if clip_negative_cosine else cos
        keys.append(np.minimum(rows, nbrs) * n + np.maximum(rows, nbrs))
        weights.append(base * (1.0 - np.abs(ratings[rows] - ratings[nbrs]) / rho))
    keys, weights = np.concatenate(keys, axis=None), np.concatenate(weights, axis=None)
    # a pair keeps its later row's nonzero weight: unique over reversed keys
    nonzero = weights != 0.0
    keys, last = np.unique(keys[nonzero][::-1], return_index=True)
    edges = np.empty(len(keys), dtype=EDGE_DTYPE)
    edges["i"], edges["j"] = np.divmod(keys, n)
    edges["w"] = weights[nonzero][::-1][last]
    return SignedGraph(tuple(words), edges, construct, rho, dropped)


def signed_laplacian(g: SignedGraph, *, normalized: bool = False) -> CSRMatrix:
    """L = D - W with D_ii = sum_j |w_ij|; optionally D^-1/2 L D^-1/2.

    Returns a :class:`~lexlearn.numerics.CSRMatrix`: each row holds its
    diagonal entry and one entry per edge, so L takes O(edges) memory and no
    n x n array is built (``np.asarray(L)`` gives the dense matrix).
    Isolated nodes make the spectral embedding meaningless, so they are an
    error that names the words involved.
    """
    i, j, w = g.edges["i"], g.edges["j"], g.edges["w"]
    absdeg = np.bincount(i, np.abs(w), g.n) + np.bincount(j, np.abs(w), g.n)
    isolated = [g.node_words[k] for k in np.flatnonzero(absdeg == 0.0)]
    if isolated:
        raise DataError(
            f"{len(isolated)} isolated word(s) in the signed graph: {isolated[:10]}"
        )
    nodes = np.arange(g.n)
    rows = np.concatenate([i, j, nodes])
    cols = np.concatenate([j, i, nodes])
    data = np.concatenate([-w, -w, absdeg])
    order = np.argsort(rows * g.n + cols, kind="stable")
    rows, cols, data = rows[order], cols[order], data[order]
    if normalized:
        inv_sqrt = 1.0 / np.sqrt(absdeg)
        data = data * inv_sqrt[rows] * inv_sqrt[cols]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=g.n))])
    return CSRMatrix(data, cols, indptr)


def cluster(
    lex: Lexicon,
    construct: str,
    table: EmbeddingTable,
    k: int,
    knn: int = 20,
    rho: float | None = None,
    seed: int = 0,
    *,
    normalized: bool = False,
    clip_negative_cosine: bool = True,
) -> ClusterResult:
    """Signed spectral clustering: embed into the k smallest eigenvectors of
    the signed Laplacian (rows unit-normalized), then seeded k-means."""
    if k < 2:
        raise ValueError(f"cluster: k must be >= 2, got {k}")
    graph = build_signed_graph(
        lex, construct, table, knn, rho, clip_negative_cosine=clip_negative_cosine
    )
    if k > graph.n:
        raise ValueError(f"cluster: k={k} exceeds usable word count {graph.n}")
    L = signed_laplacian(graph, normalized=normalized)
    eigen: dict = {}
    _, vecs = sym_eig_smallest(L, k, seed, stats=eigen)
    row_norms = np.linalg.norm(vecs, axis=1)
    rows = vecs / np.where(row_norms > 0, row_norms, 1.0)[:, None]
    assign = kmeans(rows, k, restarts=10, seed=seed)

    ratings = lex.values(construct)[[lex.rows[w] for w in graph.node_words]]
    order = np.argsort(assign, kind="stable")  # by cluster, then node order
    groups = np.split(order, np.cumsum(np.bincount(assign, minlength=k))[:-1])
    members = [[(graph.node_words[i], ratings[i].item()) for i in g] for g in groups]
    means = [float(np.mean(ratings[g])) if len(g) else float("nan") for g in groups]
    overall = float(np.mean(ratings[order]))
    clusters = [
        sorted(m, key=lambda wr: wr[1], reverse=mean >= overall)
        for m, mean in zip(members, means)
    ]
    assignment = dict(zip(graph.node_words, assign.tolist()))
    prov = {
        "construct": construct,
        "k": k,
        "knn": knn,
        "rho": graph.rho,
        "seed": seed,
        "normalized_laplacian": normalized,
        "clip_negative_cosine": clip_negative_cosine,
        "edge_weight": "max(cos,0) * (1 - |dr|/rho)"
        if clip_negative_cosine
        else "cos * (1 - |dr|/rho)",
        "dropped_words": len(graph.dropped_words),
    }
    metrics = {
        "edges": len(graph.edges),
        "negative_edges": int(np.count_nonzero(graph.edges["w"] < 0)),
        "eigensolver": eigen["solver"],
        "eigen_iterations": eigen["iterations"],
        # to 2 significant digits: the trailing ones vary with the BLAS
        # thread count
        "eigen_worst_residual": float(f"{eigen['worst_residual']:.2g}"),
    }
    return ClusterResult(
        k, construct, assignment, clusters, means, graph.dropped_words, prov, metrics
    )


def _populated(result: ClusterResult) -> list[int]:
    return [c for c in range(result.k) if result.clusters[c]]


def save_clusters(result: ClusterResult, path: str | Path) -> None:
    """Cluster export TSV: cluster_id, word, rating, cluster_mean_rating and
    an empty manual_label column for downstream human annotation."""
    order = sorted(_populated(result), key=lambda c: -result.cluster_means[c])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("cluster_id\tword\trating\tcluster_mean_rating\tmanual_label\n")
        for c in order:
            for word, rating in result.clusters[c]:
                handle.write(
                    f"{c}\t{word}\t{rating!r}\t{result.cluster_means[c]!r}\t\n"
                )


def format_preview(result: ClusterResult, top: int = 10) -> str:
    """Terminal preview: top words of the highest- and lowest-mean clusters."""
    by_mean = sorted(_populated(result), key=lambda c: result.cluster_means[c])
    lines = []
    for label, c in (("highest", by_mean[-1]), ("lowest", by_mean[0])):
        words = ", ".join(w for w, _ in result.clusters[c][:top])
        lines.append(
            f"{label} {result.construct} cluster (id {c}, mean "
            f"{result.cluster_means[c]:.3f}): {words}"
        )
    return "\n".join(lines)
