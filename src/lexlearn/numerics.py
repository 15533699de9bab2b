"""Numerical kernels: Pearson correlation, ridge regression, symmetric
eigensolves, and k-means.

Everything is plain numpy.  Ridge regression is matrix-free conjugate
gradients over the (row, column, value) entries of the design matrix.  The
eigensolver is one LAPACK symmetric eigendecomposition (``np.linalg.eigh``)
sliced to the smallest pairs.  All stochastic routines take explicit seeds
and are bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    UndefinedCorrelationError,
)

__all__ = ["pearson", "RidgeModel", "ridge_fit", "ridge_fit_sparse",
           "sym_eig_smallest", "kmeans"]


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length vectors.

    Raises UndefinedCorrelationError when either argument has zero variance
    or holds a non-finite value; callers decide how to report that.  Finite
    values of any magnitude are accepted: when the sums of squares overflow
    or underflow, they are recomputed on the vectors scaled into [-1, 1].
    """
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"pearson: incompatible shapes {a.shape} and {b.shape}")
    if a.size < 2:
        raise DimensionError("pearson: need at least 2 observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise UndefinedCorrelationError("pearson: an argument holds a non-finite value")
    # before the sums: a constant's mean can round away from its value
    if a.min() == a.max() or b.min() == b.max():
        raise UndefinedCorrelationError("pearson: an argument has zero variance")
    with np.errstate(all="ignore"):  # overflow and underflow are checked below
        cov, ssa, ssb = _centred_sums(a, b)
        scale = np.sqrt(ssa) * np.sqrt(ssb)
        if not np.finfo(np.float64).tiny <= scale < np.inf:
            # the sums overflowed or underflowed: redo them on each vector
            # divided by its largest magnitude, where neither they nor their
            # product can
            cov, ssa, ssb = _centred_sums(a / np.abs(a).max(), b / np.abs(b).max())
            scale = np.sqrt(ssa * ssb)
    return float(np.clip(cov / scale, -1.0, 1.0))


def _centred_sums(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """Sums of cross products and of squares of the centred vectors."""
    ac = a - a.mean()
    bc = b - b.mean()
    return np.sum(ac * bc), np.sum(ac * ac), np.sum(bc * bc)


@dataclass(frozen=True)
class RidgeModel:
    """Fitted linear model: intercept (unpenalized), one weight per feature,
    and the solver's iteration count."""

    intercept: float
    coefficients: np.ndarray
    iterations: int = 0

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self.intercept + X @ self.coefficients


# CG stops at ||r|| <= CG_TOLERANCE * ||Xc'yc|| and fails after
# CG_ITERATIONS_PER_DIM * min(n, p) iterations; in exact arithmetic it
# converges within rank(Xc) <= min(n, p)
CG_TOLERANCE = 1e-12
CG_ITERATIONS_PER_DIM = 10


def ridge_fit(X, y, lam: float) -> RidgeModel:
    """Ridge regression of y on a dense X: its nonzero entries go to
    :func:`ridge_fit_sparse`."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DimensionError(
            f"ridge_fit: X is {X.shape}, y is {y.shape}; rows must match"
        )
    rows, cols = np.nonzero(X)
    return ridge_fit_sparse(rows, cols, X[rows, cols], X.shape[1], y, lam)


def ridge_fit_sparse(rows, cols, values, n_features: int, y, lam: float) -> RidgeModel:
    """Ridge regression over the entries (rows, cols, values) of an
    n x n_features X, n = len(y), summing repeated (row, col) pairs.

    Minimizes sum_i (y_i - a0 - x_i . a)^2 + lam * ||a||^2, the intercept
    unpenalized, by conjugate gradients (Hestenes & Stiefel 1952) on
    (Xc'Xc + lam I) a = Xc'yc.  No matrix is formed: Xc a = X a - (xm . a) 1
    is one ``np.bincount`` over the entries, and so is Xc'u = X'u for a u
    that sums to 0, as Xc a and yc do.  Started at a = 0, CG stays in the
    row space of Xc, so lam = 0 gives the minimum-norm least-squares
    solution.  Not converging within the iteration cap raises NumericalError.
    """
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    values, y = np.asarray(values, dtype=np.float64), np.asarray(y, dtype=np.float64)
    n, p = len(y), n_features
    if rows.size and not (0 <= rows.min() <= rows.max() < n
                          and 0 <= cols.min() <= cols.max() < p):
        raise DimensionError(f"ridge_fit: an entry lies outside {n} x {p}")
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"ridge_fit: lam must be finite and nonnegative, got {lam}")
    xm = np.bincount(cols, weights=values, minlength=p) / n
    ym = y.mean()
    yc = y - ym
    rhs = np.bincount(cols, weights=values * yc[rows], minlength=p)
    coef = np.zeros(p)
    resid, direction = rhs, rhs.copy()
    rr = resid @ resid
    stop = CG_TOLERANCE * np.sqrt(rr)
    cap = CG_ITERATIONS_PER_DIM * min(n, p)
    iterations = 0
    while not np.sqrt(rr) <= stop:
        if iterations == cap or not np.isfinite(rr):
            raise NumericalError(
                f"ridge_fit: conjugate gradients unconverged after {iterations} "
                f"iterations (residual {np.sqrt(rr):.3g}, target {stop:.3g})"
            )
        iterations += 1
        # q = (Xc'Xc + lam I) direction, with X' standing in for Xc' on u = Xc d
        u = np.bincount(rows, weights=values * direction[cols], minlength=n)
        u -= xm @ direction
        q = np.bincount(cols, weights=values * u[rows], minlength=p) + lam * direction
        step = rr / (direction @ q)
        coef += step * direction
        resid -= step * q
        rr, rr_old = resid @ resid, rr
        direction = resid + (rr / rr_old) * direction
    return RidgeModel(float(ym - xm @ coef), coef, iterations)


# ---------------------------------------------------------------------------
# symmetric eigensolver
# ---------------------------------------------------------------------------


_CHECK_ROWS = 256


def sym_eig_smallest(A, k: int):
    """k algebraically smallest eigenpairs of a symmetric matrix.

    One LAPACK call (``np.linalg.eigh``, which reads the lower triangle)
    computes the full spectrum; the symmetry check guards the other
    triangle.  A non-finite entry, or LAPACK failing to converge, raises
    NumericalError.  Returns (eigenvalues ascending of length k, eigenvector
    matrix n x k with orthonormal columns).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"sym_eig_smallest: matrix must be square, got {A.shape}")
    n = A.shape[0]
    if not 1 <= k <= n:
        raise DimensionError(f"sym_eig_smallest: k={k} out of range for n={n}")
    # both checks run over row blocks, so neither builds an n x n temporary
    blocks = [slice(i, i + _CHECK_ROWS) for i in range(0, n, _CHECK_ROWS)]
    if not all(np.isfinite(A[b]).all() for b in blocks):
        # eigh returns NaN for such input instead of raising
        raise NumericalError("sym_eig_smallest: matrix holds a non-finite value")
    # A - A.T is antisymmetric, so its max is its largest |entry|
    if max((A[b] - A[:, b].T).max() for b in blocks) > 1e-8:
        raise DimensionError("sym_eig_smallest: matrix is not symmetric within 1e-8")
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"sym_eig_smallest: {exc}") from exc
    # copy the k columns so the full n x n basis can be freed
    return vals[:k].copy(), vecs[:, :k].copy()


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _sq_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(centers * centers, axis=1)[None, :]
        - 2.0 * X @ centers.T
    )
    return np.maximum(d, 0.0)


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _sq_distances(X, X[chosen[-1]][None, :])[:, 0]
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_distances(X, X[idx][None, :])[:, 0])
    return X[chosen].copy()


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int = 300,
           tol: float = 1e-8):
    """Lloyd iterations; returns (assignment, centers, per-iteration WCSS)."""
    k = centers.shape[0]
    history = []
    assign = np.zeros(X.shape[0], dtype=np.intp)
    for _ in range(max_iter):
        d2 = _sq_distances(X, centers)
        assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(X.shape[0]), assign].sum()))
        new_centers = centers.copy()
        for c in range(k):
            members = assign == c
            if members.any():
                new_centers[c] = X[members].mean(axis=0)
            else:
                # re-seed an empty cluster with the point farthest from its center
                far = int(np.argmax(d2[np.arange(X.shape[0]), assign]))
                new_centers[c] = X[far]
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if shift < tol:
            break
    d2 = _sq_distances(X, centers)
    assign = np.argmin(d2, axis=1)
    history.append(float(d2[np.arange(X.shape[0]), assign].sum()))
    return assign, centers, history


def kmeans(points, k: int, restarts: int = 10, seed: int = 0) -> np.ndarray:
    """Seeded k-means++ with Lloyd refinement, best of ``restarts`` by WCSS.

    Deterministic for a fixed seed: restart streams are spawned from one
    SeedSequence, and ties keep the earliest restart.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionError(f"kmeans: points must be 2-d, got shape {X.shape}")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise DimensionError(f"kmeans: k={k} out of range for n={n} points")
    if restarts < 1:
        raise ValueError("kmeans: restarts must be positive")
    best_assign = None
    best_wcss = np.inf
    for seq in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(seq)
        centers = _kmeanspp_init(X, k, rng)
        assign, _, history = _lloyd(X, centers)
        if history[-1] < best_wcss:
            best_wcss = history[-1]
            best_assign = assign
    return best_assign
