"""Dense numerical kernels: Pearson correlation, ridge regression, symmetric
eigensolves, and k-means.

Everything is plain numpy.  The eigensolver is one LAPACK symmetric
eigendecomposition (``np.linalg.eigh``) sliced to the smallest pairs.  All
stochastic routines take explicit seeds and are bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    UndefinedCorrelationError,
)

__all__ = ["pearson", "RidgeModel", "ridge_fit", "sym_eig_smallest", "kmeans"]


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length vectors.

    Raises UndefinedCorrelationError when either argument has zero variance
    or holds a non-finite value; callers decide how to report that.
    """
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"pearson: incompatible shapes {a.shape} and {b.shape}")
    if a.size < 2:
        raise DimensionError("pearson: need at least 2 observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise UndefinedCorrelationError("pearson: an argument holds a non-finite value")
    ac = a - a.mean()
    bc = b - b.mean()
    sa = np.sqrt(np.sum(ac * ac))
    sb = np.sqrt(np.sum(bc * bc))
    if sa == 0.0 or sb == 0.0:
        raise UndefinedCorrelationError("pearson: an argument has zero variance")
    return float(np.clip(np.sum(ac * bc) / (sa * sb), -1.0, 1.0))


@dataclass(frozen=True)
class RidgeModel:
    """Fitted linear model: intercept (unpenalized) plus one weight per feature."""

    intercept: float
    coefficients: np.ndarray

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self.intercept + X @ self.coefficients


def ridge_fit(X, y, lam: float) -> RidgeModel:
    """Ridge regression via centered normal equations and a Cholesky solve.

    Minimizes sum_i (y_i - a0 - x_i . a)^2 + lam * ||a||^2 with the intercept
    left out of the penalty (centering trick).  The system is solved in the
    smaller of the two spaces, chosen from the shape of X: with at most as
    many features as rows, the primal p x p system (Xc'Xc + lam I) a = Xc'yc;
    with more features than rows, the dual n x n system
    (Xc Xc' + lam I) d = yc, mapped back as a = Xc'd (Saunders, Gammerman &
    Vovk 1998).  Both give the same minimizer.  The dual Gram also gets a
    rank-one term along the ones vector, which centering leaves in its null
    space; d is orthogonal to that vector, so the term leaves d unchanged
    and at lam = 0 the dual gives the minimum-norm least-squares solution.
    A numerically singular Gram matrix gets lam bumped by 1e-10 up to 3
    times before giving up.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DimensionError(
            f"ridge_fit: X is {X.shape}, y is {y.shape}; rows must match"
        )
    if lam < 0:
        raise ValueError("ridge_fit: lam must be nonnegative")
    xm = X.mean(axis=0)
    ym = y.mean()
    Xc = X - xm
    yc = y - ym
    dual = X.shape[1] > X.shape[0]
    if dual:
        # s * 11' with s = trace / n^2 puts the ones direction at the mean
        # eigenvalue, so a centred X of rank n - 1 factors even at lam = 0
        gram = Xc @ Xc.T
        gram += np.trace(gram) / X.shape[0] ** 2
        rhs = yc
    else:
        gram, rhs = Xc.T @ Xc, Xc.T @ yc
    diagonal = np.arange(gram.shape[0])
    sol = None
    for bump in range(4):
        shifted = gram.copy()
        shifted[diagonal, diagonal] += lam + bump * 1e-10
        try:
            chol = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        z = np.linalg.solve(chol, rhs)
        sol = np.linalg.solve(chol.T, z)
        break
    if sol is None:
        raise NumericalError(
            "ridge_fit: Gram matrix stayed singular after 3 lambda bumps of 1e-10"
        )
    coef = Xc.T @ sol if dual else sol
    intercept = float(ym - xm @ coef)
    return RidgeModel(intercept, coef)


# ---------------------------------------------------------------------------
# symmetric eigensolver
# ---------------------------------------------------------------------------


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
    if not np.isfinite(A).all():
        # eigh returns NaN for such input instead of raising
        raise NumericalError("sym_eig_smallest: matrix holds a non-finite value")
    if np.max(np.abs(A - A.T)) > 1e-8:
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
