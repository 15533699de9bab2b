"""Dense numerical kernels: Pearson correlation, ridge regression, symmetric
eigensolves, and k-means.

Everything is plain numpy.  The eigensolver runs a vectorized cyclic Jacobi
(round-robin rotation ordering, disjoint pairs applied per round) for
matrices up to ``dense_threshold`` and Lanczos with full reorthogonalization
above it.  All stochastic routines take explicit seeds and are bit
reproducible.
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


def _round_robin_rounds(n: int) -> list[np.ndarray]:
    """Schedule of disjoint index pairs covering every i<j exactly once.

    Classic circle method: with a dummy player for odd n, rotate all but the
    first seat; each round pairs off seats front-to-back.
    """
    m = n + (n % 2)
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = []
        for t in range(m // 2):
            a, b = seats[t], seats[m - 1 - t]
            if a < n and b < n:
                pairs.append((min(a, b), max(a, b)))
        rounds.append(np.array(pairs, dtype=np.intp))
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return rounds


def _offdiag_norm(A: np.ndarray) -> float:
    B = A.copy()
    np.fill_diagonal(B, 0.0)
    return float(np.linalg.norm(B))


def _jacobi_eigh(A: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60):
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Returns (eigenvalues ascending, eigenvectors as columns).  Rotations
    within a round act on disjoint pairs, so each round is applied as one
    vectorized orthogonal update.
    """
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    V = np.eye(n)
    if n == 1:
        return A.diagonal().copy(), V
    fro = np.linalg.norm(A)
    if fro == 0.0:
        return np.zeros(n), V
    rounds = _round_robin_rounds(n)
    converged = False
    for _ in range(max_sweeps):
        if _offdiag_norm(A) <= tol * fro:
            converged = True
            break
        for pairs in rounds:
            i = pairs[:, 0]
            j = pairs[:, 1]
            aij = A[i, j]
            rotate = np.abs(aij) > 0.0
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                denom = np.where(rotate, 2.0 * aij, 1.0)
                tau = np.where(rotate, (A[j, j] - A[i, i]) / denom, 0.0)
                sgn = np.where(tau >= 0.0, 1.0, -1.0)
                # tau overflow drives t to its correct limit of 0
                t = np.where(
                    rotate & np.isfinite(tau),
                    sgn / (np.abs(tau) + np.sqrt(1.0 + tau * tau)),
                    0.0,
                )
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            ci = A[:, i].copy()
            cj = A[:, j].copy()
            A[:, i] = c * ci - s * cj
            A[:, j] = s * ci + c * cj
            ri = A[i, :].copy()
            rj = A[j, :].copy()
            A[i, :] = c[:, None] * ri - s[:, None] * rj
            A[j, :] = s[:, None] * ri + c[:, None] * rj
            A[i, j] = 0.0
            A[j, i] = 0.0
            vi = V[:, i].copy()
            vj = V[:, j].copy()
            V[:, i] = c * vi - s * vj
            V[:, j] = s * vi + c * vj
        A = 0.5 * (A + A.T)
    if not converged and _offdiag_norm(A) > tol * fro:
        raise NumericalError(
            f"Jacobi eigensolver did not converge in {max_sweeps} sweeps"
        )
    vals = A.diagonal().copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], V[:, order]


def _lanczos_smallest(A: np.ndarray, k: int, tol: float = 1e-10,
                      budget: int | None = None):
    """k algebraically smallest eigenpairs via Lanczos, fully reorthogonalized.

    The Krylov basis is reorthogonalized twice per step; a breakdown
    (invariant subspace) restarts the recurrence with a fresh random
    direction, leaving a zero coupling in the tridiagonal matrix.
    """
    n = A.shape[0]
    if budget is None:
        budget = min(n, max(8 * k, 300))
    budget = max(budget, k)
    rng = np.random.default_rng(0x5EED)
    scale = max(np.linalg.norm(A), 1e-30)
    Q = np.empty((n, budget))
    alphas: list[float] = []
    betas: list[float] = []
    q = rng.standard_normal(n)
    Q[:, 0] = q / np.linalg.norm(q)
    m = 0
    last_check = 0
    while True:
        u = A @ Q[:, m]
        alpha = float(Q[:, m] @ u)
        alphas.append(alpha)
        r = u - alpha * Q[:, m]
        if m > 0:
            r -= betas[m - 1] * Q[:, m - 1]
        # full reorthogonalization, twice for numerical safety
        r -= Q[:, : m + 1] @ (Q[:, : m + 1].T @ r)
        r -= Q[:, : m + 1] @ (Q[:, : m + 1].T @ r)
        beta = float(np.linalg.norm(r))
        m += 1
        breakdown = beta <= 1e-13 * scale
        if m >= k and (breakdown or m == budget or m - last_check >= 10):
            last_check = m
            T = np.diag(alphas)
            if m > 1:
                off = np.array(betas[: m - 1])
                T += np.diag(off, 1) + np.diag(off, -1)
            tvals, tvecs = _jacobi_eigh(T)
            resid = beta * np.abs(tvecs[m - 1, :k])
            if breakdown or np.all(resid <= tol * scale):
                vecs = Q[:, :m] @ tvecs[:, :k]
                # renormalize columns; rounding can shave a few ulps
                vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
                return tvals[:k].copy(), vecs
        if m == budget:
            raise NumericalError(
                f"Lanczos did not converge within the {budget}-step budget"
            )
        if breakdown:
            fresh = rng.standard_normal(n)
            fresh -= Q[:, :m] @ (Q[:, :m].T @ fresh)
            fresh -= Q[:, :m] @ (Q[:, :m].T @ fresh)
            norm = np.linalg.norm(fresh)
            if norm <= 1e-13:
                raise NumericalError("Lanczos restart failed to find a new direction")
            Q[:, m] = fresh / norm
            betas.append(0.0)
        else:
            Q[:, m] = r / beta
            betas.append(beta)


def sym_eig_smallest(A, k: int, *, dense_threshold: int = 512):
    """k algebraically smallest eigenpairs of a symmetric matrix.

    Dense cyclic Jacobi up to ``dense_threshold`` rows, Lanczos with full
    reorthogonalization above.  Returns (eigenvalues ascending of length k,
    eigenvector matrix n x k with orthonormal columns).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"sym_eig_smallest: matrix must be square, got {A.shape}")
    n = A.shape[0]
    if not 1 <= k <= n:
        raise DimensionError(f"sym_eig_smallest: k={k} out of range for n={n}")
    if np.max(np.abs(A - A.T)) > 1e-8:
        raise DimensionError("sym_eig_smallest: matrix is not symmetric within 1e-8")
    A = 0.5 * (A + A.T)
    if n <= dense_threshold:
        vals, vecs = _jacobi_eigh(A)
        return vals[:k].copy(), vecs[:, :k].copy()
    return _lanczos_smallest(A, k)


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
