"""Numerical kernels: Pearson correlation, ridge regression, symmetric
eigensolves, and k-means.

Everything is plain numpy.  Ridge regression is matrix-free conjugate
gradients over the (row, column, value) entries of the design matrix.  The
eigensolver is one LAPACK symmetric eigendecomposition (``np.linalg.eigh``)
sliced to the smallest pairs on small matrices, and a block LOBPCG over a
sparse :class:`CSRMatrix` or a dense array on large ones.  All stochastic
routines take explicit seeds and are bit reproducible.
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
           "CSRMatrix", "sym_eig_smallest", "kmeans"]


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


# rows per gather in CSRMatrix @ X: a chunk's products stay small, and each
# row's sum adds the same terms in the same order as one whole gather would
_PRODUCT_ROWS = 128


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """Square sparse matrix in compressed sparse row form: row i holds the
    values ``data[indptr[i]:indptr[i + 1]]`` in the columns ``indices[...]``,
    and every row holds at least one entry."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.indptr) - 1
        return n, n

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def diagonal(self) -> np.ndarray:
        rows = self._rows()
        on = self.indices == rows
        diag = np.zeros(self.shape[0])
        diag[rows[on]] = self.data[on]
        return diag

    def __matmul__(self, X) -> np.ndarray:
        """The product with an n-vector or an n x m block: per chunk of
        _PRODUCT_ROWS rows, one gather and one ``np.add.reduceat`` over the
        rows' segments."""
        X = np.asarray(X, dtype=np.float64)
        data = self.data if X.ndim == 1 else self.data[:, None]
        n = self.shape[0]
        out = np.empty((n, *X.shape[1:]))
        for lo in range(0, n, _PRODUCT_ROWS):
            bounds = self.indptr[lo:lo + _PRODUCT_ROWS + 1]
            a, b = bounds[0], bounds[-1]
            products = X[self.indices[a:b]]
            products *= data[a:b]
            np.add.reduceat(products, bounds[:-1] - a, axis=0,
                            out=out[lo:lo + len(bounds) - 1])
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """A dense copy."""
        if copy is False:
            raise ValueError("CSRMatrix: a dense array is always a copy")
        dense = np.zeros(self.shape, dtype=dtype or np.float64)
        dense[self._rows(), self.indices] = self.data
        return dense


_CHECK_ROWS = 256

# eigh computes all n pairs, LOBPCG a block of k + LOBPCG_GUARD; eigh is used
# below n = EIGH_CUTOFF * (k + LOBPCG_GUARD), near the measured crossover
EIGH_CUTOFF = 40
LOBPCG_GUARD = 10
# a pair is converged at ||A v - lambda v|| <= EIG_TOLERANCE * ||A||_F
EIG_TOLERANCE = 1e-8
LOBPCG_ITERATIONS = 300


def sym_eig_smallest(A, k: int, seed: int = 0, *, stats: dict | None = None):
    """k algebraically smallest eigenpairs of a symmetric matrix.

    ``A`` is an ndarray or a :class:`CSRMatrix`.  Below n = EIGH_CUTOFF *
    (k + LOBPCG_GUARD) it is made dense and one LAPACK call
    (``np.linalg.eigh``, which reads the lower triangle) computes the full
    spectrum; the symmetry check guards the other triangle.  Above that size
    a block LOBPCG (Knyazev 2001) iterates on k + LOBPCG_GUARD vectors
    started from ``np.random.default_rng(seed)``, one product with A per
    iteration and no n x n array, until each of the k pairs meets
    ||A v - lambda v|| <= EIG_TOLERANCE * ||A||_F.

    A non-finite entry, LAPACK failing to converge, or LOBPCG not converging
    within LOBPCG_ITERATIONS raises NumericalError.  Returns (eigenvalues
    ascending of length k, eigenvector matrix n x k with orthonormal
    columns).  A ``stats`` dict receives the solver's name, its iteration
    count (0 for eigh) and the largest residual relative to ||A||_F.
    """
    if not isinstance(A, CSRMatrix):
        A = np.asarray(A, dtype=np.float64)
    if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"sym_eig_smallest: matrix must be square, got {A.shape}")
    n = A.shape[0]
    if not 1 <= k <= n:
        raise DimensionError(f"sym_eig_smallest: k={k} out of range for n={n}")
    block = k + LOBPCG_GUARD
    use_eigh = n < EIGH_CUTOFF * block
    if use_eigh or not isinstance(A, CSRMatrix):
        A = np.asarray(A, dtype=np.float64)
        _check_dense(A)
        norm = float(np.linalg.norm(A))
    elif np.isfinite(A.data).all():
        norm = float(np.linalg.norm(A.data))
    else:
        raise NumericalError("sym_eig_smallest: matrix holds a non-finite value")
    if use_eigh:
        try:
            vals, vecs = np.linalg.eigh(A)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"sym_eig_smallest: {exc}") from exc
        # copy the k columns so the full n x n basis can be freed
        vals, vecs = vals[:k].copy(), vecs[:, :k].copy()
        solver, iterations = "eigh", 0
        resid = np.linalg.norm(A @ vecs - vecs * vals, axis=0).max()
    else:
        vals, vecs, iterations, resid = _lobpcg(A, k, block, norm, seed)
        solver = "lobpcg"
    if stats is not None:
        stats.update(solver=solver, iterations=iterations,
                     worst_residual=float(resid / norm) if norm else 0.0)
    return vals, vecs


def _check_dense(A: np.ndarray) -> None:
    # both checks run over row blocks, so neither builds an n x n temporary
    n = A.shape[0]
    blocks = [slice(i, i + _CHECK_ROWS) for i in range(0, n, _CHECK_ROWS)]
    if not all(np.isfinite(A[b]).all() for b in blocks):
        # eigh returns NaN for such input instead of raising
        raise NumericalError("sym_eig_smallest: matrix holds a non-finite value")
    # A - A.T is antisymmetric, so its max is its largest |entry|
    if max((A[b] - A[:, b].T).max() for b in blocks) > 1e-8:
        raise DimensionError("sym_eig_smallest: matrix is not symmetric within 1e-8")


def _lobpcg(A, k: int, block: int, norm: float, seed: int):
    """Block LOBPCG with the Jacobi preconditioner: Rayleigh-Ritz on the
    span of the block X, the preconditioned residuals W of its unconverged
    columns and their previous steps P, through a Cholesky factor of the
    Gram matrix of [X, W, P].  A X and A P follow X and P through the Ritz
    coefficients, so only W is multiplied by A.  Returns (values, vectors,
    iterations, largest residual norm of the k pairs)."""
    n = A.shape[0]
    diag = np.abs(A.diagonal())
    precond = 1.0 / np.where(diag > 0.0, diag, 1.0)
    X = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, block)))[0]
    AX = A @ X
    theta, C = np.linalg.eigh(_sym(X.T @ AX))
    X, AX = X @ C, AX @ C
    P = AP = None
    target = EIG_TOLERANCE * norm
    for iteration in range(LOBPCG_ITERATIONS + 1):
        R = AX - X * theta
        resid = np.linalg.norm(R, axis=0)
        if resid[:k].max() <= target:
            return theta[:k], X[:, :k], iteration, resid[:k].max()
        if iteration == LOBPCG_ITERATIONS or not np.isfinite(resid).all():
            break
        active = resid > target
        W = R[:, active] * precond[:, None]
        W -= X @ (X.T @ W)
        W /= np.linalg.norm(W, axis=0)
        AW = A @ W
        bases = [((X, W), (AX, AW))]
        if P is not None:
            scale = np.linalg.norm(P[:, active], axis=0)
            bases.insert(0, ((X, W, P[:, active] / scale),
                             (AX, AW, AP[:, active] / scale)))
        for S, AS in bases:
            S, AS = np.hstack(S), np.hstack(AS)
            try:
                factor = np.linalg.cholesky(S.T @ S)
            except np.linalg.LinAlgError:
                continue  # the basis is numerically dependent: drop P
            inv = np.linalg.inv(factor)
            theta, Y = np.linalg.eigh(_sym(inv @ (S.T @ AS) @ inv.T))
            C = inv.T @ Y[:, :block]
            break
        else:
            break
        theta = theta[:block]
        P, AP = S[:, block:] @ C[block:], AS[:, block:] @ C[block:]
        X, AX = X @ C[:block] + P, AX @ C[:block] + AP
    raise NumericalError(
        f"sym_eig_smallest: LOBPCG unconverged after {iteration} iterations "
        f"(worst relative residual {resid[:k].max() / norm:.3g}, "
        f"target {EIG_TOLERANCE:g})"
    )


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _point_terms(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of :func:`_sq_distances` that depend on the points
    alone, taken once per :func:`kmeans` call: squared norms and ``2.0 * X``."""
    return np.sum(X * X, axis=1), 2.0 * X


def _sq_distances(terms: tuple[np.ndarray, np.ndarray],
                  centers: np.ndarray) -> np.ndarray:
    sq_norms, twice = terms
    d = (
        sq_norms[:, None]
        + np.sum(centers * centers, axis=1)[None, :]
        - twice @ centers.T
    )
    return np.maximum(d, 0.0)


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator,
                   terms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _sq_distances(terms, X[chosen[-1]][None, :])[:, 0]
    for _ in range(1, k):
        total = float(d2.sum())
        if not np.isfinite(total):  # finite points too far apart
            raise NumericalError("kmeans: squared distances overflow float64")
        idx = int(rng.integers(n)) if total <= 0.0 else _draw(d2, total, rng)
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_distances(terms, X[idx][None, :])[:, 0])
    return X[chosen].copy()


def _draw(d2: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """The index that ``rng.choice(len(d2), p=d2 / total)`` draws, by the
    same steps and from the same one uniform, without its argument checks
    (which cost twice the draw), so ``d2`` and ``total`` must be finite."""
    cdf = (d2 / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _lloyd(X: np.ndarray, centers: np.ndarray,
           terms: tuple[np.ndarray, np.ndarray], max_iter: int = 300,
           tol: float = 1e-8):
    """Lloyd iterations from ``centers``, with ``terms`` the
    :func:`_point_terms` of ``X``; returns (assignment, centers,
    per-iteration WCSS).

    Each centre is the sum of its points over their count.  One
    ``np.bincount`` over (cluster, column) bins takes every sum, adding the
    points in order, as ``X[members].sum(axis=0)`` does for a 2-d ``X`` (a
    sum of only negative zeros reads +0.0, not -0.0)."""
    k, dim = centers.shape
    n = X.shape[0]
    columns = np.arange(dim)
    history = []
    last = None
    for _ in range(max_iter):
        d2 = _sq_distances(terms, centers)
        assign = np.argmin(d2, axis=1)
        nearest = d2[np.arange(n), assign]
        history.append(float(nearest.sum()))
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        if last is not None and filled.all() and np.array_equal(assign, last):
            # the centres of a repeated assignment are the same bits, so the
            # next shift is 0 and the final WCSS is this one
            history.append(history[-1])
            return assign, centers, history
        last = assign
        sums = np.bincount((assign[:, None] * dim + columns).ravel(),
                           weights=X.ravel(), minlength=k * dim).reshape(k, dim)
        new_centers = np.empty_like(centers)
        new_centers[filled] = sums[filled] / counts[filled, None]
        # re-seed an empty cluster with the point farthest from its center
        new_centers[~filled] = X[int(np.argmax(nearest))]
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if shift < tol:
            break
    d2 = _sq_distances(terms, centers)
    assign = np.argmin(d2, axis=1)
    history.append(float(d2[np.arange(n), assign].sum()))
    return assign, centers, history


def kmeans(points, k: int, restarts: int = 10, seed: int = 0) -> np.ndarray:
    """Seeded k-means++ with Lloyd refinement, best of ``restarts`` by WCSS.

    Deterministic for a fixed seed: restart streams are spawned from one
    SeedSequence, and ties keep the earliest restart.  A point that is not
    finite, or points whose squared distances overflow, raise
    NumericalError.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionError(f"kmeans: points must be 2-d, got shape {X.shape}")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise DimensionError(f"kmeans: k={k} out of range for n={n} points")
    if restarts < 1:
        raise ValueError("kmeans: restarts must be positive")
    if not np.isfinite(X).all():
        raise NumericalError("kmeans: a point holds a non-finite value")
    best_assign = None
    best_wcss = np.inf
    terms = _point_terms(X)
    for seq in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(seq)
        centers = _kmeanspp_init(X, k, rng, terms)
        assign, _, history = _lloyd(X, centers, terms)
        if history[-1] < best_wcss:
            best_wcss = history[-1]
            best_assign = assign
    return best_assign
