"""Numerical kernels against independent oracles.

The eigensolver wraps LAPACK (numpy.linalg.eigh) below a size cutoff and
runs a block LOBPCG above it, so its tests pin the contract on both paths:
the k smallest values in ascending order, eigen-residuals, orthonormal
columns and the input checks, with eigh on the dense matrix as the oracle
for LOBPCG.  Ridge (conjugate
gradients) is checked against a direct solve of the normal equations, a
least-squares solve and a brute-force gradient-descent minimizer that knows
nothing about normal equations.
"""

import numpy as np
import pytest

from lexlearn import numerics
from lexlearn.errors import (
    DimensionError,
    NumericalError,
    UndefinedCorrelationError,
)
from lexlearn.numerics import (
    CSRMatrix,
    _lloyd,
    _point_terms,
    kmeans,
    pearson,
    ridge_fit,
    ridge_fit_sparse,
    sym_eig_smallest,
)


class TestPearson:
    def test_identity(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reversed(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # covariance sum 4, variance sums 5 and 5 -> 4/5
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(20)
            y = rng.standard_normal(20)
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-10, 10)
            assert pearson(x, a * y + b) == pytest.approx(pearson(x, y), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            pearson([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("x,y", [
        ([1e200, -1e200, 0], [1, -1, 0]),
        ([1e200, -1e200, 0], [1e200, -1e200, 0]),
        ([1e-170, 0, 2e-170], [1, 0, 2]),
    ], ids=["overflow-one", "overflow-both", "underflow"])
    def test_sums_that_overflow_or_underflow_are_rescaled(self, x, y):
        assert pearson(x, y) == 1.0
        assert pearson(y, x) == 1.0
        assert pearson(x, [-v for v in y]) == -1.0

    @pytest.mark.parametrize("value", [1e200, 1e-170, -1.7e308, 0.0])
    def test_constant_at_any_magnitude_has_zero_variance(self, value):
        with pytest.raises(UndefinedCorrelationError, match="zero variance"):
            pearson([value] * 3, [1e200, -1e200, 0])

    def test_constant_whose_mean_rounds_away_has_zero_variance(self):
        # the mean of three 0.1 is 0.1 + 1.4e-17, so the centred sums are not 0
        with pytest.raises(UndefinedCorrelationError, match="zero variance"):
            pearson([0.1] * 3, [0, 1, 2])
        with pytest.raises(UndefinedCorrelationError, match="zero variance"):
            pearson([0, 1, 2], [0.1] * 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(UndefinedCorrelationError, match="non-finite"):
            pearson([1.0, 2.0, bad], [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedCorrelationError, match="non-finite"):
            pearson([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


def penalized_loss(X, y, intercept, coef, lam):
    resid = y - intercept - X @ coef
    return float(resid @ resid + lam * coef @ coef)


def gradient_descent_ridge(X, y, lam, steps=200000, lr=None):
    """Brute-force minimizer of the penalized objective (oracle)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    if lr is None:
        lr = 0.25 / (np.linalg.norm(X) ** 2 + lam + n)
    intercept = 0.0
    coef = np.zeros(p)
    for _ in range(steps):
        resid = y - intercept - X @ coef
        g0 = -2.0 * resid.sum()
        g = -2.0 * X.T @ resid + 2.0 * lam * coef
        intercept -= lr * g0
        coef -= lr * g
    return intercept, coef


class TestRidge:
    def test_exact_line(self):
        model = ridge_fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), 0.0)
        assert model.intercept == pytest.approx(0.0, abs=1e-12)
        assert model.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_shrinkage_limit(self):
        model = ridge_fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), 1e12)
        assert abs(model.coefficients[0]) < 1e-9
        assert model.intercept == pytest.approx(0.5, abs=1e-9)

    def test_hand_system_against_descent_oracle(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        model = ridge_fit(X, y, 1.0)
        # frozen from the centered 2x2 solve: (G + I) a = X_c^T y_c
        assert model.coefficients == pytest.approx([1 / 8, 5 / 8], abs=1e-12)
        assert model.intercept == pytest.approx(1.5, abs=1e-12)
        b0, b = gradient_descent_ridge(X, y, 1.0)
        assert model.intercept == pytest.approx(b0, abs=1e-6)
        assert model.coefficients == pytest.approx(b, abs=1e-6)

    def test_ols_equivalence_lambda_zero(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 5))
        y = X @ rng.standard_normal(5) + rng.standard_normal(40) * 0.3 + 1.7
        model = ridge_fit(X, y, 0.0)
        ref, *_ = np.linalg.lstsq(np.column_stack([np.ones(40), X]), y, rcond=None)
        assert np.max(np.abs(model.coefficients - ref[1:])) < 1e-6
        assert abs(model.intercept - ref[0]) < 1e-6

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0, 10.0])
    def test_stationarity(self, lam):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        model = ridge_fit(X, y, lam)
        resid = y - model.predict(X)
        grad_intercept = -2.0 * resid.sum()
        grad_coef = -2.0 * X.T @ resid + 2.0 * lam * model.coefficients
        assert abs(grad_intercept) < 1e-6
        assert np.max(np.abs(grad_coef)) < 1e-6

    def test_constant_column_gets_zero_weight(self):
        # constant column is collinear with the intercept: centered Gram is 0,
        # so is the right-hand side, and the solve returns at once
        model = ridge_fit(np.array([[1.0], [1.0]]), np.array([3.0, 5.0]), 0.0)
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-12)
        assert model.intercept == pytest.approx(4.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            ridge_fit(np.zeros((3, 2)), np.zeros(4), 1.0)

    @pytest.mark.parametrize("lam", [-1.0, float("inf"), float("nan")])
    def test_lambda_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ridge_fit(np.eye(3), np.arange(3.0), lam)


def bag_of_words(rng, n, p, length=40):
    """Relative word frequencies of n random documents over p words."""
    X = np.zeros((n, p))
    for i in range(n):
        np.add.at(X[i], rng.integers(0, p, length), 1.0 / length)
    return X


class TestRidgeDual:
    """As many or more features than rows: conjugate gradients against a
    direct solve of the primal normal equations."""

    @pytest.mark.parametrize("shape", [(200, 500), (300, 301)])
    @pytest.mark.parametrize("lam", [1e-3, 1.0, 100.0])
    def test_matches_primal_normal_equations(self, shape, lam):
        n, p = shape
        rng = np.random.default_rng(n + p)
        X = bag_of_words(rng, n, p)
        y = X @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
        xm, ym = X.mean(axis=0), y.mean()
        Xc = X - xm
        coef = np.linalg.solve(Xc.T @ Xc + lam * np.eye(p), Xc.T @ (y - ym))
        intercept = ym - xm @ coef
        model = ridge_fit(X, y, lam)
        err = np.linalg.norm(model.coefficients - coef) / np.linalg.norm(coef)
        assert err <= 1e-9
        assert abs(model.intercept - intercept) <= 1e-9

    @pytest.mark.parametrize("shape", [(200, 500), (300, 301)])
    def test_lambda_zero_gives_minimum_norm_solution(self, shape):
        n, p = shape
        rng = np.random.default_rng(7 * n + p)
        X = rng.standard_normal((n, p))
        y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        ref, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
        model = ridge_fit(X, y, 0.0)
        assert np.max(np.abs(model.coefficients - ref)) <= 1e-6
        assert np.max(np.abs(model.predict(X) - y)) <= 1e-6


def sparse_bag_of_words(rng, n, p, length=30):
    """Entries of n random documents' relative word frequencies over p words,
    with repeated (row, col) pairs, and the dense X they sum to."""
    rows = np.repeat(np.arange(n), length)
    cols = rng.integers(0, p, n * length)
    values = np.full(n * length, 1.0 / length)
    X = np.zeros((n, p))
    np.add.at(X, (rows, cols), values)
    return rows, cols, values, X


class TestRidgeSparse:
    @pytest.mark.parametrize("shape", [(120, 300), (300, 80)])
    @pytest.mark.parametrize("lam", [1e-3, 1.0, 100.0])
    def test_matches_normal_equations_on_densified_x(self, shape, lam):
        n, p = shape
        rng = np.random.default_rng(n * p)
        rows, cols, values, X = sparse_bag_of_words(rng, n, p)
        y = X @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
        xm, ym = X.mean(axis=0), y.mean()
        Xc = X - xm
        coef = np.linalg.solve(Xc.T @ Xc + lam * np.eye(p), Xc.T @ (y - ym))
        model = ridge_fit_sparse(rows, cols, values, p, y, lam)
        assert model.iterations > 0
        err = np.linalg.norm(model.coefficients - coef) / np.linalg.norm(coef)
        assert err <= 1e-9
        assert abs(model.intercept - (ym - xm @ coef)) <= 1e-9

    @pytest.mark.parametrize("shape", [(120, 300), (300, 80)])
    def test_lambda_zero_matches_lstsq(self, shape):
        n, p = shape
        rng = np.random.default_rng(n + p)
        rows, cols, values, X = sparse_bag_of_words(rng, n, p)
        y = X @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
        Xc = X - X.mean(axis=0)
        ref, *_ = np.linalg.lstsq(Xc, y - y.mean(), rcond=None)
        model = ridge_fit_sparse(rows, cols, values, p, y, 0.0)
        err = np.linalg.norm(model.coefficients - ref) / np.linalg.norm(ref)
        assert err <= 1e-9

    def test_constant_labels_return_zero_at_once(self):
        rng = np.random.default_rng(5)
        rows, cols, values, _ = sparse_bag_of_words(rng, 20, 10)
        model = ridge_fit_sparse(rows, cols, values, 10, np.full(20, 3.0), 1.0)
        assert model.iterations == 0
        assert not model.coefficients.any()
        assert model.intercept == 3.0

    def test_reaching_the_cap_raises(self, monkeypatch):
        # lam = 0 on a nearly square Gaussian X needs more CG iterations than
        # min(n, p) = 300 in floating point (about 500)
        rng = np.random.default_rng(7 * 300 + 301)
        X = rng.standard_normal((300, 301))
        y = X @ rng.standard_normal(301) + rng.standard_normal(300)
        monkeypatch.setattr(numerics, "CG_ITERATIONS_PER_DIM", 1)
        with pytest.raises(NumericalError, match="after 300 iterations"):
            ridge_fit(X, y, 0.0)

    def test_non_finite_entry_raises(self):
        X = np.eye(4)
        X[2, 1] = np.nan
        with pytest.raises(NumericalError, match="unconverged after 0 iterations"):
            ridge_fit(X, np.arange(4.0), 1.0)

    def test_entry_outside_the_shape_is_rejected(self):
        with pytest.raises(DimensionError, match="outside 2 x 3"):
            ridge_fit_sparse([0, 1], [0, 3], [1.0, 1.0], 3, [1.0, 2.0], 1.0)


class TestSymEig:
    def test_identity(self):
        vals, vecs = sym_eig_smallest(np.eye(3), 2)
        assert vals == pytest.approx([1.0, 1.0])
        assert vecs.shape == (3, 2)

    def test_diagonal(self):
        vals, vecs = sym_eig_smallest(np.diag([1.0, 2.0, 3.0]), 1)
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(vecs[:, 0]) == pytest.approx([1.0, 0.0, 0.0], abs=1e-8)

    def test_random_8x8_against_reference_solve(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))
        A = (A + A.T) / 2
        vals, vecs = sym_eig_smallest(A, 8)
        ref = np.linalg.eigvalsh(A)
        assert np.max(np.abs(vals - ref)) < 1e-6
        scale = np.linalg.norm(A)
        for i in range(8):
            resid = np.linalg.norm(A @ vecs[:, i] - vals[i] * vecs[:, i])
            assert resid < 1e-6 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(8))) < 1e-6

    def test_larger_matrices_residuals(self):
        rng = np.random.default_rng(5)
        for n in (20, 60):
            A = rng.standard_normal((n, n))
            A = (A + A.T) / 2
            k = 5
            vals, vecs = sym_eig_smallest(A, k)
            ref = np.linalg.eigvalsh(A)[:k]
            assert np.max(np.abs(vals - ref)) < 1e-6
            scale = np.linalg.norm(A)
            for i in range(k):
                assert np.linalg.norm(A @ vecs[:, i] - vals[i] * vecs[:, i]) < 1e-6 * scale

    def test_random_80x80_smallest_four(self):
        rng = np.random.default_rng(6)
        n = 80
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        vals, vecs = sym_eig_smallest(A, 4)
        ref = np.linalg.eigvalsh(A)[:4]
        assert np.max(np.abs(vals - ref)) < 1e-6
        scale = np.linalg.norm(A)
        for i in range(4):
            assert np.linalg.norm(A @ vecs[:, i] - vals[i] * vecs[:, i]) < 1e-6 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(4))) < 1e-6

    def test_degenerate_spectrum(self):
        A = np.eye(60)
        A[0, 0] = -3.0
        A[1, 1] = -2.0
        vals, _ = sym_eig_smallest(A, 3)
        assert vals == pytest.approx([-3.0, -2.0, 1.0], abs=1e-8)

    def test_rejects_nonsymmetric(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(DimensionError):
            sym_eig_smallest(A, 1)

    def test_k_out_of_range(self):
        with pytest.raises(DimensionError):
            sym_eig_smallest(np.eye(3), 4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        A = np.eye(3)
        A[0, 1] = A[1, 0] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            sym_eig_smallest(A, 1)

    def test_checks_reach_the_last_row_block(self):
        # the checks run over row blocks; put each fault in the last one
        n = 2 * numerics._CHECK_ROWS + 7
        A = np.eye(n)
        A[n - 1, 3] = 1e-7
        with pytest.raises(DimensionError, match="within 1e-8"):
            sym_eig_smallest(A, 1)
        A[n - 1, 3] = 0.0
        A[n - 2, 5] = 9e-9  # within the bound
        assert sym_eig_smallest(A, 1)[0].shape == (1,)
        A[n - 1, n - 1] = np.inf
        with pytest.raises(NumericalError, match="non-finite"):
            sym_eig_smallest(A, 1)


def csr(dense):
    """The CSRMatrix of a dense matrix's nonzero entries."""
    rows, cols = np.nonzero(dense)
    counts = np.bincount(rows, minlength=len(dense))
    return CSRMatrix(dense[rows, cols], cols, np.concatenate([[0], np.cumsum(counts)]))


def signed_laplacian_matrix(rng, n, degree):
    """Dense signed Laplacian of a random graph: a ring, so no node is
    isolated, plus ``degree`` random partners per node, signed weights."""
    W = np.zeros((n, n))
    nodes = np.arange(n)
    W[nodes, (nodes + 1) % n] = rng.uniform(0.1, 1.0, n)
    partners = rng.integers(0, n, (n, degree))
    W[nodes[:, None], partners] = rng.normal(size=(n, degree))
    W = np.triu(W, 1) + np.triu(W, 1).T
    return np.diag(np.abs(W).sum(axis=1)) - W


class TestCSRMatrix:
    def test_products_and_diagonal_match_the_dense_matrix(self):
        rng = np.random.default_rng(8)
        dense = signed_laplacian_matrix(rng, 50, 3)
        A = csr(dense)
        assert A.shape == (50, 50)
        assert np.array_equal(np.asarray(A), dense)
        assert np.asarray(A, dtype=np.float32).dtype == np.float32
        assert np.array_equal(A.diagonal(), np.diag(dense))
        x = rng.standard_normal(50)
        X = rng.standard_normal((50, 7))
        assert np.allclose(A @ x, dense @ x, rtol=1e-13, atol=1e-13)
        assert np.allclose(A @ X, dense @ X, rtol=1e-13, atol=1e-13)
        assert A.nbytes == A.data.nbytes + A.indices.nbytes + A.indptr.nbytes

    def test_missing_diagonal_reads_zero(self):
        A = csr(np.array([[0.0, 2.0], [2.0, 5.0]]))
        assert np.array_equal(A.diagonal(), [0.0, 5.0])

    def test_no_view_without_a_copy(self):
        with pytest.raises(ValueError, match="copy"):
            csr(np.eye(2)).__array__(copy=False)

    def test_row_chunks_give_the_one_piece_products(self, monkeypatch):
        rng = np.random.default_rng(9)
        A = csr(signed_laplacian_matrix(rng, 50, 4))
        x = rng.standard_normal(50)
        X = rng.standard_normal((50, 7))
        # one gather of every row and one np.add.reduceat over all segments
        whole = np.add.reduceat(x[A.indices] * A.data, A.indptr[:-1])
        block = np.add.reduceat(X[A.indices] * A.data[:, None], A.indptr[:-1], axis=0)
        for rows in (3, 50, 128):  # chunks ending mid-matrix, at its end, past it
            monkeypatch.setattr(numerics, "_PRODUCT_ROWS", rows)
            assert np.array_equal(A @ x, whole)
            assert np.array_equal(A @ X, block)
            assert (A @ X).flags.c_contiguous


class TestLobpcg:
    """Above the cutoff: n = 600 >= EIGH_CUTOFF * (k + LOBPCG_GUARD)."""

    @pytest.fixture
    def laplacian(self):
        return signed_laplacian_matrix(np.random.default_rng(9), 600, 4)

    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_eigh_on_the_dense_matrix(self, laplacian, k):
        assert 600 >= numerics.EIGH_CUTOFF * (k + numerics.LOBPCG_GUARD)
        stats = {}
        vals, vecs = sym_eig_smallest(csr(laplacian), k, seed=2, stats=stats)
        assert stats["solver"] == "lobpcg" and stats["iterations"] > 0
        ref = np.linalg.eigvalsh(laplacian)[:k]
        assert np.max(np.abs(vals - ref)) <= 1e-10
        scale = np.linalg.norm(laplacian)
        resid = np.linalg.norm(laplacian @ vecs - vecs * vals, axis=0)
        assert resid.max() <= 1e-8 * scale
        assert stats["worst_residual"] == pytest.approx(resid.max() / scale, rel=1e-3)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) <= 1e-10

    def test_dense_input_takes_the_same_path(self, laplacian):
        stats = {}
        vals, _ = sym_eig_smallest(laplacian, 4, stats=stats)
        assert stats["solver"] == "lobpcg"
        assert np.max(np.abs(vals - np.linalg.eigvalsh(laplacian)[:4])) <= 1e-10

    def test_seeded_reruns_are_identical(self, laplacian):
        A = csr(laplacian)
        first, again = (sym_eig_smallest(A, 4, seed=5) for _ in range(2))
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_cutoff_depends_on_n_and_k(self, laplacian):
        # below n = EIGH_CUTOFF * (k + LOBPCG_GUARD), eigh on the dense copy
        k = 600 // numerics.EIGH_CUTOFF - numerics.LOBPCG_GUARD + 1
        stats = {}
        sym_eig_smallest(csr(laplacian), k, stats=stats)
        assert stats == {"solver": "eigh", "iterations": 0,
                         "worst_residual": stats["worst_residual"]}
        assert stats["worst_residual"] <= 1e-12

    def test_exhausted_budget_names_iterations_and_residual(self, laplacian,
                                                            monkeypatch):
        monkeypatch.setattr(numerics, "LOBPCG_ITERATIONS", 1)
        with pytest.raises(NumericalError,
                           match=r"after 1 iterations \(worst relative residual"):
            sym_eig_smallest(csr(laplacian), 4)

    def test_non_finite_entry_rejected(self, laplacian):
        A = csr(laplacian)
        A.data[3] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            sym_eig_smallest(A, 1)


def _lloyd_reference(X, centers, max_iter=300, tol=1e-8):
    """Lloyd iterations with one mean per cluster, each of its members taken
    by a mask: the loop that ``_lloyd``'s grouped sums replace."""

    def sq_distances(X, centers):
        d = (
            np.sum(X * X, axis=1)[:, None]
            + np.sum(centers * centers, axis=1)[None, :]
            - 2.0 * X @ centers.T
        )
        return np.maximum(d, 0.0)

    k = centers.shape[0]
    history = []
    for _ in range(max_iter):
        d2 = sq_distances(X, centers)
        assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(X.shape[0]), assign].sum()))
        new_centers = centers.copy()
        for c in range(k):
            members = assign == c
            if members.any():
                new_centers[c] = X[members].mean(axis=0)
            else:
                far = int(np.argmax(d2[np.arange(X.shape[0]), assign]))
                new_centers[c] = X[far]
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if shift < tol:
            break
    d2 = sq_distances(X, centers)
    assign = np.argmin(d2, axis=1)
    history.append(float(d2[np.arange(X.shape[0]), assign].sum()))
    return assign, centers, history


def _lloyd_worlds():
    """(points, start centres): random worlds of several shapes, points
    repeated, and starts that leave a cluster empty."""
    rng = np.random.default_rng(12)
    worlds = []
    for n, dim, k in [(30, 1, 3), (200, 2, 5), (500, 8, 12), (1000, 50, 50),
                      (64, 3, 64)]:
        X = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10)
        worlds.append((X, X[rng.choice(n, k, replace=False)].copy()))
    # each point three times, and two starts on one point: the second start
    # gets no member and is re-seeded
    X = np.repeat(rng.standard_normal((40, 4)), 3, axis=0)
    worlds.append((X, X[[0, 0, 30, 60, 90]].copy()))
    # a start far from every point
    X = rng.standard_normal((100, 3))
    worlds.append((X, np.vstack([X[:4], np.full((1, 3), 1e6)])))
    return worlds


class TestKMeans:
    @pytest.mark.parametrize("world", range(len(_lloyd_worlds())))
    def test_lloyd_matches_the_per_cluster_loop(self, world):
        X, centers = _lloyd_worlds()[world]
        got = _lloyd(X, centers.copy(), _point_terms(X))
        want = _lloyd_reference(X, centers.copy())
        assert np.array_equal(got[0], want[0])
        if X.shape[1] > 1:
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2] == want[2]
        else:
            # numpy sums a column of one-element rows pairwise, not in order:
            # the two sums of n points may part by n roundings
            tol = len(X) * np.finfo(np.float64).eps
            np.testing.assert_allclose(got[1], want[1], rtol=0,
                                       atol=tol * np.abs(X).max())
            np.testing.assert_allclose(got[2], want[2], rtol=tol)

    def test_planted_blobs(self):
        rng = np.random.default_rng(7)
        pts = np.vstack(
            [rng.normal(0.0, 0.3, (40, 2)), rng.normal(8.0, 0.3, (40, 2))]
        )
        assign = kmeans(pts, 2, restarts=5, seed=1)
        assert len(set(assign[:40])) == 1
        assert len(set(assign[40:])) == 1
        assert assign[0] != assign[-1]

    def test_k_equals_one(self):
        rng = np.random.default_rng(8)
        assign = kmeans(rng.standard_normal((10, 3)), 1, restarts=2, seed=0)
        assert set(assign) == {0}

    def test_k_equals_n_zero_wcss(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((6, 2))
        assign = kmeans(pts, 6, restarts=3, seed=0)
        assert sorted(assign) == list(range(6))
        centers = np.array([pts[assign == c].mean(axis=0) for c in range(6)])
        wcss = sum(
            np.sum((pts[i] - centers[assign[i]]) ** 2) for i in range(6)
        )
        assert wcss == pytest.approx(0.0, abs=1e-20)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((50, 4))
        a = kmeans(pts, 5, restarts=4, seed=3)
        b = kmeans(pts, 5, restarts=4, seed=3)
        assert np.array_equal(a, b)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((60, 3))
        centers = pts[rng.choice(60, 4, replace=False)].copy()
        _, _, history = _lloyd(pts, centers, _point_terms(pts))
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_k_too_large(self):
        with pytest.raises(DimensionError):
            kmeans(np.zeros((3, 2)), 4, restarts=1, seed=0)

    @pytest.mark.parametrize("n", [1, 2, 7, 250, 1500])
    def test_seeding_draw_is_the_generators_choice(self, n):
        # the k-means++ draw repeats the steps of Generator.choice(n, p=...);
        # a numpy whose choice draws otherwise fails here
        for seed in range(200):
            world = np.random.default_rng(seed)
            d2 = world.random(n) ** 3
            d2[world.random(n) < 0.2] = 0.0
            d2[seed % n] += 1e-3  # some weight
            total = float(d2.sum())
            mine, theirs = (np.random.default_rng([seed, n]) for _ in range(2))
            for _ in range(4):
                assert numerics._draw(d2, total, mine) == \
                    int(theirs.choice(n, p=d2 / total))
            assert mine.random() == theirs.random()  # the same stream after

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_a_numerical_error(self, value):
        pts = np.random.default_rng(12).standard_normal((20, 3))
        pts[7, 1] = value
        for k in (1, 3):
            with pytest.raises(NumericalError, match="non-finite"):
                kmeans(pts, k, restarts=2, seed=0)

    def test_overflowing_distances_are_a_numerical_error(self):
        pts = np.array([[1e300, 0.0], [-1e300, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="overflow"):
            kmeans(pts, 2, restarts=1, seed=0)

