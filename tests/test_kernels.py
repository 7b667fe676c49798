import numpy as np
import pytest

from morozov._kernels import GolubKahan
from morozov.linops import from_callables, from_matrix, identity
from morozov.problems import _bump_profile, make_deconvolution, synthesize

from conftest import lsqr_distance, random_dense_op


def bidiagonalize(mat, g, steps, calls=None):
    calls = [] if calls is None else calls

    def forward(x):
        calls.append("fwd")
        return mat @ x

    def adjoint(y):
        calls.append("adj")
        return mat.T @ y

    basis = GolubKahan(forward, adjoint, g, mat.shape[1])
    for _ in range(steps):
        basis.step()
    return basis


def lower_bidiagonal(basis):
    k = basis.k
    B = np.zeros((k + 1, k))
    B[np.arange(k), np.arange(k)] = basis.alpha[:k]
    B[np.arange(1, k + 1), np.arange(k)] = basis.beta[1 : k + 1]
    return B


class TestGolubKahan:
    def test_bidiagonal_relations_and_orthonormal_bases(self, rng):
        mat = rng.standard_normal((15, 10))
        calls = []
        basis = bidiagonalize(mat, rng.standard_normal(15), 6, calls)
        assert basis.k == 6 and not basis.exhausted
        assert calls == ["adj"] + ["fwd", "adj"] * 6
        U, V, B = basis._U[:], basis._V[:], lower_bidiagonal(basis)
        assert U.shape == (7, 15) and V.shape == (7, 10)
        np.testing.assert_allclose(U @ U.T, np.eye(7), atol=1e-13)
        np.testing.assert_allclose(V @ V.T, np.eye(7), atol=1e-13)
        # A V_k = U_{k+1} B_k and A^T U_{k+1} = V_k B_k^T + alpha_{k+1} v_{k+1} e_{k+1}^T
        np.testing.assert_allclose(mat @ V[:6].T, U.T @ B, atol=1e-12)
        tail = np.outer(V[6], np.eye(7)[6]) * basis.alpha[6]
        np.testing.assert_allclose(mat.T @ U.T, V[:6].T @ B.T + tail, atol=1e-12)

    def test_recurrences_match_explicit_residuals(self, rng):
        mat = rng.standard_normal((9, 7))
        g = rng.standard_normal(9)
        lam = 3.0
        basis = bidiagonalize(mat, g, 0)
        for _ in range(6):
            basis.step()
            z, rel = basis.tikhonov(lam)
            f = basis.expand(z)
            rhs = lam * mat.T @ g
            explicit = np.linalg.norm(f + lam * mat.T @ (mat @ f) - rhs) / np.linalg.norm(rhs)
            assert rel == pytest.approx(explicit, rel=1e-9)
            y, res, ratio = basis.lsqr()
            r = mat @ basis.expand(y) - g
            assert res == pytest.approx(np.linalg.norm(r), rel=1e-12)
            normal = np.linalg.norm(mat.T @ r) / (basis.norm_estimate * np.linalg.norm(r))
            assert ratio == pytest.approx(normal, rel=1e-9)

    def test_full_basis_solves_exactly(self, rng):
        mat = rng.standard_normal((9, 7))
        g = rng.standard_normal(9)
        basis = bidiagonalize(mat, g, 20)
        assert basis.exhausted and basis.k == 7
        z, rel = basis.tikhonov(2.0)
        expected = np.linalg.solve(np.eye(7) + 2.0 * mat.T @ mat, 2.0 * mat.T @ g)
        np.testing.assert_allclose(basis.expand(z), expected, rtol=1e-10)
        assert rel == 0.0
        y, res, ratio = basis.lsqr()
        np.testing.assert_allclose(basis.expand(y), np.linalg.lstsq(mat, g, rcond=None)[0], rtol=1e-10)
        assert ratio == 0.0

    def test_invariant_krylov_space_exhausts_early(self, rng):
        mat = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        g = rng.standard_normal(6)
        basis = bidiagonalize(mat, g, 10)
        assert basis.exhausted and basis.k == 2
        y, res, _ = basis.lsqr()
        dist = np.linalg.norm(mat @ np.linalg.lstsq(mat, g, rcond=None)[0] - g)
        assert res == pytest.approx(dist, rel=1e-10)

    def test_zero_data(self):
        calls = []
        basis = bidiagonalize(np.eye(3), np.zeros(3), 2, calls)
        assert basis.exhausted and basis.k == 0 and calls == []
        z, rel = basis.tikhonov(1.0)
        assert z.shape == (0,) and rel == 0.0
        np.testing.assert_array_equal(basis.expand(z), np.zeros(3))

    def test_prefix_solves_do_not_see_later_columns(self, rng):
        mat = rng.standard_normal((12, 10)) @ np.diag(0.6 ** np.arange(10))
        g = rng.standard_normal(12)
        grown = bidiagonalize(mat, g, 8)
        residuals = grown.tikhonov_residuals(5.0)
        assert residuals.shape == (9,) and residuals[0] == 1.0
        for j in range(1, 8):
            z, rel = grown.tikhonov(5.0, j)
            z_fresh, rel_fresh = bidiagonalize(mat, g, j).tikhonov(5.0)
            assert z.tobytes() == z_fresh.tobytes() and rel == rel_fresh
            assert residuals[j] == pytest.approx(rel, rel=1e-12)

    def test_discrepancy_error_estimates_the_true_error(self):
        mat = make_deconvolution(48, 2.0).matrix
        g = mat @ np.sin(np.linspace(0.0, 3.0, 48)) + 1e-3 * np.cos(np.arange(48))
        lam = 50.0
        basis = bidiagonalize(mat, g, 48)
        exact = np.linalg.solve(np.eye(48) + lam * mat.T @ mat, lam * mat.T @ g)
        r_exact = mat @ exact - g
        for j in (8, 12, 16):
            z, _ = basis.tikhonov(lam, j)
            r = mat @ basis.expand(z) - g
            error = r @ r - r_exact @ r_exact
            # the projected discrepancy only overestimates, and the estimate
            # against the solution on four more columns tracks the error
            assert error > 0
            estimate = basis.discrepancy_error(lam, z, j + 4)
            assert 0.8 * error <= estimate <= 1.5 * error, j


def projection_distance(mat, g):
    """Oracle: ||g - Q Q^T g|| for an orthonormal basis Q of range(mat),
    taken from the SVD at a rank set by the test."""
    u, sv, _ = np.linalg.svd(np.asarray(mat, dtype=np.float64), full_matrices=False)
    q = u[:, sv > 1e-12 * sv[0]]
    return float(np.linalg.norm(g - q @ (q.T @ g)))


class TestDistance:
    """``GolubKahan.distance``: LSQR's dist(g, range A) on the basis's own maps."""

    def test_surjective_is_zero(self, rng):
        g = rng.standard_normal(5)
        dist, converged = lsqr_distance(identity(5), g)
        assert converged and dist == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_component(self):
        dist, converged = lsqr_distance(from_matrix([[1.0, 0.0], [0.0, 0.0]]), [1.0, 1.0])
        assert converged and dist == pytest.approx(1.0, rel=1e-12)

    def test_projection_oracle_rank_deficient(self, rng):
        # range basis via QR of a rank-2 6x4 matrix; oracle projects g
        # onto it and measures the orthogonal remainder
        B = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        g = rng.standard_normal(6)
        q, _ = np.linalg.qr(B[:, :2])  # first two columns span the range here
        expected = np.linalg.norm(g - q @ (q.T @ g))
        assert lsqr_distance(from_matrix(B), g)[0] == pytest.approx(expected, abs=1e-8)

    def test_lower_bounds_any_candidate(self, rng):
        op = random_dense_op(rng, 6, 3)
        g = rng.standard_normal(6)
        d = lsqr_distance(op, g)[0]
        for _ in range(25):
            f = rng.standard_normal(3)
            assert d <= np.linalg.norm(op.apply(f) - g) + 1e-12

    def test_matrix_free_matches_dense(self, rng):
        mat = rng.standard_normal((8, 5))
        free = from_callables(5, 8, lambda f: mat @ f, lambda y: mat.T @ y)
        g = rng.standard_normal(8)
        assert lsqr_distance(free, g)[0] == pytest.approx(projection_distance(mat, g), abs=1e-8)
        # one algorithm for both representations: the same numbers
        assert lsqr_distance(free, g) == lsqr_distance(from_matrix(mat), g)

    def test_matrix_free_rank_deficient(self, rng):
        mat = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        free = from_callables(4, 6, lambda f: mat @ f, lambda y: mat.T @ y)
        g = rng.standard_normal(6)
        assert lsqr_distance(free, g)[0] == pytest.approx(projection_distance(mat, g), abs=1e-8)

    def test_matrix_free_ill_posed_matches_dense(self):
        # a Gaussian blur of width 2 has singular values down to 5e-9, so
        # normal-equations CG stalled here; reorthogonalized LSQR runs to the
        # full basis and resolves what a dense least-squares solve resolves
        A = make_deconvolution(256, 2.0)
        prob = synthesize(A, _bump_profile(256, np.random.default_rng(0)), 0.02, seed=0)
        mat = A.matrix
        free = from_callables(256, 256, lambda f: mat @ f, lambda y: mat.T @ y)
        dense = np.linalg.norm(mat @ np.linalg.lstsq(mat, prob.g, rcond=None)[0] - prob.g)
        dist, converged = lsqr_distance(free, prob.g)
        assert converged and dist == pytest.approx(dense, abs=1e-9 * np.linalg.norm(prob.g))

    def test_stops_below_target(self, rng):
        # a residual below target is an upper bound good enough to stop on,
        # one forward application for the look and no adjoint
        mat = rng.standard_normal((20, 10))
        g = rng.standard_normal(20)
        exact = projection_distance(mat, g)
        target = 0.5 * (exact + np.linalg.norm(g))
        calls = []
        basis = bidiagonalize(mat, g, 0, calls)
        dist, converged = basis.distance(target)
        assert not converged and exact <= dist < target
        assert calls == ["adj"] + ["fwd", "adj"] * basis.k + ["fwd"]
