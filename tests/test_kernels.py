import copy

import numpy as np
import pytest
import scipy.linalg.lapack

from morozov._kernels import GolubKahan
from morozov.dual import diagnose_regime
from morozov.lagrange import LAMBDA_MAX, Lagrangian
from morozov.linops import from_callables, from_matrix, identity
from morozov.problems import _bump_profile, make_deconvolution, synthesize
from morozov.regularizers import identity_regularizer

from conftest import lower_bidiagonal, projection_distance, random_dense_op


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


def truncated(basis, k):
    """``basis`` as it stood at k columns, with no factors kept: a basis's
    factors read its alpha and beta up to its k alone."""
    view = copy.copy(basis)
    view.k, view._ldl_lam = k, None
    return view


class TestGolubKahan:
    def test_bidiagonal_relations_and_orthonormal_bases(self, rng):
        mat = rng.standard_normal((15, 10))
        calls = []
        basis = bidiagonalize(mat, rng.standard_normal(15), 6, calls)
        assert basis.k == 6 and not basis.exhausted
        assert calls == ["adj"] + ["fwd", "adj"] * 6
        # only V is kept and reorthogonalized; of U, the last vector u_{k+1}
        V, B, u = basis._V[:], lower_bidiagonal(basis), basis._u
        assert V.shape == (7, 10)
        np.testing.assert_allclose(V @ V.T, np.eye(7), atol=1e-13)
        # A V_k = U_{k+1} B_k with U_{k+1} orthonormal: (A V_k)^T (A V_k) = B_k^T B_k
        AV = mat @ V[:6].T
        np.testing.assert_allclose(AV.T @ AV, B.T @ B, atol=1e-12)
        # the last column of A^T U_{k+1} = V_k B_k^T + alpha_{k+1} v_{k+1} e_{k+1}^T
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(mat.T @ u, basis.beta[6] * V[5] + basis.alpha[6] * V[6], atol=1e-12)

    def test_recurrences_match_explicit_residuals(self, rng):
        mat = rng.standard_normal((9, 7))
        g = rng.standard_normal(9)
        lam = 3.0
        basis = bidiagonalize(mat, g, 0)
        for _ in range(6):
            basis.step()
            z = basis.tikhonov(lam)
            rel = basis.tikhonov_residuals(lam)[basis.k]
            f = basis.expand(z)
            rhs = lam * mat.T @ g
            explicit = np.linalg.norm(f + lam * mat.T @ (mat @ f) - rhs) / np.linalg.norm(rhs)
            assert rel == pytest.approx(explicit, rel=1e-9)

    def test_full_basis_solves_exactly(self, rng):
        mat = rng.standard_normal((9, 7))
        g = rng.standard_normal(9)
        basis = bidiagonalize(mat, g, 20)
        assert basis.exhausted and basis.k == 7
        z = basis.tikhonov(2.0)
        rel = basis.tikhonov_residuals(2.0)[basis.k]
        expected = np.linalg.solve(np.eye(7) + 2.0 * mat.T @ mat, 2.0 * mat.T @ g)
        np.testing.assert_allclose(basis.expand(z), expected, rtol=1e-10)
        assert rel == 0.0

    def test_invariant_krylov_space_exhausts_early(self, rng):
        mat = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        g = rng.standard_normal(6)
        basis = bidiagonalize(mat, g, 10)
        assert basis.exhausted and basis.k == 2

    def test_wide_operator_exhausts_on_the_u_side(self, rng):
        # U is not stored: u_1..u_{dim_g} span the data space, so the basis
        # stops at k = dim_g with dim_f - dim_g directions of V unused. On
        # this blur, sampled on every other row, the unreorthogonalized u
        # side does not cancel to rounding there, so only the count stops it
        mat = make_deconvolution(128, 1.0).matrix[::2]
        g = rng.standard_normal(64)
        basis = bidiagonalize(mat, g, 200)
        assert basis.exhausted and basis.k == 64
        z = basis.tikhonov(2.0)
        expected = np.linalg.solve(np.eye(128) + 2.0 * mat.T @ mat, 2.0 * mat.T @ g)
        np.testing.assert_allclose(basis.expand(z), expected, rtol=1e-10)
        assert basis.tikhonov_residuals(2.0)[basis.k] == 0.0

    def test_zero_data(self):
        calls = []
        basis = bidiagonalize(np.eye(3), np.zeros(3), 2, calls)
        assert basis.exhausted and basis.k == 0 and calls == []
        z = basis.tikhonov(1.0)
        assert z.shape == (0,) and basis.tikhonov_residuals(1.0)[0] == 0.0
        np.testing.assert_array_equal(basis.expand(z), np.zeros(3))

    def test_prefix_solves_do_not_see_later_columns(self, rng):
        mat = rng.standard_normal((12, 10)) @ np.diag(0.6 ** np.arange(10))
        g = rng.standard_normal(12)
        grown = bidiagonalize(mat, g, 8)
        residuals = grown.tikhonov_residuals(5.0)
        assert residuals.shape == (9,) and residuals[0] == 1.0
        for j in range(1, 8):
            fresh = bidiagonalize(mat, g, j)
            z = grown.tikhonov(5.0, j)
            assert z.tobytes() == fresh.tikhonov(5.0).tobytes()
            assert residuals[j] == fresh.tikhonov_residuals(5.0)[j]
            f = grown.expand(z)
            rhs = 5.0 * mat.T @ g
            explicit = np.linalg.norm(f + 5.0 * mat.T @ (mat @ f) - rhs) / np.linalg.norm(rhs)
            assert residuals[j] == pytest.approx(explicit, rel=1e-9)

    def test_residuals_from_a_start_column_are_the_tail(self, rng):
        # a search reads only the columns past its last look: the tail of
        # the whole array, bit for bit, as the basis grows a column at a time
        mat = rng.standard_normal((12, 10)) @ np.diag(0.6 ** np.arange(10))
        basis = bidiagonalize(mat, rng.standard_normal(12), 2)
        for _ in range(5):
            whole = basis.tikhonov_residuals(5.0)
            for start in range(basis.k + 2):
                assert basis.tikhonov_residuals(5.0, start).tobytes() == whole[start:].tobytes()
            basis.step()
        empty = bidiagonalize(np.eye(3), np.zeros(3), 2)
        assert empty.tikhonov_residuals(1.0, 0).tolist() == [0.0] and empty.tikhonov_residuals(1.0, 1).size == 0

    def test_residual_estimates_do_not_depend_on_the_order_of_multipliers(self, rng):
        # the factors kept for one multiplier grow a column at a time as the
        # basis grows, and a new multiplier factors every column at once:
        # both give the bits of a fresh basis factored once
        mat = rng.standard_normal((40, 30)) @ np.diag(0.8 ** np.arange(30))
        g = rng.standard_normal(40)
        grown = bidiagonalize(mat, g, 0)
        for lam, steps in [(5.0, 0), (5.0, 4), (5.0, 8), (0.1, 2), (0.1, 8), (5.0, 1), (5.0, 7)]:
            for _ in range(steps):
                grown.step()
            fresh = bidiagonalize(mat, g, grown.k)
            assert grown.tikhonov_residuals(lam).tobytes() == fresh.tikhonov_residuals(lam).tobytes()
            assert grown.tikhonov(lam).tobytes() == fresh.tikhonov(lam).tobytes()

    def test_block_rows_grow_into_the_factors_of_one_multiplier(self, monkeypatch):
        # every row of a factor_block, kept and then extended column by
        # column as the basis grows, holds the bits of the factors grown
        # from k = 1 at its multiplier alone, l's last entry e_k / D_k
        # included; at k = 0 and k = 1 there is no dpttrf to run
        calls = []
        dpttrf = scipy.linalg.lapack.dpttrf
        monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", lambda *a, **k: calls.append(a) or dpttrf(*a, **k))
        A = make_deconvolution(256, 2.0)
        g = synthesize(A, _bump_profile(256, np.random.default_rng(256)), 0.02, seed=256).g
        full = bidiagonalize(A.matrix, g, 80)
        assert full.k == 80 and not full.exhausted
        lams = np.geomspace(1e-3, 1e9, 37)
        ref = []
        for lam in lams:
            view = truncated(full, 1)
            view._factors(lam, 1)
            for k in range(2, 81):
                view.k = k
                view._factors(lam, k)
            ref.append(np.array(view._factors(lam, 80))[:, :80])
        assert calls == []
        for k0, dpttrfs in [(0, 0), (1, 0), (40, 1), (80, 1)]:
            block = truncated(full, k0).factor_block(lams)
            assert block.shape == (4, 37, k0) and len(calls) == dpttrfs
            calls.clear()
            for row, lam, want in zip(block.transpose(1, 0, 2), lams, ref):
                assert row.tobytes() == want[:, :k0].tobytes()
                view = truncated(full, k0)
                view.keep(lam, row)
                for k in range(k0 + 1, 81):
                    view.k = k
                    view._factors(lam, k)
                assert np.array(view._factors(lam, 80))[:, :80].tobytes() == want.tobytes()
            assert calls == []

    @pytest.mark.parametrize("m, n", [(15, 10), (8, 14), (12, 12), (1, 5), (5, 1)], ids=["tall", "wide", "square", "row", "column"])
    def test_kept_factors_fill_their_buffer_at_exhaustion(self, rng, m, n):
        # k never exceeds min(dim_g, dim_f), the columns of the kept
        # factors' buffer: grown a column at a time to exhaustion at one
        # multiplier, they fill it, bitwise the factor_block row of all k
        # columns
        mat = rng.standard_normal((m, n))
        basis = bidiagonalize(mat, rng.standard_normal(m), 0)
        lam = 3.0
        basis._factors(lam, basis.k)
        while not basis.exhausted:
            basis.step()
            basis._factors(lam, basis.k)
        k = basis.k
        assert k == min(m, n) and basis._ldl.shape == (4, k)
        assert basis._factors(lam, k).tobytes() == basis.factor_block([lam])[:, 0].tobytes()

    def test_discrepancy_error_estimates_the_true_error(self):
        mat = make_deconvolution(48, 2.0).matrix
        g = mat @ np.sin(np.linspace(0.0, 3.0, 48)) + 1e-3 * np.cos(np.arange(48))
        lam = 50.0
        basis = bidiagonalize(mat, g, 48)
        exact = np.linalg.solve(np.eye(48) + lam * mat.T @ mat, lam * mat.T @ g)
        r_exact = mat @ exact - g
        for j in (8, 12, 16):
            z = basis.tikhonov(lam, j)
            r = mat @ basis.expand(z) - g
            error = r @ r - r_exact @ r_exact
            # the projected discrepancy only overestimates, and the estimate
            # against the solution on four more columns tracks the error
            assert error > 0
            w = basis.projected_solve(lam, basis.tikhonov(lam, j + 4))
            estimate = basis.discrepancy_error(lam, z, w)
            assert 0.8 * error <= estimate <= 1.5 * error, j


def verdict(op, g, tau):
    """``diagnose_regime`` on the identity penalty's problem (op, g) at tau."""
    return diagnose_regime(Lagrangian(op, g, identity_regularizer(op.dims.dim_f), tau**2))


class TestDistance:
    """The residual the regime verdict reads, ``dist_to_range``: that of
    the projected solution at LAMBDA_MAX, or of the solve there, in the
    basis of (A, g). It bounds dist(g, range A) from above and reaches it
    where the singular values s have LAMBDA_MAX s^2 >> 1."""

    def test_surjective_is_zero(self, rng):
        g = rng.standard_normal(5)
        d = verdict(identity(5), g, 0.5 * np.linalg.norm(g))
        # A = I: f = lam g / (1 + lam) leaves g / (1 + lam)
        assert d.regime == "interior"
        assert d.dist_to_range == pytest.approx(np.linalg.norm(g) / (1.0 + LAMBDA_MAX), rel=1e-9)

    def test_orthogonal_component(self):
        d = verdict(from_matrix([[1.0, 0.0], [0.0, 0.0]]), [1.0, 1.0], 0.5)
        assert d.regime == "too_optimistic"
        assert d.dist_to_range == pytest.approx(1.0, rel=1e-12)

    def test_projection_oracle_rank_deficient(self, rng):
        # range basis via QR of a rank-2 6x4 matrix; oracle projects g
        # onto it and measures the orthogonal remainder
        B = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        g = rng.standard_normal(6)
        q, _ = np.linalg.qr(B[:, :2])  # first two columns span the range here
        expected = np.linalg.norm(g - q @ (q.T @ g))
        d = verdict(from_matrix(B), g, 0.5 * expected)
        assert d.regime == "too_optimistic"
        assert d.dist_to_range == pytest.approx(expected, abs=1e-8)

    def test_lower_bounds_any_candidate(self, rng):
        op = random_dense_op(rng, 6, 3)
        g = rng.standard_normal(6)
        d = verdict(op, g, 1e-3).dist_to_range
        for _ in range(25):
            f = rng.standard_normal(3)
            assert d <= np.linalg.norm(op.apply(f) - g) + 1e-12

    def test_matrix_free_matches_dense(self, rng):
        mat = rng.standard_normal((8, 5))
        free = from_callables(5, 8, lambda f: mat @ f, lambda y: mat.T @ y)
        g = rng.standard_normal(8)
        d = verdict(free, g, 1e-3)
        assert d.regime == "too_optimistic"
        assert d.dist_to_range == pytest.approx(projection_distance(from_matrix(mat), g), abs=1e-8)
        # one algorithm for both representations: the same numbers
        assert d == verdict(from_matrix(mat), g, 1e-3)

    def test_matrix_free_rank_deficient(self, rng):
        mat = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        free = from_callables(4, 6, lambda f: mat @ f, lambda y: mat.T @ y)
        g = rng.standard_normal(6)
        d = verdict(free, g, 1e-3)
        assert d.dist_to_range == pytest.approx(projection_distance(from_matrix(mat), g), abs=1e-8)

    def test_matrix_free_ill_posed_matches_dense(self):
        # a Gaussian blur of width 2 has singular values down to 5e-9, which
        # LAMBDA_MAX s^2 leaves unfitted: the residual at LAMBDA_MAX is far
        # above lstsq's distance, and it is what an SVD gives there
        A = make_deconvolution(256, 2.0)
        prob = synthesize(A, _bump_profile(256, np.random.default_rng(0)), 0.02, seed=0)
        mat = A.matrix
        free = from_callables(256, 256, lambda f: mat @ f, lambda y: mat.T @ y)
        dist = np.linalg.norm(mat @ np.linalg.lstsq(mat, prob.g, rcond=None)[0] - prob.g)
        u, sv, _ = np.linalg.svd(mat)
        c = u.T @ prob.g
        at_max = np.linalg.norm(c / (1.0 + LAMBDA_MAX * sv**2))
        d = verdict(free, prob.g, 0.5 * at_max)
        assert d.regime == "too_optimistic" and 1e3 * dist < d.dist_to_range
        assert d.dist_to_range == pytest.approx(at_max, rel=1e-6)
        assert verdict(A, prob.g, 0.5 * at_max).dist_to_range == pytest.approx(d.dist_to_range, rel=1e-9)

    def test_stops_below_target(self, rng):
        # a projected solution whose bound passes is good enough to stop on:
        # one forward application for the look, no adjoint and no solve
        mat = rng.standard_normal((20, 10))
        g = rng.standard_normal(20)
        exact = projection_distance(from_matrix(mat), g)
        target = 0.5 * (exact + np.linalg.norm(g))
        calls = []
        op = from_callables(
            10, 20, lambda f: calls.append("fwd") or mat @ f, lambda y: calls.append("adj") or mat.T @ y
        )
        lag = Lagrangian(op, g, identity_regularizer(10), target**2)
        d = diagnose_regime(lag)
        k = lag.engine().basis.k
        assert d.regime == "interior" and exact <= d.dist_to_range < target
        assert 0 < k < 10
        assert calls == ["adj"] + ["fwd", "adj"] * k + ["fwd"]
