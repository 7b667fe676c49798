import dataclasses
import math

import numpy as np
import pytest

from morozov import lagrange, linops
from morozov.errors import AssumptionViolation, ConvergenceFailure, DimensionMismatch
from morozov.lagrange import (
    LAMBDA_MAX,
    Lagrangian,
    StandardForm,
    lagrangian_value,
    solve_lagrange,
)
from morozov.problems import regime_fixture
from morozov.regularizers import (
    Regularizer,
    custom_regularizer,
    first_difference_regularizer,
    identity_regularizer,
)

from conftest import (
    assert_adjoint_consistent,
    counting_free_op,
    custom_twin,
    lower_bidiagonal,
    numpy_inner_solve,
    random_dense_op,
)


def scalar_lagrangian(epsilon=1.0):
    """1-d problem: A = 1, g = 2, J = f^2."""
    return Lagrangian(
        linops.identity(1), np.array([2.0]), identity_regularizer(1), epsilon
    )


class TestLagrangianValue:
    def test_penalty_vanishes_at_lambda_zero(self, rng):
        lag = Lagrangian(
            random_dense_op(rng, 4, 3), rng.standard_normal(4),
            identity_regularizer(3), epsilon=0.5,
        )
        f = rng.standard_normal(3)
        assert lagrangian_value(lag, f, 0.0) == lag.regularizer.evaluate(f)

    def test_hand_evaluation(self):
        # f=0, identity A, ||g||^2=4, eps=1, lambda=2: 0 + 2*(4-1) = 6
        lag = Lagrangian(
            linops.identity(2), np.array([2.0, 0.0]), identity_regularizer(2), 1.0
        )
        assert lagrangian_value(lag, np.zeros(2), 2.0) == pytest.approx(6.0, rel=1e-15)

    def test_active_constraint_leaves_penalty_only(self):
        lag = Lagrangian(
            linops.identity(2), np.array([2.0, 0.0]), identity_regularizer(2), 1.0
        )
        f = np.array([1.0, 0.0])  # ||f-g||^2 = 1 = eps
        for lam in (0.0, 0.5, 3.0):
            assert lagrangian_value(lag, f, lam) == pytest.approx(
                lag.regularizer.evaluate(f), rel=1e-14
            )

    def test_rejects_negative_lambda(self):
        lag = scalar_lagrangian()
        for lam in (-0.5, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                lagrangian_value(lag, np.array([1.0]), lam)


class TestSolveLagrange:
    def test_scalar_closed_form(self):
        # (1 + lam) f = 2 lam  =>  f = 2 lam / (1 + lam)
        lag = scalar_lagrangian()
        for lam in (0.25, 1.0, 7.5):
            sol = solve_lagrange(lag, lam)
            assert sol.f_lambda[0] == pytest.approx(2 * lam / (1 + lam), rel=1e-14)
        sol = solve_lagrange(lag, 1.0)
        assert sol.f_lambda[0] == pytest.approx(1.0, rel=1e-14)
        assert sol.discrepancy_sq == pytest.approx(1.0, rel=1e-13)

    def test_identity_componentwise_closed_form(self):
        lag = Lagrangian(
            linops.identity(2), np.array([2.0, 0.0]), identity_regularizer(2), 1.0
        )
        sol = solve_lagrange(lag, 1.0)
        np.testing.assert_allclose(sol.f_lambda, [1.0, 0.0], rtol=1e-14, atol=1e-16)
        assert sol.discrepancy_sq == pytest.approx(1.0, rel=1e-13)
        assert sol.j_value == pytest.approx(1.0, rel=1e-13)

    def test_tikhonov_equivalence_oracle(self, rng):
        # independent normal-equations solve of the alpha-weighted
        # problem (A^T A + alpha I) f = A^T g with alpha = 1/lambda
        A = random_dense_op(rng, 5, 4)
        g = rng.standard_normal(5)
        lag = Lagrangian(A, g, identity_regularizer(4), epsilon=0.1)
        lam = 3.0
        alpha = 1.0 / lam
        expected = np.linalg.solve(
            A.matrix.T @ A.matrix + alpha * np.eye(4), A.matrix.T @ g
        )
        sol = solve_lagrange(lag, lam)
        np.testing.assert_allclose(sol.f_lambda, expected, rtol=1e-10)

    def test_stacked_least_squares_oracle(self, rng):
        # same minimizer from the stacked formulation
        # argmin ||[A; sqrt(alpha) L] f - [g; 0]||^2, solved by QR/SVD
        A = random_dense_op(rng, 8, 5)
        L = first_difference_regularizer(5)
        g = rng.standard_normal(8)
        lag = Lagrangian(A, g, L, epsilon=0.1)
        lam = 0.7
        alpha = 1.0 / lam
        stacked = np.vstack([A.matrix, np.sqrt(alpha) * L.seminorm_operator.materialize()])
        rhs = np.concatenate([g, np.zeros(4)])
        expected, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
        sol = solve_lagrange(lag, lam)
        np.testing.assert_allclose(sol.f_lambda, expected, rtol=1e-8)

    @pytest.mark.parametrize("penalty", ["identity", "first_difference"])
    def test_spectral_as_accurate_as_direct(self, rng, penalty):
        # rectangular A with a nontrivial kernel, lam across the whole
        # range; the reference is the stacked least-squares solution, and
        # the error of the penalty stored as a custom one, in the standard
        # form of its pivoted QR factorization, may not exceed that of a
        # dense direct solve of the system by much
        A = random_dense_op(rng, 9, 12)
        g = rng.standard_normal(9)
        J = identity_regularizer(12) if penalty == "identity" else first_difference_regularizer(12)
        Lm = J.seminorm_operator.materialize()
        lag = custom_twin(Lagrangian(A, g, J, epsilon=0.5))
        for lam in (1e-6, 1e-2, 1.0, 1e3, 1e8, LAMBDA_MAX):
            stacked = np.vstack([A.matrix, Lm / np.sqrt(lam)])
            rhs = np.concatenate([g, np.zeros(Lm.shape[0])])
            expected, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
            direct = numpy_inner_solve(lag, lam)
            custom = solve_lagrange(lag, lam)
            assert custom.solver_stats["method"] == "krylov"
            scale = np.linalg.norm(expected)
            err_direct = np.linalg.norm(direct - expected) / scale
            err_custom = np.linalg.norm(custom.f_lambda - expected) / scale
            assert err_custom <= 10 * err_direct + 1e-12, lam
            if lam <= 1e3:
                disc_sq = linops.residual_norm_sq(A, direct, g)
                assert custom.discrepancy_sq == pytest.approx(disc_sq, rel=1e-10)
                assert custom.j_value == pytest.approx(J.evaluate(direct), rel=1e-10)

    def test_spectral_on_matrix_free_a_equals_dense(self, rng):
        # a custom penalty keeps a matrix-free A an operator: the same
        # standard form as a dense A, whose answers it gives bit for bit
        mat = rng.standard_normal((7, 6))
        g = rng.standard_normal(7)
        J = custom_regularizer(linops.from_matrix(np.diff(np.eye(6), axis=0)))
        dense = Lagrangian(linops.from_matrix(mat), g, J, epsilon=0.3)
        free_op, counts = counting_free_op(mat)
        free = Lagrangian(free_op, g, J, epsilon=0.3)
        for lam in (1e-2, 1.0, 1e3):
            a = solve_lagrange(dense, lam)
            b = solve_lagrange(free, lam)
            np.testing.assert_array_equal(b.f_lambda, a.f_lambda)
            assert b.discrepancy_sq == a.discrepancy_sq
        # never materialized: the build's A W, and A^T q, A^T g and the
        # basis's first column; one forward and one adjoint application for
        # each of the 5 columns of the basis, which then spans the standard
        # form's whole space; and one of each per solve for its residuals
        assert free.engine().basis.k == 5
        assert counts == {"fwd": 1 + 5 + 3, "adj": 3 + 5 + 3}

    def test_pivoted_qr_built_once_across_threads(self, monkeypatch):
        # more threads than cores race for the lazily built engine, whose
        # custom penalty takes one pivoted QR factorization
        import sys
        import threading

        import scipy.linalg

        calls = []
        qr = scipy.linalg.qr

        def counting(*args, **kwargs):
            calls.append(kwargs.get("pivoting", False))
            return qr(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", counting)
        rng = np.random.default_rng(3)
        # large enough that the build outlasts the threads' start
        lag = Lagrangian(
            random_dense_op(rng, 200, 200), rng.standard_normal(200),
            custom_regularizer(linops.from_matrix(np.eye(200))), epsilon=0.5,
        )
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait(timeout=10)
            results.append(lag.engine())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert calls == [True]
        assert all(r is results[0] for r in results)

    def test_matrix_free_matches_dense(self, rng):
        mat = rng.standard_normal((7, 6))
        g = rng.standard_normal(7)
        dense = Lagrangian(
            linops.from_matrix(mat), g, identity_regularizer(6), epsilon=0.3
        )
        free_op = linops.from_callables(
            6, 7, lambda f: mat @ f, lambda y: mat.T @ y
        )
        free = Lagrangian(free_op, g, identity_regularizer(6), epsilon=0.3)
        a = numpy_inner_solve(dense, 4.0)
        b = solve_lagrange(free, 4.0)
        assert b.solver_stats["method"] == "krylov"
        np.testing.assert_allclose(b.f_lambda, a, rtol=1e-8, atol=1e-12)

    def test_optimality_residual_bound(self, rng):
        A = random_dense_op(rng, 9, 6)
        g = rng.standard_normal(9)
        lag = Lagrangian(A, g, first_difference_regularizer(6), epsilon=0.2)
        for lam in (1e-3, 1.0, 1e3):
            sol = solve_lagrange(lag, lam)
            bound = 1e-8 * (1 + np.linalg.norm(2 * lam * A.apply_adjoint(g)))
            assert sol.optimality_residual <= bound

    def test_discrepancy_monotone_in_lambda(self, rng):
        A = random_dense_op(rng, 8, 8)
        g = rng.standard_normal(8)
        lag = Lagrangian(A, g, identity_regularizer(8), epsilon=0.1)
        lams = np.geomspace(1e-3, 1e3, 25)
        discs = [solve_lagrange(lag, lam).discrepancy_sq for lam in lams]
        assert all(d1 >= d2 - 1e-12 for d1, d2 in zip(discs, discs[1:]))

    def test_minimality_witness(self, rng):
        A = random_dense_op(rng, 6, 5)
        g = rng.standard_normal(6)
        lag = Lagrangian(A, g, identity_regularizer(5), epsilon=0.4)
        lam = 2.5
        sol = solve_lagrange(lag, lam)
        base = lagrangian_value(lag, sol.f_lambda, lam)
        for _ in range(100):
            f = rng.standard_normal(5)
            assert base <= lagrangian_value(lag, f, lam) + 1e-12

    def test_rejects_nonpositive_lambda(self):
        # NaN passes no residual test, so it would never end a Krylov solve
        lag = scalar_lagrangian()
        for problem in (lag, custom_twin(lag)):
            for lam in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="positive"):
                    solve_lagrange(problem, lam)

    def test_rejects_lambda_above_cap(self):
        lag = scalar_lagrangian()
        with pytest.raises(ValueError, match="LAMBDA_MAX"):
            solve_lagrange(lag, 2 * LAMBDA_MAX)

    @pytest.mark.parametrize("kind", ["identity", "first_difference", "custom"])
    def test_default_solver_is_the_engine(self, rng, kind):
        n = 8
        A = random_dense_op(rng, 10, n)
        J = {
            "identity": identity_regularizer(n),
            "first_difference": first_difference_regularizer(n),
            "custom": custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0))),
        }[kind]
        lag = Lagrangian(A, rng.standard_normal(10), J, 1.0)
        engine = lag.engine()
        assert isinstance(engine, StandardForm)
        sol = solve_lagrange(lag, 0.5)
        assert sol.solver_stats["method"] == "krylov"
        assert sol.f_lambda.tobytes() == engine.solve(lag, [0.5])[0].f_lambda.tobytes()
        np.testing.assert_allclose(sol.f_lambda, numpy_inner_solve(lag, 0.5), rtol=1e-10)

    def test_singular_system_dense_refused(self):
        # shared kernel (constants) makes the system matrix singular; the
        # engine decides strict convexity, with the penalty stored as a
        # custom one too
        n = 5
        D = first_difference_regularizer(n)
        A = linops.from_matrix(D.seminorm_operator.materialize())
        lag = Lagrangian(A, np.zeros(n - 1), first_difference_regularizer(n), 1.0)
        with pytest.raises(AssumptionViolation, match="unique"):
            lag.engine()
        for problem in (lag, custom_twin(lag)):
            with pytest.raises(AssumptionViolation, match="unique"):
                solve_lagrange(problem, 1.0)

    def test_singular_system_matrix_free_refused(self, rng):
        # the shared-kernel pair behind callbacks: the right-hand side lives
        # in range(A^T), orthogonal to the shared kernel, so the system is
        # consistent, yet the engine refuses its many minimizers
        n = 5
        D = first_difference_regularizer(n).seminorm_operator.materialize()
        A = counting_free_op(D)[0]
        g = rng.standard_normal(n - 1)
        for J in (first_difference_regularizer(n), custom_regularizer(A)):
            lag = Lagrangian(A, g, J, 1.0)
            with pytest.raises(AssumptionViolation, match="unique"):
                lag.engine()
            for problem in (lag, custom_twin(lag)):
                with pytest.raises(AssumptionViolation, match="unique"):
                    solve_lagrange(problem, 1.0)


class TestKrylovSolver:
    """Projected solves in the problem's shared Golub-Kahan basis."""

    @staticmethod
    def ill_posed(n=64, width=2.0, seed=5):
        from morozov.problems import _bump_profile, make_deconvolution, synthesize

        A = make_deconvolution(n, width)
        prob = synthesize(A, _bump_profile(n, np.random.default_rng(seed)), 0.02, seed=seed)
        return A.matrix, prob.g

    def test_matches_direct_on_ill_posed_operator(self):
        mat, g = self.ill_posed()
        free, _ = counting_free_op(mat)
        dense = Lagrangian(linops.from_matrix(mat), g, identity_regularizer(64), epsilon=0.1)
        lag = Lagrangian(free, g, identity_regularizer(64), epsilon=0.1)
        for lam in (1e-2, 1.0, 1e2, 1e4):
            ref = numpy_inner_solve(dense, lam)
            sol = solve_lagrange(lag, lam)
            assert sol.solver_stats["method"] == "krylov"
            assert sol.solver_stats["relative_residual"] <= 1e-10
            # I + lam A^T A has no eigenvalue below 1, so the error is at
            # most the residual, 1e-10 ||lam A^T g||
            err = np.linalg.norm(sol.f_lambda - ref)
            assert err <= 2e-10 * lam * np.linalg.norm(mat.T @ g), lam
            assert sol.optimality_residual <= 1e-8 * (1 + 2 * lam * np.linalg.norm(mat.T @ g))

    @pytest.mark.parametrize("penalty", [identity_regularizer, first_difference_regularizer])
    def test_first_solve_matches_any_later_one(self, penalty):
        # a solve takes the fewest columns that pass, so it does not depend
        # on how far other multipliers grew the shared basis
        mat, g = self.ill_posed()
        fresh = Lagrangian(counting_free_op(mat)[0], g, penalty(64), epsilon=0.1)
        used = Lagrangian(counting_free_op(mat)[0], g, penalty(64), epsilon=0.1)
        solve_lagrange(used, 1e5)
        a = solve_lagrange(fresh, 3.0)
        b = solve_lagrange(used, 3.0)
        assert a.solver_stats == b.solver_stats
        assert a.f_lambda.tobytes() == b.f_lambda.tobytes()

    def test_first_difference_matches_direct(self):
        mat, g = self.ill_posed()
        dense = Lagrangian(linops.from_matrix(mat), g, first_difference_regularizer(64), epsilon=0.1)
        lag = Lagrangian(counting_free_op(mat)[0], g, first_difference_regularizer(64), epsilon=0.1)
        for lam in (1e-3, 1.0, 1e2, 1e4):
            ref = numpy_inner_solve(dense, lam)
            sol = solve_lagrange(lag, lam)
            assert sol.solver_stats["relative_residual"] <= 1e-10
            np.testing.assert_allclose(sol.f_lambda, ref, rtol=0, atol=1e-9 * np.abs(ref).max())
            disc_sq = linops.residual_norm_sq(dense.op, ref, g)
            assert sol.discrepancy_sq == pytest.approx(disc_sq, rel=1e-10)
            assert sol.j_value == pytest.approx(dense.regularizer.evaluate(ref), rel=1e-8)

    def test_discrepancy_resolved_at_small_noise(self):
        # at noise 1e-7 the residual test alone stops where D' still has the
        # wrong sign; the discrepancy error test keeps the basis growing
        from morozov.problems import _bump_profile, make_deconvolution, synthesize

        prob = synthesize(
            make_deconvolution(128, 4.0),
            _bump_profile(128, np.random.default_rng(0)), 1e-7, seed=0,
        )
        epsilon = (1.02 * prob.tau) ** 2
        lag = Lagrangian(prob.op, prob.g, prob.regularizer, epsilon)
        for lam in (1e6, 1e8, 1e10):
            ref = linops.residual_norm_sq(lag.op, numpy_inner_solve(lag, lam), lag.data)
            sol = solve_lagrange(lag, lam)
            assert abs(sol.discrepancy_sq - ref) <= 1e-3 * epsilon, lam

    def test_basis_grows_only_for_new_multipliers(self):
        mat, g = self.ill_posed()
        free, counts = counting_free_op(mat)
        lag = Lagrangian(free, g, identity_regularizer(64), epsilon=0.1)
        first = solve_lagrange(lag, 1.0)
        k_small = first.solver_stats["iterations"]
        k_large = solve_lagrange(lag, 1e4).solver_stats["iterations"]
        assert 0 < k_small < k_large
        before = dict(counts)
        again = solve_lagrange(lag, 1.0)
        # the basis is reused: one forward and one adjoint for the residual
        # check, on the same leading columns as the first solve
        assert again.solver_stats["iterations"] == k_small
        assert again.f_lambda.tobytes() == first.f_lambda.tobytes()
        assert (counts["fwd"] - before["fwd"], counts["adj"] - before["adj"]) == (1, 1)

    @pytest.mark.parametrize("penalty", [identity_regularizer, first_difference_regularizer])
    def test_failed_explicit_check_goes_on_from_the_next_column(self, monkeypatch, penalty):
        # the recurrences' estimates can pass a candidate whose explicit
        # residual on the full system does not: that point's search goes on
        # from the next column, alone, in a single solve and in a block
        mat, g = self.ill_posed()
        lams = [0.5, 3.0, 20.0]

        def problem():
            return Lagrangian(linops.from_matrix(mat), g, penalty(64), epsilon=0.1)

        plain = problem()
        k0 = solve_lagrange(plain, 3.0).solver_stats["iterations"]
        block = plain.engine().solve(plain, lams)
        candidates = []
        solution = lagrange._solution

        def rejecting(lag, lam, f, slope, stats):
            # the first candidate at lam = 3 fails its explicit check
            sol = solution(lag, lam, f, slope, stats)
            if lam == 3.0:
                candidates.append(stats["iterations"])
                if len(candidates) == 1:
                    return dataclasses.replace(sol, optimality_residual=math.inf)
            return sol

        monkeypatch.setattr(lagrange, "_solution", rejecting)
        single = solve_lagrange(problem(), 3.0)
        assert candidates == [k0, k0 + 1]
        assert single.solver_stats["iterations"] == k0 + 1
        assert single.solver_stats["relative_residual"] <= lagrange.KRYLOV_TOL
        ref = numpy_inner_solve(plain, 3.0)
        np.testing.assert_allclose(single.f_lambda, ref, rtol=0, atol=1e-9 * np.abs(ref).max())

        candidates.clear()
        lag = problem()
        rejected = lag.engine().solve(lag, lams)
        assert candidates == [k0, k0 + 1]
        assert rejected[1].f_lambda.tobytes() == single.f_lambda.tobytes()
        # its neighbours in the block are unchanged
        for i in (0, 2):
            assert rejected[i].f_lambda.tobytes() == block[i].f_lambda.tobytes()
            assert rejected[i].solver_stats == block[i].solver_stats

    def test_exhausted_basis_above_tol_raises_with_best(self, rng, monkeypatch):
        mat = rng.standard_normal((20, 20))
        free, _ = counting_free_op(mat)
        lag = Lagrangian(free, rng.standard_normal(20), identity_regularizer(20), epsilon=0.1)
        monkeypatch.setattr(lagrange, "KRYLOV_TOL", 1e-300)
        with pytest.raises(ConvergenceFailure, match="exhausted") as err:
            solve_lagrange(lag, 1e6)
        assert err.value.best.shape == (20,)

    def test_concurrent_solves_share_one_consistent_basis(self):
        # more threads than cores grow the shared basis at once
        import sys
        import threading

        mat, g = self.ill_posed()
        free, _ = counting_free_op(mat)
        lag = Lagrangian(free, g, identity_regularizer(64), epsilon=0.1)
        lams = np.geomspace(1e-2, 1e5, 16)
        results = {}

        def worker(lam):
            results[lam] = solve_lagrange(lag, lam)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(lam,)) for lam in lams]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == len(lams)
        for lam, sol in results.items():
            f = sol.f_lambda
            rhs = lam * mat.T @ g
            rel = np.linalg.norm(f + lam * mat.T @ (mat @ f) - rhs) / np.linalg.norm(rhs)
            assert rel <= 1e-10, lam
        basis = lag.engine().basis
        k = basis.k
        assert len(basis.alpha) == len(basis.beta) == k + 1
        # V is kept and orthonormal; the u side keeps its last vector
        V, B, u = basis._V[:], lower_bidiagonal(basis), basis._u
        assert V.shape[0] == k + 1
        np.testing.assert_allclose(V @ V.T, np.eye(k + 1), atol=1e-12)
        AV = mat @ V[:k].T
        np.testing.assert_allclose(AV.T @ AV, B.T @ B, atol=1e-12)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(mat.T @ u, basis.beta[k] * V[k - 1] + basis.alpha[k] * V[k], atol=1e-12)


class TestStandardForm:
    def test_first_differences_keep_the_data_residual(self, rng):
        A = random_dense_op(rng, 9, 7)
        g = rng.standard_normal(9)
        form = StandardForm.build(A, g, first_difference_regularizer(7))
        assert form.op.dims == linops.VectorSpaceDims(dim_f=6, dim_g=9)
        assert_adjoint_consistent(form.op, n_probes=20)
        L = first_difference_regularizer(7).seminorm_operator.materialize()
        for _ in range(5):
            z = rng.standard_normal(6)
            f = form.solution(z)
            np.testing.assert_allclose(L @ f, z, atol=1e-13)
            np.testing.assert_allclose(A.matrix @ f - g, form.op.apply(z) - form.data, atol=1e-13)
            # the constant part of f is optimal for the data term
            assert abs(np.sum(A.matrix.T @ (A.matrix @ f - g))) <= 1e-12

    def test_standard_form_solution_is_the_inner_minimizer(self, rng):
        A = random_dense_op(rng, 9, 7)
        g = rng.standard_normal(9)
        form = StandardForm.build(A, g, first_difference_regularizer(7))
        Abar = form.op.materialize()
        lag = Lagrangian(A, g, first_difference_regularizer(7), epsilon=0.5)
        for lam in (1e-2, 1.0, 1e3):
            z = np.linalg.solve(np.eye(6) + lam * Abar.T @ Abar, lam * Abar.T @ form.data)
            ref = numpy_inner_solve(lag, lam)
            np.testing.assert_allclose(form.solution(z), ref, rtol=1e-10, atol=1e-12)

    def test_identity_is_its_own_standard_form(self, rng):
        A = random_dense_op(rng, 5, 4)
        g = rng.standard_normal(5)
        form = StandardForm.build(A, g, identity_regularizer(4))
        assert form.op is A and form.data is g
        z = rng.standard_normal(4)
        assert form.solution(z) is z
        assert form.rhs_norm == pytest.approx(np.linalg.norm(A.matrix.T @ g), rel=1e-14)

    def test_constants_in_ker_a_refused(self):
        # forward and penalty both kill constants
        A = linops.from_matrix(first_difference_regularizer(6).seminorm_operator.materialize())
        with pytest.raises(AssumptionViolation, match="unique"):
            StandardForm.build(A, np.ones(5), first_difference_regularizer(6))

    @pytest.mark.parametrize("shape", ["difference", "stacked", "tall"])
    def test_custom_form_keeps_the_data_residual(self, rng, shape):
        # full row rank (p = n - 1), [D; D] (rank n - 1 < p), and an 8-by-6
        # L of rank 4: ||L f|| = ||z||, the same data residual, and f's
        # kernel part optimal for the data term
        D = np.diff(np.eye(6), axis=0)
        L = {"difference": D, "stacked": np.vstack([D, D]),
             "tall": rng.standard_normal((8, 4)) @ rng.standard_normal((4, 6))}[shape]
        rank = np.linalg.matrix_rank(L)
        A = random_dense_op(rng, 9, 6)
        g = rng.standard_normal(9)
        form = StandardForm.build(A, g, custom_regularizer(linops.from_matrix(L)))
        assert form.op.dims == linops.VectorSpaceDims(dim_f=rank, dim_g=9)
        assert_adjoint_consistent(form.op, n_probes=20)
        _, _, vt = np.linalg.svd(L)
        kernel = vt[rank:].T
        for _ in range(5):
            z = rng.standard_normal(rank)
            f = form.solution(z)
            assert np.linalg.norm(L @ f) == pytest.approx(np.linalg.norm(z), rel=1e-12)
            np.testing.assert_allclose(A.matrix @ f - g, form.op.apply(z) - form.data, atol=1e-12)
            np.testing.assert_allclose(kernel.T @ (A.matrix.T @ (A.matrix @ f - g)), 0.0, atol=1e-12)

    def test_zero_custom_penalty_refused(self, rng, monkeypatch):
        # a penalty of rank 0 has no standard form; the pivoted QR
        # factorization finds it from L alone, once: the failed build is
        # kept, and each call raises a fresh error with the same message
        A = random_dense_op(rng, 9, 6)
        lag = Lagrangian(A, rng.standard_normal(9), custom_regularizer(linops.from_matrix(np.zeros((3, 6)))), 1.0)
        calls = []
        factors = Regularizer.factors
        monkeypatch.setattr(Regularizer, "factors", lambda J: calls.append(J) or factors(J))
        errors = []
        for _ in range(2):
            with pytest.raises(ValueError, match="rank 0") as err:
                lag.engine()
            errors.append(err.value)
        assert len(calls) == 1
        assert errors[0] is not errors[1] and str(errors[0]) == str(errors[1])


class TestLagrangianValidation:
    def test_epsilon_positive(self):
        for epsilon in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                Lagrangian(
                    linops.identity(2), np.zeros(2), identity_regularizer(2), epsilon
                )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data_refused(self, bad):
        # the regime verdict divided by zero on it, and a Krylov solve
        # never returned
        prob = regime_fixture("interior", seed=1)
        g = prob.g.copy()
        g[3] = bad
        with pytest.raises(ValueError, match=rf"data\[3\] = {bad}"):
            Lagrangian(prob.op, g, prob.regularizer, prob.tau**2)

    def test_complex_data_refused(self):
        # the cast to float64 kept data = [1, 2] with only a ComplexWarning
        with pytest.raises(ValueError, match="data must be real"):
            Lagrangian(linops.identity(2), [1 + 5j, 2], identity_regularizer(2), 1.0)

    def test_non_finite_dense_operator_refused(self):
        mat = np.eye(3)
        mat[1, 2] = math.nan
        with pytest.raises(ValueError, match=r"A\[1, 2\] = nan"):
            Lagrangian(linops.from_matrix(mat), np.ones(3), identity_regularizer(3), 1.0)
        # a matrix-free map is known only by applying it, so it is not checked
        op, counts = counting_free_op(mat)
        Lagrangian(op, np.ones(3), identity_regularizer(3), 1.0)
        assert counts == {"fwd": 0, "adj": 0}

    def test_non_finite_penalty_refused(self):
        # custom first differences with one NaN entry are refused by name,
        # not judged by a regime verdict that reads residual=nan: dense up
        # front, matrix-free once the engine's build has materialized the
        # map. Applied to e_0, the callback's row 3 is NaN * 0 = NaN, so
        # that is the first entry its materialized matrix shows. The failed
        # build is kept: a second call raises it again without a new one
        from morozov.dual import maximize_dual
        from morozov.problems import make_deconvolution, synthesize

        n = 32
        prob = synthesize(make_deconvolution(n, 2.0), np.sin(np.linspace(0, np.pi, n)), 0.02, seed=1)
        mat = np.diff(np.eye(n), axis=0)
        mat[3, 4] = math.nan
        with pytest.raises(ValueError, match=r"L\[3, 4\] = nan"):
            Lagrangian(prob.op, prob.g, custom_regularizer(linops.from_matrix(mat)), prob.tau**2)
        op, counts = counting_free_op(mat)
        lag = Lagrangian(prob.op, prob.g, custom_regularizer(op), prob.tau**2)
        assert counts == {"fwd": 0, "adj": 0}
        for _ in range(2):
            with pytest.raises(ValueError, match=r"L\[3, 0\] = nan"):
                maximize_dual(lag)
        assert counts == {"fwd": n, "adj": 0}

    @pytest.mark.parametrize("side, bad", [("fwd", math.nan), ("adj", math.inf)])
    @pytest.mark.parametrize("after", [0, 5])
    def test_non_finite_matrix_free_application_refused(self, side, bad, after):
        # a matrix-free A that puts a NaN or an infinity in one entry, from
        # its first application on or from its sixth: the Golub-Kahan basis
        # refuses the vector before it changes, so two selections raise the
        # same ValueError and a sweep records it on every point. An exhausted
        # basis once read NaN residual estimates here and grew without end
        import signal

        from morozov.dual import maximize_dual, sweep_dual
        from morozov.problems import make_deconvolution

        n = 64
        mat = make_deconvolution(n, 2.0).matrix
        calls = {"fwd": 0, "adj": 0}

        def apply(name, m):
            def product(x):
                calls[name] += 1
                y = m @ x
                if name == side and calls[name] > after:
                    y[3] = bad
                return y

            return product

        op = linops.from_callables(n, n, apply("fwd", mat), apply("adj", mat.T))
        lag = Lagrangian(op, mat @ np.sin(np.linspace(0, np.pi, n)), identity_regularizer(n), 0.01)

        def hung(signum, frame):
            raise TimeoutError("the selection did not end")

        handler = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            messages = []
            for _ in range(2):
                with pytest.raises(ValueError, match="application returned a vector whose norm is") as err:
                    maximize_dual(lag)
                messages.append(str(err.value))
            points = sweep_dual(lag, [0.1, 1.0, 10.0])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        side_name = "forward" if side == "fwd" else "adjoint"
        assert messages[0] == messages[1] and f"the {side_name} application" in messages[0]
        assert [p.error for p in points] == messages[:1] * 3

    @pytest.mark.parametrize("side", ["fwd", "adj"])
    @pytest.mark.parametrize("bad, error", [("short", DimensionMismatch), ("complex", ValueError)])
    @pytest.mark.parametrize("penalty", [identity_regularizer, first_difference_regularizer])
    def test_malformed_matrix_free_output_refused(self, side, bad, error, penalty):
        # a matrix-free A whose callback returns, from its sixth call on, a
        # vector one entry short or a complex one. The engine applies A
        # through its pair, unchecked on the way in, but the pair checks what
        # the callback returns: two selections raise the same error, naming
        # the callback's output, and a sweep records it on every point
        from morozov.dual import maximize_dual, sweep_dual
        from morozov.problems import make_deconvolution

        n = 64
        mat = make_deconvolution(n, 2.0).matrix
        calls = {"fwd": 0, "adj": 0}

        def apply(name, m):
            def product(x):
                calls[name] += 1
                y = m @ x
                if name == side and calls[name] > 5:
                    return y[:-1] if bad == "short" else y + 0j
                return y

            return product

        op = linops.from_callables(n, n, apply("fwd", mat), apply("adj", mat.T))
        lag = Lagrangian(op, mat @ np.sin(np.linspace(0, np.pi, n)), penalty(n), 0.01)
        messages = []
        for _ in range(2):
            with pytest.raises(error, match="callback output") as err:
                maximize_dual(lag)
            assert type(err.value) is error
            messages.append(str(err.value))
        points = sweep_dual(lag, [0.1, 1.0, 10.0])
        side_name = "forward" if side == "fwd" else "adjoint"
        assert messages[0] == messages[1] and messages[0].startswith(f"{side_name} callback output")
        assert [p.error for p in points] == messages[:1] * 3

    def test_data_dims(self):
        with pytest.raises(Exception):
            Lagrangian(
                linops.identity(2), np.zeros(3), identity_regularizer(2), 1.0
            )

    def test_regularizer_dims(self):
        with pytest.raises(Exception):
            Lagrangian(
                linops.identity(2), np.zeros(2), identity_regularizer(3), 1.0
            )

    def test_data_is_a_read_only_copy(self):
        g = np.array([1.0, 2.0])
        lag = Lagrangian(linops.identity(2), g, identity_regularizer(2), 1.0)
        g[0] = 5.0
        assert lag.data[0] == 1.0
        with pytest.raises(ValueError):
            lag.data[0] = 5.0

    def test_tau_property(self):
        assert scalar_lagrangian(epsilon=4.0).tau == 2.0
