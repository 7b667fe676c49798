import dataclasses
import math

import numpy as np
import pytest

from morozov import linops
from morozov.dual import (
    concavity_defects,
    diagnose_regime,
    eval_dual,
    failed_inequality,
    maximize_dual,
    sweep_dual,
    verify_morozov_solution,
)
from morozov.errors import (
    AssumptionViolation,
    BracketFailure,
    ConvergenceFailure,
    RegimeError,
)
from morozov.lagrange import LAMBDA_MAX, Lagrangian, lagrangian_value, solve_lagrange
from morozov.problems import _bump_profile, make_deconvolution, regime_fixture, synthesize
from morozov.regularizers import (
    Regularizer,
    custom_regularizer,
    first_difference_regularizer,
    identity_regularizer,
)

from conftest import counting_free_op, lsqr_distance, make_interior_problem, random_dense_op


def scalar_lagrangian(epsilon=1.0):
    """A = 1, g = 2, J = f^2; closed form lambda_bar = |g|/sqrt(eps) - 1."""
    return Lagrangian(
        linops.identity(1), np.array([2.0]), identity_regularizer(1), epsilon
    )


def lagrangian_of(problem, tau=None):
    tau = problem.tau if tau is None else tau
    return Lagrangian(problem.op, problem.g, problem.regularizer, tau**2)


class TestEvalDual:
    def test_lambda_zero(self):
        lag = scalar_lagrangian(epsilon=1.0)
        e = eval_dual(lag, 0.0)
        assert e.d_value == 0.0
        assert e.d_prime == pytest.approx(4.0 - 1.0, rel=1e-15)
        assert e.solution is None

    def test_scalar_at_root(self):
        lag = scalar_lagrangian(epsilon=1.0)
        e = eval_dual(lag, 1.0)
        assert e.solution.f_lambda[0] == pytest.approx(1.0, rel=1e-13)
        assert e.d_prime == pytest.approx(0.0, abs=1e-13)
        assert e.d_value == pytest.approx(1.0, rel=1e-12)

    def test_infimum_bound(self, rng):
        A = random_dense_op(rng, 6, 5)
        g = rng.standard_normal(6)
        lag = Lagrangian(A, g, identity_regularizer(5), epsilon=0.3)
        for lam in (0.1, 1.0, 10.0):
            e = eval_dual(lag, lam)
            for _ in range(20):
                f0 = rng.standard_normal(5)
                assert e.d_value <= lagrangian_value(lag, f0, lam) + 1e-10

    def test_invariant_relations(self, rng):
        A = random_dense_op(rng, 7, 4)
        g = rng.standard_normal(7)
        lag = Lagrangian(A, g, identity_regularizer(4), epsilon=0.2)
        e = eval_dual(lag, 2.5)
        assert e.d_prime == pytest.approx(e.solution.discrepancy_sq - lag.epsilon, rel=1e-14)
        assert e.d_value == pytest.approx(e.solution.j_value + e.lam * e.d_prime, rel=1e-14)

    @pytest.mark.parametrize(
        "penalty, solver",
        [
            ("identity", "krylov"), ("identity", "spectral"), ("identity", "direct"),
            ("first_difference", "krylov"), ("first_difference", "spectral"),
            ("first_difference", "direct"), ("custom", "spectral"), ("custom", "direct"),
        ],
    )
    def test_d_second_matches_central_differences(self, penalty, solver):
        n = 64
        A = make_deconvolution(n, 2.0)
        prob = synthesize(A, _bump_profile(n, np.random.default_rng(3)), 0.02, seed=3)
        if penalty == "identity":
            J = identity_regularizer(n)
        elif penalty == "first_difference":
            J = first_difference_regularizer(n)
        else:
            J = custom_regularizer(linops.from_matrix(np.diff(np.eye(n), n=2, axis=0) + 0.1 * np.eye(n)[:-2]))
        lag = Lagrangian(A, prob.g, J, (1.02 * prob.tau) ** 2)
        for lam in (1e-3, 0.1, 10.0, 1e3, 1e5):
            h = 1e-4 * lam
            central = (
                eval_dual(lag, lam + h, solver=solver).d_prime
                - eval_dual(lag, lam - h, solver=solver).d_prime
            ) / (2.0 * h)
            e = eval_dual(lag, lam, solver=solver)
            assert e.d_second < 0
            assert e.d_second == pytest.approx(central, rel=1e-5)
            assert e.d_second == e.solution.discrepancy_slope
        assert eval_dual(lag, 0.0).d_second is None

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            eval_dual(scalar_lagrangian(), -0.1)


def identity_lagrangian(mat, g, tau):
    op = linops.from_matrix(mat)
    return Lagrangian(op, g, identity_regularizer(op.dims.dim_f), tau**2)


class TestDiagnoseRegime:
    def test_interior(self):
        d = diagnose_regime(identity_lagrangian(np.eye(2), [2.0, 0.0], tau=1.0))
        assert d.regime == "interior"
        assert d.dist_to_range == pytest.approx(0.0, abs=1e-12)
        assert d.data_norm == pytest.approx(2.0)
        assert failed_inequality(d) is None

    def test_noise_dominates(self):
        d = diagnose_regime(identity_lagrangian(np.eye(2), [1.0, 0.0], tau=2.0))
        assert d.regime == "noise_dominates"
        assert "tau >= ||g||" in failed_inequality(d)

    def test_too_optimistic(self):
        d = diagnose_regime(identity_lagrangian([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0], tau=0.5))
        assert d.dist_to_range == pytest.approx(1.0, rel=1e-12)
        assert d.regime == "too_optimistic"
        assert "dist" in failed_inequality(d)

    def test_equalities_fail_strictness(self):
        # tau = ||g|| must not be interior
        d = diagnose_regime(identity_lagrangian(np.eye(2), [2.0, 0.0], tau=2.0))
        assert d.regime == "noise_dominates"
        # tau = dist must not be interior
        d = diagnose_regime(identity_lagrangian([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0], tau=1.0))
        assert d.regime == "too_optimistic"

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_first_differences_whose_constants_a_annihilates(self, rng, matrix_free):
        # no standard form: A(ker L) = {0}, so gbar = g and the verdict runs
        # in the basis of (A, g), the same LSQR as every other problem's
        n = 8
        mat = rng.standard_normal((12, n))
        mat -= mat.mean(axis=1, keepdims=True)
        g = rng.standard_normal(12)
        dist = np.linalg.norm(mat @ np.linalg.lstsq(mat, g, rcond=None)[0] - g)
        g_norm = np.linalg.norm(g)
        assert 0.1 * g_norm < dist < 0.9 * g_norm
        op = counting_free_op(mat)[0] if matrix_free else linops.from_matrix(mat)

        def lagrangian(tau):
            return Lagrangian(op, g, first_difference_regularizer(n), tau**2)

        with pytest.raises(AssumptionViolation):
            lagrangian(dist).standard_form()
        lag = lagrangian(0.5 * dist)
        d = diagnose_regime(lag)
        assert d.regime == "too_optimistic" and not d.dist_is_bound
        # no solve reads that basis, so it is not kept
        with lag.krylov_basis() as basis:
            assert basis.k == 0
        assert d.data_label == "||g||" and d.data_norm == g_norm
        assert d.dist_to_range == pytest.approx(dist, abs=1e-9 * g_norm)
        # between the distance and ||g||: certified by the residual bound
        tau = 0.5 * (dist + g_norm)
        d = diagnose_regime(lagrangian(tau))
        assert d.regime == "interior" and d.data_label == "||g||"
        assert dist - 1e-9 * g_norm <= d.dist_to_range < tau

    def test_rejects_nonpositive_tau(self):
        # a diagnosis takes tau from its Lagrangian, which refuses tau <= 0
        for epsilon in (0.0, -1.0):
            with pytest.raises(ValueError):
                Lagrangian(linops.identity(2), [1.0, 0.0], identity_regularizer(2), epsilon)


class TestMaximizeDual:
    @pytest.mark.parametrize("method", ["newton", "bisection", "gradient_ascent"])
    def test_scalar_closed_form(self, method):
        # root of (1 + lam)^2 = g^2 / eps: lambda_bar = 1, alpha = 1
        lag = scalar_lagrangian(epsilon=1.0)
        rtol = 1e-3 if method == "gradient_ascent" else 1e-8
        max_iter = 10_000 if method == "gradient_ascent" else 200
        res = maximize_dual(lag, method=method, rtol=rtol, max_iter=max_iter)
        tol = 1e-3 if method == "gradient_ascent" else 1e-8
        assert res.lambda_star == pytest.approx(1.0, abs=tol)
        assert res.alpha == pytest.approx(1.0, abs=2 * tol)
        assert res.f_star[0] == pytest.approx(1.0, abs=tol)
        assert res.converged
        assert res.method == method

    def test_identity_two_dim_closed_form(self):
        lag = Lagrangian(
            linops.identity(2), np.array([2.0, 0.0]), identity_regularizer(2), 1.0
        )
        res = maximize_dual(lag)
        assert res.lambda_star == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(res.f_star, [1.0, 0.0], atol=1e-8)
        assert res.discrepancy == pytest.approx(1.0, abs=1e-8)

    def test_alpha_lambda_pair_is_exact(self):
        res = maximize_dual(scalar_lagrangian())
        assert res.alpha == 1.0 / res.lambda_star  # bitwise, by construction

    def test_trace_records_every_evaluation(self):
        # eps = 0.25 puts the root at lambda = 3, so bracketing and
        # bisection both have to do real work
        res = maximize_dual(scalar_lagrangian(epsilon=0.25), method="bisection")
        assert res.lambda_star == pytest.approx(3.0, abs=1e-7)
        assert len(res.iterations) >= 3
        lams = [t[0] for t in res.iterations]
        assert res.lambda_star == lams[-1]
        for lam, d, dp in res.iterations:
            assert lam >= 0.0 and np.isfinite(d) and np.isfinite(dp)
        # one component: psi = (1 + lam) / 2 - 2 is linear, and Newton's
        # first step from lambda_init = 1 lands on the root
        res = maximize_dual(scalar_lagrangian(epsilon=0.25))
        assert [t[0] for t in res.iterations] == [1.0, pytest.approx(3.0, rel=1e-15)]

    def test_discrepancy_equation_holds(self):
        prob = make_interior_problem(seed=11)
        lag = lagrangian_of(prob)
        res = maximize_dual(lag, rtol=1e-8)
        assert abs(res.discrepancy**2 - lag.epsilon) <= 1e-8 * lag.epsilon

    def test_brute_force_grid_oracle(self):
        # the maximizer must land within one cell of the argmax of D
        # over a dense log grid
        prob = make_interior_problem(seed=21)
        lag = lagrangian_of(prob)
        res = maximize_dual(lag, rtol=1e-10)
        grid = np.geomspace(1e-6, 1e9, 2000)
        values = [eval_dual(lag, lam).d_value for lam in grid]
        k = int(np.argmax(values))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        assert lo <= res.lambda_star <= hi

    def test_brute_force_rectangular_dense(self, rng):
        # overdetermined 20x15 instance with tau placed strictly between
        # dist(g, range A) and ||g||
        A = random_dense_op(rng, 20, 15)
        g = rng.standard_normal(20)
        dist = lsqr_distance(A, g)[0]
        assert dist > 0
        tau = np.sqrt(dist * np.linalg.norm(g))
        lag = Lagrangian(A, g, identity_regularizer(15), epsilon=tau**2)
        res = maximize_dual(lag, rtol=1e-8)
        assert abs(res.discrepancy**2 - tau**2) <= 1e-8 * tau**2
        grid = np.geomspace(1e-6, 1e9, 2000)
        values = [eval_dual(lag, lam).d_value for lam in grid]
        k = int(np.argmax(values))
        assert grid[max(k - 1, 0)] <= res.lambda_star <= grid[min(k + 1, len(grid) - 1)]

    def test_newton_matches_bisection(self):
        prob = make_interior_problem(seed=31)
        lag = lagrangian_of(prob)
        a = maximize_dual(lag, method="bisection", rtol=1e-10)
        b = maximize_dual(lag, method="newton", rtol=1e-10)
        assert b.lambda_star == pytest.approx(a.lambda_star, rel=1e-4)
        np.testing.assert_allclose(b.f_star, a.f_star, rtol=1e-6, atol=1e-12)
        # Newton should not need more dual evaluations than bisection
        assert len(b.iterations) <= len(a.iterations)

    def test_regime_gate_noise_dominates(self):
        prob = regime_fixture("noise_dominates", seed=5)
        lag = lagrangian_of(prob)
        with pytest.raises(RegimeError) as err:
            maximize_dual(lag)
        assert err.value.regime == "noise_dominates"
        assert "tau >= ||g||" in str(err.value)

    def test_regime_gate_too_optimistic(self):
        prob = regime_fixture("too_optimistic", seed=5)
        lag = lagrangian_of(prob)
        with pytest.raises(RegimeError) as err:
            maximize_dual(lag)
        assert err.value.regime == "too_optimistic"

    def test_override_too_optimistic_hits_bracket_failure(self):
        prob = regime_fixture("too_optimistic", seed=5)
        lag = lagrangian_of(prob)
        with pytest.raises(BracketFailure):
            maximize_dual(lag, override_regime=True)

    def test_override_noise_dominates_hits_bracket_failure(self):
        # D'(0) < 0 proves D' has no positive root: stop after the first
        # evaluation instead of halving toward the floor
        prob = regime_fixture("noise_dominates", seed=5)
        lag = lagrangian_of(prob)
        d0 = eval_dual(lag, 0.0).d_prime
        assert d0 < -1e-8 * lag.epsilon
        for method in ("newton", "bisection"):
            with pytest.raises(BracketFailure) as err:
                maximize_dual(lag, method=method, override_regime=True)
            assert len(err.value.trace) == 1
            assert f"D'(0) = ||g||^2 - epsilon = {d0:.6e}" in str(err.value)

    def test_assumption_gate_refuses_shared_kernel(self, rng):
        # forward and penalty both kill constants: selection must refuse
        n = 6
        A = linops.from_matrix(first_difference_regularizer(n).seminorm_operator.materialize())
        g = rng.standard_normal(n - 1)
        g *= 2.0 / np.linalg.norm(g)
        lag = Lagrangian(A, g, first_difference_regularizer(n), epsilon=1.0)
        with pytest.raises(AssumptionViolation, match="unique"):
            maximize_dual(lag)
        # the same pair as a custom penalty, whatever solves it
        lag = Lagrangian(A, g, custom_regularizer(A), epsilon=1.0)
        for solver in (None, "direct"):
            with pytest.raises(AssumptionViolation):
                maximize_dual(lag, solver=solver)

    def test_assumption_gate_checks_matrix_free_first_differences(self, rng):
        # the shared-kernel pair behind callbacks: no longer trusted
        n = 6
        mat = first_difference_regularizer(n).seminorm_operator.materialize()
        g = rng.standard_normal(n - 1)
        g *= 2.0 / np.linalg.norm(g)
        free = counting_free_op(mat)[0]
        lag = Lagrangian(free, g, first_difference_regularizer(n), epsilon=1.0)
        with pytest.raises(AssumptionViolation, match="unique"):
            maximize_dual(lag)
        # as a custom penalty too, on the spectral factors of the
        # materialized A or by Cholesky
        lag = Lagrangian(free, g, custom_regularizer(free), epsilon=1.0)
        for solver, match in ((None, "unique"), ("direct", "singular")):
            with pytest.raises(AssumptionViolation, match=match):
                maximize_dual(lag, solver=solver)

    def test_bisection_collapse_stops_with_best_d_prime(self):
        # at noise 1e-7 a Cholesky solve resolves D' to about 1e-9 epsilon,
        # the last digits set by the BLAS thread count (7.6e-10 epsilon on
        # one thread, 1.9e-8 on two), so rtol = 1e-12 asks for less than it
        # resolves: the bracket shrinks to two adjacent floats after 78
        # evaluations on either, where bisection used to spin on to its
        # 200-iteration cap (226 evaluations)
        prob = synthesize(
            make_deconvolution(128, 4.0),
            _bump_profile(128, np.random.default_rng(0)), 1e-7, seed=0,
        )
        epsilon = (1.02 * prob.tau) ** 2
        lag = Lagrangian(prob.op, prob.g, prob.regularizer, epsilon)
        rtol = 1e-12
        with pytest.raises(ConvergenceFailure, match="no float between") as err:
            maximize_dual(lag, method="bisection", solver="direct", rtol=rtol)
        trace = err.value.trace
        assert len(trace) <= 80
        best = min(abs(dp) for _, _, dp in trace)
        assert err.value.best == best > rtol * epsilon
        assert f"{best:.3e}" in str(err.value)
        # the default Krylov path and the spectral factors resolve it
        for solver in (None, "spectral"):
            res = maximize_dual(Lagrangian(prob.op, prob.g, prob.regularizer, epsilon), solver=solver)
            assert abs(res.discrepancy**2 - epsilon) <= 1e-8 * epsilon

    def test_matrix_free_custom_penalty_resolves_low_noise(self):
        # the case above with a custom first-difference penalty and a
        # matrix-free A: the spectral factors of the materialized A give
        # the dense selection
        prob = synthesize(
            make_deconvolution(128, 4.0),
            _bump_profile(128, np.random.default_rng(0)), 1e-7, seed=0,
        )
        epsilon = (1.02 * prob.tau) ** 2
        J = custom_regularizer(linops.from_matrix(np.diff(np.eye(128), axis=0)))
        dense = maximize_dual(Lagrangian(prob.op, prob.g, J, epsilon))
        free = maximize_dual(Lagrangian(counting_free_op(prob.op.matrix)[0], prob.g, J, epsilon))
        assert free.converged and abs(free.discrepancy**2 - epsilon) <= 1e-8 * epsilon
        assert free.lambda_star == pytest.approx(dense.lambda_star, rel=1e-9)

    def test_newton_collapse_stops_with_best_d_prime(self):
        # rtol = 1e-16 asks for |D'| below the rounding of ||A f - g||^2:
        # Newton's bracket closes on two adjacent floats
        prob = make_interior_problem(seed=21)
        lag = lagrangian_of(prob)
        with pytest.raises(ConvergenceFailure, match="newton bracket .* no float between") as err:
            maximize_dual(lag, rtol=1e-16)
        trace = err.value.trace
        assert len(trace) <= 20
        best = min(abs(dp) for _, _, dp in trace)
        assert err.value.best == best > 1e-16 * lag.epsilon
        lo, hi = max(t[0] for t in trace if t[2] > 0), min(t[0] for t in trace if t[2] < 0)
        assert np.nextafter(lo, np.inf) == hi

    def test_newton_stops_where_its_step_passes_lambda_max(self):
        # from below Newton never overshoots, so a step beyond LAMBDA_MAX
        # puts the root there too; bisection doubles up to it
        prob = regime_fixture("too_optimistic", seed=5)
        errors = {}
        for method in ("newton", "bisection"):
            with pytest.raises(BracketFailure, match="no maximizer below LAMBDA_MAX") as err:
                maximize_dual(lagrangian_of(prob), method=method, override_regime=True)
            errors[method] = err.value
            assert all(dp > 0 for _, _, dp in err.value.trace)
        assert len(errors["newton"].trace) == 5
        assert len(errors["bisection"].trace) == 40

    def test_max_iter_exhaustion_carries_trace(self):
        prob = make_interior_problem(seed=41)
        lag = lagrangian_of(prob)
        with pytest.raises(ConvergenceFailure) as err:
            maximize_dual(lag, rtol=1e-14, max_iter=3)
        assert err.value.trace is not None and len(err.value.trace) > 3

    def test_gradient_ascent_constant_step(self):
        lag = scalar_lagrangian()
        res = maximize_dual(
            lag, method="gradient_ascent", rtol=1e-8, max_iter=10_000,
            step_rule="constant", step_constant=0.5,
        )
        assert res.lambda_star == pytest.approx(1.0, abs=1e-7)

    def test_rejects_bad_options(self):
        lag = scalar_lagrangian()
        with pytest.raises(ValueError):
            maximize_dual(lag, method="secant")
        with pytest.raises(ValueError):
            maximize_dual(lag, rtol=0.0)
        with pytest.raises(ValueError):
            maximize_dual(lag, lambda_init=0.0)
        with pytest.raises(ValueError):
            maximize_dual(lag, method="gradient_ascent", step_rule="magic")
        with pytest.raises(ValueError):
            maximize_dual(lag, method="gradient_ascent", step_constant=0.0)


class TestFirstDifferenceWindow:
    """The window's upper end is ||gbar||, g less its fit from A(ker L).

    A smooth profile on a large constant: ||g|| = 56, but the constants,
    which first differences do not penalize, fit all of g but ||gbar|| = 0.81.
    """

    @staticmethod
    def problem(matrix_free):
        n = 128
        A = make_deconvolution(n, 2.0)
        f0 = 5.0 + 0.1 * np.sin(6.0 * np.linspace(0.0, 1.0, n))
        prob = synthesize(A, f0, 0.001, seed=1)
        # oracle: g less its projection on A 1, the image of ker L
        a1 = A.matrix.sum(axis=1)
        gbar_norm = np.linalg.norm(prob.g - (a1 @ prob.g) / (a1 @ a1) * a1)
        op = counting_free_op(A.matrix)[0] if matrix_free else A
        return op, prob.g, gbar_norm

    @staticmethod
    def lagrangian(op, g, tau):
        return Lagrangian(op, g, first_difference_regularizer(op.dims.dim_f), tau**2)

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_noise_dominates_between_gbar_and_g(self, matrix_free):
        op, g, gbar_norm = self.problem(matrix_free)
        assert 0.8 < gbar_norm < 0.82 and np.linalg.norm(g) > 55
        lag = self.lagrangian(op, g, 0.5 * (gbar_norm + np.linalg.norm(g)))
        d = diagnose_regime(lag)
        assert d.regime == "noise_dominates"
        assert d.data_norm == pytest.approx(gbar_norm, rel=1e-12)
        assert "tau >= ||gbar||" in failed_inequality(d)
        for solver in (None, "spectral"):
            with pytest.raises(RegimeError) as err:
                maximize_dual(lag, solver=solver)
            assert err.value.regime == "noise_dominates"

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_right_derivative_at_zero(self, matrix_free):
        op, g, gbar_norm = self.problem(matrix_free)
        lag = self.lagrangian(op, g, 0.5 * (gbar_norm + np.linalg.norm(g)))
        d_prime = eval_dual(lag, 0.0).d_prime
        assert d_prime == pytest.approx(gbar_norm**2 - lag.epsilon, rel=1e-12)
        # the limit of D' from the right, by Cholesky
        assert eval_dual(lag, 1e-9, solver="direct").d_prime == pytest.approx(d_prime, rel=1e-6)

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_interior_below_gbar_still_selects(self, matrix_free):
        op, g, gbar_norm = self.problem(matrix_free)
        lag = self.lagrangian(op, g, 0.9 * gbar_norm)
        res = maximize_dual(lag)
        assert res.diagnosis.regime == "interior"
        ref = maximize_dual(self.lagrangian(op, g, 0.9 * gbar_norm), solver="direct")
        assert ref.lambda_star == pytest.approx(8.85908e-05, rel=1e-6)
        assert res.lambda_star == pytest.approx(ref.lambda_star, rel=1e-6)


    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_small_multiplier_resolved_at_the_rounding_level(self, matrix_free):
        # tau = 0.999 ||gbar|| puts lambda_star near 7.7e-7, where the full
        # system's relative residual cannot reach 1e-10 in float64: the
        # Krylov solve stops at its rounding level as Cholesky does
        op, g, gbar_norm = self.problem(matrix_free)
        lag = self.lagrangian(op, g, 0.999 * gbar_norm)
        res = maximize_dual(lag)
        ref = maximize_dual(self.lagrangian(op, g, 0.999 * gbar_norm), solver="direct")
        assert ref.lambda_star == pytest.approx(7.72139e-07, rel=1e-5)
        assert res.lambda_star == pytest.approx(ref.lambda_star, rel=1e-6)
        assert verify_morozov_solution(res, lag).passed
        sol = solve_lagrange(lag, 9.53674e-07, solver="krylov")
        assert 1e-10 < sol.solver_stats["relative_residual"] < 1e-9


class TestRegimeCertificate:
    """The residual at LAMBDA_MAX bounds dist(g, range A) on dense problems.

    The verdict is one LSQR in the problem's basis, counted here in the
    applications of a matrix-free view of A: one adjoint for the standard
    form's ||A^T g||, one for the basis's first column, one forward and one
    adjoint per step, and per look at the LSQR residual one forward, plus an
    adjoint unless the residual is below tau or the basis is exhausted.
    """

    def test_certified_problem_skips_least_squares(self):
        prob = regime_fixture("interior", seed=1)
        expected = diagnose_regime(lagrangian_of(prob))
        res = maximize_dual(lagrangian_of(prob))
        assert res.diagnosis == expected
        assert expected.regime == "interior" and expected.dist_is_bound
        # the certificate reports its bound, never less than the distance
        f_ls = np.linalg.lstsq(prob.op.matrix, prob.g, rcond=None)[0]
        dist = np.linalg.norm(prob.op.matrix @ f_ls - prob.g)
        assert dist <= res.diagnosis.dist_to_range < prob.tau
        # three steps and one look, below tau
        lag, counts = TestWorkCounts.counting_free_lagrangian(prob)
        assert diagnose_regime(lag) == expected
        with lag.krylov_basis() as basis:
            assert basis.k == 3
        assert counts == {"fwd": 4, "adj": 5}

    def test_uncertified_too_optimistic(self):
        prob = regime_fixture("too_optimistic", seed=1)
        expected = diagnose_regime(lagrangian_of(prob))
        with pytest.raises(RegimeError) as err:
            maximize_dual(lagrangian_of(prob))
        assert err.value.regime == expected.regime == "too_optimistic"
        # converged LSQR in the problem's basis gives the distance itself:
        # A has rank 6, so the basis is exhausted after six steps and one
        # look, at no second least-squares solve
        assert not expected.dist_is_bound
        f_ls = np.linalg.lstsq(prob.op.matrix, prob.g, rcond=None)[0]
        dist = np.linalg.norm(prob.op.matrix @ f_ls - prob.g)
        assert expected.dist_to_range == pytest.approx(dist, abs=1e-9 * np.linalg.norm(prob.g))
        lag, counts = TestWorkCounts.counting_free_lagrangian(prob)
        assert diagnose_regime(lag) == expected
        assert counts == {"fwd": 7, "adj": 8}

    def test_uncertified_interior_between_distance_and_bound(self, monkeypatch):
        import morozov.dual

        prob = synthesize(
            make_deconvolution(24, kernel_width=2.0),
            _bump_profile(24, np.random.default_rng(3)), noise_level=0.05, seed=3,
        )
        probe = lagrangian_of(prob)
        bound = math.sqrt(solve_lagrange(probe, LAMBDA_MAX, solver="spectral").discrepancy_sq)
        dist = lsqr_distance(prob.op, prob.g)[0]
        assert 1e3 * dist < bound < prob.tau
        tau = 0.5 * bound
        expected = diagnose_regime(lagrangian_of(prob, tau=tau))
        assert expected.regime == "interior"

        op, counts = counting_free_op(prob.op.matrix)
        seen = []
        diagnose = morozov.dual.diagnose_regime

        def recording(*args, **kwargs):
            seen.append((diagnose(*args, **kwargs), dict(counts)))
            return seen[-1][0]

        monkeypatch.setattr(morozov.dual, "diagnose_regime", recording)
        # interior, yet D' stays positive up to LAMBDA_MAX since tau < bound;
        # the spectral solver takes its certificate from the basis too
        with pytest.raises(BracketFailure, match="LAMBDA_MAX"):
            maximize_dual(Lagrangian(op, prob.g, prob.regularizer, tau**2), solver="spectral")
        assert [d.regime for d, _ in seen] == [expected.regime]
        assert seen[0][0].dist_is_bound and seen[0][0].dist_to_range < tau
        # the basis is exhausted at k = 24 = dim_f, where the last step finds
        # no new left vector and so applies no adjoint; one look, below tau
        assert seen[0][1] == {"fwd": 25, "adj": 25}

    @pytest.mark.parametrize("target", ["interior", "noise_dominates", "too_optimistic"])
    def test_verdict_matches_diagnose_regime(self, target):
        prob = regime_fixture(target, seed=2)
        expected = diagnose_regime(lagrangian_of(prob)).regime
        if target == "interior":
            assert maximize_dual(lagrangian_of(prob)).diagnosis.regime == expected
        else:
            with pytest.raises(RegimeError) as err:
                maximize_dual(lagrangian_of(prob))
            assert err.value.regime == expected

    def test_regime_error_precedes_assumption_violation(self, rng):
        # the shared-kernel pair of test_assumption_gate_refuses_shared_kernel
        # with tau above ||g||; a custom penalty is checked by its first solve
        n = 6
        A = linops.from_matrix(first_difference_regularizer(n).seminorm_operator.materialize())
        g = rng.standard_normal(n - 1)
        g *= 2.0 / np.linalg.norm(g)
        cases = [(first_difference_regularizer(n), None)]
        cases += [(custom_regularizer(A), s) for s in (None, "direct")]
        for J, solver in cases:
            lag = Lagrangian(A, g, J, epsilon=9.0)
            with pytest.raises(RegimeError) as err:
                maximize_dual(lag, solver=solver)
            assert err.value.regime == "noise_dominates"
            # the Cholesky solver reports the singular system at its lam
            match = "unique" if solver is None else "singular"
            with pytest.raises(AssumptionViolation, match=match):
                maximize_dual(lag, solver=solver, override_regime=True)

class TestWorkCounts:
    """Deterministic work of the dense selector, counted at scipy.linalg."""

    @staticmethod
    def count_calls(monkeypatch, *names):
        import scipy.linalg

        counts = dict.fromkeys(names, 0)
        for name in names:
            fn = getattr(scipy.linalg, name)

            def counting(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, counting)
        return counts

    def test_selection_factors_once(self, monkeypatch):
        prob = regime_fixture("interior", seed=1)
        counts = self.count_calls(monkeypatch, "eigh", "cho_factor")
        # the default solver: one Golub-Kahan basis, no factorization at all
        res = maximize_dual(lagrangian_of(prob), method="bisection")
        assert counts == {"eigh": 0, "cho_factor": 0}
        assert len(res.iterations) == 31
        assert res.lambda_star == pytest.approx(33.936594009399414, rel=1e-9)
        spectral = maximize_dual(lagrangian_of(prob), method="bisection", solver="spectral")
        assert counts == {"eigh": 1, "cho_factor": 0}
        assert len(spectral.iterations) == 31
        assert spectral.lambda_star == pytest.approx(33.936594009399414, rel=1e-9)
        # the checker takes its certificate from the basis too: no eigh
        checker = maximize_dual(lagrangian_of(prob), method="bisection", solver="direct")
        assert counts == {"eigh": 1, "cho_factor": len(checker.iterations)}
        assert len(checker.iterations) == 31
        assert res.lambda_star == pytest.approx(checker.lambda_star, rel=1e-9)

    def test_newton_selection_makes_no_factorization(self, monkeypatch):
        prob = regime_fixture("interior", seed=1)
        counts = self.count_calls(monkeypatch, "eigh", "cho_factor")
        res = maximize_dual(lagrangian_of(prob))
        assert res.method == "newton"
        assert counts == {"eigh": 0, "cho_factor": 0}
        assert len(res.iterations) == 6
        # bisection's multiplier, 31 evaluations
        assert res.lambda_star == pytest.approx(33.936594009399414, rel=1e-7)
        # every solver takes the same Newton steps
        spectral = maximize_dual(lagrangian_of(prob), solver="spectral")
        assert counts == {"eigh": 1, "cho_factor": 0}
        checker = maximize_dual(lagrangian_of(prob), solver="direct")
        assert counts == {"eigh": 1, "cho_factor": 6}
        for other in (spectral, checker):
            assert len(other.iterations) == 6
            assert other.lambda_star == pytest.approx(res.lambda_star, rel=1e-12)
        # matrix-free, the same evaluations
        free = maximize_dual(self.counting_free_lagrangian(prob)[0])
        assert len(free.iterations) == 6
        assert free.lambda_star == pytest.approx(res.lambda_star, rel=1e-12)
        assert counts == {"eigh": 1, "cho_factor": 6}

    def test_newton_low_noise_in_few_evaluations(self, monkeypatch):
        # the case where bisection with Cholesky collapses its bracket
        prob = synthesize(
            make_deconvolution(128, 4.0),
            _bump_profile(128, np.random.default_rng(0)), 1e-7, seed=0,
        )
        epsilon = (1.02 * prob.tau) ** 2
        counts = self.count_calls(monkeypatch, "eigh", "cho_factor")
        res = maximize_dual(Lagrangian(prob.op, prob.g, prob.regularizer, epsilon))
        assert counts == {"eigh": 0, "cho_factor": 0}
        assert len(res.iterations) <= 10
        assert abs(res.discrepancy**2 - epsilon) <= 1e-8 * epsilon
        spectral = maximize_dual(Lagrangian(prob.op, prob.g, prob.regularizer, epsilon), solver="spectral")
        assert res.lambda_star == pytest.approx(spectral.lambda_star, rel=1e-6)

    @staticmethod
    def counting_free_lagrangian(prob):
        op, counts = counting_free_op(prob.op.matrix)
        return Lagrangian(op, prob.g, prob.regularizer, prob.tau**2), counts

    def test_matrix_free_selection_in_one_basis(self, monkeypatch):
        prob = regime_fixture("interior", seed=1)
        lag, _ = self.counting_free_lagrangian(prob)
        counts = self.count_calls(monkeypatch, "eigh", "cho_factor")
        res = maximize_dual(lag, method="bisection")
        assert counts == {"eigh": 0, "cho_factor": 0}
        assert res.diagnosis.regime == "interior" and res.diagnosis.dist_is_bound
        # the same evaluations and multiplier as the dense spectral path
        assert len(res.iterations) == 31
        assert res.lambda_star == pytest.approx(33.936594009399414, rel=1e-9)

        # the Cholesky checker materializes A itself
        checker_lag, _ = self.counting_free_lagrangian(prob)
        checker = maximize_dual(checker_lag, method="bisection", solver="direct")
        assert checker.lambda_star == pytest.approx(res.lambda_star, rel=1e-9)

    def test_matrix_free_too_optimistic_falls_back_to_distance(self):
        prob = regime_fixture("too_optimistic", seed=1)
        lag, counts = self.counting_free_lagrangian(prob)
        with pytest.raises(RegimeError) as err:
            maximize_dual(lag)
        assert err.value.regime == "too_optimistic"
        # converged LSQR in the certificate's basis gives the distance: the
        # gate's one LSQR, six steps and one look, is all the selection applies
        assert counts == {"fwd": 7, "adj": 8}

    @pytest.mark.parametrize("matrix_free", [False, True])
    @pytest.mark.parametrize("n", [64, 256])
    def test_first_difference_selection_in_one_basis(self, monkeypatch, n, matrix_free):
        # Elden's standard form: the same selection as materialize plus
        # Cholesky, from the problem's one basis
        counts = self.count_calls(monkeypatch, "eigh")
        A = make_deconvolution(n, 2.0)
        prob = synthesize(A, _bump_profile(n, np.random.default_rng(n)), 0.02, seed=n)
        epsilon = (1.02 * prob.tau) ** 2
        op = counting_free_op(A.matrix)[0] if matrix_free else A
        lag = Lagrangian(op, prob.g, first_difference_regularizer(n), epsilon)
        res = maximize_dual(lag)
        assert counts == {"eigh": 0}
        dense = linops.from_matrix(op.materialize())
        ref = maximize_dual(
            Lagrangian(dense, prob.g, first_difference_regularizer(n), epsilon), solver="direct"
        )
        assert len(res.iterations) == len(ref.iterations)
        assert res.lambda_star == pytest.approx(ref.lambda_star, rel=1e-9)
        np.testing.assert_allclose(res.f_star, ref.f_star, rtol=0, atol=1e-12 * np.abs(ref.f_star).max())

    def test_custom_penalty_certificate_makes_no_eigh(self, monkeypatch):
        # a dense custom penalty certifies its regime by LSQR on (A, g), on a
        # basis it does not keep; its first solve is the strict-convexity
        # check
        prob = regime_fixture("interior", seed=1)
        J = custom_regularizer(linops.from_matrix(np.diff(np.eye(24), axis=0)))
        lag = Lagrangian(prob.op, prob.g, J, prob.tau**2)
        counts = self.count_calls(monkeypatch, "eigh", "cho_factor")
        checker = maximize_dual(lag, solver="direct")
        evals = len(checker.iterations)
        assert counts == {"eigh": 0, "cho_factor": evals}
        assert checker.diagnosis.regime == "interior"
        with lag.krylov_basis() as basis:
            assert basis.k == 0
        res = maximize_dual(Lagrangian(prob.op, prob.g, J, prob.tau**2))
        assert counts == {"eigh": 1, "cho_factor": evals}
        assert res.lambda_star == pytest.approx(checker.lambda_star, rel=1e-9)

    def test_matrix_free_custom_penalty_with_dense_a_is_factored(self, monkeypatch):
        # a matrix-free L is materialized for the spectral factors
        prob = regime_fixture("interior", seed=1)
        mat = np.diff(np.eye(24), axis=0)
        counts = self.count_calls(monkeypatch, "eigh")
        free = maximize_dual(Lagrangian(prob.op, prob.g, custom_regularizer(counting_free_op(mat)[0]), prob.tau**2))
        assert counts == {"eigh": 1}
        dense = maximize_dual(Lagrangian(prob.op, prob.g, custom_regularizer(linops.from_matrix(mat)), prob.tau**2))
        assert free.lambda_star == pytest.approx(dense.lambda_star, rel=1e-9)

    def test_matrix_free_custom_selection_is_factored_once(self, monkeypatch):
        # a matrix-free A with a custom penalty runs on the spectral factors:
        # one eigh, dim_f forward applications to materialize A, and per
        # evaluation the residual check's one forward and one adjoint, on top
        # of the certificate's LSQR on a fresh basis of (A, g)
        prob = regime_fixture("interior", seed=1)
        n = prob.op.dims.dim_f
        J = custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0)))
        cert_op, cert = counting_free_op(prob.op.matrix)
        cert_lag = Lagrangian(cert_op, prob.g, J, prob.tau**2)
        with cert_lag.krylov_basis() as basis:
            basis.distance(target=cert_lag.tau)

        op, counts = counting_free_op(prob.op.matrix)
        calls = self.count_calls(monkeypatch, "eigh", "cho_factor")
        res = maximize_dual(Lagrangian(op, prob.g, J, prob.tau**2))
        evals = len(res.iterations)
        assert calls == {"eigh": 1, "cho_factor": 0}
        assert counts == {"fwd": cert["fwd"] + n + evals, "adj": cert["adj"] + evals}
        dense = maximize_dual(Lagrangian(prob.op, prob.g, J, prob.tau**2))
        assert len(dense.iterations) == evals
        assert res.lambda_star == pytest.approx(dense.lambda_star, rel=1e-9)

    def test_scaled_identity_is_a_custom_penalty(self):
        # J(f) = ||2 f||^2 at lam is the identity penalty at lam / 4; it
        # used to be passable as kind="identity", which the Krylov engine
        # read as L = I
        prob = regime_fixture("interior", seed=1)
        J = Regularizer(linops.from_matrix(2.0 * np.eye(24)))
        res = maximize_dual(Lagrangian(prob.op, prob.g, J, prob.tau**2), method="bisection")
        ref = maximize_dual(lagrangian_of(prob), method="bisection")
        assert res.lambda_star == pytest.approx(4.0 * ref.lambda_star, rel=1e-9)
        np.testing.assert_allclose(res.f_star, ref.f_star, rtol=0, atol=1e-12 * np.abs(ref.f_star).max())

    def test_sweep_factors_once(self, monkeypatch):
        import morozov.dual

        prob = regime_fixture("interior", seed=1)
        counts = self.count_calls(monkeypatch, "eigh")
        # the grid is solved in blocks, not through eval_dual point by point
        points = []
        per_point = morozov.dual.eval_dual
        monkeypatch.setattr(morozov.dual, "eval_dual", lambda *a, **k: points.append(a) or per_point(*a, **k))
        evals = sweep_dual(lagrangian_of(prob), np.geomspace(1e-2, 1e8, 200))
        assert counts == {"eigh": 1}
        assert points == []
        assert all(e.error is None for e in evals)

    def test_matrix_free_custom_sweep_applications(self):
        # materializing A for the spectral factors costs dim_f forward
        # applications; each point then costs one forward and one adjoint,
        # in blocks as one at a time
        n, m = 64, 50
        A = make_deconvolution(n, 2.0)
        prob = synthesize(A, _bump_profile(n, np.random.default_rng(3)), 0.02, seed=3)
        op, counts = counting_free_op(A.matrix)
        J = custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0)))
        evals = sweep_dual(Lagrangian(op, prob.g, J, prob.tau**2), np.geomspace(1e-2, 1e8, m))
        assert all(e.error is None for e in evals)
        assert counts == {"fwd": n + m, "adj": m}
        assert counts == {"fwd": 114, "adj": 50}


class TestSweepDual:
    def test_interior_shape(self):
        prob = regime_fixture("interior", seed=2)
        lag = lagrangian_of(prob)
        grid = np.geomspace(1e-4, 1e8, 60)
        evals = sweep_dual(lag, grid)
        dps = np.array([e.d_prime for e in evals])
        assert dps[0] > 0 and dps[-1] < 0  # sign change on the grid
        ds = np.array([e.d_value for e in evals])
        defects = concavity_defects(grid, ds)
        assert np.all(defects <= 1e-9 * max(1.0, np.max(np.abs(ds))))

    def test_noise_dominates_shape(self):
        prob = regime_fixture("noise_dominates", seed=2)
        lag = lagrangian_of(prob)
        grid = np.geomspace(1e-4, 1e8, 40)
        evals = sweep_dual(lag, grid)
        assert all(e.d_prime < 0 for e in evals)
        ds = [e.d_value for e in evals]
        assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))  # nonincreasing

    def test_too_optimistic_shape(self):
        prob = regime_fixture("too_optimistic", seed=2)
        lag = lagrangian_of(prob)
        grid = np.geomspace(1e-4, 1e8, 40)
        evals = sweep_dual(lag, grid)
        assert all(e.d_prime > 0 for e in evals)

    def test_derivative_matches_finite_differences(self):
        # even point count keeps the root (where D' = 0 is unresolvable
        # in relative terms) off the geometrically centered grid
        prob = make_interior_problem(seed=51)
        lag = lagrangian_of(prob)
        res = maximize_dual(lag)
        grid = np.geomspace(res.lambda_star / 1e3, res.lambda_star * 1e3, 26)
        for lam in grid:
            h = 1e-6 * lam
            d_plus = eval_dual(lag, lam + h).d_value
            d_minus = eval_dual(lag, lam - h).d_value
            fd = (d_plus - d_minus) / (2 * h)
            dp = eval_dual(lag, lam).d_prime
            assert fd == pytest.approx(dp, rel=1e-5)

    def test_d_prime_nonincreasing(self):
        prob = make_interior_problem(seed=61)
        lag = lagrangian_of(prob)
        grid = np.geomspace(1e-5, 1e7, 50)
        dps = [e.d_prime for e in sweep_dual(lag, grid)]
        scale = max(1.0, max(abs(d) for d in dps))
        assert all(a >= b - 1e-9 * scale for a, b in zip(dps, dps[1:]))

    def test_per_point_failure_recorded_inline(self):
        lag = scalar_lagrangian()
        grid = np.array([0.5, 1.0, 5e12])  # last exceeds LAMBDA_MAX
        evals = sweep_dual(lag, grid)
        assert evals[0].error is None and evals[1].error is None
        assert evals[2].error is not None
        assert np.isnan(evals[2].d_value) and np.isnan(evals[2].d_prime)

    @staticmethod
    def blocked_cases():
        prob = regime_fixture("interior", seed=1)
        n = prob.op.dims.dim_f
        diff = np.diff(np.eye(n), axis=0)
        free_op = counting_free_op(prob.op.matrix)[0]
        return {
            "identity": Lagrangian(prob.op, prob.g, identity_regularizer(n), prob.tau**2),
            "first_difference": Lagrangian(prob.op, prob.g, first_difference_regularizer(n), prob.tau**2),
            "custom": Lagrangian(prob.op, prob.g, custom_regularizer(linops.from_matrix(diff)), prob.tau**2),
            "custom_matrix_free": Lagrangian(free_op, prob.g, custom_regularizer(linops.from_matrix(diff)), prob.tau**2),
        }

    @pytest.mark.parametrize("case", ["identity", "first_difference", "custom", "custom_matrix_free"])
    def test_blocks_match_pointwise_spectral_solves(self, case):
        lag = self.blocked_cases()[case]
        # 70 points on dim_f = 24: three blocks, the last one short
        grid = np.geomspace(1e-4, 1e8, 70)
        assert grid.size > 2 * lag.op.dims.dim_f
        evals = sweep_dual(lag, grid)
        scale = float(lag.data @ lag.data)
        for e, lam in zip(evals, grid):
            ref = eval_dual(lag, lam, solver="spectral")
            assert e.error is None and e.lam == ref.lam
            assert e.d_value == pytest.approx(ref.d_value, rel=1e-10, abs=1e-12 * scale)
            assert e.d_prime == pytest.approx(ref.d_prime, rel=1e-10, abs=1e-12 * scale)
            assert e.d_second == pytest.approx(ref.d_second, rel=1e-10)
            sol, ref_sol = e.solution, ref.solution
            assert sol.discrepancy_sq == pytest.approx(ref_sol.discrepancy_sq, rel=1e-10)
            assert sol.j_value == pytest.approx(ref_sol.j_value, rel=1e-10)
            assert sol.optimality_residual <= 1e-10 * (1.0 + 2.0 * lam * math.sqrt(scale))
            assert sol.solver_stats == {"method": "spectral"}
            np.testing.assert_allclose(
                sol.f_lambda, ref_sol.f_lambda, rtol=1e-10,
                atol=1e-10 * np.abs(ref_sol.f_lambda).max(),
            )
        # every f_lambda is its own array, not a view of the block
        fs = [e.solution.f_lambda for e in evals]
        assert all(f.base is None for f in fs)

    def test_blocks_keep_lambda_max_failures(self):
        lag = self.blocked_cases()["first_difference"]
        # 60 points up to 1e14: the last seven exceed LAMBDA_MAX, and the
        # third block would reach into them
        grid = np.geomspace(1e-4, 1e14, 60)
        evals = sweep_dual(lag, grid)
        over = grid > LAMBDA_MAX
        assert over.sum() == 7 and not over[:48].any()
        scale = float(lag.data @ lag.data)
        for e, lam in zip(evals, grid):
            if lam <= LAMBDA_MAX:
                assert e.error is None
                ref = eval_dual(lag, lam, solver="spectral")
                assert e.d_prime == pytest.approx(ref.d_prime, rel=1e-10, abs=1e-12 * scale)
                continue
            with pytest.raises(ValueError) as err:
                eval_dual(lag, lam, solver="spectral")
            assert e.error == str(err.value) and "exceeds LAMBDA_MAX" in e.error
            assert np.isnan(e.d_value) and np.isnan(e.d_prime) and np.isnan(e.d_second)

    def test_singular_pencil_fails_every_point(self, rng):
        # the shared-kernel pair of test_assumption_gate_refuses_shared_kernel
        n = 6
        A = linops.from_matrix(first_difference_regularizer(n).seminorm_operator.materialize())
        g = rng.standard_normal(n - 1)
        lag = Lagrangian(A, g, custom_regularizer(A), epsilon=1.0)
        grid = np.geomspace(1e-2, 1e14, 20)
        evals = sweep_dual(lag, grid)
        with pytest.raises(AssumptionViolation) as singular:
            eval_dual(lag, 1.0, solver="spectral")
        for e, lam in zip(evals, grid):
            with pytest.raises(ValueError) as err:
                eval_dual(lag, lam, solver="spectral")
            assert e.error == str(err.value)
            if lam <= LAMBDA_MAX:
                assert e.error == str(singular.value)
            else:
                assert "exceeds LAMBDA_MAX" in e.error
            assert e.solution is None and np.isnan(e.d_prime)

    def test_grid_validation(self):
        lag = scalar_lagrangian()
        with pytest.raises(ValueError):
            sweep_dual(lag, [])
        with pytest.raises(ValueError):
            sweep_dual(lag, [0.0, 1.0])
        with pytest.raises(ValueError):
            sweep_dual(lag, [2.0, 1.0])

    def test_weak_duality_against_ground_truth(self):
        # the ground truth is feasible when tau is oracle-exact, so every
        # dual value is a lower bound on its penalty
        prob = make_interior_problem(seed=71)
        lag = lagrangian_of(prob)
        assert (
            np.linalg.norm(prob.op.apply(prob.f0) - prob.g) ** 2
            <= lag.epsilon * (1 + 1e-12)
        )
        j0 = lag.regularizer.evaluate(prob.f0)
        for e in sweep_dual(lag, np.geomspace(1e-4, 1e6, 30)):
            assert e.d_value <= j0 + 1e-10


class TestPipelineVariants:
    def test_matrix_free_end_to_end(self):
        # the whole selection pipeline without ever materializing A: one
        # Golub-Kahan basis for the regime certificate and the inner solves
        prob = regime_fixture("interior", seed=23)
        mat = prob.op.matrix
        free_op = linops.from_callables(
            mat.shape[1], mat.shape[0], lambda f: mat @ f, lambda y: mat.T @ y
        )
        dense_lag = lagrangian_of(prob)
        free_lag = Lagrangian(
            free_op, prob.g, prob.regularizer, prob.tau**2
        )
        res_dense = maximize_dual(dense_lag, rtol=1e-8)
        res_free = maximize_dual(free_lag, rtol=1e-8, inner_tol=1e-12)
        assert res_free.converged
        assert res_free.lambda_star == pytest.approx(res_dense.lambda_star, rel=1e-4)
        np.testing.assert_allclose(res_free.f_star, res_dense.f_star, rtol=1e-5, atol=1e-10)

    def test_concurrent_evaluations_match_sequential(self):
        # operators and the problem bundle are immutable; evaluations at
        # distinct multipliers must not interfere
        from concurrent.futures import ThreadPoolExecutor

        prob = regime_fixture("interior", seed=37)
        lag = lagrangian_of(prob)
        grid = np.geomspace(1e-3, 1e5, 24)
        sequential = [eval_dual(lag, lam).d_value for lam in grid]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda lam: eval_dual(lag, lam).d_value, grid))
        np.testing.assert_array_equal(parallel, sequential)


def test_regime_invariants_on_random_instances(rng):
    # the classification must match the defining inequalities computed
    # straight from dist and the data norm
    for trial in range(25):
        m, n = int(rng.integers(3, 10)), int(rng.integers(2, 8))
        mat = rng.standard_normal((m, n))
        if trial % 3 == 0:
            mat[:, : n // 2 + 1] = 0.0  # force rank deficiency
        g = rng.standard_normal(m)
        dist = np.linalg.norm(mat @ np.linalg.lstsq(mat, g, rcond=None)[0] - g)
        norm = float(np.linalg.norm(g))
        tau = float(rng.uniform(0.01, 1.5 * norm + 0.01))
        regime = diagnose_regime(identity_lagrangian(mat, g, tau)).regime
        if tau >= norm:
            assert regime == "noise_dominates"
        elif tau <= dist:
            assert regime == "too_optimistic"
        else:
            assert regime == "interior"
            assert dist < tau < norm


class TestPrimalUniqueness:
    def test_perturbing_lambda_in_tolerance_band_keeps_f(self):
        prob = make_interior_problem(seed=81)
        lag = lagrangian_of(prob)
        rtol = 1e-8
        res = maximize_dual(lag, rtol=rtol)
        lam = res.lambda_star
        # width of the band where |D'| <= rtol*eps, from the local slope,
        # spending only the budget left after the converged point's |D'|
        h = 1e-6 * lam
        slope = (eval_dual(lag, lam + h).d_prime - eval_dual(lag, lam - h).d_prime) / (2 * h)
        budget = rtol * lag.epsilon - abs(eval_dual(lag, lam).d_prime)
        band = 0.5 * budget / abs(slope)
        for shifted in (lam + band, lam - band):
            e = eval_dual(lag, shifted)
            assert abs(e.d_prime) <= rtol * lag.epsilon  # still "converged"
            delta = np.linalg.norm(e.solution.f_lambda - res.f_star)
            assert delta <= 1e-6 * (1 + np.linalg.norm(res.f_star))


class TestVerifyMorozov:
    def test_closed_form_instance_passes(self):
        lag = scalar_lagrangian()
        res = maximize_dual(lag)
        report = verify_morozov_solution(res, lag)
        assert report.passed
        assert [c["name"] for c in report.checks] == [
            "discrepancy", "optimality", "lagrangian_minimality",
        ]

    def test_corrupted_f_star_fails_optimality(self, rng):
        prob = make_interior_problem(seed=91)
        lag = lagrangian_of(prob)
        res = maximize_dual(lag)
        bad_f = res.f_star + 1e-2 * rng.standard_normal(res.f_star.shape[0])
        bad = dataclasses.replace(res, f_star=bad_f)
        report = verify_morozov_solution(bad, lag)
        assert not report.passed
        assert "optimality" in report.failed_items()

    def test_doubled_lambda_fails_discrepancy(self):
        prob = make_interior_problem(seed=101)
        lag = lagrangian_of(prob)
        res = maximize_dual(lag)
        lam2 = 2 * res.lambda_star
        sol2 = solve_lagrange(lag, lam2)
        bad = dataclasses.replace(
            res,
            lambda_star=lam2,
            alpha=1.0 / lam2,
            f_star=sol2.f_lambda,
            discrepancy=float(np.sqrt(sol2.discrepancy_sq)),
        )
        report = verify_morozov_solution(bad, lag)
        assert not report.passed
        assert "discrepancy" in report.failed_items()

    def test_requires_converged(self):
        lag = scalar_lagrangian()
        res = maximize_dual(lag)
        with pytest.raises(ValueError):
            verify_morozov_solution(dataclasses.replace(res, converged=False), lag)
