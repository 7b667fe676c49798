import dataclasses
import functools
import math
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from morozov import lagrange, linops
from morozov.dual import (
    DualEvaluation,
    SelectionResult,
    _next_multiplier,
    concavity_defects,
    diagnose_regime,
    eval_dual,
    failed_inequality,
    maximize_dual,
    sweep_dual,
    verify_morozov_solution,
)
from morozov.errors import AssumptionViolation, ConvergenceFailure, RegimeError
from morozov.lagrange import (
    LAMBDA_MAX,
    Lagrangian,
    StandardForm,
    lagrangian_value,
    solve_lagrange,
)
from morozov.problems import _bump_profile, make_deconvolution, regime_fixture, synthesize
from morozov.regularizers import (
    Regularizer,
    custom_regularizer,
    first_difference_regularizer,
    identity_regularizer,
)

from conftest import (
    counting_free_op,
    custom_twin,
    make_interior_problem,
    numpy_inner_solve,
    numpy_slope_at_zero,
    projection_distance,
    random_dense_op,
)


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
        "penalty, twin",
        [
            ("identity", False), ("identity", True),
            ("first_difference", False), ("first_difference", True),
            ("custom", False),
        ],
        ids=[
            "identity-krylov", "identity-spectral",
            "first_difference-krylov", "first_difference-spectral",
            "custom-spectral",
        ],
    )
    def test_d_second_matches_central_differences(self, penalty, twin):
        # with twin set, a built-in penalty runs as its custom twin; those
        # ids still read "spectral", the engine the twin once ran on
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
        if twin:
            lag = custom_twin(lag)
        assert isinstance(lag.engine(), StandardForm)
        for lam in (1e-3, 0.1, 10.0, 1e3, 1e5):
            h = 1e-4 * lam
            central = (eval_dual(lag, lam + h).d_prime - eval_dual(lag, lam - h).d_prime) / (2.0 * h)
            e = eval_dual(lag, lam)
            assert e.d_second < 0
            assert e.d_second == pytest.approx(central, rel=1e-5)
            assert e.d_second == e.solution.discrepancy_slope
        # at 0 the engine's right limit -2 ||Abar^T gbar||^2, without a solve
        assert eval_dual(lag, 0.0).d_second == pytest.approx(numpy_slope_at_zero(lag), rel=1e-10)

    def test_d_second_at_zero_agrees_between_the_twins(self):
        # first differences at n = 64: alpha_1 beta_1 of Elden's form with
        # the closed-form L^+, with the L^+ of the stored map's pivoted QR,
        # and numpy's oracle
        n = 64
        A = make_deconvolution(n, 2.0)
        prob = synthesize(A, _bump_profile(n, np.random.default_rng(n)), 0.02, seed=n)
        lag = Lagrangian(A, prob.g, first_difference_regularizer(n), (1.02 * prob.tau) ** 2)
        krylov, custom = eval_dual(lag, 0.0), eval_dual(custom_twin(lag), 0.0)
        assert isinstance(lag.engine(), StandardForm)
        assert krylov.d_second == pytest.approx(-2323.012267, rel=1e-9)
        assert krylov.d_second == pytest.approx(numpy_slope_at_zero(lag), rel=1e-10)
        assert custom.d_second == pytest.approx(krylov.d_second, rel=1e-10)
        assert custom.d_prime == pytest.approx(krylov.d_prime, rel=1e-10)

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_lambda_zero_reads_the_verdicts_data_norm(self, rng, matrix_free):
        # D'(0) = ||gbar||^2 - epsilon from the basis diagnose_regime reads,
        # bit for bit, and no engine is built for it: first differences
        # whose constants A annihilates have none, yet D'(0) = ||g||^2 - eps
        n = 8
        cases = [
            (np.diff(np.eye(n), axis=0), first_difference_regularizer(n)),
            (rng.standard_normal((10, n)), identity_regularizer(n)),
            (rng.standard_normal((10, n)), first_difference_regularizer(n)),
            (rng.standard_normal((10, n)), custom_regularizer(random_dense_op(rng, 5, n))),
        ]
        for i, (mat, J) in enumerate(cases):
            op = counting_free_op(mat)[0] if matrix_free else linops.from_matrix(mat)
            g = rng.standard_normal(mat.shape[0])
            lag = Lagrangian(op, g, J, 0.25)
            e = eval_dual(lag, 0.0)
            assert e.d_value == 0.0 and e.solution is None
            assert e.d_prime == diagnose_regime(lag).data_norm**2 - lag.epsilon
            assert e.d_second == lag.certificate().engine().slope_at_zero < 0
            if i == 0:
                assert e.d_prime == pytest.approx(g @ g - lag.epsilon, rel=1e-14)
                with pytest.raises(AssumptionViolation):
                    lag.engine()

    def test_rejects_negative(self):
        # a NaN multiplier would never end the Krylov solve's loop
        for lag in (scalar_lagrangian(), custom_twin(scalar_lagrangian())):
            for lam in (-0.1, math.nan):
                with pytest.raises(ValueError, match="nonnegative"):
                    eval_dual(lag, lam)


def identity_lagrangian(mat, g, tau):
    op = linops.from_matrix(mat)
    return Lagrangian(op, g, identity_regularizer(op.dims.dim_f), tau**2)


class TestDiagnoseRegime:
    def test_interior(self):
        d = diagnose_regime(identity_lagrangian(np.eye(2), [2.0, 0.0], tau=1.0))
        assert d.regime == "interior"
        # the residual of f = lam g / (1 + lam) at LAMBDA_MAX, above the distance 0
        assert d.dist_to_range == pytest.approx(2.0 / (1.0 + LAMBDA_MAX), rel=1e-9)
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
        # on the identity twin on (A, g), in its basis
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
            lagrangian(dist).engine()
        lag = lagrangian(0.5 * dist)
        d = diagnose_regime(lag)
        assert d.regime == "too_optimistic"
        # the twin is kept: a second verdict grows its basis no further
        twin = lag.certificate()
        assert twin is not lag and twin.regularizer.kind == "identity"
        k = twin.engine().basis.k
        assert k > 0 and diagnose_regime(lag) == d and lag.certificate() is twin and twin.engine().basis.k == k
        with pytest.raises(AssumptionViolation):
            lag.engine()
        assert d.data_label == "||g||" and d.data_norm == g_norm
        assert d.dist_to_range == pytest.approx(dist, abs=1e-9 * g_norm)
        # between the distance and ||g||: certified by the bound at LAMBDA_MAX
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
        # two components, A = diag(1, 1/2), make psi curved, so bracketing
        # and bisection both have to do real work from Newton's step from 0
        lag = Lagrangian(linops.from_matrix(np.diag([1.0, 0.5])), np.array([2.0, 1.0]), identity_regularizer(2), 0.25)
        res = maximize_dual(lag, method="bisection")
        assert res.lambda_star == pytest.approx(5.8526934, abs=1e-7)
        assert len(res.iterations) == 26
        lams = [t[0] for t in res.iterations]
        assert res.lambda_star == lams[-1]
        assert lams[0] < res.lambda_star < lams[1] == 2.0 * lams[0]
        for lam, d, dp in res.iterations:
            assert lam > 0.0 and np.isfinite(d) and np.isfinite(dp)
        # one component: psi = (1 + lam) / 2 - 2 is linear, and Newton's
        # step from 0 lands on the root, lambda = 3 at eps = 0.25, in one
        # evaluation; the read at 0 is not a trace entry
        res = maximize_dual(scalar_lagrangian(epsilon=0.25))
        assert [t[0] for t in res.iterations] == [3.0]

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
        dist = projection_distance(A, g)
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

    def test_assumption_gate_refuses_shared_kernel(self, rng):
        # forward and penalty both kill constants: selection must refuse
        n = 6
        A = linops.from_matrix(first_difference_regularizer(n).seminorm_operator.materialize())
        g = rng.standard_normal(n - 1)
        g *= 2.0 / np.linalg.norm(g)
        lag = Lagrangian(A, g, first_difference_regularizer(n), epsilon=1.0)
        with pytest.raises(AssumptionViolation, match="unique"):
            maximize_dual(lag)
        # the same pair as a custom penalty, whose kernel comes from its
        # pivoted QR factorization
        lag = Lagrangian(A, g, custom_regularizer(A), epsilon=1.0)
        with pytest.raises(AssumptionViolation):
            maximize_dual(lag)

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
        # as a custom penalty too, from the pivoted QR factorization of the
        # materialized penalty map
        lag = Lagrangian(free, g, custom_regularizer(free), epsilon=1.0)
        with pytest.raises(AssumptionViolation, match="unique"):
            maximize_dual(lag)

    def test_bisection_collapse_stops_with_best_d_prime(self):
        # at noise 1e-7 the inner solves resolve D' to about 4e-11 epsilon,
        # on one BLAS thread as on two, so rtol = 1e-12 asks for less than
        # they resolve: the bracket shrinks to two adjacent floats after 53
        # evaluations, where bisection used to spin on to its 200-iteration
        # cap (226 evaluations)
        prob = synthesize(
            make_deconvolution(128, 4.0),
            _bump_profile(128, np.random.default_rng(0)), 1e-7, seed=0,
        )
        epsilon = (1.02 * prob.tau) ** 2
        lag = Lagrangian(prob.op, prob.g, prob.regularizer, epsilon)
        rtol = 1e-12
        with pytest.raises(ConvergenceFailure, match="no float between") as err:
            maximize_dual(lag, method="bisection", rtol=rtol)
        trace = err.value.trace
        assert len(trace) <= 80
        best = min(abs(dp) for _, _, dp in trace)
        assert err.value.best == best > rtol * epsilon
        assert f"{best:.3e}" in str(err.value)
        # Newton at the default rtol resolves it, with the identity penalty
        # built in and stored as a custom one
        fresh = Lagrangian(prob.op, prob.g, prob.regularizer, epsilon)
        for problem in (fresh, custom_twin(fresh)):
            res = maximize_dual(problem)
            assert abs(res.discrepancy**2 - epsilon) <= 1e-8 * epsilon

    def test_matrix_free_custom_penalty_resolves_low_noise(self):
        # the case above with a custom first-difference penalty and a
        # matrix-free A: the same standard form as a dense A gives the dense
        # selection
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

    def test_a_root_near_lambda_max_is_bracketed_there(self):
        # A = diag(1, s), g = (1, 1) and the identity penalty put the root
        # at lam*, inside the window. At s = 1e-3 and lam* = 9e11,
        # bisection's doubling from 6.7e11 stops at LAMBDA_MAX, where the
        # verdict proved D' < 0, and bisects below it. At s = 1e-2 and
        # lam* = 1e12 - 10, three of Newton's steps from below round past
        # LAMBDA_MAX: each falls back to doubling, the last capped there
        def problem(s, lam_star):
            s, g = np.array([1.0, s]), np.array([1.0, 1.0])
            epsilon = float(np.sum(g**2 / (1.0 + lam_star * s**2) ** 2))
            return Lagrangian(linops.from_matrix(np.diag(s)), g, identity_regularizer(2), epsilon)

        counts = {}
        for s, lam_star in ((1e-3, 9e11), (1e-2, 1e12 - 10.0)):
            lag = problem(s, lam_star)
            assert diagnose_regime(lag).regime == "interior"
            for method in ("newton", "bisection"):
                res = maximize_dual(lag, method=method)
                assert res.lambda_star == pytest.approx(lam_star, rel=1e-8)
                assert verify_morozov_solution(res, lag).passed
                lams = [lam for lam, _, _ in res.iterations]
                assert max(lams) <= LAMBDA_MAX
                counts[s, method] = (len(lams), lams.count(LAMBDA_MAX))
        assert counts == {
            (1e-3, "newton"): (2, 0), (1e-3, "bisection"): (43, 1),
            (1e-2, "newton"): (6, 1), (1e-2, "bisection"): (40, 1),
        }

    def test_an_interior_search_out_of_budget_states_its_bracket(self):
        # one Newton step from below leaves D' > 0: the verdict has already
        # placed the root below LAMBDA_MAX, so this is a search that ran out
        # of evaluations, with its bracket and its best |D'|
        n = 128
        prob = synthesize(make_deconvolution(n, 2.0), np.sin(np.linspace(0, np.pi, n)), 0.02, seed=1)
        lag = lagrangian_of(prob, tau=1.02 * prob.tau)
        with pytest.raises(ConvergenceFailure) as err:
            maximize_dual(lag, max_iter=1)
        trace = err.value.trace
        assert len(trace) == 2 and all(dp > 0 for _, _, dp in trace)
        best = min(abs(dp) for _, _, dp in trace)
        assert err.value.best == best
        message = str(err.value)
        assert f"bracket [{trace[-1][0]:g}, inf]" in message
        assert f"smallest |D'| {best:.3e}" in message
        assert "too optimistic" not in message

    def test_gradient_ascent_out_of_budget_states_its_bracket(self):
        # the paper's iteration runs in the one search loop, so its failure
        # is the same one: its bracket, its smallest |D'| and its trace
        n = 128
        prob = synthesize(make_deconvolution(n, 2.0), np.sin(np.linspace(0, np.pi, n)), 0.02, seed=1)
        lag = lagrangian_of(prob, tau=1.02 * prob.tau)
        with pytest.raises(ConvergenceFailure, match="in 5 iterations") as err:
            maximize_dual(lag, method="gradient_ascent", max_iter=5)
        trace = err.value.trace
        assert len(trace) == 6 and trace[0][0] == 0.0
        best = min(abs(dp) for _, _, dp in trace)
        assert err.value.best == best
        lo = max([lam for lam, _, dp in trace if dp > 0])
        hi = min([lam for lam, _, dp in trace if dp < 0], default=math.inf)
        message = str(err.value)
        assert f"bracket [{lo:g}, {hi:g}]" in message
        assert f"smallest |D'| {best:.3e}" in message

    def test_gradient_ascent_stops_at_lambda_max(self):
        # A = 1, g = 1e6, epsilon = 1: D'(0) = 1e12 - 1, so the first step
        # lands at 2e12 - 2 and is capped at LAMBDA_MAX, where the verdict
        # proved D' < 0; the steps of rho_n = 2/n back down from there are
        # far too short to reach the root, lam* = 1e6 - 1
        lag = Lagrangian(linops.identity(1), np.array([1e6]), identity_regularizer(1), 1.0)
        with pytest.raises(ConvergenceFailure) as err:
            maximize_dual(lag, method="gradient_ascent", max_iter=5)
        trace = err.value.trace
        assert len(trace) == 6
        assert trace[1][0] == LAMBDA_MAX and trace[1][2] < 0
        assert all(lam <= LAMBDA_MAX for lam, _, _ in trace)
        assert "bracket [0, 1e+12]" in str(err.value)
        assert err.value.best == min(abs(dp) for _, _, dp in trace)

    def test_max_iter_exhaustion_carries_trace(self):
        prob = make_interior_problem(seed=41)
        lag = lagrangian_of(prob)
        with pytest.raises(ConvergenceFailure) as err:
            maximize_dual(lag, rtol=1e-14, max_iter=3)
        assert err.value.trace is not None and len(err.value.trace) > 3

    def test_gradient_ascent_bracket_only_tightens(self):
        # A = 1, g = 5, epsilon = 16 put the root at lam* = 1/4, and the
        # steps of rho_n = 2/n overshoot it: the third iterate, 2.069,
        # closes the bracket from above, and the later ones at 4.5, 3 and
        # 2.25, between returns to 0, land above it, which they must not
        # widen. The budget ends on the last of them
        lag = Lagrangian(linops.identity(1), np.array([5.0]), identity_regularizer(1), 16.0)
        with pytest.raises(ConvergenceFailure) as err:
            maximize_dual(lag, method="gradient_ascent", max_iter=8)
        trace = err.value.trace
        lams = [lam for lam, _, _ in trace]
        # D'(0) = 9, so the first step is 2 * 9
        assert lams[:2] == [0.0, 18.0] and lams[3::2] == [0.0] * 3 and lams[4::2] == [4.5, 3.0, 2.25]
        hi = min(lam for lam, _, dp in trace if dp < 0)
        assert hi == lams[2] and 0.25 < hi < 2.25
        assert f"bracket [0, {hi:g}]" in str(err.value)

    def test_gradient_ascent_returns_a_positive_multiplier(self):
        # D'(0) = 4 - epsilon passes the test at rtol = 1e-3, but lam = 0
        # has no inner solution: the iteration goes on, its projection onto
        # lam >= 0 returns it to 0 three times, and it stops at lam > 0
        rtol = 1e-3
        lag = scalar_lagrangian(epsilon=4.0 / (1.0 + rtol / 2))
        res = maximize_dual(lag, method="gradient_ascent", rtol=rtol)
        lams = [lam for lam, _, _ in res.iterations]
        assert lams[::2] == [0.0] * 4 and all(lam > 0 for lam in lams[1::2])
        assert res.lambda_star == lams[-1] > 0
        assert abs(res.discrepancy**2 - lag.epsilon) <= rtol * lag.epsilon

    def test_rejects_bad_options(self):
        lag = scalar_lagrangian()
        with pytest.raises(ValueError):
            maximize_dual(lag, method="secant")
        with pytest.raises(ValueError):
            maximize_dual(lag, rtol=0.0)
        # refused before any work: a negative budget, and NaN, which fails
        # every comparison
        for bad in (
            {"max_iter": -1},
            {"rtol": math.nan},
            # at rtol >= 1 any lam overfitting the data would pass
            {"rtol": 1.0},
            {"rtol": math.inf},
            {"method": "gradient_ascent", "max_iter": -1},
            # a budget that is not a whole number of evaluations
            {"max_iter": 2.5},
            {"max_iter": math.inf},
        ):
            with pytest.raises(ValueError, match="must be"):
                maximize_dual(lag, **bad)


def fft_blur(n, width):
    """The Toeplitz blur ``make_deconvolution(n, width)``, applied matrix-free
    by FFT through its circulant embedding, and its dense twin."""
    A = make_deconvolution(n, width)
    column = np.concatenate([A.matrix[:, 0], [0.0], A.matrix[0, :0:-1]])
    m = column.shape[0]
    symbol = np.fft.rfft(column)

    def forward(x):
        return np.fft.irfft(symbol * np.fft.rfft(x, m), m)[:n]

    def adjoint(y):
        return np.fft.irfft(np.conj(symbol) * np.fft.rfft(y, m), m)[:n]

    return linops.from_callables(n, n, forward, adjoint), A


class TestNextMultiplier:
    """The one rule for the next multiplier: Newton's lam + delta from
    either side, else doubling lo while hi = inf, capped at LAMBDA_MAX,
    else the bracket's arithmetic mean; None when no float lies between
    the bracket's ends."""

    @staticmethod
    def at(lam, s, slope, tau=1.0):
        """A hand-built evaluation at ``lam`` with ||r||^2 = s and D'' = slope."""
        solution = types.SimpleNamespace(discrepancy_sq=s)
        return DualEvaluation(lam=lam, d_value=0.0, d_prime=s - tau**2, d_second=slope, solution=solution)

    def test_newton_steps_by_lam_plus_delta_from_both_sides(self):
        # ||r|| = 0.9 < tau = 1 from above, 1.1 > tau from below:
        # delta = 2 s (1 - sqrt(s) / tau) / D''
        above = self.at(2.0, 0.81, -1.0)
        assert _next_multiplier("newton", above, 1.0, 2.0, 1.0) == 2.0 + 2.0 * 0.81 * (1.0 - 0.9) / -1.0
        below = self.at(0.5, 1.21, -1.0)
        assert _next_multiplier("newton", below, 0.5, 2.0, 1.0) == 0.5 + 2.0 * 1.21 * (1.0 - 1.1) / -1.0

    @pytest.mark.parametrize("method", ["newton", "bisection"])
    def test_finite_bracket_falls_back_to_its_arithmetic_mean(self, method):
        # D'' near 0 sends Newton's step from above far below lo; the
        # bracket's geometric mean would be 4
        e = self.at(16.0, 0.81, -1e-6)
        assert _next_multiplier(method, e, 1.0, 16.0, 1.0) == 8.5

    @pytest.mark.parametrize("method", ["newton", "bisection"])
    def test_open_bracket_doubles_lo_up_to_lambda_max(self, method):
        # from below, with D'' near 0 Newton's step passes LAMBDA_MAX
        assert _next_multiplier(method, self.at(3.0, 1.21, -1e-30), 3.0, math.inf, 1.0) == 6.0
        lo = 0.75 * LAMBDA_MAX
        assert _next_multiplier(method, self.at(lo, 1.21, -1e-30), lo, math.inf, 1.0) == LAMBDA_MAX

    @pytest.mark.parametrize("method", ["newton", "bisection"])
    def test_adjacent_floats_leave_no_multiplier(self, method):
        hi = np.nextafter(1.0, 2.0)
        assert _next_multiplier(method, self.at(hi, 0.81, -1.0), 1.0, hi, 1.0) is None


class TestFirstMultiplier:
    """Newton and bisection start at Newton's step on psi from lam = 0,
    lam_0 = 2 s (1 - sqrt(s) / tau) / D''(0+) with s = ||gbar||^2, which
    psi's concavity keeps below the root."""

    @staticmethod
    def problems():
        """Makers of fresh Lagrangians: the benchmark's dense n = 512
        first-difference selection and its matrix-free n = 256 identity one
        (width 1.2, by FFT), 2% noise, c = 1.02."""
        makers = {}
        for name, n, width, penalty, free in (
            ("first_difference-512", 512, 2.0, first_difference_regularizer, False),
            ("fft-identity-256", 256, 1.2, identity_regularizer, True),
        ):
            op, A = fft_blur(n, width)
            prob = synthesize(A, _bump_profile(n, np.random.default_rng(0)), 0.02, seed=0)
            makers[name] = functools.partial(Lagrangian, op if free else A, prob.g, penalty(n), (1.02 * prob.tau) ** 2)
        return makers

    @pytest.mark.parametrize("name", ["first_difference-512", "fft-identity-256"])
    def test_basis_grows_only_to_what_lambda_star_needs(self, name):
        # from below the root every multiplier needs at most the columns of
        # lambda_star; a start at lam = 1 took the n = 512 first-difference
        # basis to 70 columns where lambda_star needs 39
        make = self.problems()[name]
        lag = make()
        res = maximize_dual(lag)
        assert all(lam <= res.lambda_star for lam, _, _ in res.iterations)
        fresh = make()
        solve_lagrange(fresh, res.lambda_star)
        assert lag.engine().basis.k == fresh.engine().basis.k
        assert isinstance(lag.engine(), StandardForm)

    @pytest.mark.parametrize("method", ["newton", "bisection"])
    def test_starts_below_the_root_on_both_engines(self, method):
        lags = [lagrangian_of(make_interior_problem(seed)) for seed in (11, 21, 31)]
        lags.append(self.problems()["first_difference-512"]())
        for lag in lags:
            for problem in (lag, custom_twin(lag)):
                start = eval_dual(problem, 0.0)
                s = problem.engine().data_norm ** 2
                lam_0 = 2.0 * s * (1.0 - math.sqrt(s) / problem.tau) / start.d_second
                res = maximize_dual(problem, method=method)
                assert res.iterations[0][0] == pytest.approx(lam_0, rel=1e-14)
                assert 0 < res.iterations[0][0] <= res.lambda_star
                assert res.iterations[0][2] > 0

    def test_a_step_out_of_range_is_capped_or_replaced(self):
        # the scalar problem's root 2/tau - 1 lies an ulp below LAMBDA_MAX,
        # and Newton's step from 0, which is exact there, rounds above it:
        # it is capped at LAMBDA_MAX, the one evaluation at rtol = 1e-3
        lag = scalar_lagrangian(epsilon=1.999999999998e-12**2)
        assert diagnose_regime(lag).regime == "interior"
        s = lag.engine().data_norm ** 2
        assert 2.0 * s * (1.0 - math.sqrt(s) / lag.tau) / eval_dual(lag, 0.0).d_second > LAMBDA_MAX
        for method in ("newton", "bisection"):
            res = maximize_dual(lag, method=method, rtol=1e-3)
            assert [t[0] for t in res.iterations] == [LAMBDA_MAX]
        # on data near the smallest normal floats D''(0+) = -2 a^2 g^2
        # underflows to 0: Newton's step from 0 is no float, so the search
        # starts at lam = 1, and doubles, since every D'' it reads is 0 too
        a, g, lam_star = math.sqrt(1e-19), 1e-153, 5e11
        epsilon = g**2 / (1.0 + lam_star * a * a) ** 2
        lag = Lagrangian(linops.from_matrix(np.array([[a]])), np.array([g]), identity_regularizer(1), epsilon)
        assert diagnose_regime(lag).regime == "interior"
        assert eval_dual(lag, 0.0).d_second == 0.0
        for method in ("newton", "bisection"):
            res = maximize_dual(lag, method=method)
            assert [t[0] for t in res.iterations] == [2.0**j for j in range(40)]
            assert verify_morozov_solution(res, lag).passed


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
        with pytest.raises(RegimeError) as err:
            maximize_dual(lag)
        assert err.value.regime == "noise_dominates"

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_custom_penalty_reads_gbar_from_its_factors(self, matrix_free):
        # the same map as a custom penalty: ||gbar|| is g less its best fit
        # from A(ker L), whose one column the pivoted QR factorization of L
        # finds. Read as ||g||, tau = 28.40 was interior, and the search
        # selected lam = 2.3e-29, which verified
        op, g, gbar_norm = self.problem(matrix_free)
        tau = 0.5 * (gbar_norm + np.linalg.norm(g))
        assert tau == pytest.approx(28.40, abs=0.01)
        J = custom_regularizer(linops.from_matrix(np.diff(np.eye(128), axis=0)))
        lag = Lagrangian(op, g, J, tau**2)
        d = diagnose_regime(lag)
        assert lag.engine().qg.size == 1
        assert d.regime == "noise_dominates" and d.data_label == "||gbar||"
        assert d.data_norm == pytest.approx(0.81095132407, rel=1e-10)
        assert d.data_norm == pytest.approx(gbar_norm, rel=1e-10)
        with pytest.raises(RegimeError, match=r"tau >= \|\|gbar\|\|") as err:
            maximize_dual(lag)
        assert err.value.regime == "noise_dominates"

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_right_derivative_at_zero(self, matrix_free):
        op, g, gbar_norm = self.problem(matrix_free)
        lag = self.lagrangian(op, g, 0.5 * (gbar_norm + np.linalg.norm(g)))
        d_prime = eval_dual(lag, 0.0).d_prime
        assert d_prime == pytest.approx(gbar_norm**2 - lag.epsilon, rel=1e-12)
        # the limit of D' from the right, by a dense direct solve
        f = numpy_inner_solve(lag, 1e-9)
        assert linops.residual_norm_sq(op, f, g) - lag.epsilon == pytest.approx(d_prime, rel=1e-6)

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_interior_below_gbar_still_selects(self, matrix_free):
        op, g, gbar_norm = self.problem(matrix_free)
        lag = self.lagrangian(op, g, 0.9 * gbar_norm)
        res = maximize_dual(lag)
        assert res.diagnosis.regime == "interior"
        ref = maximize_dual(custom_twin(self.lagrangian(op, g, 0.9 * gbar_norm)))
        assert ref.lambda_star == pytest.approx(8.85908e-05, rel=1e-6)
        assert res.lambda_star == pytest.approx(ref.lambda_star, rel=1e-6)
        # the discrepancy equation holds at lambda_star by a dense direct solve
        f = numpy_inner_solve(lag, res.lambda_star)
        assert linops.residual_norm_sq(op, f, g) == pytest.approx(lag.epsilon, rel=1e-6)


    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_small_multiplier_resolved_at_the_rounding_level(self, matrix_free):
        # tau = 0.999 ||gbar|| puts lambda_star near 7.7e-7, where the full
        # system's relative residual cannot reach 1e-10 in float64: the
        # Krylov solve stops at its rounding level
        op, g, gbar_norm = self.problem(matrix_free)
        lag = self.lagrangian(op, g, 0.999 * gbar_norm)
        res = maximize_dual(lag)
        ref = maximize_dual(custom_twin(self.lagrangian(op, g, 0.999 * gbar_norm)))
        assert ref.lambda_star == pytest.approx(7.72139e-07, rel=1e-5)
        assert res.lambda_star == pytest.approx(ref.lambda_star, rel=1e-6)
        f = numpy_inner_solve(lag, res.lambda_star)
        assert linops.residual_norm_sq(op, f, g) == pytest.approx(lag.epsilon, rel=1e-6)
        assert verify_morozov_solution(res, lag).passed
        sol = solve_lagrange(lag, 9.53674e-07)
        assert 1e-10 < sol.solver_stats["relative_residual"] < 1e-9

    def test_krylov_resolves_a_tiny_multiplier(self):
        # at lam = 1e-18 the full system is numerically singular in float64,
        # yet the standard form's basis solves it on five columns, with D'
        # at its right limit at 0
        op, g, gbar_norm = self.problem(False)
        lag = self.lagrangian(op, g, 0.999 * gbar_norm)
        assert solve_lagrange(lag, 1e-18).solver_stats["iterations"] == 5
        assert eval_dual(lag, 1e-18).d_prime == pytest.approx(eval_dual(lag, 0.0).d_prime, rel=1e-9)

    def test_sweep_resolves_tiny_multipliers_along_ker_l(self):
        # the same map as a custom penalty, in the standard form of its
        # pivoted QR factorization. Where a generalized eigendecomposition
        # served it, its 1 - mu rounded at eps along ker L: D' at 1e-18 read
        # 3115 where the basis reads 0.00131, and D'' was 1.5% off there.
        # In the basis D' and D'' hold at 1e-18 on both
        op, g, gbar_norm = self.problem(False)
        lag = self.lagrangian(op, g, 0.999 * gbar_norm)
        lams = [1e-18, 1e-16, 1e-14, 1e-12, 1e-10, 1e-8]
        for e, twin, lam in zip(sweep_dual(lag, lams), sweep_dual(custom_twin(lag), lams), lams):
            krylov = eval_dual(lag, lam)
            assert e.d_prime == pytest.approx(krylov.d_prime, rel=1e-10), lam
            assert e.d_second == pytest.approx(krylov.d_second, rel=1e-10), lam
            assert twin.d_prime == pytest.approx(krylov.d_prime, rel=1e-10), lam
            assert twin.d_second == pytest.approx(krylov.d_second, rel=1e-10), lam


class TestKernelColumns:
    """ker L is found by a test on L alone: the pivoted QR factorization of
    L^T counts r_ii as 0 where |r_ii|^2 <= n eps ||L||_F^2, the rounding of
    applying L, so a penalty merely small next to A keeps its rank."""

    def test_small_injective_penalty_has_no_kernel(self):
        # L = 1e-5 I is 1e-5 times the identity penalty, whose lambda_star
        # it takes 1e-10 times. Judged against A, as 1 - mu of a generalized
        # eigendecomposition below sqrt(eps), its columns with
        # s_i^2 >= 0.0067 counted as ker L, left a window ending at
        # 0.978 < tau, and the problem raised RegimeError. Its standard form
        # is A L^+ = 1e5 A, with no kernel, so lambda_star and D''(0+) are
        # resolved to rounding
        n = 128
        A = make_deconvolution(n, 2.0)
        prob = synthesize(A, 5.0 + 0.1 * np.sin(6.0 * np.linspace(0.0, 1.0, n)), 0.02, seed=1)
        lag = Lagrangian(A, prob.g, custom_regularizer(linops.from_matrix(1e-5 * np.eye(n))), prob.tau**2)
        res = maximize_dual(lag)
        ref = maximize_dual(Lagrangian(A, prob.g, identity_regularizer(n), prob.tau**2))
        assert lag.engine().qg.size == 0
        assert res.diagnosis.regime == ref.diagnosis.regime == "interior"
        assert res.diagnosis.data_label == "||g||"
        assert res.diagnosis.data_norm == pytest.approx(np.linalg.norm(prob.g), rel=1e-15)
        assert ref.lambda_star == pytest.approx(100.715163, rel=1e-8)
        assert res.lambda_star == pytest.approx(1e-10 * ref.lambda_star, rel=1e-12)
        assert eval_dual(lag, 0.0).d_second == pytest.approx(numpy_slope_at_zero(lag), rel=1e-12)

    def test_graded_injective_penalty_has_no_kernel(self):
        # singular values from 1 down to 1e-5: |r_ii|^2 >= 1e-10, far above
        # n eps ||L||_F^2 = 1.4e-13, so the rank is full however small the
        # last directions are next to the first
        n = 128
        A = make_deconvolution(n, 2.0)
        prob = synthesize(A, np.sin(np.linspace(0.0, np.pi, n)), 0.02, seed=1)
        L = np.diag(np.geomspace(1.0, 1e-5, n))
        lag = Lagrangian(A, prob.g, custom_regularizer(linops.from_matrix(L)), prob.tau**2)
        d = diagnose_regime(lag)
        assert lag.engine().qg.size == 0 and lag.engine().op.dims.dim_f == n
        assert d.data_label == "||g||"
        assert d.data_norm == pytest.approx(np.linalg.norm(prob.g), rel=1e-15)
        assert eval_dual(lag, 0.0).d_second == pytest.approx(numpy_slope_at_zero(lag), rel=1e-10)

    @pytest.mark.parametrize("scale", [1e3, 1e-3])
    def test_window_is_free_of_the_scale_of_the_data(self, scale):
        # the window case in other units: A and g scaled alike. At 1e3, a
        # test of 1 - mu against sqrt(eps) counted the columns of low
        # frequency as ker L too, which took all but the noise out of
        # ||gbar||. The pivoted QR factorization of L finds the one kernel
        # column from L alone, whatever the scale of A, and ||gbar|| is the
        # basis's beta_1, resolved to rounding
        op, g, gbar_norm = TestFirstDifferenceWindow.problem(False)
        J = custom_regularizer(linops.from_matrix(np.diff(np.eye(128), axis=0)))
        lag = Lagrangian(linops.from_matrix(scale * op.matrix), scale * g, J, (scale * 28.4) ** 2)
        d = diagnose_regime(lag)
        assert lag.engine().qg.size == 1
        assert d.regime == "noise_dominates" and d.data_label == "||gbar||"
        assert d.data_norm == pytest.approx(scale * gbar_norm, rel=1e-10)


class TestCustomStandardForm:
    """A custom L in Elden's standard form: its rank and kernel from one
    pivoted QR factorization of L^T, and A kept an operator."""

    @staticmethod
    def problem(n=128):
        A = make_deconvolution(n, 2.0)
        prob = synthesize(A, np.sin(np.linspace(0, np.pi, n)), 0.02, seed=1)
        return prob, (1.02 * prob.tau) ** 2

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_stacked_differences_double_the_multiplier(self, matrix_free):
        # [D; D] has 2(n - 1) rows and rank n - 1, and ||[D; D] f||^2 is
        # twice the first-difference penalty, so lambda_star doubles
        prob, epsilon = self.problem()
        n = prob.op.dims.dim_f
        D = np.diff(np.eye(n), axis=0)
        op = counting_free_op(prob.op.matrix)[0] if matrix_free else prob.op
        lag = Lagrangian(op, prob.g, custom_regularizer(linops.from_matrix(np.vstack([D, D]))), epsilon)
        res = maximize_dual(lag)
        ref = maximize_dual(Lagrangian(prob.op, prob.g, first_difference_regularizer(n), epsilon))
        assert lag.engine().op.dims.dim_f == n - 1 and lag.engine().qg.size == 1
        assert len(res.iterations) == len(ref.iterations)
        assert res.lambda_star == pytest.approx(2.0 * ref.lambda_star, rel=1e-10)
        assert verify_morozov_solution(res, lag).passed

    def test_matrix_free_a_is_never_materialized(self):
        # custom first differences with a matrix-free A at n = 128: A W,
        # A^T q, A^T g and the basis's first column, one forward and one
        # adjoint per step of the basis, the verdict's one look, and one of
        # each per evaluation; materializing A alone took 128 forwards
        prob, epsilon = self.problem()
        n = prob.op.dims.dim_f
        op, counts = counting_free_op(prob.op.matrix)
        lag = Lagrangian(op, prob.g, custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0))), epsilon)
        res = maximize_dual(lag)
        evals, k = len(res.iterations), lag.engine().basis.k
        assert (evals, k) == (8, 28)
        assert counts == {"fwd": 1 + k + 1 + evals, "adj": 3 + k + evals}
        assert counts["fwd"] < n
        ref = maximize_dual(Lagrangian(prob.op, prob.g, first_difference_regularizer(n), epsilon))
        assert res.lambda_star == pytest.approx(ref.lambda_star, rel=1e-10)


class TestRegimeCertificate:
    """The verdict asks for the sign of D'(LAMBDA_MAX) on the problem's engine.

    In a built-in penalty's basis it is counted here in the applications
    of a matrix-free view of A: one adjoint for the basis's first column,
    which also gives ||A^T g|| as alpha_1 beta_1, one forward and one
    adjoint per step, one forward per look at a projected solution whose
    bound passes, and, where no bound passes, the solve at LAMBDA_MAX.
    """

    def test_certified_problem_skips_least_squares(self):
        prob = regime_fixture("interior", seed=1)
        expected = diagnose_regime(lagrangian_of(prob))
        res = maximize_dual(lagrangian_of(prob))
        assert res.diagnosis == expected
        assert expected.regime == "interior"
        # the certificate reports its residual, never less than the distance
        f_ls = np.linalg.lstsq(prob.op.matrix, prob.g, rcond=None)[0]
        dist = np.linalg.norm(prob.op.matrix @ f_ls - prob.g)
        assert dist <= res.diagnosis.dist_to_range < prob.tau
        # three steps and one look, below tau
        lag, counts = TestWorkCounts.counting_free_lagrangian(prob)
        assert diagnose_regime(lag) == expected
        assert lag.certificate() is lag and lag.engine().basis.k == 3
        assert counts == {"fwd": 4, "adj": 4}

    def test_uncertified_too_optimistic(self):
        prob = regime_fixture("too_optimistic", seed=1)
        expected = diagnose_regime(lagrangian_of(prob))
        with pytest.raises(RegimeError) as err:
            maximize_dual(lagrangian_of(prob))
        assert err.value.regime == expected.regime == "too_optimistic"
        # A has rank 6, so the basis is exhausted after six steps with no
        # bound below tau, and the solve at LAMBDA_MAX on all six columns
        # reads the distance itself
        f_ls = np.linalg.lstsq(prob.op.matrix, prob.g, rcond=None)[0]
        dist = np.linalg.norm(prob.op.matrix @ f_ls - prob.g)
        assert expected.dist_to_range == pytest.approx(dist, abs=1e-9 * np.linalg.norm(prob.g))
        # six steps, then the solve's one forward and one adjoint
        lag, counts = TestWorkCounts.counting_free_lagrangian(prob)
        assert diagnose_regime(lag) == expected
        assert lag.engine().basis.k == 6
        assert counts == {"fwd": 7, "adj": 8}

    def test_uncertified_interior_between_distance_and_bound(self, monkeypatch):
        # tau between dist(g, range A) and the residual at LAMBDA_MAX: D'
        # stays positive up to LAMBDA_MAX, so the search cannot reach a
        # root, and the solve at LAMBDA_MAX refuses it before any
        # evaluation, with the penalty stored as a custom one too
        import morozov.dual

        prob = synthesize(
            make_deconvolution(24, kernel_width=2.0),
            _bump_profile(24, np.random.default_rng(3)), noise_level=0.05, seed=3,
        )
        probe = lagrangian_of(prob)
        bound = math.sqrt(linops.residual_norm_sq(prob.op, numpy_inner_solve(probe, LAMBDA_MAX), prob.g))
        dist = projection_distance(prob.op, prob.g)
        assert 1e3 * dist < bound < prob.tau
        tau = 0.5 * bound
        expected = diagnose_regime(lagrangian_of(prob, tau=tau))
        assert expected.regime == "too_optimistic"
        # the Krylov engine's residual there; numpy's dense solve of a
        # system of condition about LAMBDA_MAX resolves it to about 3e-6
        assert expected.dist_to_range == pytest.approx(bound, rel=1e-5)

        op, counts = counting_free_op(prob.op.matrix)
        evals = []
        evaluate = morozov.dual.eval_dual
        monkeypatch.setattr(morozov.dual, "eval_dual", lambda *a: evals.append(a) or evaluate(*a))
        twin = custom_twin(Lagrangian(op, prob.g, prob.regularizer, tau**2))
        with pytest.raises(RegimeError, match="LAMBDA_MAX") as err:
            maximize_dual(twin)
        assert err.value.regime == "too_optimistic" and evals == []
        # A stays an operator. The identity stored as a custom penalty has
        # no kernel, so the build applies A^T to g and for the basis's first
        # column only; the certificate grows the basis until it spans all 24
        # dimensions, at one forward per step and one adjoint per step but
        # the last; and the solve applies each once for its residual
        assert twin.engine().basis.k == 24
        assert counts == {"fwd": 24 + 1, "adj": 2 + 23 + 1}

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
        # with tau above ||g||, the penalty built in and stored as a custom one
        n = 6
        A = linops.from_matrix(first_difference_regularizer(n).seminorm_operator.materialize())
        g = rng.standard_normal(n - 1)
        g *= 2.0 / np.linalg.norm(g)
        for J in (first_difference_regularizer(n), custom_regularizer(A)):
            lag = Lagrangian(A, g, J, epsilon=9.0)
            # the identity twin judges, with its own window's end ||g||
            d = diagnose_regime(lag)
            assert d.data_label == "||g||" and d.data_norm == pytest.approx(2.0, rel=1e-15)
            with pytest.raises(RegimeError) as err:
                maximize_dual(lag)
            assert err.value.regime == "noise_dominates"
            # inside the twin's window the strict-convexity check refuses it
            lag = Lagrangian(A, g, J, epsilon=1.0)
            assert diagnose_regime(lag).regime == "interior"
            with pytest.raises(AssumptionViolation, match="unique"):
                maximize_dual(lag)

def half_distance_case(seed, n=128):
    """A width-2 blur of a bump-plus-box profile, 2% noise, the identity
    penalty, and tau at half the lstsq distance: D' stays positive up to
    LAMBDA_MAX, whose residual is far above that distance."""
    A = make_deconvolution(n, 2.0)
    x = np.linspace(0.0, 1.0, n)
    f0 = _bump_profile(n, np.random.default_rng(seed)) + ((x >= 0.3) & (x <= 0.6))
    prob = synthesize(A, f0, 0.02, seed=seed)
    f_ls = np.linalg.lstsq(A.matrix, prob.g, rcond=None)[0]
    return lagrangian_of(prob, tau=0.5 * np.linalg.norm(A.matrix @ f_ls - prob.g))


class TestVerdictAtLambdaMax:
    """``diagnose_regime`` says interior exactly when D'(LAMBDA_MAX) < 0."""

    @staticmethod
    def count_evaluations(monkeypatch):
        import morozov.dual

        calls = []
        evaluate = morozov.dual.eval_dual
        monkeypatch.setattr(morozov.dual, "eval_dual", lambda *a: calls.append(a) or evaluate(*a))
        return calls

    def test_half_distance_cases_are_refused_before_any_evaluation(self, monkeypatch):
        # the distance is far below tau's residual at LAMBDA_MAX, so a
        # verdict by the distance would send these to a search that can
        # only bracket up to LAMBDA_MAX
        calls = self.count_evaluations(monkeypatch)
        for seed in range(8):
            with pytest.raises(RegimeError, match="LAMBDA_MAX") as err:
                maximize_dual(half_distance_case(seed))
            assert err.value.regime == "too_optimistic" and calls == [], seed

    def test_half_distance_verdicts_follow_d_prime_at_lambda_max(self):
        for seed in range(8):
            lag, fresh = half_distance_case(seed), half_distance_case(seed)
            d = diagnose_regime(lag)
            d_prime = eval_dual(fresh, LAMBDA_MAX).d_prime
            assert (d.regime == "interior") == (d_prime < 0), seed
            assert d.dist_to_range**2 - d.tau**2 == pytest.approx(d_prime, rel=1e-9)
            # the verdict grows the basis no further than that solve needs
            assert lag.engine().basis.k == fresh.engine().basis.k < 128, seed

    def test_a_bound_estimate_that_misleads_is_caught_by_its_look(self, monkeypatch):
        # the projected bound assumes U orthonormal; each time it passes,
        # one forward application checks the bound on x itself. Here every
        # estimate passes and every look fails, so the verdict is still the
        # solve's at LAMBDA_MAX, after one look per column
        prob = regime_fixture("too_optimistic", seed=1)
        expected = diagnose_regime(lagrangian_of(prob))
        monkeypatch.setattr(lagrange.GolubKahan, "tikhonov_bound", lambda self, lam, z: 0.0)
        lag, counts = TestWorkCounts.counting_free_lagrangian(prob)
        assert diagnose_regime(lag) == expected
        assert lag.engine().basis.k == 6
        # seven looks at k = 0..6, six steps, and the solve's pair
        assert counts == {"fwd": 7 + 6 + 1, "adj": 1 + 6 + 1}

    def test_residual_of_a_numerically_singular_blur_stays_within_g(self):
        # a square width-3 blur at n = 256 of standard normal data, which
        # is numerically singular: lstsq's distance is 6.06 and ||g|| =
        # 14.67. The residual at LAMBDA_MAX, 10.07, is the verdict's; tau
        # below it is refused, and tau above it still selects
        n = 256
        A = make_deconvolution(n, 3.0)
        g = np.random.default_rng(1).standard_normal(n)
        g_norm = np.linalg.norm(g)
        for tau in (5.0, 8.0):
            lag = Lagrangian(A, g, identity_regularizer(n), tau**2)
            d = diagnose_regime(lag)
            assert d.regime == "too_optimistic"
            assert projection_distance(A, g) < d.dist_to_range <= g_norm
            assert d.dist_to_range == pytest.approx(10.0658, rel=1e-5)
            with pytest.raises(RegimeError, match="LAMBDA_MAX"):
                maximize_dual(lag)
        res = maximize_dual(Lagrangian(A, g, identity_regularizer(n), 12.0**2))
        assert abs(res.discrepancy - 12.0) <= 1e-8 * 12.0

    def test_low_noise_is_certified_by_the_solve_at_lambda_max(self, monkeypatch):
        # no projected solution can prove D'(LAMBDA_MAX) < 0 here: the bound
        # of any x is at least ||f||^2 / LAMBDA_MAX at the solution f there,
        # 9.4e-11 against epsilon = 9.3e-13. So the engine's own solve at
        # LAMBDA_MAX decides, and reads 6.62e-7 < tau
        prob = synthesize(
            make_deconvolution(128, 4.0),
            _bump_profile(128, np.random.default_rng(0)), 1e-7, seed=0,
        )
        epsilon = (1.02 * prob.tau) ** 2
        sol = solve_lagrange(Lagrangian(prob.op, prob.g, prob.regularizer, epsilon), LAMBDA_MAX)
        assert sol.j_value / LAMBDA_MAX > 50 * epsilon
        # the engine's own solves, by their multipliers
        solves = []
        solve = lagrange.StandardForm.solve
        monkeypatch.setattr(lagrange.StandardForm, "solve", lambda self, lag, lams: solves.append(list(lams)) or solve(self, lag, lams))
        lag = Lagrangian(prob.op, prob.g, prob.regularizer, epsilon)
        d = diagnose_regime(lag)
        assert d.regime == "interior" and solves == [[LAMBDA_MAX]]
        assert d.dist_to_range == math.sqrt(sol.discrepancy_sq)
        assert d.dist_to_range == pytest.approx(6.62e-7, rel=1e-3)
        res = maximize_dual(lag)
        assert len(res.iterations) == 6
        assert res.lambda_star == pytest.approx(1.8787e7, rel=1e-4)

    @pytest.mark.parametrize("case, k", [("proved", 3), ("fallback", 64)])
    def test_concurrent_verdicts_match_the_sequential_one(self, case, k):
        # the engine leaves its basis lock between the projected proof and
        # the solve at LAMBDA_MAX, which takes it again: 8 threads that
        # race through either on one shared problem each give the verdict
        # of a fresh problem's sequential call, and grow the basis no
        # further than it does
        def problem():
            if case == "proved":
                return lagrangian_of(regime_fixture("interior", seed=1))
            # the low-noise problem of the test above, decided by the solve
            prob = synthesize(make_deconvolution(128, 4.0), _bump_profile(128, np.random.default_rng(0)), 1e-7, seed=0)
            return Lagrangian(prob.op, prob.g, prob.regularizer, (1.02 * prob.tau) ** 2)

        sequential = problem()
        expected = diagnose_regime(sequential)
        assert expected.regime == "interior" and sequential.engine().basis.k == k
        lag = problem()
        barrier = threading.Barrier(8, timeout=30)

        def verdict():
            barrier.wait()
            return diagnose_regime(lag)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                results = [future.result(timeout=30) for future in [pool.submit(verdict) for _ in range(8)]]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8
        assert lag.engine().basis.k == k


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: linops.from_callables(2.5, 3, np.negative, np.negative), "dim_f"),
        (lambda: linops.VectorSpaceDims(True, 3), "dim_f"),
        (lambda: linops.VectorSpaceDims(3, np.float64(4.0)), "dim_g"),
        (lambda: maximize_dual(scalar_lagrangian(), max_iter=True), "max_iter"),
        (lambda: sweep_dual(scalar_lagrangian(), [[1.0, 2.0], [3.0, 4.0]]), "lambdas"),
        (lambda: concavity_defects([1.0, 2.0, 3.0j], [0.0, 1.0, 0.0]), "lambdas"),
        (lambda: concavity_defects([1.0, 2.0, 3.0], [0.0, 1.0, 5j]), "d_values"),
    ],
    ids=["float-dim", "bool-dim", "numpy-float-dim", "bool-max-iter", "2d-grid", "complex-lambdas", "complex-d-values"],
)
def test_unusable_sizes_and_grids_are_refused(call, name):
    # refused before any work; otherwise they build an operator whose every
    # apply raises, take a bool as a size or as max_iter=1, fail in numpy
    # with "object too deep", or drop an imaginary part
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


class TestEngineTable:
    """The engine ``Lagrangian`` builds, for every kind of A and penalty:
    one ``StandardForm``, which selections and sweeps share."""

    # (A, penalty): the engine
    TABLE = {
        ("dense", "identity"): StandardForm,
        ("dense", "first_difference"): StandardForm,
        ("dense", "custom"): StandardForm,
        ("matrix_free", "identity"): StandardForm,
        ("matrix_free", "first_difference"): StandardForm,
        ("matrix_free", "custom"): StandardForm,
    }

    @pytest.mark.parametrize("storage, penalty", list(TABLE))
    def test_engines(self, storage, penalty):
        prob = regime_fixture("interior", seed=1)
        n = prob.op.dims.dim_f
        op = counting_free_op(prob.op.matrix)[0] if storage == "matrix_free" else prob.op
        J = {
            "identity": identity_regularizer(n),
            "first_difference": first_difference_regularizer(n),
            "custom": custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0))),
        }[penalty]
        lag = Lagrangian(op, prob.g, J, prob.tau**2)
        engine = self.TABLE[storage, penalty]
        assert type(lag.engine()) is engine
        # it is built once: repeated calls return the same object
        assert lag.engine() is lag.engine()
        # the regime verdict runs on the problem's own engine
        assert lag.certificate() is lag
        res = maximize_dual(lag)
        assert lag.engine() is lag.engine()
        # a sweep after the selection runs on the selection's engine, and
        # grows the verdict's and selection's basis
        k = lag.engine().basis.k
        evals = sweep_dual(lag, np.geomspace(res.lambda_star, 1e6 * res.lambda_star, 10))
        assert all(e.error is None and e.solution.solver_stats["method"] == "krylov" for e in evals)
        assert lag.engine().basis.k > k


class TestWorkCounts:
    """Deterministic work of the dense selector, counted at scipy.linalg:
    no generalized eigendecomposition for any penalty, and one pivoted QR
    factorization for a custom one."""

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
        counts = self.count_calls(monkeypatch, "eigh", "qr")
        # the engine of the identity: one Golub-Kahan basis, no factorization
        res = maximize_dual(lagrangian_of(prob), method="bisection")
        assert counts == {"eigh": 0, "qr": 0}
        assert len(res.iterations) == 22
        assert res.lambda_star == pytest.approx(33.93659387458379, rel=1e-9)
        # stored as a custom penalty: one pivoted QR factorization
        custom = maximize_dual(custom_twin(lagrangian_of(prob)), method="bisection")
        assert counts == {"eigh": 0, "qr": 1}
        assert len(custom.iterations) == 22
        assert custom.lambda_star == pytest.approx(33.93659387458379, rel=1e-9)
        assert res.lambda_star == pytest.approx(custom.lambda_star, rel=1e-9)

    def test_newton_selection_makes_no_factorization(self, monkeypatch):
        prob = regime_fixture("interior", seed=1)
        counts = self.count_calls(monkeypatch, "eigh", "qr")
        res = maximize_dual(lagrangian_of(prob))
        assert res.method == "newton"
        assert counts == {"eigh": 0, "qr": 0}
        assert len(res.iterations) == 5
        # bisection's multiplier, 22 evaluations
        assert res.lambda_star == pytest.approx(33.93659387458379, rel=1e-7)
        # stored as a custom penalty, the same Newton steps
        custom = maximize_dual(custom_twin(lagrangian_of(prob)))
        assert counts == {"eigh": 0, "qr": 1}
        assert len(custom.iterations) == 5
        assert custom.lambda_star == pytest.approx(res.lambda_star, rel=1e-12)
        # matrix-free, the same evaluations
        free = maximize_dual(self.counting_free_lagrangian(prob)[0])
        assert len(free.iterations) == 5
        assert free.lambda_star == pytest.approx(res.lambda_star, rel=1e-12)
        assert counts == {"eigh": 0, "qr": 1}

    def test_newton_low_noise_in_few_evaluations(self, monkeypatch):
        # the case where bisection at rtol = 1e-12 collapses its bracket
        prob = synthesize(
            make_deconvolution(128, 4.0),
            _bump_profile(128, np.random.default_rng(0)), 1e-7, seed=0,
        )
        epsilon = (1.02 * prob.tau) ** 2
        counts = self.count_calls(monkeypatch, "eigh")
        res = maximize_dual(Lagrangian(prob.op, prob.g, prob.regularizer, epsilon))
        assert counts == {"eigh": 0}
        assert len(res.iterations) <= 10
        assert abs(res.discrepancy**2 - epsilon) <= 1e-8 * epsilon
        custom = maximize_dual(custom_twin(Lagrangian(prob.op, prob.g, prob.regularizer, epsilon)))
        assert res.lambda_star == pytest.approx(custom.lambda_star, rel=1e-6)

    def test_krylov_evaluation_factors_its_tridiagonal_once(self, monkeypatch):
        # a new multiplier factors the projected tridiagonal at most once;
        # each column the basis gains within the evaluation extends the
        # factors in O(1), where the basis used to re-factor all k columns
        import scipy.linalg.lapack

        calls = []
        dpttrf = scipy.linalg.lapack.dpttrf
        monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", lambda *a, **k: calls.append(a) or dpttrf(*a, **k))
        A = make_deconvolution(128, 2.0)
        prob = synthesize(A, _bump_profile(128, np.random.default_rng(128)), 0.02, seed=128)
        lag = Lagrangian(A, prob.g, identity_regularizer(128), (1.02 * prob.tau) ** 2)
        res = maximize_dual(lag)
        evals = len(res.iterations)
        assert 0 < len(calls) <= evals
        assert lag.engine().basis.k > 4 * evals

    @staticmethod
    def counting_free_lagrangian(prob):
        op, counts = counting_free_op(prob.op.matrix)
        return Lagrangian(op, prob.g, prob.regularizer, prob.tau**2), counts

    def test_matrix_free_selection_in_one_basis(self, monkeypatch):
        prob = regime_fixture("interior", seed=1)
        lag, applies = self.counting_free_lagrangian(prob)
        counts = self.count_calls(monkeypatch, "eigh")
        res = maximize_dual(lag, method="bisection")
        assert counts == {"eigh": 0}
        assert res.diagnosis.regime == "interior"
        # the same evaluations and multiplier as the dense path
        assert len(res.iterations) == 22
        assert res.lambda_star == pytest.approx(33.93659387458379, rel=1e-9)
        # 20 steps, the basis's first column (an adjoint), the verdict's one
        # look (a forward), and one forward and one adjoint per evaluation:
        # 31 evaluations made this 52 and 52
        assert lag.engine().basis.k == 20
        assert applies == {"fwd": 1 + 20 + 22, "adj": 1 + 20 + 22}

        # the same with the identity stored as a custom penalty
        checker_lag, _ = self.counting_free_lagrangian(prob)
        checker = maximize_dual(custom_twin(checker_lag), method="bisection")
        assert checker.lambda_star == pytest.approx(res.lambda_star, rel=1e-9)

    def test_matrix_free_too_optimistic_falls_back_to_distance(self):
        prob = regime_fixture("too_optimistic", seed=1)
        lag, counts = self.counting_free_lagrangian(prob)
        with pytest.raises(RegimeError) as err:
            maximize_dual(lag)
        assert err.value.regime == "too_optimistic"
        # the gate's six steps, which exhaust the basis with no bound below
        # tau, and its solve at LAMBDA_MAX are all the selection applies
        assert counts == {"fwd": 7, "adj": 8}

    @pytest.mark.parametrize("matrix_free", [False, True])
    @pytest.mark.parametrize("n", [64, 256])
    def test_first_difference_selection_in_one_basis(self, monkeypatch, n, matrix_free):
        # Elden's standard form: the same selection as the materialized maps
        # with the penalty stored as a custom one, from the problem's one
        # basis
        counts = self.count_calls(monkeypatch, "eigh")
        A = make_deconvolution(n, 2.0)
        prob = synthesize(A, _bump_profile(n, np.random.default_rng(n)), 0.02, seed=n)
        epsilon = (1.02 * prob.tau) ** 2
        op = counting_free_op(A.matrix)[0] if matrix_free else A
        lag = Lagrangian(op, prob.g, first_difference_regularizer(n), epsilon)
        res = maximize_dual(lag)
        assert counts == {"eigh": 0}
        dense = linops.from_matrix(op.materialize())
        ref = maximize_dual(custom_twin(Lagrangian(dense, prob.g, first_difference_regularizer(n), epsilon)))
        assert len(res.iterations) == len(ref.iterations)
        assert res.lambda_star == pytest.approx(ref.lambda_star, rel=1e-9)
        np.testing.assert_allclose(res.f_star, ref.f_star, rtol=0, atol=1e-12 * np.abs(ref.f_star).max())

    @pytest.mark.parametrize("penalty", [identity_regularizer, first_difference_regularizer])
    def test_banded_selection_matches_its_gemv_twin(self, penalty):
        # the width-2 blur's band, cut where its weights fall below eps / n
        # of every row's largest, is kl = ku = 18, so from_matrix applies it
        # by dgbmv; the callables twin runs numpy's dense products on every
        # stored weight
        n = 512
        A = make_deconvolution(n, 2.0)
        prob = synthesize(A, _bump_profile(n, np.random.default_rng(n)), 0.02, seed=n)
        epsilon = (1.02 * prob.tau) ** 2
        M = A.matrix
        band = Lagrangian(linops.from_matrix(M), prob.g, penalty(n), epsilon)
        twin = Lagrangian(
            linops.from_callables(n, n, M.__matmul__, M.T.__matmul__), prob.g, penalty(n), epsilon
        )
        res, ref = maximize_dual(band), maximize_dual(twin)
        assert len(res.iterations) == len(ref.iterations)
        assert band.engine().basis.k == twin.engine().basis.k
        assert res.lambda_star == pytest.approx(ref.lambda_star, rel=1e-12)
        assert verify_morozov_solution(res, band).passed

    @pytest.mark.parametrize("penalty", [identity_regularizer, first_difference_regularizer])
    def test_dense_sweep_builds_one_band_copy(self, monkeypatch, penalty):
        # every product with A in a dense sweep, the basis's and each
        # point's residuals alike, goes through the operator's one pair,
        # whose band copy is built once, with the operator; once the
        # Lagrangian's finiteness check is done, no product reads the
        # stored matrix
        n = 512
        prob = synthesize(make_deconvolution(n, 2.0), _bump_profile(n, np.random.default_rng(n)), 0.02, seed=n)
        copies = []
        band_storage = linops._band_storage
        monkeypatch.setattr(linops, "_band_storage", lambda *args: copies.append(args) or band_storage(*args))
        lag = Lagrangian(linops.from_matrix(prob.op.matrix), prob.g, penalty(n), (1.02 * prob.tau) ** 2)
        reads = []
        matrix = linops.LinearOperator.matrix
        monkeypatch.setattr(linops.LinearOperator, "matrix", property(lambda op: reads.append(op) or matrix.fget(op)))
        grid = np.logspace(-2, 8, 20)
        evals = sweep_dual(lag, grid)
        assert len(reads) == 0
        assert all(e.error is None for e in evals)
        assert [args[1:] for args in copies] == [(18, 18)]
        for e, lam in zip(evals, grid):
            assert e.d_prime == pytest.approx(eval_dual(lag, lam).d_prime, rel=1e-12, abs=0)

    def test_custom_penalty_certificate_makes_no_eigh(self, monkeypatch):
        # a dense custom penalty certifies its regime in its own basis: its
        # one pivoted QR factorization comes before the verdict, and the
        # selection and a second verdict reuse it
        prob = regime_fixture("interior", seed=1)
        J = custom_regularizer(linops.from_matrix(np.diff(np.eye(24), axis=0)))
        lag = Lagrangian(prob.op, prob.g, J, prob.tau**2)
        counts = self.count_calls(monkeypatch, "eigh", "qr")
        assert diagnose_regime(lag).regime == "interior"
        assert counts == {"eigh": 0, "qr": 1}
        res = maximize_dual(lag)
        assert counts == {"eigh": 0, "qr": 1}
        assert res.diagnosis.regime == "interior"
        assert lag.certificate() is lag and isinstance(lag.engine(), StandardForm)
        assert diagnose_regime(lag) == res.diagnosis and counts == {"eigh": 0, "qr": 1}
        # the same map as built-in first differences, with no factorization
        ref = maximize_dual(Lagrangian(prob.op, prob.g, first_difference_regularizer(24), prob.tau**2))
        assert counts == {"eigh": 0, "qr": 1}
        assert res.lambda_star == pytest.approx(ref.lambda_star, rel=1e-9)

    def test_matrix_free_custom_penalty_with_dense_a_is_factored(self, monkeypatch):
        # a matrix-free L is materialized for its pivoted QR factorization
        prob = regime_fixture("interior", seed=1)
        mat = np.diff(np.eye(24), axis=0)
        counts = self.count_calls(monkeypatch, "eigh", "qr")
        free = maximize_dual(Lagrangian(prob.op, prob.g, custom_regularizer(counting_free_op(mat)[0]), prob.tau**2))
        assert counts == {"eigh": 0, "qr": 1}
        dense = maximize_dual(Lagrangian(prob.op, prob.g, custom_regularizer(linops.from_matrix(mat)), prob.tau**2))
        assert free.lambda_star == pytest.approx(dense.lambda_star, rel=1e-9)

    def test_matrix_free_custom_selection_is_factored_once(self, monkeypatch):
        # a matrix-free A with a custom penalty stays an operator: one
        # pivoted QR factorization of L, the build's A W, and A^T q, A^T g
        # and the basis's first column, one forward and one adjoint per
        # step of the basis, the verdict's one look, and per evaluation the
        # residual's one forward and one adjoint
        prob = regime_fixture("interior", seed=1)
        n = prob.op.dims.dim_f
        J = custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0)))
        op, counts = counting_free_op(prob.op.matrix)
        calls = self.count_calls(monkeypatch, "eigh", "qr")
        lag = Lagrangian(op, prob.g, J, prob.tau**2)
        res = maximize_dual(lag)
        evals, k = len(res.iterations), lag.engine().basis.k
        assert calls == {"eigh": 0, "qr": 1}
        assert (evals, k) == (7, 17)
        assert counts == {"fwd": 1 + k + 1 + evals, "adj": 3 + k + evals}
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
        counts = self.count_calls(monkeypatch, "eigh", "qr")
        # the grid is solved in blocks, not through eval_dual point by point
        points = []
        per_point = morozov.dual.eval_dual
        monkeypatch.setattr(morozov.dual, "eval_dual", lambda *a, **k: points.append(a) or per_point(*a, **k))
        grid = np.geomspace(1e-2, 1e8, 200)
        # a built-in penalty sweeps in its Golub-Kahan basis, with no
        # factorization
        evals = sweep_dual(lagrangian_of(prob), grid)
        assert counts == {"eigh": 0, "qr": 0}
        # a custom one factors L once
        twin = sweep_dual(custom_twin(lagrangian_of(prob)), grid)
        assert counts == {"eigh": 0, "qr": 1}
        assert points == []
        assert all(e.error is None for e in evals + twin)

    @pytest.mark.parametrize("penalty", [identity_regularizer, first_difference_regularizer])
    def test_sweep_block_factors_once(self, monkeypatch, penalty):
        # the block's largest multiplier grows the basis, and one dpttrf
        # factors every other multiplier's tridiagonal on its columns, where
        # each multiplier used to factor its own: 199 calls on this grid.
        # Each point's k and D'' are bitwise its own search's
        import scipy.linalg.lapack

        n = 128
        prob = synthesize(make_deconvolution(n, 2.0), _bump_profile(n, np.random.default_rng(n)), 0.02, seed=n)
        lag = Lagrangian(prob.op, prob.g, penalty(n), (1.02 * prob.tau) ** 2)
        calls = []
        dpttrf = scipy.linalg.lapack.dpttrf
        monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", lambda *a, **k: calls.append(a) or dpttrf(*a, **k))
        grid = np.geomspace(1e-2, 1e8, 200)
        evals = sweep_dual(lag, grid)
        assert len(calls) <= 2
        for e, lam in zip(evals, grid):
            ref = eval_dual(lag, lam)
            assert e.error is None
            assert e.solution.solver_stats["iterations"] == ref.solution.solver_stats["iterations"]
            assert e.d_second == ref.d_second
            assert e.d_prime == pytest.approx(ref.d_prime, rel=1e-12, abs=0)

    def test_matrix_free_custom_sweep_applications(self, monkeypatch):
        # A is never materialized: the build's A W, and A^T q, A^T g and the
        # basis's first column, one forward and one adjoint per step of the
        # basis, and each point's residual, one forward and one adjoint, in
        # blocks as one at a time
        import morozov.dual

        n, m = 64, 50
        A = make_deconvolution(n, 2.0)
        prob = synthesize(A, _bump_profile(n, np.random.default_rng(3)), 0.02, seed=3)
        op, counts = counting_free_op(A.matrix)
        J = custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0)))
        # a custom penalty keeps the blocks with a matrix-free A too
        points = []
        per_point = morozov.dual.eval_dual
        monkeypatch.setattr(morozov.dual, "eval_dual", lambda *a, **k: points.append(a) or per_point(*a, **k))
        lag = Lagrangian(op, prob.g, J, prob.tau**2)
        evals = sweep_dual(lag, np.geomspace(1e-2, 1e8, m))
        k = lag.engine().basis.k
        assert points == []
        assert all(e.error is None for e in evals)
        assert k == 51
        assert counts == {"fwd": 1 + k + m, "adj": 3 + k + m}
        assert counts == {"fwd": 102, "adj": 104}

    @pytest.mark.parametrize("penalty", ["custom", "first_difference"])
    def test_failed_build_is_kept(self, rng, monkeypatch, penalty):
        # the shared-kernel pair of test_regime_error_precedes_assumption_violation:
        # A = first differences annihilates the constants, which either
        # penalty leaves unpenalized, so the engine's build raises. It runs
        # once between repeated evaluations, solves and selections, and
        # every call raises a fresh error with the same message
        n = 6
        A = linops.from_matrix(first_difference_regularizer(n).seminorm_operator.materialize())
        J = custom_regularizer(A) if penalty == "custom" else first_difference_regularizer(n)
        g = rng.standard_normal(n - 1)
        # ||g|| = 2 puts tau = 1 inside the identity twin's window
        lag = Lagrangian(A, 2.0 * g / np.linalg.norm(g), J, epsilon=1.0)
        builds = []
        build = StandardForm.build.__func__
        monkeypatch.setattr(StandardForm, "build", classmethod(
            lambda cls, *a: builds.append(a[-1].kind) or build(cls, *a)
        ))
        errors = []
        for _ in range(3):
            for call in (
                lambda: eval_dual(lag, 1.0),
                lambda: solve_lagrange(lag, 2.0),
                lambda: maximize_dual(lag),
            ):
                with pytest.raises(AssumptionViolation, match="unique") as err:
                    call()
                errors.append(err.value)
        assert len({str(e) for e in errors}) == 1
        assert len({id(e) for e in errors}) == len(errors)
        # the engine's one build, and the form (A, g) of the regime verdict
        assert builds == [penalty, "identity"]


class TestSweepDual:
    def test_rejects_nan_grid(self):
        # a NaN point is refused, not swept as a NaN evaluation with no
        # error, nor left to the Krylov solve's loop, which it never ends
        prob = regime_fixture("interior", seed=1)
        # dense blocks, and matrix-free solves point by point
        for lag in (lagrangian_of(prob), TestWorkCounts.counting_free_lagrangian(prob)[0]):
            with pytest.raises(ValueError, match="positive"):
                sweep_dual(lag, [1.0, math.nan])

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

    @pytest.mark.parametrize(
        "lambdas, d_values",
        [
            ([1.0, 2.0, 3.0], [0.0, 1.0]), ([1.0, 2.0], [0.0, 1.0]), ([[1.0, 2.0, 3.0]], [[0.0, 1.0, 0.0]]),
            ([1.0, 2.0, 1.0], [0.0, 1.0, 0.0]), ([1.0, 2.0, 2.0], [0.0, 1.0, 0.0]),
            ([1.0, math.nan, 3.0], [0.0, 1.0, 0.0]), ([1.0, 2.0, math.inf], [0.0, 1.0, 0.0]),
        ],
        ids=["mismatched", "two-points", "2d", "descending", "repeated", "nan-lambda", "inf-lambda"],
    )
    def test_concavity_defects_refuses_unmatched_or_short_arrays(self, lambdas, d_values):
        with pytest.raises(ValueError, match="need matching 1-d arrays with at least 3 points"):
            concavity_defects(lambdas, d_values)

    def test_concavity_defects_keep_failed_points(self):
        # a failed sweep point's NaN D gives NaN defects beside it, and the
        # others are still read
        defects = concavity_defects([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, 1.5, math.nan, 1.0])
        assert defects[0] == pytest.approx(-0.25) and np.isnan(defects[1:]).all()

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
    def test_blocks_match_pointwise_spectral_solves(self, case, monkeypatch):
        lag = self.blocked_cases()[case]
        engine = lag.engine()
        blocks = []
        columns = type(engine)._columns
        monkeypatch.setattr(type(engine), "_columns", lambda *a: blocks.append(len(a[3])) or columns(*a))
        # rounds of 24 rows on dim_f = 24: 70 points make three rounds, the
        # last one short
        monkeypatch.setattr(lagrange, "_BLOCK_FLOATS", 24 * 24)
        grid = np.geomspace(1e-4, 1e8, 70)
        evals = sweep_dual(lag, grid)
        assert blocks == [24, 24, 22]
        twin = custom_twin(lag)
        scale = float(lag.data @ lag.data)
        for e, lam in zip(evals, grid):
            # numpy's dense solve resolves D and D' to these tolerances, and
            # D'' to 5e-10 only; the custom twin, whose L^+ comes from a
            # pivoted QR factorization, to all three
            f = numpy_inner_solve(lag, lam)
            d_prime = linops.residual_norm_sq(lag.op, f, lag.data) - lag.epsilon
            d_value = lag.regularizer.evaluate(f) + lam * d_prime
            assert e.d_value == pytest.approx(d_value, rel=1e-10, abs=1e-12 * scale)
            assert e.d_prime == pytest.approx(d_prime, rel=1e-10, abs=1e-12 * scale)
            ref = eval_dual(twin, lam)
            assert e.error is None and e.lam == ref.lam
            assert e.d_value == pytest.approx(ref.d_value, rel=1e-10, abs=1e-12 * scale)
            assert e.d_prime == pytest.approx(ref.d_prime, rel=1e-10, abs=1e-12 * scale)
            assert e.d_second == pytest.approx(ref.d_second, rel=1e-10)
            sol = e.solution
            assert sol.optimality_residual <= 1e-10 * (1.0 + 2.0 * lam * math.sqrt(scale))
            # the block's answer is its engine's own, one multiplier at a
            # time, up to the rounding of the block products. numpy's f
            # differs from the basis's by up to 2e-9 above lam = 1e6: that
            # is the system's conditioning, not either solver
            own = eval_dual(lag, lam).solution
            assert sol.discrepancy_sq == pytest.approx(own.discrepancy_sq, rel=1e-12)
            assert sol.j_value == pytest.approx(own.j_value, rel=1e-12)
            # each point keeps its own k and explicit residual check
            assert sol.solver_stats["iterations"] == own.solver_stats["iterations"]
            target = max(lagrange.KRYLOV_TOL, lagrange._rounding_level(engine, sol.f_lambda, lam))
            assert sol.solver_stats["relative_residual"] <= target
            np.testing.assert_allclose(
                sol.f_lambda, own.f_lambda, rtol=1e-12,
                atol=1e-12 * np.abs(own.f_lambda).max(),
            )
        # every f_lambda is its own array, not a view of the block
        fs = [e.solution.f_lambda for e in evals]
        assert all(f.base is None for f in fs)

    @pytest.mark.parametrize("penalty", [identity_regularizer, first_difference_regularizer])
    def test_dense_sweep_matches_its_twin(self, penalty):
        # a benchmark-sized sweep: 200 points at n = 512 in one block of the
        # basis, against the same map stored as a custom penalty
        n = 512
        prob = synthesize(make_deconvolution(n, 2.0), _bump_profile(n, np.random.default_rng(n)), 0.02, seed=n)
        lag = Lagrangian(prob.op, prob.g, penalty(n), (1.02 * prob.tau) ** 2)
        grid = np.logspace(-2, 8, 200)
        evals = sweep_dual(lag, grid)
        scale = float(prob.g @ prob.g)
        for e, ref, lam in zip(evals, sweep_dual(custom_twin(lag), grid), grid):
            assert e.error is None and ref.error is None
            assert e.d_value == pytest.approx(ref.d_value, rel=1e-10, abs=1e-10 * scale)
            assert e.d_prime == pytest.approx(ref.d_prime, rel=1e-10, abs=1e-10 * scale)
            assert e.d_second == pytest.approx(ref.d_second, rel=1e-8)
            target = max(lagrange.KRYLOV_TOL, lagrange._rounding_level(lag.engine(), e.solution.f_lambda, lam))
            assert e.solution.solver_stats["relative_residual"] <= target

    def test_blocks_keep_lambda_max_failures(self):
        lag = self.blocked_cases()["first_difference"]
        # 60 points up to 1e14: the last seven exceed LAMBDA_MAX, and the
        # solve, one round at n = 24, stops short of them
        grid = np.geomspace(1e-4, 1e14, 60)
        evals = sweep_dual(lag, grid)
        over = grid > LAMBDA_MAX
        assert over.sum() == 7 and not over[:48].any()
        twin = custom_twin(lag)
        scale = float(lag.data @ lag.data)
        for e, lam in zip(evals, grid):
            if lam <= LAMBDA_MAX:
                assert e.error is None
                ref = eval_dual(twin, lam)
                assert e.d_prime == pytest.approx(ref.d_prime, rel=1e-10, abs=1e-12 * scale)
                continue
            with pytest.raises(ValueError) as err:
                eval_dual(twin, lam)
            assert e.error == str(err.value) and "exceeds LAMBDA_MAX" in e.error
            assert np.isnan(e.d_value) and np.isnan(e.d_prime) and np.isnan(e.d_second)

    def test_singular_pencil_fails_every_point(self, rng, monkeypatch):
        # the shared-kernel pair of test_assumption_gate_refuses_shared_kernel
        n = 6
        A = linops.from_matrix(first_difference_regularizer(n).seminorm_operator.materialize())
        g = rng.standard_normal(n - 1)
        lag = Lagrangian(A, g, custom_regularizer(A), epsilon=1.0)
        grid = np.geomspace(1e-2, 1e14, 20)
        # blocks of two points, yet one attempt to build the engine
        monkeypatch.setattr(lagrange, "_BLOCK_FLOATS", 2 * n)
        builds = []
        build = StandardForm.build.__func__
        monkeypatch.setattr(StandardForm, "build", classmethod(lambda cls, *a: builds.append(a) or build(cls, *a)))
        evals = sweep_dual(lag, grid)
        assert len(builds) == 1
        with pytest.raises(AssumptionViolation) as singular:
            eval_dual(lag, 1.0)
        for e, lam in zip(evals, grid):
            with pytest.raises(ValueError) as err:
                eval_dual(lag, lam)
            assert e.error == str(err.value)
            if lam <= LAMBDA_MAX:
                assert e.error == str(singular.value)
            else:
                assert "exceeds LAMBDA_MAX" in e.error
            assert e.solution is None and np.isnan(e.d_prime)

    def test_rounds_bound_the_retries(self, monkeypatch):
        # rounds of at most 5 points on dim_f = 24: a point whose first
        # candidate fails its explicit check goes on from the next column in
        # a later round, which the same bound holds
        lag = self.blocked_cases()["identity"]
        grid = np.geomspace(1e-2, 1e6, 17)
        bad = set(grid[[1, 6, 8]])
        monkeypatch.setattr(lagrange, "_BLOCK_FLOATS", 5 * 24)
        rounds, blocks, rejected = [], [], set()
        columns = StandardForm._columns
        monkeypatch.setattr(StandardForm, "_columns", lambda *a: rounds.append(len(a[3])) or columns(*a))
        factor_block = lagrange.GolubKahan.factor_block
        monkeypatch.setattr(lagrange.GolubKahan, "factor_block", lambda basis, lams: blocks.append(len(lams)) or factor_block(basis, lams))
        solution = lagrange._solution

        def rejecting(lag, lam, f, slope, stats):
            # the first candidate at each bad multiplier fails its explicit check
            sol = solution(lag, lam, f, slope, stats)
            if lam in bad and lam not in rejected:
                rejected.add(lam)
                return dataclasses.replace(sol, optimality_residual=math.inf)
            return sol

        monkeypatch.setattr(lagrange, "_solution", rejecting)
        evals = sweep_dual(lag, grid)
        assert rejected == bad
        # every point searched once, and each bad one once more
        assert max(rounds) <= 5 and sum(rounds) == len(grid) + len(bad)
        assert max(blocks) <= 4
        twin = self.blocked_cases()["identity"]
        scale = float(lag.data @ lag.data)
        for e, lam in zip(evals, grid):
            rejected.clear()
            ref = eval_dual(twin, lam)
            assert e.error is None
            assert e.solution.solver_stats["iterations"] == ref.solution.solver_stats["iterations"]
            assert e.d_prime == pytest.approx(ref.d_prime, rel=0, abs=1e-10 * scale)
            assert e.d_second == pytest.approx(ref.d_second, rel=1e-10)

    def test_grid_above_lambda_max_builds_no_engine(self, monkeypatch):
        lag = self.blocked_cases()["first_difference"]
        builds = []
        build = StandardForm.build.__func__
        monkeypatch.setattr(StandardForm, "build", classmethod(lambda cls, *a: builds.append(a) or build(cls, *a)))
        evals = sweep_dual(lag, [2e12, 5e12])
        assert builds == []
        assert all("exceeds LAMBDA_MAX" in e.error for e in evals)

    def test_points_past_the_block_factors_search_alone(self, monkeypatch):
        # block factors cut to the basis's first 12 columns: a point whose
        # column or lookahead lies past them extends its kept row column by
        # column, without factoring again, and every point's answer is
        # bitwise the same as from the whole block
        import scipy.linalg.lapack

        lag = self.blocked_cases()["first_difference"]
        grid = np.geomspace(1e-2, 1e8, 40)
        ref = sweep_dual(lag, grid)
        factor_block = lagrange.GolubKahan.factor_block
        monkeypatch.setattr(lagrange.GolubKahan, "factor_block", lambda basis, lams: factor_block(basis, lams)[:, :, :12])
        calls = []
        dpttrf = scipy.linalg.lapack.dpttrf
        monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", lambda *a, **k: calls.append(a) or dpttrf(*a, **k))
        twin = self.blocked_cases()["first_difference"]
        evals = sweep_dual(twin, grid)
        ks = [e.solution.solver_stats["iterations"] for e in evals]
        # some points search within the cut factors, the others past them
        assert min(ks) <= 12 < max(ks)
        assert len(calls) <= 2
        assert twin.engine().basis.k == lag.engine().basis.k
        for e, r in zip(evals, ref):
            assert e.solution.solver_stats == r.solution.solver_stats
            assert (e.d_value, e.d_prime, e.d_second) == (r.d_value, r.d_prime, r.d_second)

    @pytest.mark.parametrize("penalty", [identity_regularizer, first_difference_regularizer])
    def test_block_factors_freed_when_the_solve_returns(self, monkeypatch, penalty):
        # the basis keeps the block's last row past the solve as a copy: a
        # view of it held the whole 4-by-m-by-k block alive, 2.2 MB for 200
        # points at n = 512, through the expansion F = Z V_k and after
        import weakref

        n = 128
        prob = synthesize(make_deconvolution(n, 2.0), _bump_profile(n, np.random.default_rng(n)), 0.02, seed=n)
        lag = Lagrangian(prob.op, prob.g, penalty(n), (1.02 * prob.tau) ** 2)
        blocks = []
        factor_block = lagrange.GolubKahan.factor_block

        def spy(basis, lams):
            out = factor_block(basis, lams)
            if len(lams) > 1:
                blocks.append(weakref.ref(out))
            return out

        monkeypatch.setattr(lagrange.GolubKahan, "factor_block", spy)
        grid = np.geomspace(1e-2, 1e8, 40)
        sols = lag.engine().solve(lag, grid)
        assert len(blocks) == 1 and blocks[0]() is None
        # the kept factors still serve the last row's multiplier
        assert solve_lagrange(lag, grid[-2]).solver_stats["iterations"] == sols[-2].solver_stats["iterations"]

    def test_failed_point_in_a_krylov_block_fails_alone(self, monkeypatch):
        # the explicit check fails every candidate at one multiplier, so its
        # search exhausts the basis and raises ConvergenceFailure: that
        # point records it, and the block is solved again point by point
        lag = self.blocked_cases()["identity"]
        grid = np.geomspace(1e-2, 1e4, 12)
        bad = grid[5]
        blocks = []
        solve = StandardForm.solve
        monkeypatch.setattr(StandardForm, "solve", lambda *a: blocks.append(len(a[2])) or solve(*a))
        solution = lagrange._solution

        def failing(lag, lam, f, slope, stats):
            sol = solution(lag, lam, f, slope, stats)
            return dataclasses.replace(sol, optimality_residual=math.inf) if lam == bad else sol

        monkeypatch.setattr(lagrange, "_solution", failing)
        evals = sweep_dual(lag, grid)
        assert blocks == [12] + [1] * 12
        with pytest.raises(ConvergenceFailure) as err:
            eval_dual(lag, bad)
        assert "exhausted" in str(err.value)
        for e, lam in zip(evals, grid):
            if lam == bad:
                assert e.error == str(err.value) and e.solution is None and np.isnan(e.d_prime)
                continue
            ref = eval_dual(lag, lam)
            assert e.error is None
            assert (e.d_value, e.d_prime, e.d_second) == (ref.d_value, ref.d_prime, ref.d_second)
            assert e.solution.f_lambda.tobytes() == ref.solution.f_lambda.tobytes()

    def test_grid_validation(self):
        lag = scalar_lagrangian()
        with pytest.raises(ValueError):
            sweep_dual(lag, [])
        with pytest.raises(ValueError):
            sweep_dual(lag, [0.0, 1.0])
        with pytest.raises(ValueError):
            sweep_dual(lag, [2.0, 1.0])
        # inf - inf is NaN, which an ascending test written as "no step
        # <= 0" lets through
        for grid in ([1.0, math.inf], [1.0, math.inf, math.inf]):
            with pytest.raises(ValueError):
                sweep_dual(lag, grid)
        # a cast to float64 would drop the imaginary part
        with pytest.raises(ValueError, match="lambdas must be real"):
            sweep_dual(lag, [1.0, 2.0 + 1j])

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
        res_free = maximize_dual(free_lag, rtol=1e-8)
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


def _kernel_constant_result(lam):
    """The window case at tau = 28.40 with a hand-made answer: the constant
    f = t 1, in ker L, with ||A f - g|| = tau. It minimizes the Lagrangian
    at no lam > 0: as lam drops to 0 the minimizer's residual tends to
    ||gbar|| = 0.81, not to tau."""
    op, g, gbar_norm = TestFirstDifferenceWindow.problem(False)
    tau = 0.5 * (gbar_norm + np.linalg.norm(g))
    a1 = op.matrix.sum(axis=1)
    b, c = a1 @ g, g @ g - tau**2
    f = np.full(g.shape[0], (b + math.sqrt(b * b - (a1 @ a1) * c)) / (a1 @ a1))
    res = SelectionResult(lam, 1.0 / lam, f, tau, [], "newton", True)
    return res, TestFirstDifferenceWindow.lagrangian(op, g, tau)


def _grid_selection(width, noise, penalty, matrix_free):
    n = 128
    A = make_deconvolution(n, width)
    prob = synthesize(A, _bump_profile(n, np.random.default_rng(1)), noise, seed=1)
    J = {
        "identity": identity_regularizer(n),
        "first_difference": first_difference_regularizer(n),
        "custom": custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0))),
    }[penalty]
    op = counting_free_op(A.matrix)[0] if matrix_free else A
    return Lagrangian(op, prob.g, J, (1.02 * prob.tau) ** 2)


def _window_selection(matrix_free):
    # lambda_star = 7.72e-7, where the full system's relative residual
    # stops at its rounding level
    op, g, gbar_norm = TestFirstDifferenceWindow.problem(matrix_free)
    return TestFirstDifferenceWindow.lagrangian(op, g, 0.999 * gbar_norm)


_VERIFY_CASES = [
    pytest.param(
        functools.partial(_grid_selection, width, noise, penalty, matrix_free),
        id=f"w{width}-noise{noise:g}-{penalty}-{'free' if matrix_free else 'dense'}",
    )
    for width in (1.2, 2.0, 4.0)
    for noise in (0.02, 1e-4, 1e-7)
    for penalty in ("identity", "first_difference", "custom")
    for matrix_free in (False, True)
] + [
    pytest.param(functools.partial(_window_selection, matrix_free), id=f"window-{'free' if matrix_free else 'dense'}")
    for matrix_free in (False, True)
]


class TestVerifyMorozov:
    def test_closed_form_instance_passes(self):
        # the Lagrangian is a convex quadratic in f for lam >= 0, so
        # stationarity is minimality: the report has these two checks only
        lag = scalar_lagrangian()
        res = maximize_dual(lag)
        report = verify_morozov_solution(res, lag)
        assert report.passed
        assert [c["name"] for c in report.checks] == ["discrepancy", "optimality"]
        assert report.checks[1]["threshold"] == 1e-8

    @pytest.mark.parametrize("make_lag", _VERIFY_CASES)
    def test_every_selection_verifies(self, make_lag):
        # the backward error of a selected f sits at its rounding level,
        # 3e-12 at worst on this grid and 9e-11 on the window, far below rtol
        lag = make_lag()
        report = verify_morozov_solution(maximize_dual(lag), lag)
        assert report.passed, report.checks
        assert report.checks[1]["value"] < 1e-9

    @pytest.mark.parametrize("lam", [2.3e-29, 1e-16, 1e-12])
    def test_kernel_constant_fails_optimality(self, lam):
        # f meets the discrepancy and grad J(f) = 0, but lam A^T (A f - g)
        # is not 0: the backward error reads order 1 at every lam
        res, lag = _kernel_constant_result(lam)
        report = verify_morozov_solution(res, lag)
        assert report.failed_items() == ["optimality"]
        assert report.checks[1]["value"] > 0.1

    def test_exact_zero_system_reads_zero(self):
        # g = 0 and f = 0: every term of the inner system is exactly 0, so f
        # solves it; the discrepancy, 0 against epsilon = 1, is what fails
        lag = Lagrangian(linops.identity(1), np.array([0.0]), identity_regularizer(1), 1.0)
        res = SelectionResult(1.0, 1.0, np.array([0.0]), 0.0, [], "newton", True)
        report = verify_morozov_solution(res, lag)
        assert report.failed_items() == ["discrepancy"]
        assert report.checks[1]["value"] == 0.0

    # at lam = 0 the kernel constant above would pass, and NaN and infinity
    # are invalid input, not failed checks; LAMBDA_MAX itself is the
    # search's last multiplier
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf, 2 * LAMBDA_MAX])
    def test_rejects_lambda_star_out_of_range(self, lam):
        res, lag = _kernel_constant_result(1e-12)
        with pytest.raises(ValueError, match=r"lambda_star must lie in \(0, 1e\+12\]"):
            verify_morozov_solution(dataclasses.replace(res, lambda_star=lam), lag)
        assert verify_morozov_solution(dataclasses.replace(res, lambda_star=LAMBDA_MAX), lag).checks

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

    def test_dense_operator_is_checked_on_its_stored_matrix(self, monkeypatch):
        # a band cut through significant weights changes the operator that
        # the selection runs on; the verifier's products read every stored
        # weight and refuse its answer
        n = 512
        prob = synthesize(make_deconvolution(n, 2.0), _bump_profile(n, np.random.default_rng(n)), 0.02, seed=n)
        monkeypatch.setattr(linops, "_bandwidths", lambda mat: (2, 2, True))
        lag = Lagrangian(linops.from_matrix(prob.op.matrix), prob.g, identity_regularizer(n), (1.02 * prob.tau) ** 2)
        res = maximize_dual(lag)
        assert res.converged
        report = verify_morozov_solution(res, lag)
        assert not report.passed
        assert "discrepancy" in report.failed_items()

    def test_complex_f_star_refused(self):
        # a cast would verify the real part alone, and pass
        lag = scalar_lagrangian()
        res = maximize_dual(lag)
        assert verify_morozov_solution(res, lag).passed
        with pytest.raises(ValueError, match="^f_star must be real"):
            verify_morozov_solution(dataclasses.replace(res, f_star=res.f_star + 5j), lag)

    def test_requires_converged(self):
        lag = scalar_lagrangian()
        res = maximize_dual(lag)
        with pytest.raises(ValueError):
            verify_morozov_solution(dataclasses.replace(res, converged=False), lag)

    # an infinite tolerance would pass any result, and NaN fails every
    # comparison, so every check would fail
    @pytest.mark.parametrize("rtol", [math.nan, -1.0, 0.0, math.inf])
    def test_rejects_bad_rtol(self, rtol):
        lag = scalar_lagrangian()
        res = maximize_dual(lag)
        with pytest.raises(ValueError, match="rtol must be positive and finite"):
            verify_morozov_solution(res, lag, rtol=rtol)
