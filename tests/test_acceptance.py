"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; all
tolerances are fixed here, not configurable.
"""

import numpy as np
import pytest

from morozov import linops
from morozov.cli import main as cli_main
from morozov.dual import (
    concavity_defects,
    eval_dual,
    maximize_dual,
    sweep_dual,
)
from morozov.errors import AssumptionViolation
from morozov.lagrange import Lagrangian, solve_lagrange
from morozov.linops import residual_norm_sq
from morozov.problems import (
    make_deconvolution,
    make_hilbert,
    regime_fixture,
    save_problem,
    synthesize,
)
from morozov.regularizers import (
    first_difference_regularizer,
    identity_regularizer,
)

from conftest import assert_adjoint_consistent, make_interior_problem, shares_kernel


def _report(num, description, passed, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'}  {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def _lagrangian(prob):
    return Lagrangian(prob.op, prob.g, prob.regularizer, prob.tau**2)


@pytest.fixture(scope="module")
def battery():
    """20 random interior-regime fixtures (dense, n <= 64) and their
    converged selections, shared across criteria 1, 2, 3 and 8."""
    fixtures = []
    for i in range(20):
        kind = "hilbert" if i % 5 == 4 else "deconvolution"
        prob = make_interior_problem(seed=1000 + i, kind=kind)
        lag = _lagrangian(prob)
        res = maximize_dual(lag, rtol=1e-8)
        fixtures.append((prob, lag, res))
    return fixtures


def test_criterion_01_discrepancy_equation(battery):
    worst = 0.0
    for prob, lag, res in battery:
        assert res.converged
        disc_sq = residual_norm_sq(prob.op, res.f_star, prob.g)
        worst = max(worst, abs(disc_sq - lag.epsilon) / lag.epsilon)
    _report(
        1,
        "discrepancy equation holds on 20 interior fixtures at rtol 1e-8",
        worst <= 1e-8,
        f"worst relative violation {worst:.3e}",
    )


def test_criterion_02_derivative_formula(battery):
    # even point count keeps the root off the geometrically centered
    # grid, so D' is resolvable in relative terms at every point
    worst = 0.0
    for prob, lag, res in battery:
        grid = np.geomspace(res.lambda_star / 1e3, res.lambda_star * 1e3, 50)
        for lam in grid:
            h = 1e-6 * lam
            fd = (
                eval_dual(lag, lam + h).d_value - eval_dual(lag, lam - h).d_value
            ) / (2 * h)
            dp = eval_dual(lag, lam).d_prime
            worst = max(worst, abs(fd - dp) / abs(dp))
    _report(
        2,
        "central differences of D match D' on 50-point grids at rtol 1e-5",
        worst <= 1e-5,
        f"worst relative error {worst:.3e}",
    )


def test_criterion_03_concavity(battery):
    worst = -np.inf
    for prob, lag, res in battery:
        grid = np.geomspace(res.lambda_star / 1e4, res.lambda_star * 1e4, 40)
        ds = np.array([e.d_value for e in sweep_dual(lag, grid)])
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ds))))
        worst = max(worst, float(np.max(concavity_defects(grid, ds))) / tol)
    for target in ("interior", "noise_dominates", "too_optimistic"):
        prob = regime_fixture(target, seed=7)
        lag = _lagrangian(prob)
        grid = np.geomspace(1e-5, 1e7, 40)
        ds = np.array([e.d_value for e in sweep_dual(lag, grid)])
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ds))))
        worst = max(worst, float(np.max(concavity_defects(grid, ds))) / tol)
    _report(
        3,
        "sampled D is concave (chord defects within 1e-9 max(1,|D|)) on every sweep",
        worst <= 1.0,
        f"worst defect at {worst:.3e} of tolerance",
    )


def test_criterion_04_scalar_closed_form():
    lag = Lagrangian(
        linops.identity(1), np.array([2.0]), identity_regularizer(1), 1.0
    )
    res = maximize_dual(lag, rtol=1e-8)
    ok = (
        abs(res.lambda_star - 1.0) <= 1e-8
        and abs(res.alpha - 1.0) <= 1e-8
        and abs(res.f_star[0] - 1.0) <= 1e-8
    )
    _report(
        4,
        "scalar problem (a=1, g=2, eps=1) selects lambda=1, alpha=1, f=1",
        ok,
        f"lambda={res.lambda_star:.12f}",
    )


def test_criterion_05_brute_force_grid_equivalence():
    grid = np.geomspace(1e-6, 1e9, 10_000)
    ok = True
    details = []
    for seed in range(5):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(10, 17))
        A = make_deconvolution(n, kernel_width=rng.uniform(0.8, 1.8))
        prob = synthesize(
            A,
            np.abs(rng.standard_normal(n)) + 0.3,
            noise_level=rng.uniform(0.03, 0.12),
            seed=seed,
        )
        lag = _lagrangian(prob)
        res = maximize_dual(lag, rtol=1e-8)
        values = np.array([eval_dual(lag, lam).d_value for lam in grid])
        k = int(np.argmax(values))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        inside = lo <= res.lambda_star <= hi
        ok = ok and inside
        details.append(f"seed {seed}: lam={res.lambda_star:.4g} in [{lo:.4g},{hi:.4g}]")
    _report(
        5,
        "maximizer within one cell of the 1e4-point brute-force grid argmax, 5 fixtures",
        ok,
        "; ".join(details[:2]) + " ...",
    )


def test_criterion_06_tikhonov_equivalence():
    worst = 0.0
    rng_master = np.random.default_rng(4000)
    for trial in range(20):
        rng = np.random.default_rng(4100 + trial)
        m, n = int(rng.integers(6, 14)), int(rng.integers(4, 12))
        A = linops.from_matrix(rng.standard_normal((m, n)))
        g = rng.standard_normal(m)
        if trial % 2 == 0:
            J = identity_regularizer(n)
            Lmat = np.eye(n)
        else:
            J = first_difference_regularizer(n)
            Lmat = J.seminorm_operator.materialize()
        lam = float(rng_master.uniform(0.05, 50.0))
        lag = Lagrangian(A, g, J, epsilon=0.1)
        sol = solve_lagrange(lag, lam)
        alpha = 1.0 / lam
        expected = np.linalg.solve(
            A.matrix.T @ A.matrix + alpha * (Lmat.T @ Lmat), A.matrix.T @ g
        )
        rel = np.linalg.norm(sol.f_lambda - expected) / np.linalg.norm(expected)
        worst = max(worst, rel)
    _report(
        6,
        "solve at lambda equals independent Tikhonov solve at alpha=1/lambda, 20 pairs",
        worst <= 1e-8,
        f"worst relative difference {worst:.3e}",
    )


def test_criterion_07_figure_regimes(tmp_path):
    shapes_ok = True
    grid = np.geomspace(1e-4, 1e7, 40)

    prob = regime_fixture("interior", seed=5)
    dps = [e.d_prime for e in sweep_dual(_lagrangian(prob), grid)]
    shapes_ok &= dps[0] > 0 and dps[-1] < 0
    sign_changes = sum(a > 0 >= b for a, b in zip(dps, dps[1:]))
    shapes_ok &= sign_changes == 1

    prob = regime_fixture("noise_dominates", seed=5)
    dps = [e.d_prime for e in sweep_dual(_lagrangian(prob), grid)]
    shapes_ok &= all(dp < 0 for dp in dps)

    prob = regime_fixture("too_optimistic", seed=5)
    dps = [e.d_prime for e in sweep_dual(_lagrangian(prob), grid)]
    shapes_ok &= all(dp > 0 for dp in dps)

    exits_ok = True
    for target in ("noise_dominates", "too_optimistic"):
        d = tmp_path / target
        save_problem(regime_fixture(target, seed=5), d)
        rc = cli_main(
            ["solve", "--problem", str(d), "--out", str(tmp_path / "r.json")]
        )
        exits_ok &= rc == 2

    _report(
        7,
        "figure regimes: interior sign change, dotted D'<0, dashed D'>0, solve exits 2",
        shapes_ok and exits_ok,
    )


def test_criterion_08_primal_uniqueness(battery):
    rtol = 1e-8
    worst = 0.0
    for prob, lag, res in battery[:5]:
        lam = res.lambda_star
        h = 1e-6 * lam
        slope = (
            eval_dual(lag, lam + h).d_prime - eval_dual(lag, lam - h).d_prime
        ) / (2 * h)
        # stay inside |D'| <= rtol*eps: spend half the budget left after
        # the converged point's own |D'|
        budget = rtol * lag.epsilon - abs(eval_dual(lag, lam).d_prime)
        band = 0.5 * budget / abs(slope)
        for shifted in (lam + band, lam - band):
            e = eval_dual(lag, shifted)
            assert abs(e.d_prime) <= rtol * lag.epsilon
            rel = np.linalg.norm(e.solution.f_lambda - res.f_star) / (
                1.0 + np.linalg.norm(res.f_star)
            )
            worst = max(worst, rel)
    _report(
        8,
        "re-solving within the convergence band moves f_star by <= 1e-6 relative",
        worst <= 1e-6,
        f"worst relative change {worst:.3e}",
    )


def test_criterion_09_adjoint_and_assumption_gates():
    rng = np.random.default_rng(5000)
    shipped = [
        linops.identity(9),
        make_deconvolution(32, kernel_width=1.5),
        make_deconvolution(8, kernel_width=1e-9),
        make_hilbert(9),
        first_difference_regularizer(12).seminorm_operator,
        regime_fixture("too_optimistic", seed=1).op,
    ]
    mat = rng.standard_normal((10, 7))
    shipped.append(linops.from_callables(7, 10, lambda f: mat @ f, lambda y: mat.T @ y))
    for op in shipped:
        assert_adjoint_consistent(op, n_probes=100, rtol=1e-10)

    n = 8
    A = linops.from_matrix(first_difference_regularizer(n).seminorm_operator.materialize())
    flags_ok = shares_kernel(A, first_difference_regularizer(n).seminorm_operator)
    g = rng.standard_normal(n - 1)
    # ||g|| = 2 puts tau = 1 inside the identity twin's window, so the
    # regime gate passes and the strict-convexity check refuses
    lag = Lagrangian(A, 2.0 * g / np.linalg.norm(g), first_difference_regularizer(n), epsilon=1.0)
    refused = False
    try:
        maximize_dual(lag)
    except AssumptionViolation:
        refused = True
    _report(
        9,
        "adjoint gate on every shipped operator; shared-kernel pair flagged and refused",
        flags_ok and refused,
    )


def test_criterion_10_gradient_ascent_fidelity():
    lag = Lagrangian(
        linops.identity(1), np.array([2.0]), identity_regularizer(1), 1.0
    )
    res = maximize_dual(
        lag,
        method="gradient_ascent",
        rtol=1e-3,
        max_iter=10_000,
    )
    err = abs(res.lambda_star - 1.0)
    _report(
        10,
        "gradient ascent with rho_n = c/n reaches lambda=1 within 1e-3 in <= 1e4 iterations",
        res.converged and err <= 1e-3 and len(res.iterations) <= 10_001,
        f"|lambda-1| = {err:.2e} after {len(res.iterations) - 1} iterations",
    )
