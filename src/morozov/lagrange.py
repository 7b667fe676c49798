"""The penalized inner problem and its exact quadratic solver.

For a multiplier lam > 0 the inner problem minimizes

    J(f) + lam * (||A f - g||^2 - epsilon),

which for a quadratic penalty J(f) = ||L f||^2 reduces to the symmetric
positive definite system

    (L^T L + lam A^T A) f = lam A^T g.

The system is kept in this scaling (rather than dividing through by lam)
so it stays well-posed uniformly as lam drops to zero. Solves at a given
multiplier are equivalent to Tikhonov solves at regularization weight
alpha = 1/lam. Conditioning deteriorates as lam grows, so multipliers
above ``LAMBDA_MAX`` are rejected outright.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._kernels import cg_matvec
from .errors import AssumptionViolation, ConvergenceFailure, DimensionMismatch
from .linops import LinearOperator, residual_norm_sq
from .regularizers import Regularizer

__all__ = [
    "LAMBDA_MAX",
    "Lagrangian",
    "LagrangeSolution",
    "lagrangian_value",
    "solve_lagrange",
    "validate_tolerance_setup",
]

log = logging.getLogger(__name__)

# conditioning guard: inner systems above this multiplier are rejected
LAMBDA_MAX = 1e12


@dataclass(frozen=True)
class LagrangeSolution:
    """Minimizer of the inner problem at a fixed multiplier."""

    lam: float
    f_lambda: np.ndarray
    discrepancy_sq: float
    j_value: float
    optimality_residual: float
    solver_stats: dict = field(default_factory=dict)


class Lagrangian:
    """Problem bundle (A, g, J) with the squared tolerance epsilon.

    ``epsilon`` is the square of the effective noise tolerance. Callers
    applying a Morozov safety factor c >= 1 must fold it in beforehand
    (epsilon = (c * tau)^2); this class treats epsilon as final.
    """

    def __init__(self, op: LinearOperator, data, regularizer: Regularizer, epsilon):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 1 or data.shape[0] != op.dims.dim_g:
            raise DimensionMismatch(
                f"data must have length {op.dims.dim_g}, got shape {data.shape}"
            )
        if regularizer.dim_f != op.dims.dim_f:
            raise DimensionMismatch(
                f"regularizer input dim {regularizer.dim_f} != "
                f"operator input dim {op.dims.dim_f}"
            )
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.op = op
        self.data = data
        self.regularizer = regularizer
        self.epsilon = float(epsilon)

    @property
    def tau(self):
        """The effective tolerance, sqrt(epsilon)."""
        return float(np.sqrt(self.epsilon))

    def __repr__(self):
        return (
            f"Lagrangian(op={self.op!r}, epsilon={self.epsilon:g}, "
            f"regularizer={self.regularizer.kind!r})"
        )


def lagrangian_value(lag: Lagrangian, f, lam):
    """J(f) + lam * (||A f - g||^2 - epsilon)."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    j = lag.regularizer.evaluate(f)
    return j + lam * (residual_norm_sq(lag.op, f, lag.data) - lag.epsilon)


def solve_lagrange(lag: Lagrangian, lam, solver="direct", tol=1e-10):
    """Minimize the inner problem at multiplier ``lam > 0``.

    Parameters
    ----------
    lag : Lagrangian
    lam : float
        Multiplier, in (0, LAMBDA_MAX].
    solver : {"direct", "iterative"}
        Direct assembles the system matrix and takes a Cholesky
        factorization (dense operators only). Iterative runs conjugate
        gradient to relative residual ``tol`` with an iteration cap of
        ``10 * dim_f``, and works for matrix-free operators too.
    tol : float
        Relative residual target for the iterative path.

    Returns
    -------
    LagrangeSolution

    Raises
    ------
    ValueError
        For ``lam <= 0`` or ``lam > LAMBDA_MAX``.
    AssumptionViolation
        If the system matrix is singular (the penalty is not strictly
        convex along ker A).
    ConvergenceFailure
        If CG hits the iteration cap above ``tol``.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if lam > LAMBDA_MAX:
        raise ValueError(
            f"lam={lam:g} exceeds LAMBDA_MAX={LAMBDA_MAX:g}; the inner system "
            "is too ill-conditioned to trust"
        )
    A = lag.op
    L = lag.regularizer.seminorm_operator
    g = lag.data
    rhs = lam * A.apply_adjoint(g)

    if solver == "direct":
        if not (A.is_dense and L.is_dense):
            raise ValueError("direct solver needs dense operators; use iterative")
        M = L.gram_matrix() + lam * A.gram_matrix()
        try:
            cho = scipy.linalg.cho_factor(M, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise AssumptionViolation(
                f"inner system singular at lam={lam:g}: ker(L) and ker(A) "
                "intersect nontrivially"
            ) from exc
        # rounding can let Cholesky succeed on a semidefinite matrix with a
        # sqrt(eps)-scale pivot; catch that before it yields garbage
        pivots = np.abs(np.diagonal(cho[0]))
        n = M.shape[0]
        if pivots.min() ** 2 <= n * np.finfo(np.float64).eps * pivots.max() ** 2:
            raise AssumptionViolation(
                f"inner system numerically singular at lam={lam:g} "
                f"(pivot ratio {pivots.min() / pivots.max():.2e}): ker(L) and "
                "ker(A) intersect, or the system is conditioned beyond float64"
            )
        f = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
        stats = {"method": "direct", "factorization": "cholesky"}
    elif solver == "iterative":
        def system_apply(p):
            return L.apply_adjoint(L.apply(p)) + lam * A.gram_apply(p)

        f, iters, rel, status = cg_matvec(
            system_apply, rhs, tol=tol, max_iter=10 * A.dims.dim_f
        )
        if status == 2:
            raise AssumptionViolation(
                f"CG breakdown at lam={lam:g}: inner system is not positive "
                "definite (ker(L) and ker(A) intersect)"
            )
        if status == 1:
            raise ConvergenceFailure(
                f"CG did not reach tol={tol:g} in {iters} iterations at "
                f"lam={lam:g} (relative residual {rel:.3e})",
                best=f,
            )
        stats = {
            "method": "iterative",
            "iterations": iters,
            "relative_residual": rel,
        }
    else:
        raise ValueError(f"unknown solver {solver!r}")

    disc_sq = residual_norm_sq(A, f, g)
    j_val = lag.regularizer.evaluate(f)
    opt_res = float(
        np.linalg.norm(lag.regularizer.gradient(f) + 2.0 * lam * (A.gram_apply(f) - A.apply_adjoint(g)))
    )
    log.debug(
        "solve_lagrange lam=%.6g disc_sq=%.6g j=%.6g opt_res=%.3e (%s)",
        lam, disc_sq, j_val, opt_res, stats["method"],
    )
    return LagrangeSolution(
        lam=float(lam),
        f_lambda=f,
        discrepancy_sq=disc_sq,
        j_value=j_val,
        optimality_residual=opt_res,
        solver_stats=stats,
    )


def validate_tolerance_setup(lag: Lagrangian, g=None):
    """Check ||g||^2 >= epsilon, under which the equality- and
    inequality-constrained formulations coincide.

    Returns "ok" when the condition holds (boundary included) and
    "degenerate" when the tolerance exceeds the data norm.
    """
    if g is None:
        g = lag.data
    g = np.asarray(g, dtype=np.float64)
    return "ok" if float(g @ g) >= lag.epsilon else "degenerate"
