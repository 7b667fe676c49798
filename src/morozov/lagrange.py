"""The penalized inner problem and its quadratic solvers.

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

Dense problems are factored once. The generalized eigendecomposition

    A^T A X = B X diag(mu),   X^T B X = I,   B = L^T L + A^T A,

turns the system at every lam into the diagonal one
((1 - mu) + lam mu) y = lam X^T A^T g with f = X y, so each solve after
the first costs a few O(n^2) products (``solver="spectral"``). B is
positive definite exactly when ker L and ker A intersect trivially, so
building the factorization is also the strict-convexity check.

Matrix-free problems with the identity penalty share one Golub-Kahan
basis A V_k = U_{k+1} B_k started from g (``solver="krylov"``). The
solution at every lam lies in the Krylov space K(A^T A, A^T g) = span V_k,
so each solve is the k-by-k tridiagonal system
(I + lam B_k^T B_k) z = lam ||A^T g|| e_1 with f = V_k z; the basis grows
only when a multiplier needs more steps than any before it. For L != I
the solution leaves that space, and conjugate gradient
(``"iterative"``) solves the full system instead.

The Cholesky (``"direct"``) and conjugate gradient (``"iterative"``)
solvers factor or iterate at each lam and stay as independent checkers.
"""

import logging
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._kernels import GolubKahan, cg_matvec
from .errors import AssumptionViolation, ConvergenceFailure, DimensionMismatch
from .linops import LinearOperator, residual_norm_sq
from .regularizers import Regularizer

__all__ = [
    "LAMBDA_MAX",
    "Lagrangian",
    "LagrangeSolution",
    "SpectralFactors",
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


def _singular_pivot_ratio(factor):
    """Pivot ratio of a Cholesky factor that shows a numerically singular
    matrix, else None.

    Rounding can let Cholesky succeed on a semidefinite matrix with a
    sqrt(eps)-scale pivot; this catches that before it yields garbage.
    """
    pivots = np.abs(np.diagonal(factor))
    if pivots.min() ** 2 <= factor.shape[0] * np.finfo(np.float64).eps * pivots.max() ** 2:
        return pivots.min() / pivots.max()
    return None


@dataclass(frozen=True)
class SpectralFactors:
    """Generalized eigendecomposition of a dense problem.

    ``X`` holds the eigenvectors of the pencil (A^T A, L^T L + A^T A),
    normalized so that X^T (L^T L + A^T A) X = I; ``mu`` the eigenvalues,
    clipped to [0, 1]; ``c`` the data in these coordinates, X^T A^T g.
    """

    X: np.ndarray
    mu: np.ndarray
    c: np.ndarray

    @classmethod
    def build(cls, A: LinearOperator, L: LinearOperator, g):
        """Factor the pencil; one O(n^3) eigendecomposition.

        Raises
        ------
        AssumptionViolation
            If L^T L + A^T A is singular or numerically singular, i.e. the
            penalty is not strictly convex along ker(A).
        """
        # fresh products, not the operators' cached Gram matrices: eigh
        # overwrites gram_a with X, and a cached L^T L would keep n^2 floats
        # that no spectral solve reads
        gram_a = A.matrix.T @ A.matrix
        B = L.matrix.T @ L.matrix
        B += gram_a
        try:
            singular = _singular_pivot_ratio(scipy.linalg.cholesky(B, check_finite=False)) is not None
        except scipy.linalg.LinAlgError:
            singular = True
        if singular:
            raise AssumptionViolation(
                "penalty is not strictly convex along ker(A): L^T L + A^T A is "
                "singular or numerically singular, so the selected "
                "reconstruction would not be unique"
            )
        mu, X = scipy.linalg.eigh(
            gram_a, B, driver="gvd", overwrite_a=True, overwrite_b=True,
            check_finite=False,
        )
        np.clip(mu, 0.0, 1.0, out=mu)
        c = X.T @ A.apply_adjoint(g)
        for arr in (X, mu, c):
            arr.setflags(write=False)
        return cls(X=X, mu=mu, c=c)

    def solve(self, lam):
        """f_lam = X y with ((1 - mu) + lam mu) y = lam c."""
        return self.X @ (lam * self.c / ((1.0 - self.mu) + lam * self.mu))


class Lagrangian:
    """Problem bundle (A, g, J) with the squared tolerance epsilon.

    ``epsilon`` is the square of the effective noise tolerance. Callers
    applying a Morozov safety factor c >= 1 must fold it in beforehand
    (epsilon = (c * tau)^2); this class treats epsilon as final. ``data``
    is a read-only copy of ``g``, so the cached factorization and Krylov
    basis cannot go stale.
    """

    def __init__(self, op: LinearOperator, data, regularizer: Regularizer, epsilon):
        data = np.array(data, dtype=np.float64)
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
        data.setflags(write=False)
        self.op = op
        self.data = data
        self.regularizer = regularizer
        self.epsilon = float(epsilon)
        self._spectral = None
        self._krylov = None
        self._lock = threading.Lock()

    def spectral_factors(self):
        """The ``SpectralFactors`` of a dense problem, built on first use.

        Raises
        ------
        ValueError
            If A or L is matrix-free.
        AssumptionViolation
            If the penalty is not strictly convex along ker(A); nothing is
            cached then, so each call raises again.
        """
        L = self.regularizer.seminorm_operator
        if not (self.op.is_dense and L.is_dense):
            raise ValueError("spectral factors need dense operators; use iterative")
        with self._lock:
            if self._spectral is None:
                self._spectral = SpectralFactors.build(self.op, L, self.data)
            return self._spectral

    @contextmanager
    def krylov_basis(self):
        """The problem's ``GolubKahan`` basis of (A, g), built on first use.

        The basis grows on demand and serves every ``"krylov"`` solve and
        the regime certificate of ``maximize_dual`` on this problem. The
        context holds the problem's lock, so one caller grows it at a time.
        """
        with self._lock:
            if self._krylov is None:
                self._krylov = GolubKahan(
                    self.op.apply, self.op.apply_adjoint, self.data, self.op.dims.dim_f
                )
            yield self._krylov

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
    solver : {"direct", "iterative", "spectral", "krylov"}
        Direct assembles the system matrix and takes a Cholesky
        factorization (dense operators only). Iterative runs conjugate
        gradient to relative residual ``tol`` with an iteration cap of
        ``10 * dim_f``, and works for matrix-free operators too.
        Spectral reuses the problem's ``SpectralFactors`` (dense
        operators only; built on the first call), so it costs a few
        O(n^2) products per multiplier. Krylov (identity penalty only)
        solves in the problem's Golub-Kahan basis, extending it until the
        relative residual ||lam A^T g - (f + lam A^T A f)|| / ||lam A^T g||
        of the full system is at most ``tol``; a solve that needs no new
        step costs one forward and one adjoint application.
    tol : float
        Relative residual target for the iterative and Krylov paths.

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
        If CG hits the iteration cap, or the Krylov basis is exhausted,
        above ``tol``.
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
    residual = None

    if solver == "krylov":
        f, residual, stats = _krylov_solve(lag, lam, tol)
    elif solver == "spectral":
        f = lag.spectral_factors().solve(lam)
        stats = {"method": "spectral"}
    elif solver == "direct":
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
        ratio = _singular_pivot_ratio(cho[0])
        if ratio is not None:
            raise AssumptionViolation(
                f"inner system numerically singular at lam={lam:g} "
                f"(pivot ratio {ratio:.2e}): ker(L) and "
                "ker(A) intersect, or the system is conditioned beyond float64"
            )
        f = scipy.linalg.cho_solve(cho, lam * A.apply_adjoint(g), check_finite=False)
        stats = {"method": "direct", "factorization": "cholesky"}
    elif solver == "iterative":
        def system_apply(p):
            return L.apply_adjoint(L.apply(p)) + lam * A.gram_apply(p)

        f, iters, rel, status = cg_matvec(
            system_apply, lam * A.apply_adjoint(g), tol=tol, max_iter=10 * A.dims.dim_f
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

    r, grad = residual or _residuals(lag, f, lam)
    disc_sq = float(r @ r)
    j_val = lag.regularizer.evaluate(f)
    opt_res = float(np.linalg.norm(grad))
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


def _residuals(lag, f, lam):
    """The data residual A f - g and the gradient of the inner objective,
    grad J(f) + 2 lam A^T (A f - g), at one forward and one adjoint
    application."""
    r = lag.op.apply(f) - lag.data
    return r, lag.regularizer.gradient(f) + 2.0 * lam * lag.op.apply_adjoint(r)


def _krylov_solve(lag, lam, tol):
    """Projected Tikhonov solve in the problem's Golub-Kahan basis.

    The basis recurrences say when the projected solution should meet
    ``tol``; the explicit residual of the full system decides, and the
    basis grows one step while it does not. Returns (f, (r, grad), stats)
    with the residuals of ``_residuals`` at f.
    """
    if lag.regularizer.kind != "identity":
        raise ValueError("krylov solver needs the identity penalty; use iterative")
    with lag.krylov_basis() as basis:
        while True:
            z, rel = basis.tikhonov(lam)
            if rel <= tol or basis.exhausted:
                f = basis.expand(z)
                r, grad = _residuals(lag, f, lam)
                # grad / 2 is the residual of the full system, and
                # ||A^T g|| = alpha_1 beta_1
                scale = 2.0 * lam * basis.alpha[0] * basis.beta[0]
                rel = float(np.linalg.norm(grad)) / scale if scale else 0.0
                if rel <= tol or basis.exhausted:
                    break
            basis.step()
        k = basis.k
    if rel > tol:
        raise ConvergenceFailure(
            f"Krylov basis exhausted at k={k} above tol={tol:g} at "
            f"lam={lam:g} (relative residual {rel:.3e})",
            best=f,
        )
    return f, (r, grad), {"method": "krylov", "iterations": k, "relative_residual": rel}


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
