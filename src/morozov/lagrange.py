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

Problems with a built-in penalty, the identity or first differences,
share one Golub-Kahan basis (``solver="krylov"``), dense or matrix-free.
``StandardForm`` first brings the penalty to the identity: for first
differences, Elden's transformation replaces (A, g) by
Abar = (I - q q^T) A L^+ and gbar = (I - q q^T) g, with L^+ an O(n)
cumulative sum and q the normalized image of the constants. The basis
Abar V_k = U_{k+1} B_k is started from gbar. The standard-form solution
at every lam lies in span V_k, so each solve is the k-by-k tridiagonal
system (I + lam B_k^T B_k) z = lam ||Abar^T gbar|| e_1, mapped back to f
in O(n); the basis grows only when a multiplier needs more columns than
any before it. For first differences, A not annihilating the constants
is the strict-convexity check.

Problems with a custom penalty are factored once, whether A and L are
dense or matrix-free; a matrix-free map is materialized for it. The
generalized eigendecomposition

    A^T A X = B X diag(mu),   X^T B X = I,   B = L^T L + A^T A,

turns the system at every lam into the diagonal one
((1 - mu) + lam mu) y = lam X^T A^T g with f = X y, so each solve after
the first costs a few O(n^2) products (``solver="spectral"``). B is
positive definite exactly when ker L and ker A intersect trivially, so
building the factorization is also the strict-convexity check. It
costs O(n^3) time and O(n^2) memory, which a matrix-free A with a
custom penalty pays too. Sweeps over many multipliers with a dense A use
it for built-in penalties as well: a wide grid grows the basis past the
cost of the eigendecomposition. ``solve_lagrange_block`` solves a block
of m multipliers together: F = Y X^T, R = F A^T - g and A^T R are one
matrix-matrix product each, O(m n^2) at BLAS-3 speed, in place of three
memory-bound matrix-vector products per multiplier: at n = 512, for 200
multipliers on 1 BLAS thread, about 8 ms against about 64 ms.

The Cholesky solver (``"direct"``) factors the full system at each lam
and stays as an independent checker.

Every solve also returns the slope d||A f - g||^2 / dlam, the dual's
D''(lam), which the Newton search over lam uses. With r = A f - g and
M = L^T L + lam A^T A it is -2 (A^T r)^T M^{-1} (A^T r); each solver
takes it from what it already holds: the projected tridiagonal in O(k),
the spectral factors in O(n), the Cholesky factor at one more solve.
"""

import logging
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._kernels import GolubKahan
from .errors import AssumptionViolation, ConvergenceFailure, DimensionMismatch
from .linops import LinearOperator, from_callables, residual_norm_sq
from .regularizers import Regularizer

__all__ = [
    "LAMBDA_MAX",
    "Lagrangian",
    "LagrangeSolution",
    "SpectralFactors",
    "StandardForm",
    "lagrangian_value",
    "solve_lagrange",
    "solve_lagrange_block",
]

log = logging.getLogger(__name__)

# conditioning guard: inner systems above this multiplier are rejected
LAMBDA_MAX = 1e12

# columns beyond a Krylov solve's own whose solution stands in for the exact
# one when its discrepancy error is estimated
_LOOKAHEAD = 4


@dataclass(frozen=True)
class LagrangeSolution:
    """Minimizer of the inner problem at a fixed multiplier.

    ``discrepancy_slope`` is d||A f_lam - g||^2 / dlam, which is D''(lam),
    from the solver's own quantities: it is -2 (A^T r)^T M^{-1} (A^T r)
    with r = A f - g and M = L^T L + lam A^T A, since M df/dlam = -A^T r.
    """

    lam: float
    f_lambda: np.ndarray
    discrepancy_sq: float
    j_value: float
    optimality_residual: float
    discrepancy_slope: float
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
    """Generalized eigendecomposition of a problem, dense or matrix-free.

    ``X`` holds the eigenvectors of the pencil (A^T A, L^T L + A^T A),
    normalized so that X^T (L^T L + A^T A) X = I; ``mu`` the eigenvalues,
    clipped to [0, 1]; ``c`` the data in these coordinates, X^T A^T g.
    """

    X: np.ndarray
    mu: np.ndarray
    c: np.ndarray

    @classmethod
    def build(cls, A: LinearOperator, L: LinearOperator, g):
        """Factor the pencil; one O(n^3) eigendecomposition. A matrix-free A
        or L is materialized first, at ``dim_f`` forward applications.

        Raises
        ------
        AssumptionViolation
            If L^T L + A^T A is singular or numerically singular, i.e. the
            penalty is not strictly convex along ker(A).
        """
        # fresh products, not the operators' cached Gram matrices: eigh
        # overwrites gram_a with X, and a cached L^T L would keep n^2 floats
        # that no spectral solve reads; so would a materialized map, which is
        # dropped before the factorizations
        Am, Lm = A.materialize(), L.materialize()
        gram_a = Am.T @ Am
        atg = Am.T @ g
        B = Lm.T @ Lm
        del Am, Lm
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
        c = X.T @ atg
        for arr in (X, mu, c):
            arr.setflags(write=False)
        return cls(X=X, mu=mu, c=c)

    def solve(self, lams):
        """The rows f_lam = X y of F, with ((1 - mu) + lam mu) y = lam c,
        for every lam of the 1-d array ``lams``, as one product Y X^T; and
        each slope d||A f_lam - g||^2 / dlam = -2 sum c^2 (1 - mu)^2 / d^3
        with d = (1 - mu) + lam mu, in O(n): X^T A^T r = -c (1 - mu) / d
        and M^{-1} = X diag(1 / d) X^T."""
        lams = np.asarray(lams, dtype=np.float64)[:, None]
        d = (1.0 - self.mu) + lams * self.mu
        slopes = -2.0 * np.sum((self.c * (1.0 - self.mu)) ** 2 / d**3, axis=1)
        return (lams * self.c / d) @ self.X.T, slopes


# ker L and ker A intersect trivially for first differences exactly when
# A W != 0, W = 1/sqrt(n). ||A W|| at most this share of ||A^T q||, with
# q = A W / ||A W|| (a lower bound on ||A||), counts as zero: the relative
# rank cutoff that check_assumptions applies by default.
KERNEL_CUTOFF = 1e-10


def _difference_pinv(z):
    """L^+ z for the first-difference map L: the vector with successive
    differences z and mean zero."""
    x = np.concatenate(([0.0], np.cumsum(z)))
    return x - x.mean()


def _difference_pinv_adjoint(y):
    """(L^+)^T y: the suffix sums of y - mean(y), from the second entry on."""
    return np.cumsum((y - y.mean())[:0:-1])[::-1]


@dataclass(frozen=True)
class StandardForm:
    """The inner problem of a built-in penalty in identity-penalty form.

    ``op`` and ``data`` are Abar and gbar such that, at every lam, the
    inner minimizer is f = ``solution(z)`` for the minimizer z of
    ||z||^2 + lam ||Abar z - gbar||^2, with the same data residual
    A f - g = Abar z - gbar. So dist(gbar, range Abar) = dist(g, range A),
    and one Golub-Kahan basis of (Abar, gbar) serves the regime
    certificate and every solve.

    For the identity penalty Abar = A, gbar = g and f = z. For first
    differences (Elden's transformation, BIT 22, 1982) ker L is spanned by
    W = 1/sqrt(n); with q = A W / ||A W||,

        Abar = (I - q q^T) A L^+,   gbar = (I - q q^T) g,
        f = x + W (A W)^T (g - A x) / ||A W||^2,   x = L^+ z,

    where L^+ is a cumulative sum followed by subtracting the mean, O(n).
    For a custom penalty the form is (A, g) itself; it serves only the
    regime certificate, since dist(g, range A) does not involve L.

    ``rhs_norm`` is ||A^T g||, the scale of the full system's residual,
    which is L^T times the standard form's; ``lt_norm`` bounds ||L^T||.
    """

    op: LinearOperator
    data: np.ndarray
    rhs_norm: float
    lt_norm: float = 1.0
    # first differences: ||A W||, q^T g, and (L^+)^T A^T q, which gives
    # q^T A x = h^T z without an application
    aw_norm: float = None
    qg: float = None
    h: np.ndarray = None

    @classmethod
    def build(cls, A: LinearOperator, g, kind):
        """Transform (A, g) for the penalty ``kind``; O(n) plus one forward
        and two adjoint applications for first differences, one adjoint
        otherwise.

        Raises
        ------
        AssumptionViolation
            For first differences when ||A W|| <= KERNEL_CUTOFF ||A^T q||:
            A does not see the constants, so the penalty is not strictly
            convex along ker(A).
        """
        if kind != "first_difference":
            return cls(op=A, data=g, rhs_norm=float(np.linalg.norm(A.apply_adjoint(g))))
        n = A.dims.dim_f
        AW = A.apply(np.full(n, 1.0 / math.sqrt(n)))
        aw_norm = float(np.linalg.norm(AW))
        q = AW / aw_norm if aw_norm else AW
        Atq = A.apply_adjoint(q)
        if not aw_norm > KERNEL_CUTOFF * float(np.linalg.norm(Atq)):
            raise AssumptionViolation(
                f"penalty is not strictly convex along ker(A): A maps the "
                f"constants, the kernel of the first-difference penalty, to "
                f"||A W|| = {aw_norm:.3e}, at most {KERNEL_CUTOFF:g} ||A^T q||, "
                "so the selected reconstruction would not be unique"
            )

        def forward(z):
            y = A.apply(_difference_pinv(z))
            return y - (q @ y) * q

        def adjoint(y):
            return _difference_pinv_adjoint(A.apply_adjoint(y - (q @ y) * q))

        qg = float(q @ g)
        gbar = g - qg * q
        gbar.setflags(write=False)
        return cls(
            op=from_callables(n - 1, A.dims.dim_g, forward, adjoint),
            data=gbar,
            rhs_norm=float(np.linalg.norm(A.apply_adjoint(g))),
            lt_norm=2.0,
            aw_norm=aw_norm,
            qg=qg,
            h=_difference_pinv_adjoint(Atq),
        )

    def solution(self, z):
        """The inner minimizer f for the standard-form minimizer z."""
        if self.aw_norm is None:
            return z
        t = (self.qg - self.h @ z) / self.aw_norm
        return _difference_pinv(z) + t / math.sqrt(z.shape[0] + 1)


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
        self._form = None
        self._krylov = None
        self._lock = threading.Lock()

    def spectral_factors(self):
        """The problem's ``SpectralFactors``, built on first use.

        Raises
        ------
        AssumptionViolation
            If the penalty is not strictly convex along ker(A); nothing is
            cached then, so each call raises again.
        """
        with self._lock:
            if self._spectral is None:
                self._spectral = SpectralFactors.build(
                    self.op, self.regularizer.seminorm_operator, self.data
                )
            return self._spectral

    def standard_form(self):
        """The problem's ``StandardForm``, built on first use.

        Raises
        ------
        AssumptionViolation
            If first differences are not strictly convex along ker(A);
            nothing is cached then, so each call raises again.
        """
        with self._lock:
            if self._form is None:
                self._form = StandardForm.build(self.op, self.data, self.regularizer.kind)
            return self._form

    @contextmanager
    def krylov_basis(self):
        """The problem's ``GolubKahan`` basis of its standard form
        (Abar, gbar), built on first use.

        The basis grows on demand and serves every ``"krylov"`` solve and
        the regime verdict of ``diagnose_regime`` on this problem. A custom
        penalty's basis is of (A, g), and so is that of first differences
        whose constants A annihilates, which have no standard form: there
        A(ker L) = {0}, so gbar = g. No solve reads either, so it is fresh
        and not kept. The context holds the problem's lock, so one caller
        grows the basis at a time.
        """
        try:
            form = self.standard_form()
        except AssumptionViolation:
            form = None
        op, data = (self.op, self.data) if form is None else (form.op, form.data)
        with self._lock:
            basis = self._krylov or GolubKahan(op.apply, op.apply_adjoint, data, op.dims.dim_f)
            if form is not None and self.regularizer.kind != "custom":
                self._krylov = basis
            yield basis

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
    solver : {"direct", "spectral", "krylov"}
        Direct assembles the system matrix and takes a Cholesky
        factorization (a matrix-free A or L is materialized once).
        Spectral reuses the problem's ``SpectralFactors`` (built on the
        first call), so it costs a few O(n^2) products per multiplier; it
        is the one-point case of ``solve_lagrange_block``.
        Krylov (identity and first-difference penalties) solves in the
        Golub-Kahan basis of the problem's ``StandardForm`` on the fewest
        columns whose solution has a relative residual
        ||lam A^T g - (L^T L + lam A^T A) f|| / ||lam A^T g|| of the full
        system at most ``tol``, extending the basis when none does; a
        solve that needs no new step costs one forward and one adjoint
        application. Each solver also returns the slope
        d||A f - g||^2 / dlam from what it holds: O(k) in the basis, O(n)
        from the spectral factors, one more triangular solve with the
        Cholesky factor.
    tol : float
        Relative residual target for the Krylov path, floored at the full
        system's float64 rounding level eps ||L||^2 ||f|| / (lam ||A^T g||),
        which grows as 1/lam as Cholesky's own residual does: at
        lam = 1e-6 on a first-difference problem that level is near
        1e-9, and a fixed 1e-10 would exhaust the basis.

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
        If the Krylov basis is exhausted above ``tol`` and the rounding
        level.
    """
    _check_multiplier(lam)
    if solver == "spectral":
        return solve_lagrange_block(lag, [lam])[0]
    if solver == "krylov":
        f, residuals, slope, stats = _krylov_solve(lag, lam, tol)
        return _solution(lag, lam, f, residuals, slope, stats)
    if solver != "direct":
        raise ValueError(f"unknown solver {solver!r}")
    A = lag.op
    M = lag.regularizer.seminorm_operator.gram_matrix() + lam * A.gram_matrix()
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
    f = scipy.linalg.cho_solve(cho, lam * A.apply_adjoint(lag.data), check_finite=False)
    residuals = _residuals(lag, f, lam)
    atr = residuals[1]
    slope = -2.0 * float(atr @ scipy.linalg.cho_solve(cho, atr, check_finite=False))
    return _solution(lag, lam, f, residuals, slope, {"method": "direct", "factorization": "cholesky"})


def solve_lagrange_block(lag: Lagrangian, lams):
    """``solve_lagrange(lag, lam, solver="spectral")`` at every multiplier
    of ``lams`` at once, in order.

    The rows F of f_lam come from the problem's ``SpectralFactors`` as one
    product, and so do the residuals R = F A^T - g and A^T R: three
    matrix-matrix (BLAS-3) products for a dense A where one multiplier at
    a time costs three memory-bound O(n^2) matrix-vector products. A
    matrix-free A is applied row by row, at one forward and one adjoint
    application per multiplier, as one solve makes. The temporaries are a
    few len(lams)-by-n blocks, so callers pass at most ``dim_f``
    multipliers to stay within a few copies of the factors. Every row is
    then finished as a single solve is, from its own r, A^T r and
    gradient, and its ``f_lambda`` is its own array.

    Raises
    ------
    ValueError
        For a multiplier outside (0, LAMBDA_MAX].
    AssumptionViolation
        If the spectral factors cannot be built (``SpectralFactors.build``).
    """
    for lam in lams:
        _check_multiplier(lam)
    F, slopes = lag.spectral_factors().solve(lams)
    A, g = lag.op, lag.data
    if A.is_dense:
        R = F @ A.matrix.T
        R -= g
        AtR = R @ A.matrix
    else:
        R = np.array([A.apply(f) for f in F]) - g
        AtR = np.array([A.apply_adjoint(r) for r in R])
    solutions = []
    for lam, f, r, atr, slope in zip(lams, F, R, AtR, slopes):
        f = f.copy()
        residuals = _residuals(lag, f, lam, r, atr)
        solutions.append(_solution(lag, lam, f, residuals, float(slope), {"method": "spectral"}))
    return solutions


def _check_multiplier(lam):
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if lam > LAMBDA_MAX:
        raise ValueError(
            f"lam={lam:g} exceeds LAMBDA_MAX={LAMBDA_MAX:g}; the inner system "
            "is too ill-conditioned to trust"
        )


def _solution(lag, lam, f, residuals, slope, stats):
    """The ``LagrangeSolution`` at f from its residuals (r, A^T r, grad) of
    ``_residuals``: the tail every solver and block shares. The discrepancy
    is ||r||^2 of the explicit residual, never an expanded form that
    cancels, and the optimality residual is ||grad||."""
    r, _, grad = residuals
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
        discrepancy_slope=slope,
        solver_stats=stats,
    )


def _residuals(lag, f, lam, r=None, atr=None):
    """The data residual r = A f - g, A^T r, and the gradient of the inner
    objective, grad J(f) + 2 lam A^T r. Forming r and A^T r costs one
    forward and one adjoint application, unless a block product gave them."""
    if r is None:
        r = lag.op.apply(f) - lag.data
        atr = lag.op.apply_adjoint(r)
    return r, atr, lag.regularizer.gradient(f) + 2.0 * lam * atr


def _krylov_solve(lag, lam, tol):
    """Projected Tikhonov solve in the problem's Golub-Kahan basis.

    Finds the fewest basis columns j whose projected solution passes two
    estimates, and returns the solution on k = j + ``_LOOKAHEAD`` columns,
    against which the second estimate is taken. k depends on lam alone,
    not on how far earlier solves grew the basis, and so does the answer;
    the basis grows while no j passes.

    - The full system's relative residual is at most ``tol``, or at most
      its float64 rounding level where that is larger (``_rounding_level``).
      The full residual is L^T times the standard form's, so the
      recurrences' estimate times ``lt_norm`` bounds it. The explicit
      residual of the returned solution decides.
    - The error of ||A f - g||^2, and so of D', is at most
      ``tol * epsilon`` by ``GolubKahan.discrepancy_error``. The residual
      test alone does not bound this error: at small noise and large lam,
      a relative residual of 1e-10 leaves D' wrong in its sign.

    Returns (f, (r, A^T r, grad), slope, stats) with the residuals of
    ``_residuals`` at f and the slope d||A f - g||^2 / dlam of
    ``GolubKahan.discrepancy_slope`` on the same k columns.
    """
    if lag.regularizer.kind == "custom":
        raise ValueError(
            "krylov solver needs the identity or first-difference penalty; use spectral"
        )
    form = lag.standard_form()
    scale = 2.0 * lam * form.rhs_norm  # ||grad|| = 2 ||full residual||
    with lag.krylov_basis() as basis:
        gain = form.lt_norm * basis.alpha[0] * basis.beta[0] / form.rhs_norm if scale else 0.0
        j = 0
        while True:
            ahead = np.flatnonzero(gain * basis.tikhonov_residuals(lam)[j:] <= tol)
            if not ahead.size:
                j = basis.k + 1
            else:
                j += int(ahead[0])
                k = min(j + _LOOKAHEAD, basis.k)
                # an exhausted basis holds the exact solution
                exact = k == basis.k and basis.exhausted
                if k == j + _LOOKAHEAD or exact:
                    z, _ = basis.tikhonov(lam, j)
                    if exact or basis.discrepancy_error(lam, z, k) <= tol * lag.epsilon:
                        z = basis.tikhonov(lam, k)[0]
                        f = form.solution(basis.expand(z))
                        residuals = _residuals(lag, f, lam)
                        rel = float(np.linalg.norm(residuals[2])) / scale if scale else 0.0
                        target = max(tol, _rounding_level(form, f, lam)) if scale else tol
                        if rel <= target or exact:
                            break
                    j += 1
                    continue
            basis.step()
        slope = basis.discrepancy_slope(lam, z)
    if rel > target:
        raise ConvergenceFailure(
            f"Krylov basis exhausted at k={k} above tol={target:g} at "
            f"lam={lam:g} (relative residual {rel:.3e})",
            best=f,
        )
    return f, residuals, slope, {"method": "krylov", "iterations": k, "relative_residual": rel}


def _rounding_level(form, f, lam):
    """The float64 rounding level of the full system's relative residual
    ||lam A^T g - (L^T L + lam A^T A) f|| / ||lam A^T g||: forming L^T L f
    rounds at eps ||L||^2 ||f||, which is eps ||L||^2 ||f|| / (lam ||A^T g||)
    of the right-hand side and so grows as 1 / lam, as Cholesky's own
    residual does."""
    eps = np.finfo(np.float64).eps
    return eps * form.lt_norm**2 * float(np.linalg.norm(f)) / (lam * form.rhs_norm)
