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

Every problem, whatever its penalty and whether A and L are dense or
matrix-free, is solved by one engine: ``StandardForm`` and the
Golub-Kahan basis it owns. It brings the penalty to the identity by
Elden's transformation (BIT 22, 1982; Hansen's ``std_form``, Numer.
Algorithms 46, 2007): with W an orthonormal basis of ker L and the QR
factorization A W = Q_W R_W, it replaces (A, g) by
Abar = (I - Q_W Q_W^T) A L^+ and gbar = (I - Q_W Q_W^T) g. The identity
penalty is the case W = 0, L^+ = I; first differences have W = 1/sqrt(n)
and an O(n) cumulative sum for L^+; a custom L is materialized, at n
applications, and one pivoted QR factorization of L^T gives its rank,
W and L^+ through triangular solves (``_penalty``). A matrix-free A stays
an operator. The basis Abar V_k = U_{k+1} B_k is started from gbar. The
standard-form solution at every lam lies in span V_k, so each solve is the
k-by-k tridiagonal system (I + lam B_k^T B_k) z = lam ||Abar^T gbar|| e_1,
mapped back to f; the basis grows only when a multiplier needs more
columns than any before it. A singular R_W, A not seeing some direction of
ker L, is the strict-convexity check. Its ``solve`` takes a block of m
multipliers: each keeps its own search for its k, and the block shares its
tail, F = Z V_k and, for a dense A and m > 1, R = F A^T - g and A^T R, one
matrix-matrix product each at BLAS-3 speed (``_solutions``), in place of
two memory-bound matrix-vector products per multiplier; a single
multiplier, every evaluation of a selection, applies A through its
operator pair.

``Lagrangian.engine`` builds the engine once, which ``solve_lagrange``,
every sweep and the regime verdict run on. ``certificate`` is the
Lagrangian whose engine gives the verdict: the problem itself, or, when
its engine cannot be built, its twin with the identity penalty on (A, g).
It keeps what each build returned, or the ``ValueError`` it raised, an
``AssumptionViolation`` included, so no build runs twice. An engine's
``solve`` takes the ``Lagrangian`` it was built from: holding it would
make a reference cycle, which frees the basis only when the cyclic
garbage collector runs.

Every solve also returns the slope d||A f - g||^2 / dlam, the dual's
D''(lam), which the Newton search over lam uses. With r = A f - g and
M = L^T L + lam A^T A it is -2 (A^T r)^T M^{-1} (A^T r), which the engine
takes from the projected tridiagonal in O(k). Its right limit at 0,
-2 ||Abar^T gbar||^2, which places the search's first multiplier, is the
engine's ``slope_at_zero``, read without an application.
"""

import logging
import math
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._kernels import GolubKahan
from .errors import AssumptionViolation, ConvergenceFailure, DimensionMismatch
from .linops import LinearOperator, _as_real, from_callables, residual_norm_sq
from .regularizers import Regularizer, identity_regularizer

__all__ = [
    "KRYLOV_TOL",
    "LAMBDA_MAX",
    "Lagrangian",
    "LagrangeSolution",
    "StandardForm",
    "lagrangian_value",
    "solve_lagrange",
]

log = logging.getLogger(__name__)

# conditioning guard: inner systems above this multiplier are rejected
LAMBDA_MAX = 1e12

# relative residual target of a Krylov solve, floored at the full system's
# float64 rounding level eps ||L||^2 ||f|| / (lam ||A^T g||), which grows as
# 1/lam (``_rounding_level``): at lam = 1e-6 on a first-difference problem
# that level is near 1e-9, and a fixed 1e-10 would exhaust the basis
KRYLOV_TOL = 1e-10

# columns beyond a Krylov solve's own whose solution stands in for the exact
# one when its discrepancy error is estimated
_LOOKAHEAD = 4


@dataclass(frozen=True)
class LagrangeSolution:
    """Minimizer of the inner problem at a fixed multiplier.

    ``discrepancy_slope`` is d||A f_lam - g||^2 / dlam, which is D''(lam),
    from the engine's own quantities: it is -2 (A^T r)^T M^{-1} (A^T r)
    with r = A f - g and M = L^T L + lam A^T A, since M df/dlam = -A^T r.
    """

    lam: float
    f_lambda: np.ndarray
    discrepancy_sq: float
    j_value: float
    optimality_residual: float
    discrepancy_slope: float
    solver_stats: dict = field(default_factory=dict)


# ker L and ker A intersect trivially exactly when R_W, of A W = Q_W R_W with
# W an orthonormal basis of ker L, is nonsingular. |R_W[j, j]| at most this
# share of ||A^T q_j|| (a lower bound on ||A||) counts as zero: a solution's
# kernel part, W R_W^{-1} (Q_W^T g - H^T z), would then carry rounding of
# order eps ||A^T q_j|| ||z|| / |R_W[j, j]|, above 2e-6 ||z||.
KERNEL_CUTOFF = 1e-10


def _difference_pinv(z):
    """L^+ z for the first-difference map L: the vector with successive
    differences z and mean zero; row by row for a block of rows."""
    x = np.cumsum(np.concatenate((np.zeros(z.shape[:-1] + (1,)), z), axis=-1), axis=-1)
    return x - x.sum(axis=-1, keepdims=True) / x.shape[-1]


def _difference_pinv_adjoint(y):
    """(L^+)^T y: the suffix sums of y - mean(y), from the second entry on."""
    return np.cumsum((y - y.mean())[:0:-1])[::-1]


def _penalty(regularizer):
    """(L^+, (L^+)^T, W, lt_norm) of a penalty: its pseudoinverse pair, None
    for the identity, an orthonormal basis W of ker L (n-by-d) and a bound
    on ||L||; the one place a penalty's ``kind`` is read.

    First differences have d = 1 and an O(n) L^+. A custom L is
    materialized, at n applications when it is matrix-free, and checked
    finite; then one pivoted QR factorization L^T P = Q R gives its rank r,
    the count of |r_ii|^2 > n eps ||L||_F^2, a test on L alone, and W, the
    trailing n - r columns of Q; an L of rank 0 penalizes nothing and is
    refused with ``ValueError``. With Q_1 its leading r columns,
    ||L f|| = ||R_r^T Q_1^T f|| for the leading r rows R_r of R, so L may be
    replaced by S Q_1^T for any r-by-r S with S^T S = R_r R_r^T: R_r^T itself
    when r is the row count of L, and otherwise the triangle of one more
    QR factorization, of R_r^T. L^+ = Q_1 S^{-1}, applied by triangular
    solves. lt_norm is the Hoelder bound sqrt(||L||_1 ||L||_inf).
    """
    n = regularizer.dim_f
    if regularizer.kind == "identity":
        return None, None, np.empty((n, 0)), 1.0
    if regularizer.kind == "first_difference":
        return _difference_pinv, _difference_pinv_adjoint, np.full((n, 1), 1.0 / math.sqrt(n)), 2.0
    op = regularizer.seminorm_operator
    L = op.materialize()
    if not op.is_dense:
        _require_finite("L", L)
    Q, R, _ = scipy.linalg.qr(L.T, pivoting=True, check_finite=False)
    cut = n * np.finfo(np.float64).eps * float(np.vdot(L, L))
    r = int(np.count_nonzero(np.abs(np.diagonal(R)) ** 2 > cut))
    if not r:
        raise ValueError("L is zero to rounding: a penalty of rank 0 regularizes nothing")
    Q1, lt_norm = Q[:, :r], math.sqrt(np.abs(L).sum(axis=0).max() * np.abs(L).sum(axis=1).max())
    if r == L.shape[0]:
        S, lower = R[:r, :r].T, True
    else:
        S, lower = scipy.linalg.qr(R[:r].T, mode="r", check_finite=False)[0][:r], False
    S = np.ascontiguousarray(S)  # a strided S would be copied at every solve

    def pinv(z):
        return scipy.linalg.solve_triangular(S, z.T, lower=lower, check_finite=False).T @ Q1.T

    def pinv_adjoint(y):
        return scipy.linalg.solve_triangular(S, Q1.T @ y, lower=lower, trans="T", check_finite=False)

    return pinv, pinv_adjoint, Q[:, r:], lt_norm


@dataclass
class StandardForm:
    """The inner problem in identity-penalty form, and the Golub-Kahan
    basis of that form: the one engine.

    ``op`` and ``data`` are Abar and gbar such that, at every lam, the
    inner minimizer is f = ``solution(z)`` for the minimizer z of
    ||z||^2 + lam ||Abar z - gbar||^2, with the same data residual
    A f - g = Abar z - gbar. So dist(gbar, range Abar) = dist(g, range A),
    and one ``basis`` of (Abar, gbar), grown on demand under ``lock``,
    serves the regime certificate (``certify``) and every solve.

    For the identity penalty Abar = A, gbar = g and f = z. Otherwise
    (Elden's transformation, BIT 22, 1982), with W an orthonormal basis of
    ker L (``_penalty``) and A W = Q_W R_W,

        Abar = (I - Q_W Q_W^T) A L^+,   gbar = (I - Q_W Q_W^T) g,
        f = L^+ z + W R_W^{-1} (Q_W^T g - H^T z),   H = (L^+)^T A^T Q_W,

    so that Q_W^T (A f - g) = 0. The identity penalty's form (A, g) is also
    the engine of the identity twin that judges the regime of a problem
    whose own engine cannot be built (``Lagrangian.certificate``).

    ``rhs_norm`` is ||A^T g||, the scale of the full system's residual,
    which is L^T times the standard form's; ``lt_norm`` bounds ||L^T||.
    When the form is (A, g), the basis's first column gives ||A^T g|| as
    alpha_1 beta_1, so ``rhs_norm`` is left out and read from there.
    """

    op: LinearOperator
    data: np.ndarray
    rhs_norm: float = None
    lt_norm: float = 1.0
    # outside the identity: L^+, Q_W^T g, H, and the rows of (W R_W^{-1})^T,
    # which give f from z without an application
    pinv: object = None
    qg: np.ndarray = None
    h: np.ndarray = None
    lift: np.ndarray = None

    def __post_init__(self):
        self.basis = GolubKahan(self.op.apply, self.op.apply_adjoint, self.data, self.op.dims.dim_f)
        self.lock = threading.Lock()
        if self.rhs_norm is None:
            self.rhs_norm = self.abar_t_gbar

    @classmethod
    def build(cls, A: LinearOperator, g, regularizer: Regularizer):
        """Transform (A, g) for the penalty of ``regularizer``: none for the
        identity; otherwise what ``_penalty`` costs, d forward and d + 1
        adjoint applications for a d-dimensional ker L, and the basis's first
        column at one adjoint more.

        Raises
        ------
        AssumptionViolation
            When |R_W[j, j]| <= KERNEL_CUTOFF ||A^T q_j|| for a column j:
            A does not see ker L, so the penalty is not strictly convex
            along ker(A).
        """
        pinv, pinv_adjoint, W, lt_norm = _penalty(regularizer)
        if pinv is None:
            return cls(op=A, data=g)
        n, d = W.shape
        Q, R = np.linalg.qr(np.array([A.apply(w) for w in W.T]).reshape(d, A.dims.dim_g).T)
        Qt = Q.T.copy()  # the rows q_j
        Atq = [A.apply_adjoint(q) for q in Qt]
        for j, atq in enumerate(Atq):
            if not abs(R[j, j]) > KERNEL_CUTOFF * float(np.linalg.norm(atq)):
                raise AssumptionViolation(
                    f"penalty is not strictly convex along ker(A): A maps ker L, "
                    f"the kernel of the {regularizer.kind.replace('_', '-')} penalty, to "
                    f"|R_W[{j}, {j}]| = {abs(R[j, j]):.3e}, at most {KERNEL_CUTOFF:g} ||A^T q_{j}||, "
                    "so the selected reconstruction would not be unique"
                )

        # ndarray.dot dispatches faster than @, as fast as a scalar q at d = 1
        def forward(z):
            y = A.apply(pinv(z))
            return y - Qt.dot(y).dot(Qt)

        def adjoint(y):
            return pinv_adjoint(A.apply_adjoint(y - Qt.dot(y).dot(Qt)))

        qg = Qt.dot(g)
        gbar = g - qg.dot(Qt)
        gbar.setflags(write=False)
        return cls(
            op=from_callables(n - d, A.dims.dim_g, forward, adjoint),
            data=gbar,
            rhs_norm=float(np.linalg.norm(A.apply_adjoint(g))),
            lt_norm=lt_norm,
            pinv=pinv,
            qg=qg,
            h=np.array([pinv_adjoint(atq) for atq in Atq]).reshape(d, n - d).T,
            lift=np.linalg.inv(R).T @ W.T,
        )

    def solution(self, z):
        """The inner minimizer f for the standard-form minimizer z; row by
        row for a block of rows."""
        if self.pinv is None:
            return z
        return self.pinv(z) + (self.qg - z.dot(self.h)).dot(self.lift)

    @property
    def data_norm(self):
        """||gbar||, the basis's beta_1, with D'(0) = ||gbar||^2 - epsilon."""
        return self.basis.beta[0]

    @property
    def data_label(self):
        """How messages name ``data_norm``: ||gbar|| when L has a kernel."""
        return "||gbar||" if self.qg is not None and self.qg.size else "||g||"

    @property
    def abar_t_gbar(self):
        """||Abar^T gbar|| = alpha_1 beta_1, from the basis's first column."""
        return self.basis.alpha[0] * self.basis.beta[0]

    @property
    def slope_at_zero(self):
        """D''(0+) = -2 ||Abar^T gbar||^2, with no application."""
        return -2.0 * self.abar_t_gbar**2

    @property
    def _gain(self):
        """The factor from the basis's relative residual estimate to the
        full system's: L^T times the standard form's residual, over
        ||A^T g|| in place of ||Abar^T gbar||."""
        return self.lt_norm * self.abar_t_gbar / self.rhs_norm if self.rhs_norm else 0.0

    def certify(self, epsilon):
        """The data residual ||Abar x - gbar|| = ||A f - g|| of a projected
        solution x that proves D'(LAMBDA_MAX) < 0 at this epsilon, or None
        where the basis gives no such proof before the solve at LAMBDA_MAX
        would stop growing it.

        f_lam minimizes ||z||^2 / lam + ||Abar z - gbar||^2, so every x has
        ||A f_lam - g||^2 <= ||Abar x - gbar||^2 + ||x||^2 / lam. Under
        ``lock`` it reads k = 0, 1, ... columns, and grows the basis only
        past the columns it has, until, for x = V_k z and
        z = ``GolubKahan.tikhonov(LAMBDA_MAX, k)``, the projected bound
        (``GolubKahan.tikhonov_bound``) falls below epsilon; one forward
        application then confirms the bound on x itself, and a miss goes
        on. It returns None once the basis is exhausted at k or the residual
        estimate at LAMBDA_MAX on k columns passes ``KRYLOV_TOL``: the
        columns a solve there would take. No other threshold is read. So,
        as a solve's, its answer does not depend on how far earlier solves
        grew the basis.
        """
        basis = self.basis
        with self.lock:
            k = 0
            while True:
                z = basis.tikhonov(LAMBDA_MAX, k)
                if basis.tikhonov_bound(LAMBDA_MAX, z) < epsilon:
                    x = basis.expand(z)
                    r = self.op.apply(x) - self.data
                    if float(r @ r) + float(x @ x) / LAMBDA_MAX < epsilon:
                        return float(np.linalg.norm(r))
                if (k == basis.k and basis.exhausted) or self._gain * basis.tikhonov_residuals(LAMBDA_MAX, k)[0] <= KRYLOV_TOL:
                    return None
                k += 1
                if k > basis.k:
                    basis.step()

    def solve(self, lag, lams):
        """Projected Tikhonov solves of ``lag``, the problem the form was
        built from, at every multiplier of ``lams`` at once, in order;
        ``ValueError`` for one outside (0, LAMBDA_MAX], before any solve.

        Each multiplier runs its own search (``_column``) from j = 0 and
        takes the solution on k = j + ``_LOOKAHEAD`` columns, or on all of
        an exhausted basis. The block then shares its tail: the rows of
        F = Z V_k are one product, mapped back to f row by row, and
        ``_solutions`` forms the residuals. A point is accepted when its
        own explicit residual passes; otherwise its search goes on from
        j + 1, and a new block holds the points that did not pass.

        k depends on lam alone, not on how far earlier solves grew the
        basis nor on the other multipliers of the block, and so does the
        answer, up to the rounding of the block products.

        - The full system's relative residual
          ||lam A^T g - (L^T L + lam A^T A) f|| / ||lam A^T g|| is at most
          ``KRYLOV_TOL``, or its float64 rounding level where that is
          larger (``_rounding_level``). It is L^T times the standard
          form's, so the recurrences' estimate times ``lt_norm`` bounds it;
          the ``optimality_residual`` of the returned solution decides, and
          ``ConvergenceFailure`` is raised if the basis is exhausted above it.
        - The error of ||A f - g||^2, and so of D', is at most
          ``KRYLOV_TOL * epsilon`` by ``GolubKahan.discrepancy_error``. The
          residual test alone does not bound this error: at small noise and
          large lam, a relative residual of 1e-10 leaves D' wrong in its sign.

        The slope d||A f - g||^2 / dlam is ``GolubKahan.discrepancy_slope``
        on the same k columns.
        """
        for lam in lams:
            _check_multiplier(lam)
        out = [None] * len(lams)
        starts = dict.fromkeys(range(len(lams)), 0)  # point: its search's first column
        while starts:
            with self.lock:
                picks = {i: self._column(lag, float(lams[i]), j) for i, j in starts.items()}
                js, exacts, zs, slopes = zip(*picks.values())
                Z = np.zeros((len(zs), max(map(len, zs))))
                for row, z in zip(Z, zs):
                    row[: len(z)] = z
                F = self.solution(self.basis.expand(Z))
            stats = [{"method": "krylov", "iterations": len(z)} for z in zs]
            sols = _solutions(lag, [lams[i] for i in picks], F, slopes, stats)
            starts = {}
            for i, j, exact, sol in zip(picks, js, exacts, sols):
                scale = 2.0 * sol.lam * self.rhs_norm  # ||grad|| = 2 ||full residual||
                rel = sol.solver_stats["relative_residual"] = sol.optimality_residual / scale if scale else 0.0
                target = max(KRYLOV_TOL, _rounding_level(self, sol.f_lambda, sol.lam)) if scale else KRYLOV_TOL
                if rel <= target:
                    out[i] = sol
                elif exact:
                    raise ConvergenceFailure(
                        f"Krylov basis exhausted at k={sol.solver_stats['iterations']} above tol={target:g} at "
                        f"lam={sol.lam:g} (relative residual {rel:.3e})",
                        best=sol.f_lambda,
                    )
                else:
                    starts[i] = j + 1
        return out

    def _column(self, lag, lam, j):
        """The search of one multiplier from column j, under ``lock``:
        (j, exact, z, slope) for the first column j whose projected solution
        passes the residual estimate and whose discrepancy error, against
        the solution z on k columns, passes too; slope is z's
        ``GolubKahan.discrepancy_slope``.

        1. Find the first column from j whose residual estimate passes, in
           ``GolubKahan.tikhonov_residuals`` read from column j on; the basis
           grows only while no column passes, and each column it gains is
           read once.
        2. Grow the basis once, to k = j + ``_LOOKAHEAD`` columns or to
           exhaustion.
        3. Unless the basis is exhausted (``exact``), whose solution is
           exact, estimate the discrepancy error of column j against the
           solution on k; if it fails, go on from j + 1.
        """
        basis, gain = self.basis, self._gain
        while True:
            # the first column from j whose residual estimate passes
            while not (ahead := np.flatnonzero(gain * basis.tikhonov_residuals(lam, j) <= KRYLOV_TOL)).size:
                j = basis.k + 1
                basis.step()
            j += int(ahead[0])
            # its lookahead columns, or all there are
            while basis.k < j + _LOOKAHEAD and not basis.exhausted:
                basis.step()
            k = min(j + _LOOKAHEAD, basis.k)
            # an exhausted basis holds the exact solution
            exact = k == basis.k and basis.exhausted
            z = basis.tikhonov(lam, k)
            w = basis.projected_solve(lam, z)
            if exact or basis.discrepancy_error(lam, basis.tikhonov(lam, j), w) <= KRYLOV_TOL * lag.epsilon:
                return j, exact, z, basis.discrepancy_slope(lam, z, w)
            j += 1


def _require_finite(name, arr):
    """Raise ValueError naming the first NaN or infinite entry of ``arr``."""
    if not np.isfinite(arr).all():
        index = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"{name} must be finite, but {name}{index.tolist()} = {arr[tuple(index)]}")


class Lagrangian:
    """Problem bundle (A, g, J) with the squared tolerance epsilon.

    ``epsilon`` is the square of the effective noise tolerance. Callers
    applying a Morozov safety factor c >= 1 must fold it in beforehand
    (epsilon = (c * tau)^2); this class treats epsilon as final. ``data``
    is a read-only copy of ``g``, so the engine built from it cannot go
    stale; complex ``data``, whose imaginary part the copy would drop,
    raises ``ValueError``. A NaN or an infinity in ``data``, a dense
    ``op`` or a dense penalty map L, on which a Krylov solve never
    returns, raises ``ValueError`` naming the first such entry. A
    matrix-free ``op`` cannot be checked up front: the engine's
    Golub-Kahan basis raises ``ValueError`` for an application whose
    norm is not finite, before the vector enters the basis. A
    matrix-free custom L is checked once the engine's build has
    materialized it.

    The engine and the certificate are built lazily, each at most once,
    under one lock: ``engine`` and ``certificate`` keep what each build
    returned, or the ``ValueError`` it raised, by one rule for every
    penalty, so a problem that fails the strict-convexity check, or whose
    custom L is not finite, is checked once and raises the same message
    on every later call.
    """

    def __init__(self, op: LinearOperator, data, regularizer: Regularizer, epsilon):
        data = np.array(_as_real(data, "data"))
        if data.ndim != 1 or data.shape[0] != op.dims.dim_g:
            raise DimensionMismatch(
                f"data must have length {op.dims.dim_g}, got shape {data.shape}"
            )
        if regularizer.dim_f != op.dims.dim_f:
            raise DimensionMismatch(
                f"regularizer input dim {regularizer.dim_f} != "
                f"operator input dim {op.dims.dim_f}"
            )
        if not 0 < epsilon < math.inf:  # NaN fails it too
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        _require_finite("data", data)
        if op.is_dense:
            _require_finite("A", op.matrix)
        if regularizer.seminorm_operator.is_dense:
            _require_finite("L", regularizer.seminorm_operator.matrix)
        data.setflags(write=False)
        self.op = op
        self.data = data
        self.regularizer = regularizer
        self.epsilon = float(epsilon)
        self._built = {}  # each lazy build: what it returned, or a copy of what it raised
        self._lock = threading.Lock()

    def _once(self, name, build):
        """What ``build()`` returned, kept under ``name``: built once under
        the one lock, whichever thread asks first. A build that raised a
        ``ValueError`` is kept too, not tried again: each call raises a
        fresh exception of its type with its message."""
        with self._lock:
            if name not in self._built:
                try:
                    self._built[name] = build()
                except ValueError as exc:
                    # kept as a copy that was never raised, which holds no
                    # traceback's frames
                    self._built[name] = type(exc)(*exc.args)
                    raise
            built = self._built[name]
        if isinstance(built, ValueError):
            raise type(built)(*built.args)
        return built

    def engine(self):
        """The problem's inner solver, ``StandardForm``, built once. It is the
        problem's one strict-convexity check: a build that raised, an
        ``AssumptionViolation`` or a ``ValueError`` for a custom L that is
        not finite or of rank 0, is kept, not tried again, and each call
        raises a fresh one with its message."""
        return self._once("engine", lambda: StandardForm.build(self.op, self.data, self.regularizer))

    def certificate(self):
        """The ``Lagrangian`` whose engine gives the regime verdict: this
        problem when its engine builds, and otherwise its twin with the
        identity penalty on (A, g), built once. The twin has its own
        window, dist(g, range A) < tau < ||g||; so a problem outside it is
        refused for its regime before its strict-convexity check fails."""
        try:
            self.engine()
            return self
        except AssumptionViolation:
            return self._once("certificate", lambda: Lagrangian(self.op, self.data, identity_regularizer(self.op.dims.dim_f), self.epsilon))

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
    if not lam >= 0:  # NaN fails it too
        raise ValueError(f"lam must be nonnegative, got {lam}")
    j = lag.regularizer.evaluate(f)
    return j + lam * (residual_norm_sq(lag.op, f, lag.data) - lag.epsilon)


def solve_lagrange(lag: Lagrangian, lam):
    """Minimize the inner problem at multiplier ``lam`` on the problem's
    engine (``StandardForm.solve``).

    Raises
    ------
    ValueError
        For ``lam`` outside (0, LAMBDA_MAX], NaN included, before the
        engine is built.
    AssumptionViolation
        If the penalty is not strictly convex along ker(A).
    ConvergenceFailure
        If the Krylov basis is exhausted above its residual target.
    """
    _check_multiplier(lam)
    return lag.engine().solve(lag, [lam])[0]


def _check_multiplier(lam):
    # comparisons that NaN fails: the Krylov solve's loop never ends on NaN
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if lam > LAMBDA_MAX:
        raise ValueError(
            f"lam={lam:g} exceeds LAMBDA_MAX={LAMBDA_MAX:g}; the inner system "
            "is too ill-conditioned to trust"
        )


def _solutions(lag, lams, F, slopes, stats):
    """The ``LagrangeSolution`` at each multiplier of ``lams`` from the rows
    of F, the tail of ``StandardForm.solve``. For a dense A and more than one
    multiplier, R = F A^T - g and A^T R are one matrix-matrix product each,
    at BLAS-3 speed, where one multiplier at a time costs two memory-bound
    matrix-vector products; otherwise A is applied row by row through its
    operator pair. Every ``f_lambda`` is its own array."""
    A, g = lag.op, lag.data
    if A.is_dense and len(F) > 1:
        R = F @ A.matrix.T
        R -= g
        AtR = R @ A.matrix
    else:
        R = np.array([A.apply(f) for f in F]) - g
        AtR = np.array([A.apply_adjoint(r) for r in R])
    return [
        _solution(lag, lam, f.copy(), r, atr, float(slope), s)
        for lam, f, r, atr, slope, s in zip(lams, F, R, AtR, slopes, stats)
    ]


def _solution(lag, lam, f, r, atr, slope, stats):
    """The ``LagrangeSolution`` at f from its data residual r = A f - g and
    A^T r. The discrepancy is
    ||r||^2 of the explicit residual, never an expanded form that cancels,
    and the optimality residual is the norm of the inner objective's
    gradient, grad J(f) + 2 lam A^T r."""
    disc_sq = float(r @ r)
    j_val = lag.regularizer.evaluate(f)
    opt_res = float(np.linalg.norm(lag.regularizer.gradient(f) + 2.0 * lam * atr))
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


def _rounding_level(form, f, lam):
    """The float64 rounding level of the full system's relative residual
    ||lam A^T g - (L^T L + lam A^T A) f|| / ||lam A^T g||: forming L^T L f
    rounds at eps ||L||^2 ||f||, which is eps ||L||^2 ||f|| / (lam ||A^T g||)
    of the right-hand side and so grows as 1 / lam."""
    eps = np.finfo(np.float64).eps
    return eps * form.lt_norm**2 * float(np.linalg.norm(f)) / (lam * form.rhs_norm)
