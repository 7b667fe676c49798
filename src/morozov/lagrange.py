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
Abar = (I - Q_W Q_W^T) A L^+ and gbar = (I - Q_W Q_W^T) g. The penalty
brings L^+ and W itself (``Regularizer.factors``): the identity penalty
is the case W = 0, L^+ = I; first differences have W = 1/sqrt(n) and an
O(n) cumulative sum for L^+; any other L is materialized, at n
applications, and one pivoted QR factorization of L^T gives its rank,
W and L^+ through triangular solves. A matrix-free A stays an operator.
The basis Abar V_k = U_{k+1} B_k is started from gbar. The
standard-form solution at every lam lies in span V_k, so each solve is the
k-by-k tridiagonal system (I + lam B_k^T B_k) z = lam ||Abar^T gbar|| e_1,
mapped back to f; the basis grows only when a multiplier needs more
columns than any before it. A singular R_W, A not seeing some direction of
ker L, is the strict-convexity check. Its ``solve`` takes a grid of
multipliers in rounds, whose size the block rule of ``StandardForm.solve``
bounds. In a round of m multipliers the largest searches for its k first,
growing the basis, and one ``dpttrf`` (``GolubKahan.factor_block``) then
factors the tridiagonals of all the others on its k columns. Every search
reads one kind of factors, those the basis keeps at its lam, and a round's
row is where the kept factors of each of the others start, bitwise those
it would form alone. So each multiplier's k follows one rule, and the
round shares the expansion F = Z V_k and its map back to f. Each
multiplier's A f - g and A^T (A f - g) are formed through the operator's
pair (``_solution``), as every product with A is.

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

import itertools
import logging
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _EPS, GolubKahan, _norm
from .errors import AssumptionViolation, ConvergenceFailure, DimensionMismatch
from .linops import LinearOperator, _as_real, _require_finite, from_callables, residual_norm_sq
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

# the block rule: a round of ``StandardForm.solve`` takes at most
# max(1, _BLOCK_FLOATS // n) of its pending points, n the larger dimension
# of A, so each of its arrays, Z and F = Z V_k, of at most n entries a row,
# holds at most this many entries, 8 MiB of float64: 2048 points at n = 512,
# 16 at n = 65536, where 200 in one round would hold an F of 105 MB. The
# factors of the round's tridiagonals (``GolubKahan.factor_block``) are one
# 4-by-m-by-k array, with k <= n, so the same rule bounds them by 4 times as
# many entries, 32 MiB, held only while the round's searches run
_BLOCK_FLOATS = 1 << 20


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


@dataclass
class StandardForm:
    """The inner problem in identity-penalty form, and the Golub-Kahan
    basis of that form: the one engine.

    ``op`` and ``data`` are Abar and gbar such that, at every lam, the
    inner minimizer is f = ``solution(z)`` for the minimizer z of
    ||z||^2 + lam ||Abar z - gbar||^2, with the same data residual
    A f - g = Abar z - gbar. So dist(gbar, range Abar) = dist(g, range A),
    and one ``basis`` of (Abar, gbar), grown on demand under ``lock``,
    serves every solve and the whole regime verdict (``certify``): its
    projected proof, and the solve that decides where it proves nothing.

    For the identity penalty Abar = A, gbar = g and f = z. Otherwise
    (Elden's transformation, BIT 22, 1982), with W an orthonormal basis of
    ker L (``Regularizer.factors``) and A W = Q_W R_W,

        Abar = (I - Q_W Q_W^T) A L^+,   gbar = (I - Q_W Q_W^T) g,
        f = L^+ z + W R_W^{-1} (Q_W^T g - H^T z),   H = (L^+)^T A^T Q_W,

    so that Q_W^T (A f - g) = 0. The identity penalty's form (A, g) is also
    the engine of the identity twin that judges the regime of a problem
    whose own engine cannot be built (``Lagrangian.certificate``).

    ``rhs_norm`` is ||A^T g||, the scale of the full system's residual,
    which is L^T times the standard form's; ``lt_norm`` bounds ||L^T||.
    When the form is (A, g), the basis's first column gives ||A^T g|| as
    alpha_1 beta_1, so ``rhs_norm`` is left out and read from there.

    The basis applies ``pair``, Abar's (forward, adjoint) without a check
    of the vectors it makes itself: ``op``'s own pair when the form is
    (A, g), and otherwise the closures of ``build`` on A's pair, which
    ``op`` wraps with the output check that ``certify``'s proof and
    callers of ``op`` get. A matrix-free A's callbacks are checked inside
    A's pair either way.
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
    pair: tuple = None

    def __post_init__(self):
        self.basis = GolubKahan(*(self.pair or self.op._pair), self.data, self.op.dims.dim_f)
        self.lock = threading.Lock()
        if self.rhs_norm is None:
            self.rhs_norm = self.abar_t_gbar

    @classmethod
    def build(cls, A: LinearOperator, g, regularizer: Regularizer):
        """Transform (A, g) for the penalty of ``regularizer``, read only
        through its ``factors()``: none for the identity; otherwise what
        ``factors()`` costs, d forward and d + 1 adjoint applications for a
        d-dimensional ker L, and the basis's first column at one adjoint
        more.

        Raises
        ------
        AssumptionViolation
            When |R_W[j, j]| <= KERNEL_CUTOFF ||A^T q_j|| for a column j:
            A does not see ker L, so the penalty is not strictly convex
            along ker(A).
        """
        pinv, pinv_adjoint, W, lt_norm = regularizer.factors()
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

        apply, apply_adjoint = A._pair

        # ndarray.dot dispatches faster than @, as fast as a scalar q at d = 1
        def forward(z):
            y = apply(pinv(z))
            return y - Qt.dot(y).dot(Qt)

        def adjoint(y):
            return pinv_adjoint(apply_adjoint(y - Qt.dot(y).dot(Qt)))

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
            pair=(forward, adjoint),
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

    def certify(self, lag):
        """The regime verdict of ``lag``, the problem the form was built
        from, and the residual it read: (regime, dist), regime "interior"
        exactly when tau < ||gbar|| and D'(LAMBDA_MAX) < 0.

        tau >= ||gbar|| is "noise_dominates", with dist = ``data_norm``, the
        residual of f = 0, before any further work. Otherwise, since f_lam
        minimizes ||z||^2 / lam + ||Abar z - gbar||^2, every x has
        ||A f_lam - g||^2 <= ||Abar x - gbar||^2 + ||x||^2 / lam. Under
        ``lock`` it reads k = 0, 1, ... columns, and grows the basis only
        past the columns it has, until, for x = V_k z and
        z = ``GolubKahan.tikhonov(LAMBDA_MAX, k)``, the projected bound
        (``GolubKahan.tikhonov_bound``) falls below epsilon; one forward
        application then confirms the bound on x itself, and a miss goes
        on. That proof is "interior", with dist = ||Abar x - gbar||. The
        search for it stops once the basis is exhausted at k or the
        residual estimate at LAMBDA_MAX on k columns passes ``KRYLOV_TOL``:
        the columns a solve there would take. Then the form's own ``solve``
        at LAMBDA_MAX decides, after ``lock`` is left, which it takes:
        "interior" when its D' < 0 and "too_optimistic" otherwise, with
        dist its residual. No other threshold is read. So, as a solve's,
        the verdict does not depend on how far earlier solves grew the
        basis. Either residual is an upper bound on dist(g, range(A)).
        """
        if not lag.tau < self.data_norm:
            return "noise_dominates", self.data_norm
        basis = self.basis
        with self.lock:
            k = 0
            while True:
                z = basis.tikhonov(LAMBDA_MAX, k)
                if basis.tikhonov_bound(LAMBDA_MAX, z) < lag.epsilon:
                    x = basis.expand(z)
                    r = self.op.apply(x) - self.data
                    if float(r @ r) + float(x @ x) / LAMBDA_MAX < lag.epsilon:
                        return "interior", float(np.linalg.norm(r))
                if (k == basis.k and basis.exhausted) or self._gain * basis.tikhonov_residuals(LAMBDA_MAX, k)[0] <= KRYLOV_TOL:
                    break
                k += 1
                if k > basis.k:
                    basis.step()
        disc_sq = self.solve(lag, [LAMBDA_MAX])[0].discrepancy_sq
        return "interior" if disc_sq < lag.epsilon else "too_optimistic", math.sqrt(disc_sq)

    def solve(self, lag, lams):
        """Projected Tikhonov solves of ``lag``, the problem the form was
        built from, at every multiplier of ``lams`` at once, in order;
        ``ValueError`` for one outside (0, LAMBDA_MAX], before any solve.

        Each multiplier's search (``_column``) runs from j = 0 and takes
        the solution on k = j + ``_LOOKAHEAD`` columns, or on all of an
        exhausted basis. One loop runs the points in rounds, each of at
        most max(1, ``_BLOCK_FLOATS`` // n) pending points in order, n the
        larger dimension of A: the block rule, which bounds every array a
        round holds. A round's largest multiplier searches first and grows
        the basis; each of the others starts its search from its row of one
        ``GolubKahan.factor_block`` on it (``_columns``), bitwise the
        factors it would form alone. The rows of F = Z V_k are one
        product, mapped back to f row by row, and ``_solution`` forms each
        row's residuals through the operator's pair. A point is accepted
        when its own explicit residual passes; otherwise its search goes on
        from j + 1, and the point stays pending, behind the points not yet
        searched, so the same loop bounds the retries.

        k depends on lam alone, not on how far earlier solves grew the
        basis nor on the other multipliers of the round, and so does the
        answer, up to the rounding of the basis expansion.

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
        rows = max(1, _BLOCK_FLOATS // max(lag.op.dims.dim_f, lag.op.dims.dim_g))
        pending = dict.fromkeys(range(len(lams)), 0)  # point: its search's first column
        while pending:
            starts = {i: pending.pop(i) for i in list(itertools.islice(pending, rows))}
            with self.lock:
                picks = self._columns(lag, lams, starts)
                js, exacts, zs, slopes = zip(*picks.values())
                Z = np.zeros((len(zs), max(map(len, zs))))
                for row, z in zip(Z, zs):
                    row[: len(z)] = z
                F = self.solution(self.basis.expand(Z))
            sols = [
                _solution(lag, lams[i], f.copy(), float(slope), {"method": "krylov", "iterations": len(z)})
                for i, f, slope, z in zip(picks, F, slopes, zs)
            ]
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
                    pending[i] = j + 1
        return out

    def _columns(self, lag, lams, starts):
        """``_column`` of every point of ``starts``, which maps a point of
        ``lams`` to the column its search starts from, under ``lock``, in
        the order of ``starts``.

        The largest multiplier searches first, and grows the basis. One
        ``GolubKahan.factor_block`` then factors the tridiagonals of all
        the others on the basis's k columns, and each of them starts its
        search from its own row, which ``GolubKahan.keep`` copies into its
        kept factors: bitwise those its search would form alone. So the
        block is freed when the call returns.
        """
        top = max(starts, key=lambda i: lams[i])
        picks = {top: self._column(lag, float(lams[top]), starts[top])}
        rest = [i for i in starts if i != top]
        if rest:
            block = self.basis.factor_block([lams[i] for i in rest])
            for row, i in enumerate(rest):
                self.basis.keep(float(lams[i]), block[:, row])
                picks[i] = self._column(lag, float(lams[i]), starts[i])
        return {i: picks[i] for i in starts}

    def _column(self, lag, lam, j):
        """The search of one multiplier from column j, under ``lock``:
        (j, exact, z, slope) for the first column j whose projected solution
        passes the residual estimate and whose discrepancy error, against
        the solution z on k columns, passes too; slope is z's
        ``GolubKahan.discrepancy_slope``.

        1. Find the first column from j whose residual estimate passes:
           ``GolubKahan.tikhonov_residuals`` read from column j on, from
           the factors kept at lam, while the basis grows only until a
           column passes, each new column's estimate read once.
        2. Grow the basis to k = j + ``_LOOKAHEAD`` columns or to
           exhaustion.
        3. Unless the basis is exhausted (``exact``), whose solution is
           exact, estimate the discrepancy error of column j against the
           solution on k; if it fails, go on from j + 1.
        """
        basis, gain = self.basis, self._gain
        while True:
            if (ahead := (gain * basis.tikhonov_residuals(lam, j) <= KRYLOV_TOL).nonzero()[0]).size:
                j += int(ahead[0])
            else:
                basis.step()
                while not gain * basis.tikhonov_residuals(lam, basis.k)[0] <= KRYLOV_TOL:
                    basis.step()
                j = basis.k
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
        op.require_finite("A")
        regularizer.seminorm_operator.require_finite("L")
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


def _solution(lag, lam, f, slope, stats):
    """The ``LagrangeSolution`` at f, which the engine made. Its data
    residual r = A f - g and A^T r are formed through A's pair, and L f
    once through L's, for J = ||L f||^2 and grad J = 2 L^T (L f). The
    discrepancy is ||r||^2 of the explicit residual, never an expanded form
    that cancels, and the optimality residual is the norm of the inner
    objective's gradient, grad J(f) + 2 lam A^T r."""
    (apply, apply_adjoint), (penalty, penalty_adjoint) = lag.op._pair, lag.regularizer.seminorm_operator._pair
    r, Lf = apply(f) - lag.data, penalty(f)
    disc_sq, j_val = float(r @ r), float(Lf @ Lf)
    opt_res = _norm(2.0 * penalty_adjoint(Lf) + 2.0 * lam * apply_adjoint(r))
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
    return _EPS * form.lt_norm**2 * _norm(f) / (lam * form.rhs_norm)
