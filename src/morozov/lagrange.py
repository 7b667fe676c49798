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
dense or matrix-free, are solved by one engine: ``StandardForm`` and the
Golub-Kahan basis it owns. It brings the penalty to the identity: for first
differences, Elden's transformation replaces (A, g) by
Abar = (I - q q^T) A L^+ and gbar = (I - q q^T) g, with L^+ an O(n)
cumulative sum and q the normalized image of the constants. The basis
Abar V_k = U_{k+1} B_k is started from gbar. The standard-form solution
at every lam lies in span V_k, so each solve is the k-by-k tridiagonal
system (I + lam B_k^T B_k) z = lam ||Abar^T gbar|| e_1, mapped back to f
in O(n); the basis grows only when a multiplier needs more columns than
any before it. For first differences, A not annihilating the constants
is the strict-convexity check. Its ``solve`` takes a block of m
multipliers: each keeps its own search for its k, and the block shares
its tail, F = Z V_k and, for a dense A, R = F A^T - g and A^T R, one
matrix-matrix product each.

Problems with a custom penalty are solved by ``SpectralFactors``,
factored once whether A and L are dense or matrix-free; a matrix-free
map is materialized for it. The generalized eigendecomposition

    A^T A X = B X diag(mu),   X^T B X = I,   B = L^T L + A^T A,

turns the system at every lam into the diagonal one
(nu + lam mu) y = lam X^T A^T g with f = X y, nu = diag(X^T L^T L X),
so each solve after the first costs a few O(n^2) products. nu is 1 - mu
in exact arithmetic; where that is below sqrt(eps), along ker L or where
L is small next to A, it is formed as ||L x_i||^2, since the rounding of
1 - mu would swamp lam mu there. B is positive definite exactly when
ker L and ker A intersect trivially, so building the factorization is
also the strict-convexity check. It costs O(n^3) time and O(n^2)
memory, which a matrix-free A with a custom penalty pays too. Its
``solve`` takes a block of m multipliers too: F = Y X^T is one product,
and so is the tail.

Both engines end in ``_solutions``, one tail for a block of multipliers:
for a dense A and m > 1, R = F A^T - g and A^T R are one matrix-matrix
product each, O(m n^2) at BLAS-3 speed, in place of two memory-bound
matrix-vector products per multiplier; a single multiplier, every
evaluation of a selection, applies A through its operator pair.

``Lagrangian`` picks each engine once, by the penalty's kind alone:
``engine``, which ``solve_lagrange``, every sweep and the regime verdict
run on. ``certificate`` is the Lagrangian whose engine gives the verdict:
the problem itself, or, when its engine cannot be built, its twin with
the identity penalty on (A, g). It keeps what each build returned, or the
``AssumptionViolation`` it raised, so no build runs twice. An engine's
``solve`` takes the ``Lagrangian`` it was built from: holding it would
make a reference cycle, which frees the factors only when the cyclic
garbage collector runs.

Every solve also returns the slope d||A f - g||^2 / dlam, the dual's
D''(lam), which the Newton search over lam uses. With r = A f - g and
M = L^T L + lam A^T A it is -2 (A^T r)^T M^{-1} (A^T r); each engine
takes it from what it already holds: the projected tridiagonal in O(k),
the spectral factors in O(n). Its right limit at 0, -2 ||Abar^T gbar||^2,
which places the search's first multiplier, is each engine's
``slope_at_zero``, read without an application.
"""

import logging
import math
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._kernels import GolubKahan
from .errors import AssumptionViolation, ConvergenceFailure, DimensionMismatch
from .linops import LinearOperator, from_callables, residual_norm_sq
from .regularizers import Regularizer, identity_regularizer

__all__ = [
    "KRYLOV_TOL",
    "LAMBDA_MAX",
    "Lagrangian",
    "LagrangeSolution",
    "SpectralFactors",
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


@dataclass(frozen=True)
class SpectralFactors:
    """Generalized eigendecomposition of a problem, dense or matrix-free.

    ``X`` holds the eigenvectors of the pencil (A^T A, L^T L + A^T A),
    normalized so that X^T (L^T L + A^T A) X = I; ``mu`` the eigenvalues,
    clipped to [0, 1]; ``nu`` the penalty's, X^T L^T L X = diag(nu), which
    is 1 - mu but where that is below sqrt(eps), where ``build`` forms
    ||L x_i||^2; ``c`` the data in these coordinates, X^T A^T g;
    ``kernel`` the columns of ker L (see ``build``); and ``data_norm``
    ||gbar||, the upper end of the regime window: g less its best fit from
    A(ker L), whose columns A x_i are orthonormal, so that
    ||gbar||^2 = ||g||^2 - sum of c_i^2 over ``kernel``.
    """

    X: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    c: np.ndarray
    kernel: np.ndarray
    data_norm: float

    @property
    def data_label(self):
        """How messages name ``data_norm``: ||gbar|| when L has a kernel."""
        return "||gbar||" if self.kernel.any() else "||g||"

    @property
    def slope_at_zero(self):
        """D''(0+) = -2 ||Abar^T gbar||^2 = -2 sum c_i^2 / nu_i over the
        columns outside ``kernel``, in O(n): the limit of ``solve``'s slope,
        in which a column of ker L carries no weight."""
        live = ~self.kernel
        return -2.0 * float(np.sum(self.c[live] ** 2 / self.nu[live]))

    @classmethod
    def build(cls, A: LinearOperator, L: LinearOperator, g):
        """Factor the pencil; one O(n^3) eigendecomposition. A matrix-free A
        or L is materialized first, at ``dim_f`` forward applications, and L
        is applied once more per column whose 1 - mu is below sqrt(eps), for
        ``nu``.

        Raises
        ------
        AssumptionViolation
            If L^T L + A^T A is singular or numerically singular, i.e. the
            penalty is not strictly convex along ker(A).
        """
        # the materialized maps are dropped before the O(n^3) factorizations,
        # so fewer n^2 blocks are held at the peak
        Am, Lm = A.materialize(), L.materialize()
        gram_a = Am.T @ Am
        atg = Am.T @ g
        B = Lm.T @ Lm
        del Am, Lm
        l_sq = float(np.trace(B))  # ||L||_F^2, a bound on ||L||^2
        B += gram_a
        try:
            # rounding can let Cholesky succeed on a semidefinite matrix with
            # a sqrt(eps)-scale pivot, which would yield garbage
            pivots = np.abs(np.diagonal(scipy.linalg.cholesky(B, check_finite=False)))
            singular = pivots.min() ** 2 <= B.shape[0] * np.finfo(np.float64).eps * pivots.max() ** 2
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
        # 1 - mu = ||L x_i||^2 rounds at eps, which swamps lam mu where it is
        # near 0: below sqrt(eps) it has lost half its digits, so there
        # ||L x_i||^2 is formed, which rounds relative to itself, at one
        # application of L per column. 1 - mu is L's share of ||x_i||_B^2,
        # so it is small also where L is merely small next to A; a column of
        # ker L is one whose formed ||L x_i||^2 is at most the rounding of
        # applying L, n eps ||L||_F^2 ||x_i||^2, which compares L with
        # itself alone. These are the columns lam -> 0 fits exactly: they
        # leave gbar (``data_norm``) and D''(0+) (``slope_at_zero``).
        eps = np.finfo(np.float64).eps
        nu = 1.0 - mu
        kernel = np.zeros_like(mu, dtype=bool)
        for i in np.flatnonzero(nu <= math.sqrt(eps)):
            x = X[:, i]
            lx = L.apply(x)
            nu[i] = lx @ lx
            kernel[i] = nu[i] <= len(mu) * eps * l_sq * (x @ x)
        c = X.T @ atg
        for arr in (X, mu, nu, c, kernel):
            arr.setflags(write=False)
        gbar_sq = float(g @ g) - float(np.sum(c[kernel] ** 2))
        return cls(X=X, mu=mu, nu=nu, c=c, kernel=kernel, data_norm=math.sqrt(max(gbar_sq, 0.0)))

    def solve(self, lag, lams):
        """The inner minimizers of ``lag``, the problem the factors were
        built from, at every multiplier of ``lams`` at once, in order;
        ``ValueError`` for one outside (0, LAMBDA_MAX], before any solve.

        The rows f_lam = X y of F, with (nu + lam mu) y = lam c, are one
        product Y X^T, and ``_solutions`` forms the residuals. Each slope
        d||A f_lam - g||^2 / dlam = -2 sum c^2 nu^2 / d^3 with
        d = nu + lam mu costs O(n): X^T A^T r = -c nu / d and
        M^{-1} = X diag(1 / d) X^T.
        """
        for lam in lams:
            _check_multiplier(lam)
        col = np.asarray(lams, dtype=np.float64)[:, None]
        d = self.nu + col * self.mu
        slopes = -2.0 * np.sum((self.c * self.nu) ** 2 / d**3, axis=1)
        F = (col * self.c / d) @ self.X.T
        return _solutions(lag, lams, F, slopes, [{"method": "spectral"} for _ in lams])


# ker L and ker A intersect trivially for first differences exactly when
# A W != 0, W = 1/sqrt(n). ||A W|| at most this share of ||A^T q||, with
# q = A W / ||A W|| (a lower bound on ||A||), counts as zero: a solution's
# constant part, (q^T g - h^T z) / ||A W||, would then carry rounding of
# order eps ||A^T q|| ||z|| / ||A W||, above 2e-6 ||z||.
KERNEL_CUTOFF = 1e-10


def _difference_pinv(z):
    """L^+ z for the first-difference map L: the vector with successive
    differences z and mean zero; row by row for a block of rows."""
    x = np.cumsum(np.concatenate((np.zeros(z.shape[:-1] + (1,)), z), axis=-1), axis=-1)
    return x - x.sum(axis=-1, keepdims=True) / x.shape[-1]


def _difference_pinv_adjoint(y):
    """(L^+)^T y: the suffix sums of y - mean(y), from the second entry on."""
    return np.cumsum((y - y.mean())[:0:-1])[::-1]


@dataclass
class StandardForm:
    """The inner problem of a built-in penalty in identity-penalty form,
    and the Golub-Kahan basis of that form: the Krylov engine.

    ``op`` and ``data`` are Abar and gbar such that, at every lam, the
    inner minimizer is f = ``solution(z)`` for the minimizer z of
    ||z||^2 + lam ||Abar z - gbar||^2, with the same data residual
    A f - g = Abar z - gbar. So dist(gbar, range Abar) = dist(g, range A),
    and one ``basis`` of (Abar, gbar), grown on demand under ``lock``,
    serves the regime certificate (``certify``) and every solve.

    For the identity penalty Abar = A, gbar = g and f = z. For first
    differences (Elden's transformation, BIT 22, 1982) ker L is spanned by
    W = 1/sqrt(n); with q = A W / ||A W||,

        Abar = (I - q q^T) A L^+,   gbar = (I - q q^T) g,
        f = x + W (A W)^T (g - A x) / ||A W||^2,   x = L^+ z,

    where L^+ is a cumulative sum followed by subtracting the mean, O(n).
    The identity penalty's form (A, g) is also the engine of the identity
    twin that judges the regime of a problem whose own engine cannot be
    built (``Lagrangian.certificate``).

    ``rhs_norm`` is ||A^T g||, the scale of the full system's residual,
    which is L^T times the standard form's; ``lt_norm`` bounds ||L^T||.
    When the form is (A, g), the basis's first column gives ||A^T g|| as
    alpha_1 beta_1, so ``rhs_norm`` is left out and read from there.
    """

    op: LinearOperator
    data: np.ndarray
    rhs_norm: float = None
    lt_norm: float = 1.0
    # first differences: ||A W||, q^T g, and (L^+)^T A^T q, which gives
    # q^T A x = h^T z without an application
    aw_norm: float = None
    qg: float = None
    h: np.ndarray = None

    def __post_init__(self):
        self.basis = GolubKahan(self.op.apply, self.op.apply_adjoint, self.data, self.op.dims.dim_f)
        self.lock = threading.Lock()
        if self.rhs_norm is None:
            self.rhs_norm = self.abar_t_gbar

    @classmethod
    def build(cls, A: LinearOperator, g, kind):
        """Transform (A, g) for the penalty ``kind``; O(n) plus one forward
        and two adjoint applications for first differences, none
        otherwise, and the basis's first column at one adjoint more.

        Raises
        ------
        AssumptionViolation
            For first differences when ||A W|| <= KERNEL_CUTOFF ||A^T q||:
            A does not see the constants, so the penalty is not strictly
            convex along ker(A).
        """
        if kind != "first_difference":
            return cls(op=A, data=g)
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
        """The inner minimizer f for the standard-form minimizer z; row by
        row for a block of rows."""
        if self.aw_norm is None:
            return z
        t = (self.qg - z @ self.h) / self.aw_norm
        return _difference_pinv(z) + t[..., None] / math.sqrt(z.shape[-1] + 1)

    @property
    def data_norm(self):
        """||gbar||, the basis's beta_1, with D'(0) = ||gbar||^2 - epsilon."""
        return self.basis.beta[0]

    @property
    def data_label(self):
        """How messages name ``data_norm``: ||gbar|| in Elden's form."""
        return "||g||" if self.aw_norm is None else "||gbar||"

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
        ``lock`` the basis grows one column at a time until, for
        x = V_k z and z = ``GolubKahan.tikhonov(LAMBDA_MAX)``, the projected
        bound (``GolubKahan.tikhonov_bound``) falls below epsilon; one
        forward application then confirms the bound on x itself, and a
        miss goes on growing. It returns None once the basis is exhausted
        or its residual estimate at LAMBDA_MAX passes ``KRYLOV_TOL``: the
        columns a solve there would take. No other threshold is read.
        """
        basis = self.basis
        with self.lock:
            while True:
                z = basis.tikhonov(LAMBDA_MAX)
                if basis.tikhonov_bound(LAMBDA_MAX, z) < epsilon:
                    x = basis.expand(z)
                    r = self.op.apply(x) - self.data
                    if float(r @ r) + float(x @ x) / LAMBDA_MAX < epsilon:
                        return float(np.linalg.norm(r))
                if basis.exhausted or self._gain * basis.tikhonov_residuals(LAMBDA_MAX, basis.k)[0] <= KRYLOV_TOL:
                    return None
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
    is a read-only copy of ``g``, so the engines built from it cannot go
    stale. A NaN or an infinity in ``data`` or a dense ``op``, on which a
    Krylov solve never returns, raises ``ValueError`` naming the first
    such entry; a matrix-free ``op`` cannot be checked up front.

    The engine and the certificate are built lazily, each at most once,
    under one lock: ``engine`` and ``certificate`` keep what each build
    returned, or the message of the ``AssumptionViolation`` it raised, by
    one rule for every penalty, so a problem that fails the
    strict-convexity check is checked once and raises the same message on
    every later call.
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
        if not 0 < epsilon < math.inf:  # NaN fails it too
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        _require_finite("data", data)
        if op.is_dense:
            _require_finite("A", op.matrix)
        data.setflags(write=False)
        self.op = op
        self.data = data
        self.regularizer = regularizer
        self.epsilon = float(epsilon)
        self._built = {}  # each lazy build: what it returned, or the message it raised
        self._lock = threading.Lock()

    def _once(self, name, build):
        """What ``build()`` returned, or the message of the
        ``AssumptionViolation`` it raised, kept under ``name``: built once
        under the one lock, whichever thread asks first."""
        with self._lock:
            if name not in self._built:
                try:
                    self._built[name] = build()
                except AssumptionViolation as exc:
                    self._built[name] = str(exc)
            return self._built[name]

    def engine(self):
        """The problem's inner solver, built once: ``StandardForm`` for a
        built-in penalty, ``SpectralFactors`` for a custom one. It is the
        problem's one strict-convexity check: a build that raised
        ``AssumptionViolation`` is kept, not tried again, and each call
        raises a fresh one with its message."""
        if self.regularizer.kind == "custom":
            built = self._once("engine", lambda: SpectralFactors.build(self.op, self.regularizer.seminorm_operator, self.data))
        else:
            built = self._once("engine", lambda: StandardForm.build(self.op, self.data, self.regularizer.kind))
        if isinstance(built, str):
            raise AssumptionViolation(built)
        return built

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
    engine (``StandardForm.solve``, ``SpectralFactors.solve``).

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
    of F: the tail both engines share. For a dense A and more than one
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
