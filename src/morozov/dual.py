"""Dual function of the discrepancy constraint and its maximization.

The dual function is the optimal value of the inner problem at each
multiplier,

    D(lam) = inf_f  J(f) + lam * (||A f - g||^2 - epsilon),

with D(0) = 0. As an infimum of affine functions of lam, D is concave,
and for quadratic penalties it is differentiable with

    D'(lam) = ||A f_lam - g||^2 - epsilon.

As lam drops to 0, f_lam tends to the penalty's kernel, so the right
derivative is D'(0) = ||gbar||^2 - epsilon, where gbar is g less its
best fit from A(ker L): the data of the problem's standard form. For the
identity penalty gbar = g. Its slope there is D''(0+) = -2 ||Abar^T gbar||^2,
with Abar the operator of the standard form.

Maximizing D produces the multiplier at which the discrepancy equation
||A f - g||^2 = epsilon holds, i.e. the Tikhonov weight alpha = 1/lam
selected by the discrepancy principle. A maximizer exists exactly when

    dist(g, range(A)) < tau < ||gbar||        (tau = sqrt(epsilon)),

but the search only visits multipliers up to its conditioning guard
``LAMBDA_MAX``, so the window it can honour is D'(0+) > 0 > D'(LAMBDA_MAX),
that is ||A f_LAMBDA_MAX - g|| < tau < ||gbar||. ``diagnose_regime``
classifies problems by that window: "interior" when both hold,
"noise_dominates" when tau >= ||gbar|| (D is nonincreasing, dual maximum
at 0), "too_optimistic" when D' >= 0 up to LAMBDA_MAX, which
tau <= dist(g, range(A)) implies (D increases forever, or up to beyond
LAMBDA_MAX, and no maximum is reached).

D' is nonincreasing and every inner solve also returns D''(lam), the
slope d||A f_lam - g||^2 / dlam, at O(k) cost. The default
maximization is a safeguarded Newton iteration on

    psi(lam) = 1/||A f_lam - g|| - 1/tau,

the secular-equation device of Reinsch (1967) and More (1977) that Engl,
Hanke & Neubauer (1996, sec. 4.3) use for the discrepancy principle.
||A f_lam - g||^2 = dist^2 + sum_i (c_i/s_i)^2 / (lam + 1/s_i)^2 has the
trust-region form, so psi is concave and increasing, and Newton's step
lam + delta lands at or below the root from either side: from any lam
with D' > 0 it climbs to the root without overshooting. That holds at
lam = 0 too, where ||r|| = ||gbar|| and D''(0+) are read from the engine
without a solve: the search starts at Newton's step from 0, below the
root, so Newton's iterates grow a Krylov basis only to the columns the
root needs. The steps stay inside a bracket that every evaluation
tightens by the sign of D'; a step that leaves it, and every step of
bisection, kept as the checker, takes the one fallback, doubling the
bracket's lower end while it is open above and its arithmetic mean
once it is closed, which makes the iteration globally convergent.
About 6 evaluations reach rtol = 1e-8 where bisection needs about 27.
Plain projected gradient ascent, lam <- max(lam + rho_n D'(lam), 0)
with rho_n = 2/n, started from 0, is the paper's iteration and stays
available. All three methods run in one search loop, which evaluates,
keeps the bracket and fails in one way; only the choice of the next
multiplier differs.

The regime verdict has one algorithm and one code path for every
caller: one method of the engine of the problem's certificate
(``Lagrangian.certificate``), the problem itself or, when its engine
cannot be built, its identity twin on (A, g), gives it whole
(``StandardForm.certify``), and ``diagnose_regime`` packs its answer.
In the engine's Golub-Kahan basis the projected solution at LAMBDA_MAX
proves D'(LAMBDA_MAX) < 0 as soon as its residual plus its penalty over
LAMBDA_MAX drops below epsilon; otherwise the engine's own solve at
LAMBDA_MAX decides. Its only thresholds are LAMBDA_MAX and
``KRYLOV_TOL``, which the search obeys too: no least-squares solve and
no rank cutoff on A is used.

This module only searches: the problem's engine (``Lagrangian.engine``),
which the regime verdict builds, serves every evaluation and is the
strict-convexity check. Whatever the penalty, every evaluation is a
projected solve in the verdict's basis, which grows only when a
multiplier needs more columns; the penalty's standard-form factors
(``Regularizer.factors``), for a custom L one materialization and one
factorization, are formed once when the engine is built, and a
matrix-free A stays an operator.
``sweep_dual`` runs on the same engine, in blocks of multipliers whose
size one rule bounds (``_BLOCK_FLOATS``).
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, RegimeError
from .lagrange import LAMBDA_MAX, Lagrangian, solve_lagrange
from .linops import _as_real, from_callables

__all__ = [
    "DualEvaluation",
    "RegimeDiagnosis",
    "SelectionResult",
    "VerificationReport",
    "eval_dual",
    "diagnose_regime",
    "failed_inequality",
    "maximize_dual",
    "sweep_dual",
    "verify_morozov_solution",
    "concavity_defects",
]

log = logging.getLogger(__name__)

# Newton's and bisection's first multiplier where Newton's step from 0 is
# not a positive float, as where D''(0+) = -2 ||Abar^T gbar||^2 underflows
# to 0 on data near the smallest normal floats
_LAMBDA_INIT = 1.0
# gradient ascent's step rule rho_n = c / n, with this c
_ASCENT_STEP = 2.0


@dataclass(frozen=True)
class DualEvaluation:
    """D, D' and D'' at one multiplier, with the inner solution when lam > 0.

    ``d_second`` is D''(lam) = d||A f_lam - g||^2 / dlam, the inner
    solution's ``discrepancy_slope``; at lam = 0 its right limit
    -2 ||Abar^T gbar||^2, read from the engine.
    """

    lam: float
    d_value: float
    d_prime: float
    d_second: float = None
    solution: object = None
    error: str = None


@dataclass(frozen=True)
class RegimeDiagnosis:
    """Where the tolerance sits relative to the attainable discrepancies.

    ``data_norm`` is ||gbar||, the upper end of the existence window: the
    norm of the data of the problem's standard form, g less its best fit
    from A(ker L), so that D'(0) = ||gbar||^2 - tau^2. It is ||g|| for the
    identity penalty and for a custom penalty whose L is injective, and
    ``data_label`` names which.
    ``dist_to_range`` is the residual ||A x - g|| the verdict read (see
    ``diagnose_regime``): ``data_norm`` itself, the residual of x = 0, when
    the noise dominates, and otherwise that of a solution at or for
    LAMBDA_MAX. It is an upper bound on dist(g, range(A)).
    """

    dist_to_range: float
    data_norm: float
    tau: float
    regime: str  # "interior" | "noise_dominates" | "too_optimistic"
    data_label: str = "||g||"


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the dual maximization.

    ``iterations`` records every multiplier visited, in order, as
    (lam, D, D') triples: the first at Newton's step from lam = 0, below
    the root (at 0 for gradient ascent), then every step, fallbacks and
    steps capped at LAMBDA_MAX included, the last at ``lambda_star``. At
    rtol = 1e-8 Newton makes about 6 evaluations and bisection about 27.
    ``alpha`` is defined as ``1.0 / lambda_star``.
    ``diagnosis`` is the regime diagnosis the selection ran under; None
    when the result was rebuilt from storage.
    """

    lambda_star: float
    alpha: float
    f_star: np.ndarray
    discrepancy: float
    iterations: list
    method: str
    converged: bool
    diagnosis: RegimeDiagnosis = None


@dataclass(frozen=True)
class VerificationReport:
    """Re-checks of a converged selection; one dict per check."""

    passed: bool
    checks: list = field(default_factory=list)

    def failed_items(self):
        return [c["name"] for c in self.checks if not c["passed"]]


def eval_dual(lag: Lagrangian, lam):
    """Evaluate D, D' and D'' at one multiplier.

    At lam = 0 no inner solve is attempted: D(0) = 0, the right
    derivative is ||gbar||^2 - epsilon, with ||gbar|| the ``data_norm`` of
    the engine of the problem's certificate (``Lagrangian.certificate``),
    as ``diagnose_regime`` reads it, and D''(0+) = -2 ||Abar^T gbar||^2 is
    that engine's ``slope_at_zero``, read without an application. That
    builds the problem's engine, or its identity twin's where it cannot be
    built, but raises no ``AssumptionViolation``.
    For lam > 0 the inner problem is solved by ``solve_lagrange`` on the
    problem's ``Lagrangian.engine`` and

        D(lam) = J(f_lam) + lam * D'(lam),
        D'(lam) = ||A f_lam - g||^2 - epsilon,
        D''(lam) = d||A f_lam - g||^2 / dlam,

    the last from the engine's own quantities (``LagrangeSolution``).
    """
    if not lam >= 0:  # NaN fails it too
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if lam == 0:
        engine = lag.certificate().engine()
        return DualEvaluation(lam=0.0, d_value=0.0, d_prime=engine.data_norm**2 - lag.epsilon,
                              d_second=engine.slope_at_zero)
    return _evaluation(lag, solve_lagrange(lag, lam))


def _evaluation(lag, sol):
    """D, D' and D'' from the inner solution ``sol`` at its multiplier."""
    d_prime = sol.discrepancy_sq - lag.epsilon
    return DualEvaluation(
        lam=sol.lam, d_value=sol.j_value + sol.lam * d_prime, d_prime=d_prime,
        d_second=sol.discrepancy_slope, solution=sol,
    )


def diagnose_regime(lag: Lagrangian):
    """Classify where tau falls in the window the search can honour,
    ||A f_LAMBDA_MAX - g|| < tau < ||gbar||: "interior" exactly when
    tau < ||gbar|| and D'(LAMBDA_MAX) < 0 on the engine of the problem's
    certificate (``Lagrangian.certificate``).

    The engine gives the whole verdict (``StandardForm.certify``), and
    this function only packs it: the regime, and as ``dist_to_range`` the
    residual it read. ||gbar|| and its label are the engine's
    ``data_norm`` and ``data_label``; tau >= ||gbar|| is
    "noise_dominates" before any further work. Otherwise the engine's
    basis grows until its projected solution x at LAMBDA_MAX proves
    D'(LAMBDA_MAX) < 0, or, where no such proof comes, the engine's own
    solve at LAMBDA_MAX decides by the sign of its D'. Either residual is
    an upper bound on dist(g, range(A)) and, in exact arithmetic, at most
    ||gbar||, which f = 0 attains.

    Equalities are classified into the failing regime, since the
    existence guarantee needs strict inequalities: D'(LAMBDA_MAX) = 0 is
    "too_optimistic". tau = ||gbar|| is "noise_dominates" whatever the
    residual.
    """
    cert = lag.certificate()
    engine = cert.engine()
    regime, dist = engine.certify(cert)
    return RegimeDiagnosis(dist_to_range=dist, data_norm=engine.data_norm, tau=lag.tau,
                           regime=regime, data_label=engine.data_label)


def failed_inequality(diag: RegimeDiagnosis):
    """Human-readable statement of the violated inequality, or None."""
    upper = diag.data_label
    if diag.regime == "noise_dominates":
        return (
            f"tau >= {upper} (tau={diag.tau:g}, {upper}={diag.data_norm:g}): "
            "the data is dominated by the noise"
        )
    if diag.regime == "too_optimistic":
        return (
            f"tau <= ||A f - g|| at lam = LAMBDA_MAX={LAMBDA_MAX:g} (tau={diag.tau:g}, residual="
            f"{diag.dist_to_range:g}, an upper bound on dist(g, range(A))): D' >= 0 up to "
            "LAMBDA_MAX, so the search reaches no maximizer: the noise estimate is too optimistic"
        )
    return None


def maximize_dual(lag: Lagrangian, method="newton", rtol=1e-8, max_iter=None):
    """Find the multiplier maximizing D, i.e. solve D'(lam) = 0.

    Convergence is declared when |D'(lam)| <= rtol * epsilon, which is
    the discrepancy equation ||A f - g||^2 = epsilon at relative
    tolerance rtol.

    Before the search, ``diagnose_regime`` gives the regime verdict on
    the problem's own engine, whose Golub-Kahan basis the search then
    reuses. Every method then runs the same loop: evaluate, stop when the
    test passes at lam > 0, tighten the bracket (lo, hi), first (0, inf),
    by the sign of D', and pick the next multiplier by the method. No
    method evaluates above LAMBDA_MAX.

    Parameters
    ----------
    method : {"newton", "bisection", "gradient_ascent"}
        Newton and bisection start at Newton's step on psi from lam = 0,
        lam_0 = 2 s (1 - sqrt(s) / tau) / D''(0+) with s = ||gbar||^2,
        which psi's concavity keeps below the root. Both are read from
        the engine, as ``eval_dual`` at 0 reads them, and that read is
        not a trace entry. lam_0 is capped at LAMBDA_MAX, which its
        rounding can pass when the root lies within an ulp of it, and is
        1 where it is not a positive float, as where D''(0+) has
        underflowed to 0. Both step strictly inside the bracket, so
        each evaluation tightens it; both are globally convergent since
        D' is nonincreasing, and the regime verdict has proved
        D'(0+) > 0 > D'(LAMBDA_MAX), so the root lies in (0, LAMBDA_MAX).
        Newton steps to lam + delta, Newton's increment on
        psi(lam) = 1/||A f_lam - g|| - 1/tau with
        D'' = ``DualEvaluation.d_second``, from either side: psi's
        concavity puts the step at or below the root
        (``_next_multiplier``). A step that leaves the bracket or passes
        LAMBDA_MAX, and every bisection step, falls back to doubling lo,
        capped at LAMBDA_MAX, while hi = inf, and otherwise to the
        bracket's mean: bisection doubles or halves until D' changes
        sign, then bisects. Gradient ascent iterates
        lam <- min(max(lam + rho_n D'(lam), 0), LAMBDA_MAX) from lam = 0,
        with rho_n = 2 / n at step n: its steps ignore the bracket,
        which only records them, and the cap stands where the verdict
        proved D' < 0.
    rtol : float in (0, 1)
        At rtol >= 1 the test accepts every lam whose discrepancy is at
        most sqrt(1 + rtol) tau, however far below tau.
    max_iter : int or None
        Evaluations after the first, at most; a bool is refused. None
        picks a per-method default: 200 for Newton and bisection, 10000
        for gradient ascent (the unaccelerated iteration needs far more
        steps for the same tolerance).

    Raises
    ------
    ValueError
        For an option out of its range or NaN, before any work.
    RegimeError
        If the problem is not in the interior regime: tau >= ||gbar||, or
        D'(LAMBDA_MAX) >= 0, before any evaluation. This takes precedence
        over an ``AssumptionViolation``. It is the search's only regime
        test: every later failure is a ``ConvergenceFailure``.
    AssumptionViolation
        If the penalty is not strictly convex along ker(A): the problem's
        engine, whose build failed, is asked for after the regime gate.
    ConvergenceFailure
        If ``max_iter`` is exhausted, or the bracket shrinks to adjacent
        floats (the inner solves cannot resolve |D'| <= rtol * epsilon);
        the message states the bracket and the smallest |D'| reached, and
        the trace so far is attached, and ``err.best`` is that smallest
        |D'|, for every method. Only Newton and bisection can run out of
        floats. Also if an inner solve misses its precision
        (``solve_lagrange``).
    """
    # comparisons that NaN fails, so a NaN option is refused too
    if method not in ("newton", "bisection", "gradient_ascent"):
        raise ValueError(f"unknown method {method!r}")
    if not 0 < rtol < 1:
        raise ValueError(f"rtol must be in (0, 1), got {rtol}")
    if max_iter is None:
        max_iter = 10_000 if method == "gradient_ascent" else 200
    # True is an int, and would run as max_iter=1
    if isinstance(max_iter, bool) or not (isinstance(max_iter, (int, np.integer)) and max_iter >= 0):
        raise ValueError(f"max_iter must be a nonnegative integer, got {max_iter!r}")

    diag = diagnose_regime(lag)
    if diag.regime != "interior":
        raise RegimeError(
            f"regime is {diag.regime!r}, not interior: {failed_inequality(diag)}",
            regime=diag.regime,
        )
    # the strict-convexity check, behind the regime gate
    engine = lag.engine()

    trace = []
    d_tol = rtol * lag.epsilon
    lo, hi = 0.0, math.inf
    if method == "gradient_ascent":
        lam = 0.0
    else:
        lam = _first_multiplier(engine.data_norm**2, engine.slope_at_zero, lag.tau)
    for n in range(1, max_iter + 2):
        e = eval_dual(lag, lam)
        trace.append((e.lam, e.d_value, e.d_prime))
        # at lam = 0 there is no solution to return
        if lam > 0 and abs(e.d_prime) <= d_tol:
            return SelectionResult(
                lambda_star=e.lam, alpha=1.0 / e.lam, f_star=e.solution.f_lambda,
                discrepancy=float(math.sqrt(e.solution.discrepancy_sq)), iterations=trace,
                method=method, converged=True, diagnosis=diag,
            )
        # gradient ascent may step outside the bracket, which only tightens
        if e.d_prime > 0:
            lo = max(lo, lam)
        else:
            hi = min(hi, lam)
        if method == "gradient_ascent":
            rho = _ASCENT_STEP / n
            lam = min(max(lam + rho * e.d_prime, 0.0), LAMBDA_MAX)
        else:
            lam = _next_multiplier(method, e, lo, hi, lag.tau)
            if lam is None:
                break
    best = min(abs(dp) for _, _, dp in trace)
    if lam is None:
        message = (
            f"{method} bracket [{lo!r}, {hi!r}] holds no float between its "
            f"ends: smallest |D'| reached is {best:.3e}, requested "
            f"{d_tol:.3e} is below what the inner solves resolve"
        )
    else:
        message = (
            f"{method} did not reach |D'| <= {d_tol:g} in {max_iter} iterations "
            f"(bracket [{lo:g}, {hi:g}], smallest |D'| {best:.3e})"
        )
    raise ConvergenceFailure(message, best=best, trace=trace)


def _newton_increment(s, slope, tau):
    """Newton's increment on psi(lam) = 1/||r|| - 1/tau where ||r||^2 = s
    and D'' = slope < 0: 2 s (1 - sqrt(s) / tau) / slope."""
    return 2.0 * s * (1.0 - math.sqrt(s) / tau) / slope


def _first_multiplier(s, slope, tau):
    """Newton's step on psi from lam = 0, where ||r||^2 = s = ||gbar||^2 and
    D''(0+) = slope: below the root, since psi is concave and increasing,
    and capped at LAMBDA_MAX, which rounding can pass; ``_LAMBDA_INIT``
    where it is not a positive float, as where slope has underflowed to 0."""
    lam = _newton_increment(s, slope, tau) if slope else math.nan
    return min(lam, LAMBDA_MAX) if lam > 0 else _LAMBDA_INIT


def _next_multiplier(method, e, lo, hi, tau):
    """The multiplier to evaluate after ``e``, strictly inside (lo, hi), or
    None when the bracket holds no float between its ends.

    Newton's step is lam + delta, with delta Newton's increment on
    psi(lam) = 1/||r|| - 1/tau (``_newton_increment``), from either side:
    psi is concave and increasing, so the step lands at or below the root.
    A step outside the bracket or above LAMBDA_MAX, and every bisection
    step, falls back to doubling lo while hi = inf, capped at LAMBDA_MAX,
    where the regime verdict has proved D' < 0, and otherwise to the
    bracket's mean, which halves hi while lo = 0 and finds a float between
    any two that are not adjacent.
    """
    lam = math.nan
    if method == "newton" and e.d_second < 0:
        lam = e.lam + _newton_increment(e.solution.discrepancy_sq, e.d_second, tau)
    if not (lo < lam < hi and lam <= LAMBDA_MAX):
        lam = min(2.0 * lo, LAMBDA_MAX) if hi == math.inf else 0.5 * (lo + hi)
    return lam if lo < lam < hi else None


def sweep_dual(lag: Lagrangian, lambdas):
    """Evaluate the dual on a real, ascending, positive 1-d grid
    ``lambdas``; ``ValueError`` for any other, before any work.

    Inner failures at single points are recorded on the returned
    evaluations (``error`` set, values NaN) and the sweep continues.
    The grid runs on the problem's engine (``Lagrangian.engine``), built
    once, failure included, in blocks of one ``solve`` each. A block
    holds as many multipliers as keep each of its arrays, Z and
    F = Z V_k, of at most n entries a row, n the larger dimension of A,
    within ``_BLOCK_FLOATS`` entries. In the Golub-Kahan basis the block's
    largest multiplier grows the basis, one factorization serves the
    searches of all the others (``StandardForm.solve``), and the block
    shares the expansion F = Z V_k. Every point is the same
    ``DualEvaluation`` that ``eval_dual`` returns, its k and D'' bit for
    bit, up to the rounding of that expansion.
    A block that raises a point's error is solved again point by point by
    ``eval_dual``, so a ``ConvergenceFailure`` fails its own point only,
    and an engine that cannot be built fails every point with the
    ``AssumptionViolation`` its one build raised. Multipliers above
    LAMBDA_MAX are left out of the blocks and fail one by one with
    ``solve_lagrange``'s message.
    """
    lambdas = _as_real(lambdas, "lambdas")
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError(f"lambdas must be a nonempty 1-d grid, got shape {lambdas.shape}")
    # comparisons that NaN fails, and inf - inf is NaN
    if not np.all((lambdas > 0) & np.isfinite(lambdas)):
        raise ValueError("grid values must be positive and finite")
    if not np.all(np.diff(lambdas) > 0):
        raise ValueError("grid must be strictly ascending")
    # the grid ascends, so the multipliers an engine accepts come first
    blocked = int(np.searchsorted(lambdas, LAMBDA_MAX, side="right"))
    rows = max(1, _BLOCK_FLOATS // max(lag.op.dims.dim_f, lag.op.dims.dim_g))
    out = []
    for start in range(0, blocked, rows):
        lams = lambdas[start:blocked][:rows]
        try:
            out.extend(_evaluation(lag, sol) for sol in lag.engine().solve(lag, lams))
        except _POINT_ERRORS:
            # a point that fails fails alone: the block again, point by point
            out.extend(_point(lag, lam) for lam in lams)
    out.extend(_point(lag, lam) for lam in lambdas[blocked:])
    return out


# the most entries of each array a sweep's block holds, Z and F = Z V_k, of at
# most n entries a row, 8 MiB of float64: 2048 multipliers at n = 512, 16 at
# n = 65536, where 200 in one block would hold an F of 105 MB. The factors of
# the block's tridiagonals (``GolubKahan.factor_block``) are one 4-by-m-by-k
# array, with k <= n, so the same rule bounds them by 4 times as many
# entries, 32 MiB, held only while the block's searches run
_BLOCK_FLOATS = 1 << 20

# failures a sweep records on its points instead of raising; an
# AssumptionViolation is a ValueError
_POINT_ERRORS = (ConvergenceFailure, ValueError)


def _point(lag, lam):
    """``eval_dual`` at one sweep point, its failure recorded on it."""
    try:
        return eval_dual(lag, float(lam))
    except _POINT_ERRORS as exc:
        return _failed_point(lam, exc)


def _failed_point(lam, exc):
    log.warning("sweep point lam=%g failed: %s", lam, exc)
    nan = float("nan")
    return DualEvaluation(lam=float(lam), d_value=nan, d_prime=nan, d_second=nan, error=str(exc))


def concavity_defects(lambdas, d_values):
    """Chord defects of sampled D; positive entries witness non-concavity.

    For each interior point the value is how far D sits *below* the chord
    of its neighbors (concavity puts it above), normalized for arbitrary
    grid spacing. On a uniform grid this is half the usual second
    difference. ``ValueError`` for a complex input, which a cast would cut
    to its real part, or for arrays that are not matching, 1-d and of at
    least 3 points.
    """
    lam = _as_real(lambdas, "lambdas")
    d = _as_real(d_values, "d_values")
    if lam.shape != d.shape or lam.ndim != 1 or lam.size < 3:
        raise ValueError("need matching 1-d arrays with at least 3 points")
    l1, l2, l3 = lam[:-2], lam[1:-1], lam[2:]
    d1, d2, d3 = d[:-2], d[1:-1], d[2:]
    chord = ((l3 - l2) * d1 + (l2 - l1) * d3) / (l3 - l1)
    return chord - d2


def verify_morozov_solution(res: SelectionResult, lag: Lagrangian, rtol=1e-8):
    """Re-check a converged selection independently of how it was found.

    Two checks, both at the relative tolerance ``rtol``:

    - ``discrepancy``: |  ||A f - g||^2 - epsilon | <= rtol * epsilon.
    - ``optimality``: f solves the inner system
      (L^T L + lam A^T A) f = lam A^T g, to its normwise backward error
      (Rigal & Gaches, J. ACM 14, 1967)

          ||T1 + T2 - T3|| / (||T1|| + ||T2|| + ||T3||) <= rtol,

      with T1 = L^T L f, T2 = lam A^T A f and T3 = lam A^T g. For lam > 0
      the Lagrangian is a convex quadratic in f, so its stationary point
      is its minimizer. The ratio is scale-free: its rounding floor is
      about n eps at every lam, and an f in ker L that meets the
      discrepancy reads order 1 however small lam is.

    A dense A is applied by numpy's products of its stored matrix, not by
    the band copy that a selection's basis applies it by (``linops``), so a
    band that left out more than rounding fails here.

    Returns a report listing each check; nothing is raised on failure.
    ``ValueError``, before any work, for an ``rtol`` that is not positive
    and finite, a ``lambda_star`` outside (0, LAMBDA_MAX] or a complex
    ``f_star``, whose imaginary part a cast would drop.
    """
    if not 0 < rtol < math.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    lam = res.lambda_star
    if not 0 < lam <= LAMBDA_MAX:
        raise ValueError(f"lambda_star must lie in (0, {LAMBDA_MAX:g}], got {lam}")
    if not res.converged:
        raise ValueError("verification needs a converged SelectionResult")
    f = _as_real(res.f_star, "f_star")
    A, g = lag.op, lag.data
    if A.is_dense:
        M = A.matrix
        A = from_callables(M.shape[1], M.shape[0], M.__matmul__, M.T.__matmul__)
    Af = A.apply(f)
    r = Af - g
    disc_err = abs(float(r @ r) - lag.epsilon)
    norm = np.linalg.norm
    t1 = 0.5 * lag.regularizer.gradient(f)
    t2, t3 = lam * A.apply_adjoint(Af), lam * A.apply_adjoint(g)
    scale = norm(t1) + norm(t2) + norm(t3)
    # a zero scale means every term is zero: f solves the system exactly
    backward = float(norm(t1 + t2 - t3) / scale) if scale else 0.0
    checks = [
        {"name": name, "passed": bool(value <= threshold), "value": value, "threshold": threshold}
        for name, value, threshold in (
            ("discrepancy", disc_err, rtol * lag.epsilon),
            ("optimality", backward, rtol),
        )
    ]
    return VerificationReport(passed=all(c["passed"] for c in checks), checks=checks)
