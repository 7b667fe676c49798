"""Exception types shared across the package.

``DimensionMismatch`` refuses a problem as posed, when its
``Lagrangian`` is built. A selection (``dual.maximize_dual``) then fails
in one of three ways, in this order. ``RegimeError`` comes first, before
any evaluation of the dual, when the regime verdict finds no maximizer
below LAMBDA_MAX; a problem whose engine cannot be built is judged by
the engine of its identity twin (``Lagrangian.certificate``), so the
verdict needs no strict convexity. ``AssumptionViolation`` comes next,
from the build of the problem's own engine behind that gate: the penalty
is not strictly convex along ker(A). ``ConvergenceFailure`` comes last,
from the search or an inner solve on a problem the verdict admitted, and
states the precision it reached. Outside a selection, an inner solve
(``lagrange.solve_lagrange``) raises ``AssumptionViolation`` where it
builds the engine, and a sweep records it on every point.
"""

__all__ = [
    "MorozovError",
    "DimensionMismatch",
    "ConvergenceFailure",
    "AssumptionViolation",
    "RegimeError",
]


class MorozovError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(MorozovError, ValueError):
    """A vector or matrix does not match the expected dimensions."""


class ConvergenceFailure(MorozovError, RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance.

    Attributes
    ----------
    best : the best value found so far, or None: for every method of
        ``dual.maximize_dual``, the smallest |D'| it evaluated; for an
        inner solve, its solution.
    trace : iteration history when the failing loop keeps one, or None.
    """

    def __init__(self, message, best=None, trace=None):
        super().__init__(message)
        self.best = best
        self.trace = trace


class AssumptionViolation(MorozovError, ValueError):
    """The quadratic penalty is not positive definite on the problem.

    Raised when the problem's engine is built (``Lagrangian.engine``) and
    ker(L) and ker(A) intersect nontrivially, so the inner minimization
    problem has no unique solution.
    """


class RegimeError(MorozovError, RuntimeError):
    """The problem is outside the regime where a dual maximizer exists.

    Attributes
    ----------
    regime : str
        The diagnosed regime ("noise_dominates" or "too_optimistic").
    """

    def __init__(self, message, regime):
        super().__init__(message)
        self.regime = regime
