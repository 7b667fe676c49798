"""Exception types shared across the package.

``DimensionMismatch`` and ``AssumptionViolation`` refuse a problem as
posed. Otherwise a selection fails in one of two ways: ``RegimeError``
before any evaluation of the dual, when the regime verdict finds no
maximizer below LAMBDA_MAX, or ``ConvergenceFailure`` from the search or
an inner solve on a problem the verdict admitted, which states the
precision it reached.
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
