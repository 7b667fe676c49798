"""Tikhonov regularization with dual-based parameter selection.

Solves linear ill-posed problems A f = g with a quadratic penalty
J(f) = ||L f||^2, selecting the regularization weight automatically:
the discrepancy constraint ||A f - g||^2 = tau^2 is dualized, the
(concave, differentiable) dual function is maximized over the
multiplier, and the selected Tikhonov weight is the reciprocal of the
maximizer.

Typical use::

    from morozov import problems, dual, Lagrangian

    prob = problems.regime_fixture("interior", seed=1)
    lag = Lagrangian(prob.op, prob.g, prob.regularizer, prob.tau**2)
    result = dual.maximize_dual(lag)
    print(result.alpha, result.discrepancy)
"""

from . import dual, lagrange, linops, problems, regularizers
from .dual import (
    DualEvaluation,
    RegimeDiagnosis,
    SelectionResult,
    VerificationReport,
    diagnose_regime,
    eval_dual,
    maximize_dual,
    sweep_dual,
    verify_morozov_solution,
)
from .errors import (
    AssumptionViolation,
    ConvergenceFailure,
    DimensionMismatch,
    MorozovError,
    RegimeError,
)
from .lagrange import Lagrangian, LagrangeSolution, lagrangian_value, solve_lagrange
from .linops import LinearOperator, VectorSpaceDims
from .problems import InverseProblem
from .regularizers import Regularizer

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation",
    "ConvergenceFailure",
    "DimensionMismatch",
    "DualEvaluation",
    "InverseProblem",
    "LagrangeSolution",
    "Lagrangian",
    "LinearOperator",
    "MorozovError",
    "RegimeDiagnosis",
    "RegimeError",
    "Regularizer",
    "SelectionResult",
    "VectorSpaceDims",
    "VerificationReport",
    "diagnose_regime",
    "dual",
    "eval_dual",
    "lagrange",
    "lagrangian_value",
    "linops",
    "maximize_dual",
    "problems",
    "regularizers",
    "solve_lagrange",
    "sweep_dual",
    "verify_morozov_solution",
]
