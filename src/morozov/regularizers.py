"""Quadratic regularizers J(f) = ||L f||^2.

The penalty map L is any linear operator out of the solution space; the
identity gives classical Tikhonov, a first-difference map penalizes
oscillation while letting constants through; both are O(n) callback
maps, not stored matrices. Whether the penalty is strictly convex along
the kernel of a forward operator A, the condition under which the inner
minimization problems have a unique solution, is decided in one place:
building the problem's engine, ``Lagrangian(A, g, J, epsilon).engine()``,
which raises ``AssumptionViolation`` when ker L and ker A meet outside 0.
"""

import numpy as np

from . import linops
from .linops import LinearOperator

__all__ = [
    "Regularizer",
    "identity_regularizer",
    "first_difference_regularizer",
    "custom_regularizer",
]


class Regularizer:
    """Quadratic penalty ``J(f) = ||L f||^2``.

    Parameters
    ----------
    seminorm_operator : LinearOperator
        The map L, dense or matrix-free. Its input dimension is the
        solution-space dimension; its output dimension may differ.

    ``kind`` is "custom" here; only the built-in factories set "identity"
    or "first_difference". Every kind is served by the one Golub-Kahan
    engine in Elden's standard form: the built-in kinds give it L^+ and
    ker L in closed form, and a custom L is materialized and factored
    once, by a pivoted QR factorization of L^T, when the engine is built.
    """

    kind = "custom"

    def __init__(self, seminorm_operator: LinearOperator):
        self.seminorm_operator = seminorm_operator

    @property
    def dim_f(self):
        return self.seminorm_operator.dims.dim_f

    def evaluate(self, f):
        """The penalty value ||L f||^2."""
        Lf = self.seminorm_operator.apply(f)
        return float(Lf @ Lf)

    def gradient(self, f):
        """The gradient 2 L^T (L f)."""
        L = self.seminorm_operator
        return 2.0 * L.apply_adjoint(L.apply(f))

    def __repr__(self):
        return f"Regularizer(kind={self.kind!r}, dim_f={self.dim_f})"


def _builtin(L, kind):
    reg = Regularizer(L)
    reg.kind = kind
    return reg


def identity_regularizer(n):
    """Classical Tikhonov penalty ||f||^2."""
    return _builtin(linops.from_callables(n, n, np.copy, np.copy), "identity")


def first_difference_regularizer(n):
    """Penalty on successive differences; constants are in the kernel."""
    if n < 2:
        raise ValueError("first differences need n >= 2")
    L = linops.from_callables(n, n - 1, np.diff, lambda y: -np.diff(y, prepend=0.0, append=0.0))
    return _builtin(L, "first_difference")


def custom_regularizer(L: LinearOperator):
    """Penalty ||L f||^2 for a user-supplied map L."""
    return Regularizer(L)

