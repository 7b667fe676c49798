"""Quadratic regularizers J(f) = ||L f||^2 and well-posedness checks.

The penalty map L is any linear operator out of the solution space; the
identity gives classical Tikhonov, a first-difference map penalizes
oscillation while letting constants through; both are O(n) callback
maps, not stored matrices. ``check_assumptions`` decides whether the
penalty is strictly convex along the kernel of a forward operator, the
condition under which the inner minimization problems have a unique
solution.
"""

from dataclasses import dataclass

import numpy as np

from . import linops
from .errors import DimensionMismatch
from .linops import LinearOperator

__all__ = [
    "Regularizer",
    "AssumptionReport",
    "identity_regularizer",
    "first_difference_regularizer",
    "custom_regularizer",
    "check_assumptions",
]


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the well-posedness check of a (penalty, forward) pair."""

    coercive_on_problem: bool
    strictly_convex_along_kernel: bool
    kernel_intersection_dim: int
    attains_min_on_kernel: bool


class Regularizer:
    """Quadratic penalty ``J(f) = ||L f||^2``.

    Parameters
    ----------
    seminorm_operator : LinearOperator
        The map L, dense or matrix-free. Its input dimension is the
        solution-space dimension; its output dimension may differ.

    ``kind`` is "custom" here; only the built-in factories set "identity"
    or "first_difference", which select the Golub-Kahan engine.
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


def _null_space(mat, tol):
    """Orthonormal basis of ker(mat) as columns, with relative cutoff tol."""
    _, s, vt = np.linalg.svd(mat, full_matrices=True)
    if s.size == 0:
        return vt.T
    cutoff = tol * s[0]
    rank = int(np.count_nonzero(s > cutoff))
    return vt[rank:].T


def _rank(mat, tol, scale):
    """Rank with cutoff tol * scale. Pass the unrestricted operator's
    scale when ranking a restriction, so a numerically-zero restriction
    ranks 0.
    """
    if scale == 0.0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(s > tol * scale))


def check_assumptions(J: Regularizer, A: LinearOperator, tol=1e-10):
    """Check strict convexity of the penalty along ker(A).

    Computes ``dim(ker A  ∩  ker L)`` by restricting L to an orthonormal
    basis of ker(A) and counting the rank drop; singular values below
    ``tol`` times the largest are treated as zero. Quadratic penalties
    always attain their minimum (zero) on the intersection, so
    ``attains_min_on_kernel`` is always true. ``coercive_on_problem``
    reports coercivity in the problem-restricted sense, which holds
    exactly when the kernels intersect trivially (an injective L is a
    special case). A matrix-free A or L is materialized first, at
    ``dim_f`` forward applications.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if J.dim_f != A.dims.dim_f:
        raise DimensionMismatch(
            f"penalty input dim {J.dim_f} != forward input dim {A.dims.dim_f}"
        )
    ker_A = _null_space(A.materialize(), tol)
    if ker_A.shape[1] == 0:
        intersection_dim = 0
    else:
        L = J.seminorm_operator.materialize()
        L_scale = float(np.linalg.norm(L, 2))
        restricted = L @ ker_A
        intersection_dim = ker_A.shape[1] - _rank(restricted, tol, L_scale)
    strictly_convex = intersection_dim == 0
    # an injective L cannot vanish on ker A, so coercivity in the
    # problem-restricted sense is exactly strict convexity along ker A
    return AssumptionReport(
        coercive_on_problem=strictly_convex,
        strictly_convex_along_kernel=strictly_convex,
        kernel_intersection_dim=intersection_dim,
        attains_min_on_kernel=True,
    )
