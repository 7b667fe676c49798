"""Quadratic regularizers J(f) = ||L f||^2.

The penalty map L is any linear operator out of the solution space; the
identity gives classical Tikhonov, a first-difference map penalizes
oscillation while letting constants through; both are O(n) callback
maps, not stored matrices. The problem's engine reaches every penalty
through Elden's standard form, and a penalty brings its own factors for
it (``Regularizer.factors``): the built-in penalties their closed forms,
any other L a pivoted QR factorization of its materialized map. Whether
the penalty is strictly convex along the kernel of a forward operator A,
the condition under which the inner minimization problems have a unique
solution, is decided in one place: building the problem's engine,
``Lagrangian(A, g, J, epsilon).engine()``, which raises
``AssumptionViolation`` when ker L and ker A meet outside 0.
"""

import math

import numpy as np
import scipy.linalg

from . import linops
from .linops import LinearOperator, _require_finite

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

    ``kind`` names the penalty in messages and in a saved problem: a
    class attribute, "custom" here and "identity" or "first_difference"
    for the built-in penalties, whose classes bring their own ``factors``.
    Every penalty is served by the one Golub-Kahan engine in Elden's
    standard form, which reads the penalty only through ``factors``.
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

    def factors(self):
        """(L^+, (L^+)^T, W, lt_norm): the standard-form factors of the
        penalty, which the engine's build calls once.

        For some map Lr with r rows and Lr^T Lr = L^T L, r the rank of L,
        L^+ takes a block of rows of length r to rows of length n = dim_f,
        row by row, and (L^+)^T takes a vector of length n to one of
        length r; both are None when L = I. W is an n-by-(n - r) array
        whose orthonormal columns span ker L, and lt_norm is at least
        ||L||.

        Here L is materialized, at n applications when it is matrix-free,
        and checked finite; then one pivoted QR factorization L^T P = Q R
        gives its rank r, the count of |r_ii|^2 > n eps ||L||_F^2, a test on
        L alone, and W, the trailing n - r columns of Q; an L of rank 0
        penalizes nothing and is refused with ``ValueError``. With Q_1 its
        leading r columns, ||L f|| = ||R_r^T Q_1^T f|| for the leading r
        rows R_r of R, so Lr = S Q_1^T for any r-by-r S with
        S^T S = R_r R_r^T: R_r^T itself when r is the row count of L, and
        otherwise the triangle of one more QR factorization, of R_r^T.
        L^+ = Q_1 S^{-1}, applied by triangular solves. lt_norm is the
        Hoelder bound sqrt(||L||_1 ||L||_inf).
        """
        n, op = self.dim_f, self.seminorm_operator
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

    def __repr__(self):
        return f"Regularizer(kind={self.kind!r}, dim_f={self.dim_f})"


class _Identity(Regularizer):
    kind = "identity"

    def factors(self):
        """No map: L^+ = I and ker L = 0."""
        return None, None, np.empty((self.dim_f, 0)), 1.0


class _FirstDifference(Regularizer):
    kind = "first_difference"

    def factors(self):
        """The O(n) closed forms, the constants and ||L|| <= 2."""
        n = self.dim_f
        return _difference_pinv, _difference_pinv_adjoint, np.full((n, 1), 1.0 / math.sqrt(n)), 2.0


# The three maps below call the ufuncs that np.cumsum, np.mean and np.diff
# reach, without their dispatch, which at n = 512 costs as much as the
# arithmetic; each gives the same bits as the numpy expression it names.


def _difference_pinv(z):
    """L^+ z for the first-difference map L: the vector with successive
    differences z and mean zero; row by row for a block of rows. The
    partial sums start from 0.0, as cumsum of (0, z) does, so the signed
    zeros agree too."""
    x = np.zeros(z.shape[:-1] + (z.shape[-1] + 1,))
    x[..., 1:] = z
    np.add.accumulate(x, -1, out=x)
    return np.subtract(x, np.add.reduce(x, -1, keepdims=True) / x.shape[-1], out=x)


def _difference_pinv_adjoint(y):
    """(L^+)^T y: the suffix sums of y - mean(y), from the second entry on."""
    return np.add.accumulate(y[:0:-1] - np.add.reduce(y) / y.shape[0])[::-1]


def _difference_adjoint(y):
    """L^T y = -np.diff(y, prepend=0.0, append=0.0): each difference is
    negated after it is formed, since -(a - a) is -0.0 where a - a is +0.0."""
    x = np.empty(y.shape[0] + 1)
    x[0], x[-1] = y[0], 0.0 - y[-1]  # y_0 - 0.0 is y_0 itself
    np.subtract(y[1:], y[:-1], out=x[1:-1])
    return np.negative(x, out=x)


def identity_regularizer(n):
    """Classical Tikhonov penalty ||f||^2."""
    return _Identity(linops.from_callables(n, n, np.copy, np.copy))


def first_difference_regularizer(n):
    """Penalty on successive differences; constants are in the kernel."""
    if n < 2:
        raise ValueError("first differences need n >= 2")
    L = linops.from_callables(n, n - 1, np.diff, _difference_adjoint)
    return _FirstDifference(L)


def custom_regularizer(L: LinearOperator):
    """Penalty ||L f||^2 for a user-supplied map L."""
    return Regularizer(L)
