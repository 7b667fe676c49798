import numpy as np
import pytest

from morozov import linops, problems
from morozov.dual import diagnose_regime
from morozov.lagrange import Lagrangian
from morozov.regularizers import custom_regularizer


def assert_adjoint_consistent(op, n_probes=100, rtol=1e-10, seed=1234):
    """<A f, y> == <f, A* y> on random probe pairs, relative error <= rtol."""
    rng = np.random.default_rng(seed)
    for _ in range(n_probes):
        f = rng.standard_normal(op.dims.dim_f)
        y = rng.standard_normal(op.dims.dim_g)
        lhs = float(op.apply(f) @ y)
        rhs = float(f @ op.apply_adjoint(y))
        denom = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / denom <= rtol, (lhs, rhs)


def counting_free_op(mat):
    """Matrix-free view of ``mat`` that counts its forward and adjoint calls."""
    counts = {"fwd": 0, "adj": 0}

    def forward(f):
        counts["fwd"] += 1
        return mat @ f

    def adjoint(y):
        counts["adj"] += 1
        return mat.T @ y

    return linops.from_callables(mat.shape[1], mat.shape[0], forward, adjoint), counts


def projection_distance(op, g):
    """dist(g, range A) by numpy, independent of the package's solvers:
    ||g - Q Q^T g|| for an orthonormal basis Q of the range of the
    materialized map, from its SVD at numpy's default rank tolerance."""
    mat = op.materialize()
    g = np.asarray(g, dtype=np.float64)
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    q = u[:, sv > sv.max(initial=0.0) * max(mat.shape) * np.finfo(np.float64).eps]
    return float(np.linalg.norm(g - q @ (q.T @ g)))


def lower_bidiagonal(basis):
    """B_k of a ``GolubKahan`` basis as a (k+1)-by-k array."""
    k = basis.k
    B = np.zeros((k + 1, k))
    B[np.arange(k), np.arange(k)] = basis.alpha[:k]
    B[np.arange(1, k + 1), np.arange(k)] = basis.beta[1 : k + 1]
    return B


def shares_kernel(A, L):
    """Whether ker A and ker L meet outside 0, by numpy's rank of the
    materialized maps: ker [A; L] = ker A ∩ ker L."""
    stacked = np.vstack([A.materialize(), L.materialize()])
    return np.linalg.matrix_rank(stacked) < A.dims.dim_f


def custom_twin(lag):
    """The problem of ``lag`` with its penalty map stored as a custom
    penalty: the same A, g, epsilon and L, so the same inner minimizers,
    with L^+ and ker L from the pivoted QR factorization of the stored
    map instead of a built-in penalty's closed forms."""
    L = linops.from_matrix(lag.regularizer.seminorm_operator.materialize())
    return Lagrangian(lag.op, lag.data, custom_regularizer(L), lag.epsilon)


def numpy_inner_solve(lag, lam):
    """f_lam by numpy on the materialized maps, independent of the package's
    solvers: (L^T L + lam A^T A) f = lam A^T g."""
    A = lag.op.materialize()
    L = lag.regularizer.seminorm_operator.materialize()
    return np.linalg.solve(L.T @ L + lam * A.T @ A, lam * A.T @ lag.data)


def numpy_slope_at_zero(lag):
    """D''(0+) = -2 ||Abar^T gbar||^2 by numpy on the materialized maps,
    independent of the package's engines: gbar is g less its projection on
    A(ker L), with ker L from L's SVD at numpy's rank tolerance, and
    Abar^T gbar = (L^+)^T A^T gbar."""
    A = lag.op.materialize()
    L = lag.regularizer.seminorm_operator.materialize()
    _, sv, vt = np.linalg.svd(L)
    rank = int(np.sum(sv > sv.max() * max(L.shape) * np.finfo(np.float64).eps))
    q = np.linalg.qr(A @ vt[rank:].T)[0]
    gbar = lag.data - q @ (q.T @ lag.data)
    w = np.linalg.pinv(L).T @ (A.T @ gbar)
    return -2.0 * float(w @ w)


def random_dense_op(rng, dim_g, dim_f, scale=1.0):
    return linops.from_matrix(scale * rng.standard_normal((dim_g, dim_f)))


def make_interior_problem(seed, kind="deconvolution"):
    """A random problem certified to be in the interior regime."""
    rng = np.random.default_rng(seed)
    if kind == "deconvolution":
        n = int(rng.integers(16, 65))
        A = problems.make_deconvolution(n, kernel_width=rng.uniform(0.8, 2.5))
    elif kind == "hilbert":
        A = problems.make_hilbert(int(rng.integers(5, 13)))
    else:
        raise ValueError(kind)
    f0 = problems._bump_profile(A.dims.dim_f, rng)
    prob = problems.synthesize(
        A, f0, noise_level=rng.uniform(0.02, 0.15), seed=seed
    )
    diag = diagnose_regime(Lagrangian(prob.op, prob.g, prob.regularizer, prob.tau**2))
    assert diag.regime == "interior", f"seed {seed} not interior: {diag}"
    return prob


@pytest.fixture
def rng():
    return np.random.default_rng(0)
