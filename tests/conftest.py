import numpy as np
import pytest

from morozov import linops, problems
from morozov._kernels import GolubKahan
from morozov.dual import diagnose_regime
from morozov.lagrange import Lagrangian


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


def lsqr_distance(op, g):
    """``GolubKahan.distance`` on a fresh basis of (op, g): (dist, converged)."""
    return GolubKahan(op.apply, op.apply_adjoint, g, op.dims.dim_f).distance()


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
