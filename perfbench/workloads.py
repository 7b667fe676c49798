"""Workload inputs, the timed operations, and their independent checks.

Every workload is a Gaussian deconvolution with 2% noise, tolerance
``epsilon = (1.02 * tau)**2`` and ``rtol = 1e-8``. Attempt ``k`` of a run
with seed ``s`` draws its problem from ``SeedSequence([s, k])``, so a seed
fixes every input of the run. Attempts cycle through a workload's
variants (size, penalty, kernel width, dense or matrix-free), and runs end
on a whole cycle.

The program sees only raw arrays. A timed operation starts before the
``LinearOperator``, ``Regularizer`` and ``Lagrangian`` are built, so work
moved into constructors or lazy caches still counts. The checks use numpy
on the raw arrays, never the program's own verifier.
"""

from dataclasses import dataclass

import numpy as np

from morozov import Lagrangian, linops, maximize_dual, problems, regularizers, sweep_dual

NOISE = 0.02
SAFETY = 1.02
RTOL = 1e-8
SWEEP_GRID = np.logspace(-2, 8, 200)
SWEEP_SPOT_CHECKS = 3
# normwise backward error a converged inner solve must reach; the direct
# path lands near 1e-15 and CG near its 1e-10 residual target
STATIONARITY_TOL = 1e-8
# a sweep point agrees with a numpy solve of the same system to this share
# of max(||g||^2, |D|)
SPOT_CHECK_TOL = 1e-9
# D' may rise between neighbours by this share of ||g||^2 (rounding)
MONOTONE_TOL = 1e-12


@dataclass(frozen=True)
class Variant:
    n: int
    penalty: str
    width: float
    matrix_free: bool


@dataclass(frozen=True)
class Spec:
    variants: tuple  # cycled through across attempts
    sweep: bool


DENSE = (Variant(512, "identity", 2.0, False), Variant(512, "first_difference", 2.0, False))
# width 2.0 makes normal-equations CG in distance_to_range hit its cap, so
# maximize_dual raises: a known defect, counted as a failure
MATRIX_FREE = (Variant(256, "identity", 1.2, True), Variant(256, "identity", 2.0, True))

SPECS = {
    # matrix-free selections swing about twice as much as dense ones with the
    # host's load, so a cycle holds one of each width per two dense pairs
    "select": Spec(DENSE + MATRIX_FREE[:1] + DENSE + MATRIX_FREE[1:], False),
    "dense_sweep": Spec(DENSE, True),
}


@dataclass
class Problem:
    """Raw arrays of one attempt; ``L`` and ``A`` also serve the checks."""

    label: str
    variant: Variant
    A: np.ndarray
    L: np.ndarray
    g: np.ndarray
    epsilon: float
    column: np.ndarray = None  # first column of A's circulant embedding


def _bump_profile(n, rng):
    x = np.linspace(0.0, 1.0, n)
    f = np.zeros(n)
    for _ in range(3):
        center, width, height = rng.uniform(0.15, 0.85), rng.uniform(0.04, 0.12), rng.uniform(0.5, 1.5)
        f += height * np.exp(-0.5 * ((x - center) / width) ** 2)
    return f


def _penalty_matrix(penalty, n):
    if penalty == "identity":
        return np.eye(n)
    return np.diff(np.eye(n), axis=0)


def cycle(workload):
    """Attempts per cycle of variants; a run ends on a whole cycle."""
    return len(SPECS[workload].variants)


def make_problem(workload, seed, k):
    spec = SPECS[workload]
    v = spec.variants[k % len(spec.variants)]
    problem_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
    rng = np.random.default_rng(problem_seed)
    op = problems.make_deconvolution(v.n, v.width)
    prob = problems.synthesize(op, _bump_profile(v.n, rng), NOISE, seed=problem_seed)
    A = op.matrix
    column = None
    if v.matrix_free:
        # A is Toeplitz: A[i, 0] down the first column, A[0, j] along the first row
        column = np.concatenate([A[:, 0], [0.0], A[0, :0:-1]])
    return Problem(
        label=(f"seed={seed} attempt={k} problem_seed={problem_seed} n={v.n} penalty={v.penalty} "
               f"width={v.width} {'matrix-free' if v.matrix_free else 'dense'}"),
        variant=v,
        A=A,
        L=_penalty_matrix(v.penalty, v.n),
        g=prob.g,
        epsilon=(SAFETY * prob.tau) ** 2,
        column=column,
    )


def _fft_toeplitz(column, n, on_apply):
    """Forward and adjoint of the Toeplitz block of a circulant, by FFT."""
    m = column.shape[0]
    symbol = np.fft.rfft(column)
    symbol_adj = np.conj(symbol)

    def forward(x):
        on_apply("linops.applies_fwd")
        return np.fft.irfft(symbol * np.fft.rfft(x, m), m)[:n]

    def adjoint(y):
        on_apply("linops.applies_adj")
        return np.fft.irfft(symbol_adj * np.fft.rfft(y, m), m)[:n]

    return forward, adjoint


def run(workload, prob, on_apply):
    """The timed operation: build the problem objects, then select or sweep."""
    n = prob.variant.n
    if prob.variant.matrix_free:
        op = linops.from_callables(n, n, *_fft_toeplitz(prob.column, n, on_apply))
    else:
        op = linops.from_matrix(prob.A)
    if prob.variant.penalty == "identity":
        reg = regularizers.identity_regularizer(n)
    else:
        reg = regularizers.first_difference_regularizer(n)
    lag = Lagrangian(op, prob.g, reg, prob.epsilon)
    if SPECS[workload].sweep:
        return lag, sweep_dual(lag, SWEEP_GRID)
    return lag, maximize_dual(lag, rtol=RTOL)


def units(workload):
    """Operations per attempt: one selection, or one sweep point per grid value."""
    return SWEEP_GRID.size if SPECS[workload].sweep else 1


def _inner_residual(prob, f, lam):
    """Normwise backward error of (L^T L + lam A^T A) f = lam A^T g."""
    A, L, g = prob.A, prob.L, prob.g
    penalty_term = L.T @ (L @ f)
    data_term = lam * (A.T @ (A @ f))
    rhs = lam * (A.T @ g)
    scale = np.linalg.norm(penalty_term) + np.linalg.norm(data_term) + np.linalg.norm(rhs)
    return np.linalg.norm(penalty_term + data_term - rhs) / scale


def check_selection(prob, res):
    """Reasons the selection is wrong; empty when it passes."""
    f = np.asarray(res.f_star, dtype=np.float64)
    if not (np.all(np.isfinite(f)) and np.isfinite(res.lambda_star) and res.lambda_star > 0):
        return ["non-finite selection"]
    wrong = []
    r = prob.A @ f - prob.g
    disc_err = abs(float(r @ r) - prob.epsilon)
    if not disc_err <= RTOL * prob.epsilon:
        wrong.append(f"| ||Af-g||^2 - eps | = {disc_err:.3e} > rtol*eps = {RTOL * prob.epsilon:.3e}")
    stat = _inner_residual(prob, f, res.lambda_star)
    if not stat <= STATIONARITY_TOL:
        wrong.append(f"stationarity backward error {stat:.3e} > {STATIONARITY_TOL:g}")
    return wrong


def check_sweep(prob, evals, seed, k):
    """Map from grid index to the reason that point is wrong or failed."""
    bad = {}
    lams = np.array([e.lam for e in evals])
    if lams.shape != SWEEP_GRID.shape or not np.array_equal(lams, SWEEP_GRID):
        return {i: "sweep returned a different grid" for i in range(SWEEP_GRID.size)}
    d = np.array([e.d_value for e in evals])
    dp = np.array([e.d_prime for e in evals])
    for i, e in enumerate(evals):
        if e.error is not None or not (np.isfinite(d[i]) and np.isfinite(dp[i])):
            bad[i] = f"point failed: {e.error}"
    gg = float(prob.g @ prob.g)
    for i in np.flatnonzero(np.diff(dp) > MONOTONE_TOL * gg):
        bad.setdefault(int(i + 1), f"D' rises from {dp[i]:.6e} to {dp[i + 1]:.6e}")
    rng = np.random.default_rng([seed, k, 1])
    A, L, g = prob.A, prob.L, prob.g
    for i in rng.choice(SWEEP_GRID.size, SWEEP_SPOT_CHECKS, replace=False):
        if i in bad:
            continue
        lam = SWEEP_GRID[i]
        f = np.linalg.solve(L.T @ L + lam * (A.T @ A), lam * (A.T @ g))
        r = A @ f - g
        ref_dp = float(r @ r) - prob.epsilon
        ref_d = float(np.sum((L @ f) ** 2)) + lam * ref_dp
        scale = max(gg, abs(ref_d))
        err = max(abs(dp[i] - ref_dp), abs(d[i] - ref_d)) / scale
        if not err <= SPOT_CHECK_TOL:
            bad[int(i)] = f"lam={lam:.4g} disagrees with a numpy solve by {err:.3e}"
    return bad
