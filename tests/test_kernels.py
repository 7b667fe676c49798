import numpy as np

from morozov._kernels import cg_matvec


def make_system(rng, n=12, lam=2.0):
    A = rng.standard_normal((n + 3, n)) / np.sqrt(n)
    L = np.eye(n)
    b = lam * A.T @ rng.standard_normal(n + 3)
    return A, L, lam, b


class TestCgMatvec:
    def test_matches_direct_solve(self, rng):
        A, L, lam, b = make_system(rng)
        M = L.T @ L + lam * A.T @ A
        x, _, _, status = cg_matvec(lambda p: M @ p, b, tol=1e-12, max_iter=500)
        assert status == 0
        np.testing.assert_allclose(x, np.linalg.solve(M, b), rtol=1e-8)

    def test_zero_rhs(self, rng):
        A, L, lam, _ = make_system(rng)
        M = L.T @ L + lam * A.T @ A
        x, iters, rel, status = cg_matvec(
            lambda p: M @ p, np.zeros(A.shape[1]), tol=1e-12, max_iter=100
        )
        assert status == 0 and iters == 0
        np.testing.assert_array_equal(x, np.zeros(A.shape[1]))

    def test_iteration_cap_status(self, rng):
        A, L, lam, b = make_system(rng, n=20)
        M = L.T @ L + lam * A.T @ A
        _, iters, rel, status = cg_matvec(lambda p: M @ p, b, tol=1e-300, max_iter=3)
        assert status == 1 and iters == 3 and rel > 1e-300

    def test_breakdown_status_on_indefinite(self, rng):
        M = -np.eye(4)  # negative curvature immediately
        b = rng.standard_normal(4)
        _, _, _, status = cg_matvec(lambda p: M @ p, b, tol=1e-12, max_iter=50)
        assert status == 2

