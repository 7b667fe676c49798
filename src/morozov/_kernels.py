"""Conjugate-gradient kernel for symmetric positive definite systems.

``cg_matvec`` is the one CG in the package. It serves every iterative
solve: the regularized normal system ``(L^T L + lam * A^T A) x = b`` in
``solve_lagrange``, dense or matrix-free, and the normal equations
``A^T A x = A^T g`` in ``distance_to_range``. The system action is a
callback, so dense and matrix-free operators run the same iteration.

Status codes:
    0  converged to the requested relative residual
    1  iteration cap reached
    2  breakdown: the search direction has nonpositive curvature, i.e.
       the system matrix is not positive definite
"""

import numpy as np

__all__ = ["cg_matvec"]


def cg_matvec(system_apply, b, tol=1e-10, max_iter=1000):
    """CG where the system action is a callback.

    Parameters
    ----------
    system_apply : callable
        Maps a vector to the SPD system matrix times that vector.
    b : ndarray
        Right-hand side.
    tol : float
        Relative residual target ||r|| / ||b||.
    max_iter : int
        Iteration cap.

    Returns
    -------
    (x, iterations, relative_residual, status)
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(b.shape[0])
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x, 0, 0.0, 0
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    rel = 1.0
    k = 0
    status = 1
    while k < max_iter:
        Mp = system_apply(p)
        pMp = float(p @ Mp)
        if not np.isfinite(pMp) or pMp <= 0.0:
            status = 2
            break
        alpha = rr / pMp
        x = x + alpha * p
        r = r - alpha * Mp
        k += 1
        rr_next = float(r @ r)
        rel = float(np.sqrt(rr_next)) / b_norm
        if rel <= tol:
            status = 0
            break
        beta = rr_next / rr
        rr = rr_next
        p = r + beta * p
    return x, k, rel, status
