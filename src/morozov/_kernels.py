"""Golub-Kahan bidiagonalization, the package's one Krylov kernel.

``GolubKahan`` is started from the data and serves two layers from one
basis: the projected Tikhonov solve of ``lagrange.solve_lagrange``
(Chung, Nagy & O'Leary, ETNA 2008) with its error estimates, and LSQR
(Paige & Saunders, ACM TOMS 1982), whose residual certifies the interior
regime, or gives the distance from the data to the range, in
``diagnose_regime``. The problems of the identity and first-difference
penalties, dense or matrix-free, run on it in the standard form of
``lagrange.StandardForm``.
"""

import math

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

__all__ = ["GolubKahan"]

# LSQR has converged when ||A^T r|| <= LSQR_TOL ||A|| ||r||
LSQR_TOL = 1e-10


def _orthogonalize(w, Q):
    """w minus its projection on the orthonormal rows of Q, taken twice."""
    for _ in range(2):
        w = w - (Q @ w) @ Q
    return w


class _Rows:
    """A stack of row vectors that grows by doubling its storage.

    Rows are never rewritten once appended, so a view taken earlier
    stays valid after the storage moves.
    """

    def __init__(self, width):
        self._store = np.empty((16, width))
        self.n = 0

    @property
    def width(self):
        return self._store.shape[1]

    @property
    def full(self):
        """Whether there are as many rows as columns, so orthonormal rows
        span the whole space."""
        return self.n == self.width

    def append(self, row):
        if self.n == self._store.shape[0]:
            store = np.empty((2 * self.n, self.width))
            store[: self.n] = self._store[: self.n]
            self._store = store
        self._store[self.n] = row
        self.n += 1

    def __getitem__(self, index):
        return self._store[: self.n][index]


class GolubKahan:
    """Lower bidiagonalization A V_k = U_{k+1} B_k started from g.

    u_1 = g / beta_1, and B_k is the (k+1)-by-k lower bidiagonal matrix
    with alpha_1..alpha_k on its diagonal and beta_2..beta_{k+1} below
    it. The next right vector v_{k+1} and alpha_{k+1} are always formed
    too, so A^T U_{k+1} = V_k B_k^T + alpha_{k+1} v_{k+1} e_{k+1}^T
    gives the residuals below without an operator application. Both
    bases are reorthogonalized in full at each step, which keeps them
    orthonormal to rounding on ill-posed operators.

    ``g`` is the start vector, and ``distance`` measures it against the
    range of A by LSQR in this basis, on the maps the basis was built from.
    ``step`` adds one column at one forward and one adjoint application.
    The basis is exhausted when the Krylov space K(A^T A, A^T g) is
    invariant (a new alpha or beta vanishes to rounding) or a basis
    spans its whole space; every projected solution is then exact. Not
    thread-safe: callers that share a basis serialize on their own lock.
    """

    def __init__(self, forward, adjoint, g, dim_f):
        g = np.asarray(g, dtype=np.float64)
        self.g = g
        self._forward = forward
        self._adjoint = adjoint
        self.k = 0
        self._U = _Rows(g.shape[0])
        self._V = _Rows(dim_f)
        beta1 = float(np.linalg.norm(g))
        self.alpha = []
        self.beta = [beta1]
        # a lower bound on ||A||: the largest alpha or beta so far
        self.norm_estimate = 0.0
        # LSQR's QR factorization of B_k, one Givens rotation a step: R_k has
        # rho on its diagonal and theta above it, R_k y = phi, and |phibar|
        # is the residual norm ||B_k y - beta_1 e_1||
        self._rho, self._theta, self._phi = [], [], []
        self._phibar = beta1
        self._c = 1.0
        if beta1 == 0.0:
            self.alpha.append(0.0)
        else:
            self._U.append(g / beta1)
            self._append_v(self._adjoint(self._U[0]))
        self._rhobar = self.alpha[0]

    @property
    def exhausted(self):
        return self.alpha[self.k] == 0.0

    def _normalize(self, w, Q):
        """w orthonormalized against the rows of Q, and its norm; the norm
        is 0 when w is rounding noise or Q already spans the space."""
        if Q.n:
            w = _orthogonalize(w, Q[:])
        norm = float(np.linalg.norm(w))
        self.norm_estimate = max(self.norm_estimate, norm)
        tiny = max(self._U.width, self._V.width) * np.finfo(float).eps * self.norm_estimate
        if Q.full or norm <= tiny:
            return w, 0.0
        return w / norm, norm

    def _append_v(self, w):
        v, a = self._normalize(w, self._V)
        self.alpha.append(a)
        if a:
            self._V.append(v)

    def step(self):
        """Add one column to B_k; a no-op once the basis is exhausted."""
        if self.exhausted:
            return
        k = self.k
        w = self._forward(self._V[k]) - self.alpha[k] * self._U[k]
        u, b = self._normalize(w, self._U)
        self.beta.append(b)
        self.k = k + 1
        if b:
            self._U.append(u)
            self._append_v(self._adjoint(u) - b * self._V[k])
        else:
            # A V_k lies in span(U_k): the Krylov space is invariant
            self.alpha.append(0.0)
        self._rotate(self.alpha[k + 1], b)

    def _rotate(self, alpha_next, beta_next):
        rho = math.hypot(self._rhobar, beta_next)
        c, s = self._rhobar / rho, beta_next / rho
        self._rho.append(rho)
        self._theta.append(s * alpha_next)
        self._phi.append(c * self._phibar)
        self._rhobar = -c * alpha_next
        self._phibar = s * self._phibar
        self._c = c

    # -- projected problems --------------------------------------------------

    def expand(self, z):
        """V_k z, the solution-space vector with coordinates z."""
        return z @ self._V[: z.shape[0]]

    def _projected_factors(self, lam, k):
        """LDL^T factors of the leading k-by-k block of I + lam B^T B.

        B_k^T B_k is tridiagonal, with alpha_j^2 + beta_{j+1}^2 on the
        diagonal and alpha_{j+1} beta_{j+1} beside it. Returns D and the
        subdiagonal l of the unit lower bidiagonal factor; the factors of
        every leading block of a matrix are leading parts of its factors.
        """
        alpha = np.asarray(self.alpha[: k + 1])
        beta = np.asarray(self.beta[: k + 1])
        d = 1.0 + lam * (alpha[:k] ** 2 + beta[1:] ** 2)
        e = lam * alpha[1:k] * beta[1:k]
        if k == 1:
            return d, e
        D, l, _ = scipy.linalg.lapack.dpttrf(d, e)
        return D, l

    def tikhonov(self, lam, k=None):
        """Projected solution of (I + lam A^T A) f = lam A^T g in V_k.

        Solves (I + lam B_k^T B_k) z = lam alpha_1 beta_1 e_1 on the first
        ``k`` columns (default all) and returns z, with f = V_k z; its
        relative residual is ``tikhonov_residuals(lam)[k]``. The result
        depends on the first k columns only, not on how far the basis has
        grown.
        """
        k = self.k if k is None else k
        if k == 0:  # alpha_1 = 0 exhausts the basis at k = 0
            return np.zeros(0)
        return self._projected_solve(lam, k)

    def _projected_solve(self, lam, k, times=1):
        """(I + lam B_k^T B_k)^{-times} (lam alpha_1 beta_1 e_1), k >= 1."""
        D, l = self._projected_factors(lam, k)
        x = np.zeros(k)
        x[0] = lam * self.alpha[0] * self.beta[0]
        for _ in range(times):
            x = x / D if k == 1 else scipy.linalg.lapack.dpttrs(D, l, x)[0]
        return x

    def tikhonov_residuals(self, lam):
        """The relative residual of ``tikhonov(lam, j)`` for j = 0..k at once.

        In exact arithmetic the full residual of V_j z is
        lam alpha_{j+1} beta_{j+1} z_j v_{j+1}, so its norm relative to
        ||lam A^T g|| costs no application; callers confirm it on the full
        system. With T_j = L_j D_j L_j^T, z_j is y_j / D_j times
        lam alpha_1 beta_1, where y = L^{-1} e_1 has entries prod_{i<j} (-l_i);
        one factorization of T_k gives every j.
        """
        k = self.k
        if self.alpha[0] == 0.0:
            return np.zeros(k + 1)
        rel = np.ones(k + 1)  # j = 0: f = 0 leaves the whole right-hand side
        if k:
            D, l = self._projected_factors(lam, k)
            y = np.cumprod(np.concatenate(([1.0], -l)))
            alpha = np.asarray(self.alpha[1 : k + 1])
            rel[1:] = lam * alpha * self.beta[1 : k + 1] * np.abs(y / D)
        return rel

    def discrepancy_error(self, lam, z, k):
        """Estimated error of ||A f_j - g||^2 for the projected solution
        f_j = V_j z of ``tikhonov(lam, j)``, taking V_k's (k > j) for the
        exact one.

        With M = I + lam A^T A, the normal residual s_j = M (f - f_j) is
        lam alpha_{j+1} beta_{j+1} z_j v_{j+1}, and since
        lam A^T (A f - g) = -f the squared data residuals differ by
        2 (M^{-1} f)^T s_j / lam + ||A M^{-1} s_j||^2. The coordinates of
        M^{-1} f in V_k are T_k^{-1} z^{(k)}, with T_k = I + lam B_k^T B_k;
        ||A M^{-1} v_{j+1}|| is at most both 1 / (2 sqrt(lam)) and
        ||A v_{j+1}|| = ||(alpha_{j+1}, beta_{j+2})||. The first term is an
        estimate, accurate once V_k holds the solution; the second a bound.
        """
        j = z.shape[0]
        e = self.alpha[j] * self.beta[j] * (abs(z[-1]) if j else 1.0)  # ||s_j|| / lam
        if e == 0.0:
            return 0.0
        w = self._projected_solve(lam, k, times=2)
        gamma = min(0.5 / math.sqrt(lam), math.hypot(self.alpha[j], self.beta[j + 1]))
        return 2.0 * e * abs(w[j]) + (gamma * lam * e) ** 2

    def discrepancy_slope(self, lam, z):
        """d||A f - g||^2 / dlam for the projected solution f = V_k z of
        ``tikhonov(lam, k)``, k = len(z), in O(k).

        In the projected problem lam B_k^T (B_k z - beta_1 e_1) = -z and
        T_k dz/dlam = z / lam, so the slope is -2 z^T T_k^{-1} z / lam^2,
        with T_k^{-1} z the solve of ``discrepancy_error``.
        """
        k = z.shape[0]
        if k == 0:
            return 0.0
        return -2.0 * float((z / lam) @ (self._projected_solve(lam, k, times=2) / lam))

    def lsqr(self):
        """LSQR at the current k.

        Returns the coordinates y of the minimizer of ||A V_k y - g|| over
        y, its residual norm ||r||, and ||A^T r|| / (||A|| ||r||), the
        normal-residual ratio of Paige & Saunders's stopping rule, with
        ``norm_estimate`` for ||A||. The last two
        come from the recurrences, without an operator application.
        """
        k = self.k
        if k == 0:
            return np.zeros(0), self.beta[0], 0.0 if self.exhausted else 1.0
        bands = np.zeros((2, k))
        bands[0, 1:] = self._theta[: k - 1]
        bands[1] = self._rho
        y = scipy.linalg.solve_banded((0, 1), bands, np.asarray(self._phi), check_finite=False)
        # ||r|| = |phibar| and ||A^T r|| = |phibar alpha_{k+1} c_k|
        return y, abs(self._phibar), abs(self.alpha[k] * self._c) / self.norm_estimate

    def distance(self, target=0.0):
        """LSQR from this basis: an upper bound on dist(g, range A) that
        tightens as the basis grows.

        The basis grows until the true residual r = A x - g of the LSQR
        iterate x drops below ``target`` in norm, or LSQR has converged:
        ||A^T r|| <= LSQR_TOL ||A|| ||r|| (Paige & Saunders's rule for
        inconsistent systems), or the basis is exhausted, where x is the
        least-squares solution. Exhaustion comes by min(dim_f, dim_g)
        steps, so the loop is bounded. The recurrences say when to look;
        each look forms x and costs one forward application, plus one
        adjoint when ||r|| is not below ``target`` and the basis is not
        exhausted. No rank cutoff is applied; the range is closed in
        finite dimensions, so the minimum is attained.

        Returns
        -------
        (residual_norm, converged)
            ``converged`` is false exactly when LSQR stopped below ``target``.
        """
        while True:
            y, res, ratio = self.lsqr()
            if res < target or ratio <= LSQR_TOL or self.exhausted:
                r = self._forward(self.expand(y)) - self.g
                dist = float(np.linalg.norm(r))
                if dist < target:
                    return dist, False
                if self.exhausted or np.linalg.norm(self._adjoint(r)) <= LSQR_TOL * self.norm_estimate * dist:
                    return dist, True
            self.step()
