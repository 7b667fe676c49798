"""Golub-Kahan bidiagonalization, the package's one Krylov kernel.

``GolubKahan`` is started from the data and holds one projected problem:
Tikhonov's (Chung, Nagy & O'Leary, ETNA 2008), with its error estimates.
It serves ``lagrange.solve_lagrange`` and the regime verdict of
``dual.diagnose_regime``, whose certificate is the projected solution at
the largest multiplier the search accepts (``StandardForm.certify``). The
problems of the identity and first-difference penalties, dense or
matrix-free, run on it in the standard form of ``lagrange.StandardForm``.
"""

import math

import numpy as np
import scipy.linalg.lapack

__all__ = ["GolubKahan"]

_EPS = np.finfo(np.float64).eps


# a reorthogonalization pass that leaves less than this share of a vector's
# norm has cancelled enough to lose orthogonality to rounding; one more pass
# restores it, and a third is never needed ("twice is enough": Daniel,
# Gragg, Kaufman & Stewart, Math. Comp. 30, 1976)
_TWICE = math.sqrt(0.5)


def _norm(w):
    """||w||: np.linalg.norm's own sqrt(w . w), without its dispatch."""
    return math.sqrt(w @ w)


def _orthogonalize(w, Q):
    """w minus its projection on the orthonormal rows of Q, and its norm:
    one pass, and a second only when the first cancels below ``_TWICE``."""
    before = _norm(w)
    w = w - (Q @ w) @ Q
    norm = _norm(w)
    if norm < _TWICE * before:
        w = w - (Q @ w) @ Q
        norm = _norm(w)
    return w, norm


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
    gives the residuals below without an operator application.

    Reorthogonalization is one-sided (Simon & Zha, SISC 21, 2000): each
    new v is orthogonalized against every earlier one, in one pass or in
    two when the first cancels (``_orthogonalize``), which keeps V_k
    orthonormal to rounding on ill-posed operators. The u side runs the
    plain recurrence and can lose orthogonality once Ritz values
    converge; the estimates below assume it, and callers confirm their
    answers on the full system. So U is not kept: a step reads only the
    last u, and U_{k+1} holds k + 1 vectors, which exhausts the u side
    once k + 1 = dim_g. A step costs its two operator applications plus
    O(k dim_f) for V.

    ``g`` is the start vector. ``step`` adds one column at one forward and
    one adjoint application. The basis is exhausted when the Krylov space
    K(A^T A, A^T g) is invariant (a new alpha or beta vanishes to
    rounding) or a basis spans its whole space; every projected solution
    is then exact. Not thread-safe: callers that share a basis serialize
    on their own lock.
    """

    def __init__(self, forward, adjoint, g, dim_f):
        g = np.asarray(g, dtype=np.float64)
        self.g = g
        self._forward = forward
        self._adjoint = adjoint
        self.k = 0
        self._u = None  # u_{k+1}, the last left vector
        self._V = _Rows(dim_f)
        # the LDL^T factors of I + lam B^T B at the last lam asked for
        # (``_factors``): that lam, how many columns, and their buffer
        self._ldl_lam, self._ldl_k, self._ldl = None, 0, None
        beta1 = float(np.linalg.norm(g))
        self.alpha = []
        self.beta = [beta1]
        # a lower bound on ||A||: the largest alpha or beta so far
        self.norm_estimate = 0.0
        if beta1 == 0.0:
            self.alpha.append(0.0)
        else:
            self._u = g / beta1
            self._append_v(self._adjoint(self._u))

    @property
    def exhausted(self):
        return self.alpha[self.k] == 0.0

    def _normalize(self, w, full, Q=None):
        """w orthogonalized against the rows of Q, if given, and normalized,
        and its norm; the norm is 0 when w is rounding noise or ``full``
        says the vectors so far already span w's space."""
        if Q is not None and Q.n:
            w, norm = _orthogonalize(w, Q[:])
        else:
            norm = _norm(w)
        self.norm_estimate = max(self.norm_estimate, norm)
        tiny = max(self.g.shape[0], self._V.width) * _EPS * self.norm_estimate
        if full or norm <= tiny:
            return w, 0.0
        return w / norm, norm

    def _append_v(self, w):
        v, a = self._normalize(w, self._V.full, self._V)
        self.alpha.append(a)
        if a:
            self._V.append(v)

    def step(self):
        """Add one column to B_k; a no-op once the basis is exhausted."""
        if self.exhausted:
            return
        k = self.k
        w = self._forward(self._V[k]) - self.alpha[k] * self._u
        u, b = self._normalize(w, k + 1 == self.g.shape[0])
        self.beta.append(b)
        self.k = k + 1
        if b:
            self._u = u
            self._append_v(self._adjoint(u) - b * self._V[k])
        else:
            # A V_k lies in span(U_k): the Krylov space is invariant
            self.alpha.append(0.0)

    # -- projected problems --------------------------------------------------

    def expand(self, z):
        """V_k z, the solution-space vector with coordinates z; one row
        each for the rows of a block z."""
        return z @ self._V[: z.shape[-1]]

    def _factors(self, lam, k):
        """Arrays of D_j, l_j and the relative residual of
        ``tikhonov(lam, j + 1)`` for j = 0..k-1 at least: the LDL^T
        factorization of I + lam B_k^T B_k.

        I + lam B^T B is tridiagonal, with d_j = 1 + lam (alpha_j^2 +
        beta_{j+1}^2) on its diagonal and e_j = lam alpha_{j+1} beta_{j+1}
        beside it (alpha_j is ``alpha[j]``). Its L has l_j = e_j / D_j below
        the unit diagonal, and y = L^{-1} e_1 has y_j = prod_{i<j} (-l_i).
        The factors of a leading block are the leading entries, so they
        are kept for the last lam asked for and grow with the basis: a new
        lam factors every column so far at once (``dpttrf``), and each
        column gained since costs one step of dpttrf's own recurrence,
        D_j = d_j - l_{j-1} e_{j-1}, in the same floating-point operations.
        So an entry does not depend on when it was formed. The factors sit
        in the rows of one buffer, a new one per lam, that grows by doubling
        and whose entries are never rewritten, so the slices handed out stay
        valid.
        """
        if lam != self._ldl_lam:
            n = self.k
            alpha = np.asarray(self.alpha[: n + 1])
            beta = np.asarray(self.beta[: n + 1])
            d = 1.0 + lam * (alpha[:n] ** 2 + beta[1:] ** 2)
            e = lam * alpha[1:] * beta[1:]
            D = d if n <= 1 else scipy.linalg.lapack.dpttrf(d, e[:-1])[0]
            l = e / D
            y = np.cumprod(np.concatenate(([1.0], -l[:-1])))[:n]
            self._ldl_lam, self._ldl_k, self._ldl = lam, n, np.empty((4, max(16, 2 * n)))
            self._ldl[:, :n] = D, l, y, e * np.abs(y / D)
        n = self._ldl_k
        if n < k:
            if k > self._ldl.shape[1]:
                self._ldl = np.concatenate((self._ldl, np.empty((4, max(k, self._ldl.shape[1])))), axis=1)
            buf = self._ldl
            if n:
                l_j, y_j = float(buf[1, n - 1]), float(buf[2, n - 1])
            for j in range(n, k):
                a, b = self.alpha[j], self.beta[j + 1]
                d = 1.0 + lam * (a * a + b * b)
                if j:
                    D_j, y_j = d - l_j * (lam * self.alpha[j] * self.beta[j]), y_j * -l_j
                else:
                    D_j, y_j = d, 1.0
                e = lam * self.alpha[j + 1] * self.beta[j + 1]
                l_j = e / D_j
                buf[:, j] = D_j, l_j, y_j, e * abs(y_j / D_j)
            self._ldl_k = k
        D, l, _, rel = self._ldl[:, : self._ldl_k]
        return D, l, rel

    def tikhonov(self, lam, k=None):
        """Projected solution of (I + lam A^T A) f = lam A^T g in V_k.

        Solves (I + lam B_k^T B_k) z = lam alpha_1 beta_1 e_1 on the first
        ``k`` columns (default all) and returns z, with f = V_k z; its
        relative residual is ``tikhonov_residuals(lam)[k]``. The result
        depends on the first k columns only, not on how far the basis has
        grown.
        """
        x = np.zeros(self.k if k is None else k)
        # x stays empty at k = 0, where alpha_1 = 0 exhausts the basis
        x[:1] = lam * self.alpha[0] * self.beta[0]
        return self.projected_solve(lam, x)

    def projected_solve(self, lam, x):
        """(I + lam B_k^T B_k)^{-1} x on the first k = len(x) columns."""
        k = x.shape[0]
        D, l, _ = self._factors(lam, k)
        return x / D[:k] if k <= 1 else scipy.linalg.lapack.dpttrs(D[:k], l[: k - 1], x)[0]

    def tikhonov_residuals(self, lam):
        """The relative residual of ``tikhonov(lam, j)`` for j = 0..k at once.

        In exact arithmetic the full residual of V_j z is
        lam alpha_{j+1} beta_{j+1} z_j v_{j+1}, so its norm relative to
        ||lam A^T g|| costs no application; callers confirm it on the full
        system. With T_j = L_j D_j L_j^T, z_j is y_j / D_j times
        lam alpha_1 beta_1 (``_factors``), so the factors of T_k give every
        j, and a column the basis gained since the last call at this lam
        costs O(1).
        """
        k = self.k
        if self.alpha[0] == 0.0:
            return np.zeros(k + 1)
        rel = np.ones(k + 1)  # j = 0: f = 0 leaves the whole right-hand side
        rel[1:] = self._factors(lam, k)[2][:k]
        return rel

    def tikhonov_bound(self, lam, z):
        """||B_k z - beta_1 e_1||^2 + ||z||^2 / lam for z on the first
        k = len(z) columns: the projected Tikhonov objective, which is
        ||A V_k z - g||^2 + ||V_k z||^2 / lam while U_{k+1} is orthonormal,
        in O(k) and without an application.
        """
        k = z.shape[0]
        r = np.zeros(k + 1)
        r[0] = -self.beta[0]
        r[:k] += np.multiply(self.alpha[:k], z)
        r[1:] += np.multiply(self.beta[1 : k + 1], z)
        return float(r @ r + z @ z / lam)

    def discrepancy_error(self, lam, z, w):
        """Estimated error of ||A f_j - g||^2 for the projected solution
        f_j = V_j z of ``tikhonov(lam, j)``, taking V_k's (k > j) for the
        exact one; w is T_k^{-1} z^{(k)}, the ``projected_solve`` of
        ``tikhonov(lam, k)``, of length k.

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
        gamma = min(0.5 / math.sqrt(lam), math.hypot(self.alpha[j], self.beta[j + 1]))
        return 2.0 * e * abs(w[j]) + (gamma * lam * e) ** 2

    def discrepancy_slope(self, lam, z, w):
        """d||A f - g||^2 / dlam for the projected solution f = V_k z of
        ``tikhonov(lam, k)``, k = len(z), in O(k), with w = T_k^{-1} z as
        in ``discrepancy_error``.

        In the projected problem lam B_k^T (B_k z - beta_1 e_1) = -z and
        T_k dz/dlam = z / lam, so the slope is -2 z^T T_k^{-1} z / lam^2.
        """
        return -2.0 * float((z / lam) @ (w / lam))
