"""Golub-Kahan bidiagonalization, the package's one Krylov kernel.

``GolubKahan`` is started from the data and holds one projected problem:
Tikhonov's (Chung, Nagy & O'Leary, ETNA 2008), with its error estimates.
It serves ``lagrange.solve_lagrange`` and the regime verdict, which the
engine gives whole (``StandardForm.certify``): its certificate is the
projected solution at the largest multiplier the search accepts, and
where that proves nothing, the solve there.
Every problem, whatever its penalty, dense or matrix-free, runs on it in
the standard form of ``lagrange.StandardForm``.
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
    """||w||: np.linalg.norm's own sqrt(w . w), without its dispatch. The
    two agree bit for bit on a contiguous w. On a reversed view, such as
    first differences' (L^+)^T returns, np.linalg.norm sums in memory
    order, and the last bit can differ."""
    return math.sqrt(w @ w)


def _orthogonalize(w, Q, before):
    """w, whose norm is ``before``, minus its projection on the orthonormal
    rows of Q, and its norm: one pass, and a second only when the first
    cancels below ``_TWICE``."""
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
    one adjoint application; an application whose norm is not finite
    raises ``ValueError`` before it changes the basis. The basis is
    exhausted when the Krylov space K(A^T A, A^T g) is invariant (a new
    alpha or beta vanishes to rounding) or a basis spans its whole space;
    every projected solution is then exact. Not thread-safe: callers that share a basis serialize
    on their own lock.
    """

    def __init__(self, forward, adjoint, g, dim_f):
        g = np.asarray(g, dtype=np.float64)
        self.g = g
        self._forward = forward
        self._adjoint = adjoint
        # a new alpha or beta at most this share of norm_estimate is rounding
        self._tiny = max(g.shape[0], dim_f) * _EPS
        self._u = None  # u_{k+1}, the last left vector
        self._V = _Rows(dim_f)
        # the LDL^T factors of I + lam B^T B at the last lam asked for
        # (``_factors``, ``keep``): that lam, on how many columns, and their
        # buffer, whose columns are as many as k can reach: min(dim_g, dim_f)
        self._ldl_lam, self._ldl_k = None, 0
        self._ldl = np.empty((4, min(g.shape[0], dim_f)))
        # a lower bound on ||A||: the largest alpha or beta so far, beta_1 aside
        self.norm_estimate = 0.0
        # the first step forms beta_1 = ||g||, u_1 and v_1, and leaves k = 0
        self.k, self.alpha, self.beta = -1, [], []
        self.step()

    @property
    def exhausted(self):
        return self.alpha[self.k] == 0.0

    def step(self):
        """Add one column to B_k; a no-op once the basis is exhausted.

        The new u is w / beta, with w = A v_k - alpha_k u_k, or g at the
        constructor's first step; the new v is A^T u - beta v_k
        orthogonalized against V, over its norm alpha. A beta or an alpha
        is 0 when it is rounding against ``norm_estimate``, or when the
        vectors so far span its whole space. Both applications are checked
        before the basis changes, so a step that raised raises again when
        it is asked for again.
        """
        k, V = self.k, self._V
        estimate = self.norm_estimate
        if k < 0:
            # beta_1 = ||g|| bounds no ||A||, and only g = 0 makes it 0; v_1
            # is A^T u_1 as it comes, with no v before it
            v, w, b = None, self.g, _norm(self.g)
        else:
            if self.exhausted:
                return
            v = V[k]
            w = self._forward(v) - self.alpha[k] * self._u
            b = _norm(w)
            if not math.isfinite(b):
                raise ValueError(f"the forward application returned a vector whose norm is {b}, not finite")
            estimate = max(estimate, b)
            # with b = 0, A V_k lies in span(U_k): the Krylov space is invariant
            if k + 1 == self.g.shape[0] or b <= self._tiny * estimate:
                b = 0.0
        a = 0.0
        if b:
            u = w / b
            w = self._adjoint(u) if v is None else self._adjoint(u) - b * v
            a = _norm(w)
            if not math.isfinite(a):
                raise ValueError(f"the adjoint application returned a vector whose norm is {a}, not finite")
            if v is not None:
                w, a = _orthogonalize(w, V[:], a)
            estimate = max(estimate, a)
            if V.full or a <= self._tiny * estimate:
                a = 0.0
            self._u = u
        self.norm_estimate, self.k = estimate, k + 1
        self.beta.append(b)
        self.alpha.append(a)
        if a:
            V.append(w / a)

    # -- projected problems --------------------------------------------------

    def expand(self, z):
        """V_k z, the solution-space vector with coordinates z; one row
        each for the rows of a block z."""
        return z @ self._V[: z.shape[-1]]

    def keep(self, lam, row):
        """Copy ``row``, lam's rows (D, l, y, rel) of a ``factor_block``,
        into the buffer of the factors kept at lam: ``_factors`` extends
        them from there as the basis grows."""
        self._ldl_lam, self._ldl_k = lam, row.shape[1]
        self._ldl[:, : row.shape[1]] = row

    def _factors(self, lam, k):
        """The rows D, l, y and rel of the LDL^T factorization of
        I + lam B^T B kept at lam, on k columns at least: the whole buffer,
        which callers slice to the columns they read. It is a view that
        holds only until the next multiplier's factors are kept, which
        rewrites it, so callers read it at once.

        I + lam B^T B is tridiagonal, with d_j = 1 + lam (alpha_j^2 +
        beta_{j+1}^2) on its diagonal and e_j = lam alpha_{j+1} beta_{j+1}
        beside it (alpha_j is ``alpha[j]``). Its L has l_j = e_j / D_j below
        the unit diagonal, y = L^{-1} e_1 has y_j = prod_{i<j} (-l_i), and
        rel_j = e_j |y_j / D_j| is the relative residual of
        ``tikhonov(lam, j + 1)``. The factors of a leading block are the
        leading entries, so they are kept for the last lam asked for and
        grow with the basis: a new lam starts from its ``factor_block`` row
        on every column so far (``keep``), and each column gained since
        costs one step of dpttrf's own recurrence,
        D_j = d_j - l_{j-1} e_{j-1}, in the same floating-point operations.
        So an entry does not depend on when it was formed. The buffer holds
        min(dim_g, dim_f) columns, the most a basis reaches, so it never
        grows.
        """
        if lam != self._ldl_lam:
            self.keep(lam, self.factor_block([lam])[:, 0])
        n = self._ldl_k
        if n < k:
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
        return self._ldl

    def factor_block(self, lams):
        """The factors that ``_factors`` keeps, at every multiplier of
        ``lams`` on the k columns so far: a 4-by-m-by-k array whose [:, i]
        holds lams[i]'s rows D, l, y and rel, bit for bit those of that
        multiplier alone, for ``keep``.

        The m tridiagonals are factored by one ``dpttrf``, as one of order
        m k with e = 0 at each seam. Its recurrence then starts each of them
        at D_0 = d_0 - (0 / D) 0 = d_0 exactly. l = e / D is formed after,
        so each row's last entry is e_k / D_k, not the seam's 0. At k <= 1
        there is no recurrence, and D = d without a ``dpttrf``.
        """
        k = self.k
        lams = np.asarray(lams, dtype=np.float64)[:, None]
        alpha = np.asarray(self.alpha[: k + 1])
        beta = np.asarray(self.beta[1 : k + 1])
        out = np.empty((4, lams.shape[0], k))
        D, l, y, rel = out
        np.multiply(lams, alpha[:k] ** 2 + beta**2, out=D)
        D += 1.0
        e = np.multiply(lams, alpha[1:], out=rel)  # e_j, until rel_j = e_j |y_j / D_j|
        e *= beta
        if k > 1:
            l[:] = e
            l[:, -1] = 0.0
            scipy.linalg.lapack.dpttrf(D.reshape(-1), l.reshape(-1)[:-1], overwrite_d=1, overwrite_e=1)
        np.divide(e, D, out=l)
        y[:, :1] = 1.0  # y_0, where there is a column
        np.negative(l[:, :-1], out=y[:, 1:])
        np.cumprod(y, axis=1, out=y)
        y_D = y / D
        rel *= np.abs(y_D, out=y_D)
        return out

    def tikhonov(self, lam, k=None):
        """Projected solution of (I + lam A^T A) f = lam A^T g in V_k.

        Solves (I + lam B_k^T B_k) z = lam alpha_1 beta_1 e_1 on the first
        ``k`` columns (default all) and returns z, with f = V_k z; its
        relative residual is ``tikhonov_residuals(lam, k)[0]``. The result
        depends on the first k columns only, not on how far the basis has
        grown.
        """
        x = np.zeros(self.k if k is None else k)
        # x stays empty at k = 0, where alpha_1 = 0 exhausts the basis
        x[:1] = lam * self.alpha[0] * self.beta[0]
        return self.projected_solve(lam, x)

    def projected_solve(self, lam, x):
        """(I + lam B_k^T B_k)^{-1} x on the first k = len(x) columns, from
        the factors kept at lam."""
        k = x.shape[0]
        D, l = self._factors(lam, k)[:2]
        return x / D[:k] if k <= 1 else scipy.linalg.lapack.dpttrs(D[:k], l[: k - 1], x)[0]

    def tikhonov_residuals(self, lam, start=0):
        """The relative residual of ``tikhonov(lam, j)`` for j = start..k at
        once.

        In exact arithmetic the full residual of V_j z is
        lam alpha_{j+1} beta_{j+1} z_j v_{j+1}, so its norm relative to
        ||lam A^T g|| costs no application; callers confirm it on the full
        system. With T_j = L_j D_j L_j^T, z_j is y_j / D_j times
        lam alpha_1 beta_1 (``_factors``), so the factors of T_k give every
        j, and a column the basis gained since the last call at this lam
        costs O(1). From ``start`` >= 1 the result is a view of the kept
        factors, so a search that reads only the columns past its last
        look, or only the last column, costs O(1) a column too; the view
        holds only until the next multiplier's factors are kept.
        """
        k = self.k
        if self.alpha[0] == 0.0:
            return np.zeros(k + 1 - start)
        rel = self._factors(lam, k)[3][max(start - 1, 0) : k]
        # j = 0: f = 0 leaves the whole right-hand side
        return rel if start else np.concatenate(([1.0], rel))

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
