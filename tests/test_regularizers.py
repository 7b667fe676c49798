import math

import numpy as np
import pytest
import scipy.fft

from morozov import Lagrangian, linops, maximize_dual, problems
from morozov.errors import AssumptionViolation, DimensionMismatch
from morozov.regularizers import (
    Regularizer,
    custom_regularizer,
    first_difference_regularizer,
    identity_regularizer,
)

from conftest import assert_adjoint_consistent, counting_free_op, random_dense_op, shares_kernel, custom_twin


def _consistency_cases(rng):
    """(penalty, forward) pairs whose kernels intersect trivially."""
    return [
        (identity_regularizer(4), random_dense_op(rng, 4, 4)),
        # injective L, 3-dimensional ker A
        (custom_regularizer(random_dense_op(rng, 8, 6)), random_dense_op(rng, 3, 6)),
        (first_difference_regularizer(6), random_dense_op(rng, 4, 6)),
        # identity penalty, 3-dimensional ker A
        (identity_regularizer(6), random_dense_op(rng, 3, 6)),
    ]


def _refused(build):
    """Whether building a problem's engine, ``build()``, raises
    ``AssumptionViolation``."""
    try:
        build()
    except AssumptionViolation:
        return True
    return False


class TestEvaluate:
    def test_identity_squared_norm(self):
        assert identity_regularizer(2).evaluate([3.0, 4.0]) == 25.0

    def test_constants_in_first_difference_kernel(self):
        J = first_difference_regularizer(5)
        assert J.evaluate(np.full(5, 3.7)) == pytest.approx(0.0, abs=1e-28)

    def test_first_difference_sum_oracle(self):
        f = np.array([0.0, 1.0, 3.0])
        expected = sum((f[i + 1] - f[i]) ** 2 for i in range(2))
        assert expected == 5.0
        assert first_difference_regularizer(3).evaluate(f) == pytest.approx(
            expected, rel=1e-15
        )

    def test_nonnegative_and_zero_at_origin(self, rng):
        J = custom_regularizer(random_dense_op(rng, 4, 6))
        assert J.evaluate(np.zeros(6)) == 0.0
        for _ in range(50):
            assert J.evaluate(rng.standard_normal(6)) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            identity_regularizer(3).evaluate([1.0, 2.0])


class TestGradient:
    def test_identity_gradient(self):
        np.testing.assert_allclose(
            identity_regularizer(2).gradient([1.0, 2.0]), [2.0, 4.0], rtol=0
        )

    def test_zero_at_origin(self, rng):
        J = custom_regularizer(random_dense_op(rng, 5, 4))
        np.testing.assert_array_equal(J.gradient(np.zeros(4)), np.zeros(4))

    def test_finite_difference_oracle(self, rng):
        J = first_difference_regularizer(5)
        f = rng.standard_normal(5)
        grad = J.gradient(f)
        h = 1e-6
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd = (J.evaluate(f + e) - J.evaluate(f - e)) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-9)

    def test_linearity(self, rng):
        J = custom_regularizer(random_dense_op(rng, 6, 4))
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        a, b = 0.3, -1.7
        np.testing.assert_allclose(
            J.gradient(a * x + b * y),
            a * J.gradient(x) + b * J.gradient(y),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_euler_identity(self, rng):
        # <grad J(f), f> = 2 J(f) for quadratics
        J = custom_regularizer(random_dense_op(rng, 5, 7))
        for _ in range(50):
            f = rng.standard_normal(7)
            lhs = float(J.gradient(f) @ f)
            assert lhs == pytest.approx(2.0 * J.evaluate(f), rel=1e-10)


class TestBuiltinMaps:
    """The built-in penalties are O(n) callback maps, not stored matrices."""

    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_materialized_maps_are_exact(self, n):
        np.testing.assert_array_equal(identity_regularizer(n).seminorm_operator.materialize(), np.eye(n))
        np.testing.assert_array_equal(
            first_difference_regularizer(n).seminorm_operator.materialize(), np.diff(np.eye(n), axis=0)
        )

    @pytest.mark.parametrize("n", [2, 3, 512])
    def test_first_difference_maps_pinned_to_numpy_bits(self, n, rng):
        # L^+, (L^+)^T and L^T of first differences call numpy's ufuncs
        # without np.cumsum's, np.mean's and np.diff's dispatch; their bytes
        # are those of the numpy expressions, signed zeros included, on
        # vectors with repeated entries and on L^+'s blocks of rows
        def pinv_ref(z):
            x = np.cumsum(np.concatenate((np.zeros(z.shape[:-1] + (1,)), z), axis=-1), axis=-1)
            return x - x.sum(axis=-1, keepdims=True) / x.shape[-1]

        J = first_difference_regularizer(n)
        pinv, pinv_adjoint = J.factors()[:2]

        def vectors(m):
            return [
                rng.standard_normal(m),
                np.zeros(m),
                -np.zeros(m),
                np.full(m, 0.3),
                rng.choice([-0.0, 0.0, 1.0, -1.0, 0.1], m),
                np.repeat(rng.standard_normal((m + 1) // 2), 2)[:m],
            ]

        for z in vectors(n - 1):
            assert pinv(z).tobytes() == pinv_ref(z).tobytes()
            assert J.seminorm_operator.apply_adjoint(z).tobytes() == (-np.diff(z, prepend=0.0, append=0.0)).tobytes()
        block = np.array(vectors(n - 1))
        assert pinv(block).tobytes() == pinv_ref(block).tobytes()
        for y in vectors(n):
            assert pinv_adjoint(y).tobytes() == np.cumsum((y - y.mean())[:0:-1])[::-1].tobytes()

    def test_adjoint_consistent(self):
        for J in (identity_regularizer(9), first_difference_regularizer(9)):
            assert not J.seminorm_operator.is_dense
            assert_adjoint_consistent(J.seminorm_operator, n_probes=50)

    def test_no_dense_storage(self):
        # a stored identity at n=4096 alone is 128 MiB
        import tracemalloc

        n = 4096
        f = np.random.default_rng(0).standard_normal(n)
        tracemalloc.start()
        try:
            for J in (identity_regularizer(n), first_difference_regularizer(n)):
                J.evaluate(f)
                J.gradient(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_first_difference_needs_two_entries(self):
        with pytest.raises(ValueError, match="first differences need n >= 2"):
            first_difference_regularizer(1)

    def test_kind_is_set_by_factories_only(self):
        L = linops.from_matrix(2.0 * np.eye(4))
        with pytest.raises(TypeError):
            Regularizer(L, kind="identity")
        assert Regularizer(L).kind == custom_regularizer(L).kind == "custom"
        assert identity_regularizer(4).kind == "identity"
        assert first_difference_regularizer(4).kind == "first_difference"


class _Gradient2D(Regularizer):
    """L = [D_x; D_y], Neumann forward differences on an N-by-N image
    stored row by row, whose standard-form factors are closed forms.

    L^T L = C^T diag(sigma^2) C for the orthonormal 2-D DCT-II C, with
    sigma_ij = sqrt(lam_i + lam_j) and lam_i = 4 sin^2(pi i / 2N). So
    Lr = diag(sigma) C less the constant coefficient, where sigma_00 = 0,
    and L^+ and (L^+)^T are one inverse DCT and one DCT; ker L is the
    constants, W = 1/N, and ||L||^2 = max sigma^2 < 8.
    """

    def __init__(self, N):
        def forward(f):
            x = f.reshape(N, N)
            return np.concatenate((np.diff(x, axis=1).ravel(), np.diff(x, axis=0).ravel()))

        def adjoint(y):
            dx, dy = y[: N * (N - 1)].reshape(N, N - 1), y[N * (N - 1) :].reshape(N - 1, N)
            ends = {"prepend": 0.0, "append": 0.0}
            return -(np.diff(dx, axis=1, **ends) + np.diff(dy, axis=0, **ends)).ravel()

        super().__init__(linops.from_callables(N * N, 2 * N * (N - 1), forward, adjoint))
        self.N = N

    def factors(self):
        N = self.N
        lam = 4.0 * np.sin(np.pi * np.arange(N) / (2 * N)) ** 2
        sigma = np.sqrt(lam[:, None] + lam).ravel()[1:]

        def pinv(z):
            c = np.zeros(z.shape[:-1] + (N * N,))
            c[..., 1:] = z / sigma
            return scipy.fft.idctn(c.reshape(z.shape[:-1] + (N, N)), norm="ortho", axes=(-2, -1)).reshape(c.shape)

        def pinv_adjoint(y):
            c = scipy.fft.dctn(y.reshape(y.shape[:-1] + (N, N)), norm="ortho", axes=(-2, -1))
            return c.reshape(y.shape)[..., 1:] / sigma

        return pinv, pinv_adjoint, np.full((N * N, 1), 1.0 / N), math.sqrt(8.0)


class TestFactors:
    # the standard-form factors a penalty brings: the engine reads a
    # penalty only through them

    @pytest.mark.parametrize("penalty", ["identity", "first_difference", "injective", "stacked", "gradient_2d"])
    def test_contract(self, rng, penalty):
        # Lr L^+ = I for a map Lr with ||Lr f|| = ||L f||, L^+ applied row
        # by row to a block, (L^+)^T its adjoint, W an orthonormal basis of
        # ker L, and the bound at least ||L||
        D = np.diff(np.eye(7), axis=0)
        J = {
            "identity": lambda: identity_regularizer(7),
            "first_difference": lambda: first_difference_regularizer(7),
            "injective": lambda: custom_regularizer(random_dense_op(rng, 9, 7)),
            "stacked": lambda: custom_regularizer(linops.from_matrix(np.vstack([D, 2.0 * D]))),
            "gradient_2d": lambda: _Gradient2D(5),
        }[penalty]()
        pinv, pinv_adjoint, W, bound = J.factors()
        L = J.seminorm_operator.materialize()
        n = J.dim_f
        assert bound >= np.linalg.norm(L, 2) * (1.0 - 1e-12)
        if pinv is None:
            assert W.shape == (n, 0) and np.array_equal(L, np.eye(n))
            return
        r = n - W.shape[1]
        np.testing.assert_allclose(W.T @ W, np.eye(n - r), atol=1e-14)
        assert np.abs(L @ W).max(initial=0.0) <= 1e-13
        Z = rng.standard_normal((3, r))
        F = pinv(Z)
        assert F.shape == (3, n)
        for z, f in zip(Z, F):
            np.testing.assert_allclose(pinv(z), f, rtol=0, atol=1e-14 * np.abs(f).max())
            assert np.linalg.norm(L @ f) == pytest.approx(np.linalg.norm(z), rel=1e-12)
            assert np.abs(W.T @ f).max(initial=0.0) <= 1e-13 * np.linalg.norm(f)
        y = rng.standard_normal(n)
        assert pinv_adjoint(y).shape == (r,)
        assert pinv_adjoint(y) @ Z[0] == pytest.approx(y @ F[0], rel=1e-12)

    def test_relabelled_penalty_keeps_its_factors(self):
        # kind names a penalty and picks nothing: L = 2 I labelled
        # "identity" is still factored as L = 2 I. When the label picked
        # the identity's closed form, this selection exhausted its basis
        n = 64
        prob = problems.synthesize(problems.make_deconvolution(n, 2.0), np.sin(np.linspace(0, np.pi, n)), 0.02, seed=1)
        stars = []
        for label in (None, "identity"):
            J = custom_regularizer(linops.from_matrix(2.0 * np.eye(n)))
            if label:
                J.kind = label
            stars.append(maximize_dual(Lagrangian(prob.op, prob.g, J, (1.02 * prob.tau) ** 2)).lambda_star)
        assert stars[1] == stars[0]

    def test_gradient_2d_selects_as_materialized(self, monkeypatch):
        # ROADMAP's 2-D image under the Kronecker product of two width-2
        # blurs at N = 32: the 2-D gradient's DCT factors select what its
        # materialized map selects through the pivoted QR factorization,
        # which the structured penalty never calls
        N = 32
        B = problems.make_deconvolution(N, 2.0).matrix
        A = linops.from_matrix(np.kron(B, B))
        x = (np.arange(N) + 0.5) / N
        X, Y = np.meshgrid(x, x)
        f0 = np.exp(-((X - 0.4) ** 2 + (Y - 0.5) ** 2) / 0.02) + ((abs(X - 0.65) < 0.15) & (abs(Y - 0.4) < 0.2))
        prob = problems.synthesize(A, f0.ravel(), 0.02, seed=0)
        calls = []
        factors = Regularizer.factors
        monkeypatch.setattr(Regularizer, "factors", lambda J: calls.append(J) or factors(J))
        structured = _Gradient2D(N)
        materialized = custom_regularizer(linops.from_matrix(structured.seminorm_operator.materialize()))
        answers = []
        for J in (structured, materialized):
            lag = Lagrangian(A, prob.g, J, (1.02 * prob.tau) ** 2)
            res = maximize_dual(lag)
            answers.append((res.lambda_star, len(res.iterations), lag.engine().basis.k))
            assert calls == ([] if J is structured else [materialized])
        (star, evals, k), (ref_star, ref_evals, ref_k) = answers
        assert star == pytest.approx(ref_star, rel=1e-10)
        assert (evals, k) == (ref_evals, ref_k)


def test_midpoint_convexity(rng):
    J = custom_regularizer(random_dense_op(rng, 3, 5))
    for _ in range(50):
        f, f2 = rng.standard_normal(5), rng.standard_normal(5)
        mid = J.evaluate(0.5 * (f + f2))
        assert mid <= 0.5 * (J.evaluate(f) + J.evaluate(f2)) + 1e-12


def test_midpoint_equality_iff_difference_in_kernel(rng):
    # shifting by a constant keeps L(f - f') = 0, so the convexity
    # inequality must be tight there and strict otherwise
    J = first_difference_regularizer(6)
    f = rng.standard_normal(6)
    f_shift = f + 2.5  # difference is constant, in ker L
    mid = J.evaluate(0.5 * (f + f_shift))
    assert mid == pytest.approx(0.5 * (J.evaluate(f) + J.evaluate(f_shift)), rel=1e-12)
    f_other = f + rng.standard_normal(6)  # difference generically not in ker L
    mid = J.evaluate(0.5 * (f + f_other))
    assert mid < 0.5 * (J.evaluate(f) + J.evaluate(f_other)) - 1e-12


class TestCheckAssumptions:
    # building the engine is the selector's one strict-convexity check;
    # numpy's rank of [A; L] (conftest.shares_kernel) is the oracle for it

    def test_factorization_agrees_with_oracle(self, rng):
        # every penalty here is stored as a custom one, whose kernel comes
        # from the pivoted QR factorization of its stored map
        n = 8
        shared = first_difference_regularizer(n)
        cases = _consistency_cases(rng) + [
            (first_difference_regularizer(n), linops.from_matrix(shared.seminorm_operator.materialize())),
            (first_difference_regularizer(10), problems.make_hilbert(10)),
        ]
        for target in ("interior", "noise_dominates", "too_optimistic"):
            prob = problems.regime_fixture(target, seed=1)
            cases.append((prob.regularizer, prob.op))
        outcomes = []
        for J, A in cases:
            g = rng.standard_normal(A.dims.dim_g)
            refused = _refused(custom_twin(Lagrangian(A, g, J, epsilon=1.0)).engine)
            assert refused == shares_kernel(A, J.seminorm_operator), (J.kind, A)
            outcomes.append(refused)
        assert outcomes == [False] * 4 + [True] + [False] * 4  # only the shared-kernel pair

    def test_standard_form_agrees_with_oracle(self, rng):
        # for first differences the selector checks ||A W|| > 0 on the
        # constants W, with no SVD
        n = 8
        shared = first_difference_regularizer(n)
        cases = _consistency_cases(rng) + [
            (first_difference_regularizer(n), linops.from_matrix(shared.seminorm_operator.materialize())),
            (first_difference_regularizer(10), problems.make_hilbert(10)),
        ]
        outcomes = []
        for J, A in cases:
            if J.kind == "custom":
                continue
            lag = Lagrangian(A, rng.standard_normal(A.dims.dim_g), J, epsilon=1.0)
            refused = _refused(lag.engine)
            assert refused == shares_kernel(A, J.seminorm_operator), (J.kind, A)
            outcomes.append(refused)
        assert outcomes == [False, False, False, True, False]

    def test_engine_decides_matrix_free_maps_as_dense_ones(self, rng):
        # a custom penalty's engine materializes a matrix-free L, at dim_f
        # forward applications, and never A: it applies A once to each of
        # the d columns of ker L and its adjoint once to each of their
        # orthonormalized images, and, once the check passes, once to g and
        # once for the basis's first column. The decision for a pair whose
        # kernels meet only in 0 and for a shared-kernel pair
        diff = np.diff(np.eye(6), axis=0)
        g = rng.standard_normal(5)
        outcomes = []
        for mat in (rng.standard_normal((4, 6)), diff):
            oracle = shares_kernel(linops.from_matrix(diff), linops.from_matrix(mat))
            ker_l = 6 - np.linalg.matrix_rank(mat)
            expected = {"A": {"fwd": ker_l, "adj": ker_l + (0 if oracle else 2)}, "L": {"fwd": 6, "adj": 0}}
            for free in ((), ("A",), ("L",), ("A", "L")):
                maps, counts = {}, {}
                for name, m in (("A", diff), ("L", mat)):
                    if name in free:
                        maps[name], counts[name] = counting_free_op(m)
                    else:
                        maps[name] = linops.from_matrix(m)
                lag = Lagrangian(maps["A"], g, custom_regularizer(maps["L"]), epsilon=1.0)
                assert _refused(lag.engine) == oracle, free
                assert counts == {name: expected[name] for name in free}
            outcomes.append(oracle)
        assert outcomes == [False, True]
