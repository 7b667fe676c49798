import numpy as np
import pytest

from morozov import Lagrangian, linops, problems
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

    def test_kind_is_set_by_factories_only(self):
        L = linops.from_matrix(2.0 * np.eye(4))
        with pytest.raises(TypeError):
            Regularizer(L, kind="identity")
        assert Regularizer(L).kind == custom_regularizer(L).kind == "custom"
        assert identity_regularizer(4).kind == "identity"
        assert first_difference_regularizer(4).kind == "first_difference"


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
