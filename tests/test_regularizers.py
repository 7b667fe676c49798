import numpy as np
import pytest

from morozov import Lagrangian, linops, problems
from morozov.errors import AssumptionViolation, DimensionMismatch
from morozov.regularizers import (
    Regularizer,
    check_assumptions,
    custom_regularizer,
    first_difference_regularizer,
    identity_regularizer,
)

from conftest import assert_adjoint_consistent, counting_free_op, random_dense_op


def _consistency_cases(rng):
    """(penalty, forward) pairs whose kernels intersect trivially."""
    return [
        (identity_regularizer(4), random_dense_op(rng, 4, 4)),
        # injective L, 3-dimensional ker A
        (custom_regularizer(random_dense_op(rng, 8, 6)), random_dense_op(rng, 3, 6)),
        (first_difference_regularizer(6), random_dense_op(rng, 4, 6)),
    ]


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
    def test_identity_penalty_always_strict(self, rng):
        A = random_dense_op(rng, 3, 6)  # huge kernel
        report = check_assumptions(identity_regularizer(6), A)
        assert report.strictly_convex_along_kernel
        assert report.kernel_intersection_dim == 0
        assert report.coercive_on_problem
        assert report.attains_min_on_kernel

    def test_first_difference_pair_shares_constants(self):
        # ker(first difference) = constants for both maps, so the
        # intersection is exactly the 1-d space of constant vectors
        n = 6
        D = first_difference_regularizer(n)
        A = linops.from_matrix(D.seminorm_operator.materialize())
        report = check_assumptions(first_difference_regularizer(n), A)
        assert report.kernel_intersection_dim == 1
        assert not report.strictly_convex_along_kernel
        assert not report.coercive_on_problem
        constant = np.ones(n)
        assert np.linalg.norm(A.apply(constant)) == pytest.approx(0.0, abs=1e-14)

    def test_injective_forward_trivial_kernel(self, rng):
        A = linops.identity(5)
        report = check_assumptions(first_difference_regularizer(5), A)
        assert report.strictly_convex_along_kernel
        assert report.kernel_intersection_dim == 0

    def test_consistency_invariant(self, rng):
        for J, A in _consistency_cases(rng):
            report = check_assumptions(J, A)
            assert report.strictly_convex_along_kernel == (
                report.kernel_intersection_dim == 0
            )
            assert report.coercive_on_problem == report.strictly_convex_along_kernel

    def test_factorization_agrees_with_oracle(self, rng):
        # building the spectral factors is the selector's assumption check;
        # check_assumptions stays the independent oracle for it
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
            lag = Lagrangian(A, g, J, epsilon=1.0)
            try:
                lag.spectral_factors()
                refused = False
            except AssumptionViolation:
                refused = True
            oracle = check_assumptions(J, A).strictly_convex_along_kernel
            assert refused == (not oracle), (J.kind, A)
            outcomes.append(refused)
        assert outcomes.count(True) == 1  # only the shared-kernel pair

    def test_standard_form_agrees_with_oracle(self, rng):
        # for first differences the selector checks ||A W|| > 0 on the
        # constants W, with no SVD; check_assumptions stays the oracle
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
            try:
                lag.standard_form()
                refused = False
            except AssumptionViolation:
                refused = True
            assert refused == (not check_assumptions(J, A).strictly_convex_along_kernel), (J.kind, A)
            outcomes.append(refused)
        assert outcomes == [False, False, True, False]

    def test_matrix_free_operators_give_the_dense_report(self, rng):
        # matrix-free maps are materialized: the report of their matrices,
        # for a pair whose kernels meet only in 0 and a shared-kernel pair
        diff = np.diff(np.eye(6), axis=0)
        A = linops.from_matrix(diff)
        reports = []
        for mat in (rng.standard_normal((4, 6)), diff):
            free_L = custom_regularizer(counting_free_op(mat)[0])
            dense_L = custom_regularizer(linops.from_matrix(mat))
            report = check_assumptions(dense_L, A)
            assert check_assumptions(free_L, A) == report
            free_A, counts = counting_free_op(diff)
            assert check_assumptions(dense_L, free_A) == report
            assert counts == {"fwd": 6, "adj": 0}
            reports.append(report.kernel_intersection_dim)
        assert reports == [0, 1]

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_assumptions(identity_regularizer(3), linops.identity(4))

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            check_assumptions(identity_regularizer(3), linops.identity(3), tol=-1.0)
