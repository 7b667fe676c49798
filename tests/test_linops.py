import struct

import numpy as np
import pytest

from morozov import linops
from morozov.errors import DimensionMismatch
from morozov.linops import (
    VectorSpaceDims,
    from_callables,
    from_matrix,
    identity,
    residual_norm_sq,
)
from morozov.problems import make_deconvolution, make_hilbert

from conftest import assert_adjoint_consistent, counting_free_op, random_dense_op


def test_dims_validation():
    with pytest.raises(ValueError):
        VectorSpaceDims(0, 3)
    with pytest.raises(ValueError):
        VectorSpaceDims(3, -1)
    assert VectorSpaceDims(2, 5).dim_f == 2


class TestApply:
    def test_identity(self):
        assert np.array_equal(identity(2).apply([1.0, 2.0]), [1.0, 2.0])

    def test_coordinate_projection(self):
        op = from_matrix([[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(op.apply([3.0, 4.0]), [3.0, 0.0])

    def test_blur_on_delta_matches_convolution_sum(self):
        # applying the blur to a delta pulls out one kernel column; the
        # oracle recomputes it as an explicit convolution sum
        n, width = 16, 2.0
        op = make_deconvolution(n, width)
        j = 5
        delta = np.zeros(n)
        delta[j] = 1.0
        got = op.apply(delta)
        offsets = np.arange(-(n - 1), n)
        w = np.exp(-0.5 * (offsets / width) ** 2)
        w /= w.sum()
        expected = np.array([w[(i - j) + (n - 1)] for i in range(n)])
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            identity(2).apply([1.0, 2.0, 3.0])


class TestApplyAdjoint:
    def test_identity(self):
        assert np.array_equal(identity(2).apply_adjoint([5.0, 6.0]), [5.0, 6.0])

    def test_transpose_action(self):
        op = from_matrix([[1.0, 2.0], [3.0, 4.0]])
        expected = np.array([[1.0, 2.0], [3.0, 4.0]]).T @ np.array([1.0, 0.0])
        got = op.apply_adjoint([1.0, 0.0])
        np.testing.assert_allclose(got, expected, rtol=1e-15)
        np.testing.assert_allclose(got, [1.0, 2.0], rtol=1e-15)

    def test_adjoint_defining_property_8x5(self, rng):
        op = random_dense_op(rng, 8, 5)
        assert_adjoint_consistent(op, n_probes=100, rtol=1e-10)

    def test_dimension_mismatch(self):
        op = from_matrix(np.ones((3, 2)))
        with pytest.raises(DimensionMismatch):
            op.apply_adjoint([1.0, 2.0])


class TestGramApply:
    def test_gram_matrix_materializes_matrix_free(self, rng):
        # dim_f forward applications, once: the product is cached
        mat = rng.standard_normal((7, 5))
        op, counts = counting_free_op(mat)
        dense = op.materialize()
        counts["fwd"] = 0
        gram = op.gram_matrix()
        assert np.array_equal(gram, dense.T @ dense)
        assert op.gram_matrix() is gram and counts == {"fwd": 5, "adj": 0}
        assert not gram.flags.writeable


class TestResidualNormSq:
    def test_zero_residual(self, rng):
        op = random_dense_op(rng, 4, 4)
        f = rng.standard_normal(4)
        assert residual_norm_sq(op, f, op.apply(f)) == pytest.approx(0.0, abs=1e-25)

    def test_norm_of_g(self):
        assert residual_norm_sq(identity(2), [0.0, 0.0], [3.0, 4.0]) == 25.0

    def test_direct_summation_oracle(self, rng):
        op = random_dense_op(rng, 6, 3)
        f = rng.standard_normal(3)
        g = rng.standard_normal(6)
        r = op.matrix @ f - g
        expected = sum(float(v) * float(v) for v in r)
        assert residual_norm_sq(op, f, g) == pytest.approx(expected, rel=1e-12)


class TestOperatorAlgebra:
    def test_linearity_random_probes(self, rng):
        op = random_dense_op(rng, 6, 4)
        for _ in range(50):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            a, b = rng.standard_normal(2)
            lhs = op.apply(a * x + b * y)
            rhs = a * op.apply(x) + b * op.apply(y)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_adjoint_operator(self, rng):
        op = random_dense_op(rng, 5, 3)
        adj = op.adjoint()
        y = rng.standard_normal(5)
        np.testing.assert_allclose(adj.apply(y), op.apply_adjoint(y), rtol=1e-15)
        assert adj.dims == VectorSpaceDims(dim_f=5, dim_g=3)

    def test_compose(self, rng):
        a = random_dense_op(rng, 4, 3)
        b = random_dense_op(rng, 3, 5)
        ab = a @ b
        f = rng.standard_normal(5)
        np.testing.assert_allclose(ab.apply(f), a.apply(b.apply(f)), rtol=1e-13)
        assert_adjoint_consistent(ab, n_probes=100)
        with pytest.raises(DimensionMismatch):
            b.compose(a.adjoint())
        with pytest.raises(DimensionMismatch):
            a.compose(a)

    def test_matmul_vector(self, rng):
        op = random_dense_op(rng, 4, 4)
        f = rng.standard_normal(4)
        np.testing.assert_allclose(op @ f, op.apply(f), rtol=0)

    def test_materialize_matrix_free(self, rng):
        mat = rng.standard_normal((5, 3))
        free = from_callables(3, 5, lambda f: mat @ f, lambda y: mat.T @ y)
        np.testing.assert_allclose(free.materialize(), mat, rtol=0, atol=0)

    def test_materialize_dense_is_not_a_copy(self, rng):
        op = random_dense_op(rng, 5, 3)
        assert op.materialize() is op.matrix
        assert not op.materialize().flags.writeable

    def test_matrix_is_immutable(self):
        op = identity(2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


def test_all_shipped_operators_pass_adjoint_gate(rng):
    ops = [
        identity(7),
        random_dense_op(rng, 9, 6),
        make_deconvolution(24, 1.5),
        make_hilbert(8),
        from_matrix(np.diag([1.0, 2.0, 3.0])[:2]),  # wide slice
    ]
    mat = rng.standard_normal((6, 4))
    ops.append(from_callables(4, 6, lambda f: mat @ f, lambda y: mat.T @ y))
    ops.append(ops[1] @ identity(6))  # composition
    for op in ops:
        assert_adjoint_consistent(op, n_probes=100, rtol=1e-10)


class TestMatrixFiles:
    def test_csv_roundtrip(self, tmp_path, rng):
        mat = rng.standard_normal((4, 7))
        path = tmp_path / "m.csv"
        linops.save_matrix_csv(mat, path)
        np.testing.assert_array_equal(linops.load_matrix_csv(path), mat)

    def test_csv_is_rowmajor_headerless(self, tmp_path):
        path = tmp_path / "m.csv"
        linops.save_matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]]), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["1", "2"]
        assert lines[1].split(",") == ["3", "4"]

    def test_mdop_roundtrip(self, tmp_path, rng):
        mat = rng.standard_normal((5, 3))
        path = tmp_path / "m.bin"
        linops.save_matrix_mdop(mat, path)
        np.testing.assert_array_equal(linops.load_matrix_mdop(path), mat)

    def test_mdop_layout(self, tmp_path):
        mat = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        path = tmp_path / "m.bin"
        linops.save_matrix_mdop(mat, path)
        raw = path.read_bytes()
        assert raw[:4] == b"MDOP"
        rows, cols = struct.unpack("<II", raw[4:12])
        assert (rows, cols) == (3, 2)
        assert len(raw) == 16 + rows * cols * 8
        payload = np.frombuffer(raw[16:], dtype="<f8")
        # column-major: first column then second
        np.testing.assert_array_equal(payload, [1.0, 3.0, 5.0, 2.0, 4.0, 6.0])

    def test_mdop_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError, match="not an MDOP"):
            linops.load_matrix_mdop(path)

    def test_mdop_rejects_truncation(self, tmp_path, rng):
        path = tmp_path / "m.bin"
        linops.save_matrix_mdop(rng.standard_normal((4, 4)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            linops.load_matrix_mdop(path)

    def test_vector_csv_roundtrip(self, tmp_path, rng):
        v = rng.standard_normal(9)
        path = tmp_path / "v.csv"
        linops.save_vector_csv(v, path)
        np.testing.assert_array_equal(linops.load_vector_csv(path), v)
