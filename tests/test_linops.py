import gc
import math
import struct
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

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

from conftest import assert_adjoint_consistent, random_dense_op

EPS = np.finfo(np.float64).eps


def test_dims_validation():
    with pytest.raises(ValueError):
        VectorSpaceDims(0, 3)
    with pytest.raises(ValueError):
        VectorSpaceDims(3, -1)
    assert VectorSpaceDims(2, 5).dim_f == 2
    # numpy integers are sizes too
    assert VectorSpaceDims(np.int64(2), np.int32(5)).dim_g == 5


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

    def test_callback_output_is_checked(self):
        # a 3-by-2 map whose callbacks return one entry too many
        op = from_callables(2, 3, lambda f: np.zeros(4), lambda y: np.zeros(3))
        with pytest.raises(DimensionMismatch, match="forward callback output"):
            op.apply(np.ones(2))
        with pytest.raises(DimensionMismatch, match="forward callback output"):
            op.materialize()
        with pytest.raises(DimensionMismatch, match="adjoint callback output"):
            op.apply_adjoint(np.ones(3))


    def test_complex_vectors_are_refused(self):
        # an FFT product without .real carries an imaginary part of rounding
        # size: the cast to float64 would drop it, and any larger one, with
        # only a ComplexWarning
        n = 8

        def circulant(x):
            return np.fft.ifft(np.fft.fft(x))

        op = from_callables(n, n, circulant, circulant)
        with pytest.raises(ValueError, match="forward callback output must be real"):
            op.apply(np.ones(n))
        with pytest.raises(ValueError, match="adjoint callback output must be real"):
            op.apply_adjoint(np.ones(n))
        with pytest.raises(ValueError, match="f must be real"):
            identity(n).apply(np.ones(n) + 1j)
        with pytest.raises(ValueError, match="y must be real"):
            identity(n).apply_adjoint(np.ones(n, dtype=complex))

    def test_malformed_operators_are_refused(self):
        # a matrix whose shape disagrees with the dims, and a matrix-free
        # map without its adjoint
        with pytest.raises(DimensionMismatch, match=r"matrix shape \(2, 3\) does not match dims \(3, 2\)"):
            linops.LinearOperator(VectorSpaceDims(2, 3), matrix=np.ones((2, 3)))
        with pytest.raises(ValueError, match="needs both forward and adjoint callbacks"):
            linops.LinearOperator(VectorSpaceDims(2, 2), forward=np.copy)

    def test_complex_matrices_are_refused(self):
        # the cast to float64 kept the identity of eye(2) + 1j with only a
        # ComplexWarning
        with pytest.raises(ValueError, match="matrix must be real"):
            from_matrix(np.eye(2) + 1j)
        with pytest.raises(ValueError, match="matrix must be real"):
            linops.LinearOperator(VectorSpaceDims(2, 2), matrix=np.eye(2, dtype=complex))


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


def banded(rng, m, n, kl, ku):
    """An m-by-n matrix with random entries on diagonals -kl..ku, zero off them."""
    i, j = np.indices((m, n))
    return np.where((i - j <= kl) & (j - i <= ku), rng.standard_normal((m, n)), 0.0)


def assert_products_match(op, mat, rng):
    # the band and dense products sum the same terms in another order
    for _ in range(5):
        x, y = rng.standard_normal(mat.shape[1]), rng.standard_normal(mat.shape[0])
        for got, ref in ((op.apply(x), mat @ x), (op.apply_adjoint(y), mat.T @ y)):
            assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)


def assert_within_the_cut(op, mat, rng):
    """Each entry of the forward (adjoint) product is within
    eps * max |row| * ||x||_inf (eps * max |column| * ||y||_inf) of its
    exact value, plus the rounding of the band's own sum."""
    width = op.dims.dim_f + op.dims.dim_g
    for _ in range(5):
        x, y = rng.standard_normal(mat.shape[1]), rng.standard_normal(mat.shape[0])
        for got, a, v in ((op.apply(x), mat, x), (op.apply_adjoint(y), mat.T, y)):
            exact = np.array([math.fsum(row * v) for row in a])
            bound = EPS * np.abs(a).max(axis=1) * np.abs(v).max() + width * EPS * (np.abs(a) @ np.abs(v))
            assert (np.abs(got - exact) <= bound).all()


@pytest.fixture
def band_copies(monkeypatch):
    """The (kl, ku) of every band copy built while the test runs."""
    built = []
    band_storage = linops._band_storage

    def recording(mat, kl, ku):
        built.append((kl, ku))
        return band_storage(mat, kl, ku)

    monkeypatch.setattr(linops, "_band_storage", recording)
    return built


class TestBandStorage:
    """Dense matrices whose band fits half their size are applied by dgbmv,
    on a band copy built with the operator."""

    @pytest.mark.parametrize(
        "m, n, kl, ku",
        [
            (12, 12, 2, 3),  # square
            (20, 8, 1, 2),  # tall: rows below the band are all zero
            (20, 8, 3, 0),
            (8, 20, 2, 1),  # wide
            (12, 12, 4, 0),  # lower only
            (12, 12, 0, 4),  # upper only
            (12, 12, 0, 0),  # diagonal
            (12, 12, 3, 2),  # kl + ku + 1 = 6, exactly half
        ],
    )
    def test_band_products_match_dense(self, rng, band_copies, m, n, kl, ku):
        mat = banded(rng, m, n, kl, ku)
        op = from_matrix(mat)
        # one copy, built with the operator; reading the stored matrix
        # builds no other
        assert band_copies == [(kl, ku)]
        np.testing.assert_array_equal(op.matrix, mat)
        assert op.materialize() is op.matrix
        assert_products_match(op, mat, rng)
        # and the products keep it
        assert band_copies == [(kl, ku)]

    @pytest.mark.parametrize("m, n, kl, ku", [(12, 12, 3, 3), (20, 8, 2, 2), (8, 20, 4, 0)])
    def test_one_past_half_width_stays_dense(self, rng, band_copies, m, n, kl, ku):
        mat = banded(rng, m, n, kl, ku)
        op = from_matrix(mat)
        assert_products_match(op, mat, rng)
        assert band_copies == []
        np.testing.assert_array_equal(op.matrix, mat)

    def test_all_zero_matrix(self, rng, band_copies):
        op = from_matrix(np.zeros((10, 6)))
        assert np.array_equal(op.apply(rng.standard_normal(6)), np.zeros(10))
        assert band_copies == [(0, 0)]
        assert np.array_equal(op.apply_adjoint(rng.standard_normal(10)), np.zeros(6))
        np.testing.assert_array_equal(op.materialize(), np.zeros((10, 6)))

    def test_deconvolution_band_ends_at_the_rounding_cut(self, band_copies):
        # at width 2 the stored weights reach offset 75, where they
        # underflow to 0; from offset 19 on they lie below eps / n of every
        # row's and column's largest weight, and the band ends at 18
        op = make_deconvolution(512, 2.0)
        assert band_copies == [(18, 18)]
        op.apply_adjoint(np.ones(512))
        assert band_copies == [(18, 18)]

    @pytest.mark.parametrize("tail", [1e-300, "below the cut"])
    def test_tail_outside_the_band_is_cut(self, rng, band_copies, tail):
        # band entries of magnitude 1 to 2 set every row and column maximum
        # to at least 1, so tail entries below eps / n of it are dropped
        m, n, kl, ku = 40, 40, 3, 2
        mat = banded(rng, m, n, kl, ku)
        mat += np.sign(mat)
        level = 1e-300 if tail == 1e-300 else 0.99 * EPS / max(m, n)
        mat[mat == 0] = level * rng.choice([-1.0, 1.0], size=m * n - np.count_nonzero(mat))
        op = from_matrix(mat)
        assert_within_the_cut(op, mat, rng)
        assert band_copies == [(kl, ku)]

    def test_small_row_keeps_its_entries(self, rng, band_copies):
        # one row holds the outermost diagonals and is 1e-20 of the others:
        # the cut follows its own maximum, so the band keeps its entries
        mat = banded(rng, 24, 24, 1, 1)
        mat[5, 2], mat[5, 9] = 0.7, -1.3
        mat[5] *= 1e-20
        op = from_matrix(mat)
        assert_within_the_cut(op, mat, rng)
        assert band_copies == [(3, 4)]

    def test_deconvolution_band_holds_no_entry_below_the_cut(self, monkeypatch):
        mat = make_deconvolution(512, 2.0).matrix
        mag = np.abs(mat)
        cut = EPS / 512 * min(mag.max(axis=1).min(), mag.max(axis=0).min())
        copies = []
        band_storage = linops._band_storage
        monkeypatch.setattr(linops, "_band_storage", lambda *args: copies.append(band_storage(*args)) or copies[-1])
        from_matrix(mat).apply(np.ones(512))
        (ab,) = copies
        assert ab.shape == (37, 512)
        assert np.abs(ab[ab != 0]).min() > cut
        # and the diagonals past it hold nothing above the cut
        assert max(np.abs(mat.diagonal(d)).max() for d in (-19, 19)) <= cut

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_gives_numpy_products(self, rng, band_copies, bad):
        # a NaN makes the cut NaN, which falls back to every stored nonzero;
        # an infinity stays in the band; either way the products are numpy's,
        # NaN and inf in the same places
        mat = banded(rng, 12, 12, 0, 1)
        mat[3, 4] = bad
        op = from_matrix(mat)
        x, y = rng.standard_normal(12), rng.standard_normal(12)
        for got, ref in ((op.apply(x), mat @ x), (op.apply_adjoint(y), mat.T @ y)):
            finite = np.isfinite(ref)
            assert not finite.all()
            # NaN and each signed inf in the same places, the rest as in
            # assert_products_match
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15 * np.linalg.norm(ref[finite]))
        assert band_copies == [(0, 1)]

    def test_concurrent_first_products_agree(self, rng, band_copies):
        # the pair is picked when the operator is built, so every thread's
        # first product runs on its one band copy and must give M @ x
        mat = banded(rng, 256, 256, 20, 30)
        op = from_matrix(mat)
        xs = rng.standard_normal((8, 256))
        barrier = threading.Barrier(8, timeout=30)

        def first_product(x):
            barrier.wait()
            return op.apply(x), op.apply_adjoint(x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                results = [future.result(timeout=30) for future in [pool.submit(first_product, x) for x in xs]]
        finally:
            sys.setswitchinterval(interval)
        for x, (forward, adjoint) in zip(xs, results):
            for got, ref in ((forward, mat @ x), (adjoint, mat.T @ x)):
                assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)
        assert band_copies == [(20, 30)]

    @pytest.mark.parametrize("kind", ["banded", "dense", "callables"])
    def test_operator_is_freed_without_the_cycle_collector(self, rng, kind):
        # the pair holds the matrix, its band or the callbacks, not the
        # operator, so reference counting alone frees a used operator
        mat = banded(rng, 12, 12, 1, 1) if kind == "banded" else rng.standard_normal((12, 12))
        if kind == "callables":
            op = from_callables(12, 12, mat.__matmul__, mat.T.__matmul__)
        else:
            op = from_matrix(mat)
        op.apply(np.ones(12))
        ref = weakref.ref(op)
        gc.disable()
        try:
            del op
            assert ref() is None
        finally:
            gc.enable()


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
    for op in ops:
        assert_adjoint_consistent(op, n_probes=100, rtol=1e-10)


class TestMatrixFiles:
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

    def test_mdop_rejects_trailing_bytes(self, tmp_path, rng):
        # a 4x4 payload under a 2x4 header
        path = tmp_path / "m.bin"
        linops.save_matrix_mdop(rng.standard_normal((4, 4)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<II", 2, 4) + raw[12:])
        with pytest.raises(ValueError, match="longer than 2x4") as err:
            linops.load_matrix_mdop(path)
        assert str(path) in str(err.value)

    def test_mdop_rejects_a_header_larger_than_the_file(self, tmp_path):
        # refused from the file's size, before a read of (2^32 - 1)^2 * 8
        # bytes, which raised OverflowError
        path = tmp_path / "m.bin"
        path.write_bytes(b"MDOP" + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF) + b"\x00" * 4 + b"\x00" * 64)
        with pytest.raises(ValueError, match="truncated") as err:
            linops.load_matrix_mdop(path)
        assert str(path) in str(err.value)

    def test_mdop_rejects_nonzero_reserved_bytes(self, tmp_path, rng):
        path = tmp_path / "m.bin"
        linops.save_matrix_mdop(rng.standard_normal((2, 2)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:12] + b"\x01\x00\x00\x00" + raw[16:])
        with pytest.raises(ValueError, match="reserved") as err:
            linops.load_matrix_mdop(path)
        assert str(path) in str(err.value)

    def test_vector_csv_roundtrip(self, tmp_path, rng):
        v = rng.standard_normal(9)
        path = tmp_path / "v.csv"
        linops.save_vector_csv(v, path)
        np.testing.assert_array_equal(linops.load_vector_csv(path), v)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda path: from_matrix(np.ones(3)), "matrix must be 2-dimensional"),
            (lambda path: linops.save_matrix_mdop(np.ones((2, 2, 2)), path), "MDOP stores 2-d matrices"),
            (lambda path: linops.save_vector_csv(np.ones((2, 2)), path), "expected a 1-d vector"),
        ],
        ids=["from_matrix", "save_matrix_mdop", "save_vector_csv"],
    )
    def test_wrong_rank_is_refused(self, tmp_path, call, message):
        with pytest.raises(DimensionMismatch, match=message):
            call(tmp_path / "out")
        assert not any(tmp_path.iterdir())

    def test_complex_arrays_are_not_written(self, tmp_path):
        # the cast to float64 wrote the real part with only a ComplexWarning
        with pytest.raises(ValueError, match="matrix must be real"):
            linops.save_matrix_mdop(np.eye(2) + 1j, tmp_path / "m.bin")
        with pytest.raises(ValueError, match="vector must be real"):
            linops.save_vector_csv(np.array([1 + 2j, 3]), tmp_path / "v.csv")
        assert not any(tmp_path.iterdir())
