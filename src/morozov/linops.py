"""Linear operators on finite-dimensional real Euclidean spaces.

An operator maps the solution space (dimension ``dim_f``) into the data
space (dimension ``dim_g``) and carries its adjoint. Two representations
are supported: a dense float64 matrix, and a matrix-free pair of callbacks
(forward and adjoint action). Either way an operator keeps exactly one
(forward, adjoint) pair of vector products, and ``apply`` and
``apply_adjoint`` check the input vector and call it. A matrix-free
operator's pair is its callbacks, with a check of their output. The
package's engine calls the pair itself on the vectors it makes, so each
vector is checked once, where it enters. A complex vector, in or out, or
complex matrix is refused rather than cast to its real part.

A dense operator picks its pair when it is built, and notes whether
every entry is finite, which ``require_finite`` reads. When its
numerically significant entries lie within ``kl`` subdiagonals and
``ku`` superdiagonals, with ``kl + ku + 1 <= min(rows, cols) / 2``, the
pair runs BLAS ``dgbmv`` on a LAPACK band copy in O((kl + ku + 1) cols)
work; wider matrices use the dense product of the stored matrix. An
entry is significant when ``|a_ij| > cut``, with ``cut`` the smallest
row or column maximum of ``|A|`` times ``eps / max(rows, cols)``
(``_bandwidths``), so the entries left out move each entry of a product
by at most the float64 rounding of its row or column. A matrix with an
all-zero row or column, or whose cut is not finite (a NaN entry), keeps
every stored nonzero, NaN included. A Gaussian blur's tail decays far
below the cut before it underflows to 0: at n=512 and width 2 its stored
nonzeros reach 75 diagonals each side, its band 18. The tail's weights,
down to 1e-300, would multiply a vector's entries into subnormal
products, which are slow. A diagonal or a difference matrix qualifies
as well, without any option.

Operators are safe to share between concurrent evaluations: the pair is
fixed when the operator is built and reads only read-only arrays. A pair
holds the matrix or its band copy, never the operator, so an operator is
in no reference cycle and is freed once unreachable.

Dense matrices can be read from and written to a binary format
("MDOP"): a 16-byte header consisting of the magic bytes ``MDOP``, the
row count as little-endian u32, the column count as little-endian u32,
and 4 reserved zero bytes, followed by the entries as little-endian
float64 in column-major order. The loader rejects a file whose reserved
bytes are not zero, or whose size disagrees with the header, before it
reads the payload.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgbmv

from .errors import DimensionMismatch

__all__ = [
    "VectorSpaceDims",
    "LinearOperator",
    "identity",
    "from_matrix",
    "from_callables",
    "residual_norm_sq",
    "save_matrix_mdop",
    "load_matrix_mdop",
    "save_vector_csv",
    "load_vector_csv",
]

MDOP_MAGIC = b"MDOP"
MDOP_HEADER_SIZE = 16
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class VectorSpaceDims:
    """Dimensions of the discretized solution and data spaces: integers,
    numpy's included, of at least 1; ``ValueError`` naming the field
    otherwise (a float such as 2.5, or a bool)."""

    dim_f: int
    dim_g: int

    def __post_init__(self):
        for name, value in (("dim_f", self.dim_f), ("dim_g", self.dim_g)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _as_real(x, name):
    """``x`` as a float64 array; ``ValueError`` naming it when it is
    complex, whose imaginary part a cast would drop."""
    if np.iscomplexobj(x):
        raise ValueError(f"{name} must be real, got a complex array")
    return np.asarray(x, dtype=np.float64)


def _require_finite(name, arr):
    """Raise ValueError naming the first NaN or infinite entry of ``arr``."""
    if not np.isfinite(arr).all():
        index = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"{name} must be finite, but {name}{index.tolist()} = {arr[tuple(index)]}")


def _as_vector(x, n, name):
    """``x`` as a float64 vector of length n, refused when complex
    (``_as_real``)."""
    v = _as_real(x, name)
    if v.ndim != 1 or v.shape[0] != n:
        raise DimensionMismatch(
            f"{name} must be a vector of length {n}, got shape {v.shape}"
        )
    return v


def _bandwidths(mat):
    """(kl, ku, finite): the fewest sub- and superdiagonals holding every
    entry with ``|a_ij| > cut``, where

        cut = eps / max(m, n) * min(smallest row max |a|, smallest column max |a|).

    A dropped entry is at most eps / max(m, n) of its row's and of its
    column's largest entry, and a row or column has at most max(m, n) of
    them, so the forward product's entry i moves by at most
    eps * max_j |a_ij| * ||x||_inf and the adjoint's entry j by at most
    eps * max_i |a_ij| * ||y||_inf: the float64 rounding of that row or
    column. A matrix with an all-zero row or column gets cut = 0, every
    stored nonzero; so does one whose cut is not finite (from a NaN entry,
    or infinities in every row and column), which keeps its NaN products.

    Row-wise ``argmax`` on a boolean mask finds each row's first and last
    kept entry in O(mn) without the index arrays of ``np.nonzero``.
    ``finite`` says whether every entry is finite: a row's maximum of |A|
    is not finite exactly when the row holds a NaN or an infinity.
    """
    mag = np.abs(mat)
    row_max = mag.max(axis=1)
    cut = _EPS / max(mat.shape) * min(row_max.min(), mag.max(axis=0).min())
    mask = mag > cut if np.isfinite(cut) else mat != 0
    hit = mask.any(axis=1)
    rows = np.arange(mat.shape[0])[hit]
    first = mask.argmax(axis=1)[hit]
    last = mat.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)[hit]
    return int((rows - first).max(initial=0)), int((last - rows).max(initial=0)), bool(np.isfinite(row_max).all())


def _band_storage(mat, kl, ku):
    """LAPACK band storage, ``ab[ku + i - j, j] = mat[i, j]``, Fortran-ordered."""
    ab = np.zeros((kl + ku + 1, mat.shape[1]), order="F")
    for d in range(-ku, kl + 1):
        diag = mat.diagonal(-d)
        j0 = max(-d, 0)
        ab[ku + d, j0:j0 + diag.size] = diag
    ab.setflags(write=False)
    return ab


def _dense_pair(mat):
    """The (forward, adjoint) products of a dense matrix: ``dgbmv`` on a
    band copy when the band of its significant entries (``_bandwidths``)
    fits half its size, else numpy's product of the stored matrix; and
    whether every entry is finite."""
    # up to half width the band copy costs at most half the matrix, and
    # dgbmv measured 1.6x to 2.2x faster than the dense product at half
    # width, and 6x at n = 512 on the width-2 blur's 37 diagonals
    # (n = 256, 512, 1024, one BLAS thread on a Xeon). Wider bands gain
    # less, at n = 256 they lose, and their copy grows toward the matrix's
    # size. The cutoff also meets scipy's requirement m >= kl + ku + 1 on
    # dgbmv.
    kl, ku, finite = _bandwidths(mat)
    if kl + ku + 1 > min(mat.shape) / 2:
        return (mat.__matmul__, mat.T.__matmul__), finite
    m, n = mat.shape
    ab = _band_storage(mat, kl, ku)
    return (
        lambda f: dgbmv(m, n, kl, ku, 1.0, ab, f),
        lambda y: dgbmv(m, n, kl, ku, 1.0, ab, y, trans=1),
    ), finite


class LinearOperator:
    """A linear map with its adjoint, dense or matrix-free.

    A dense operator stores its matrix, and ``matrix`` and ``materialize()``
    return it unchanged. ``apply`` and ``apply_adjoint`` call the
    operator's one (forward, adjoint) pair: a matrix-free operator's
    checked callbacks, or, for a dense one, the products picked when it is
    built by the band rule of the module docstring.

    Use the module-level constructors ``identity``, ``from_matrix`` and
    ``from_callables`` rather than calling this class directly.
    """

    def __init__(self, dims, matrix=None, forward=None, adjoint=None):
        self.dims = dims
        if matrix is not None:
            mat = np.array(_as_real(matrix, "matrix"), order="C", copy=True)
            if mat.shape != (dims.dim_g, dims.dim_f):
                raise DimensionMismatch(
                    f"matrix shape {mat.shape} does not match dims "
                    f"({dims.dim_g}, {dims.dim_f})"
                )
            mat.setflags(write=False)
            self._matrix = mat
            self._pair, self._finite = _dense_pair(mat)
        else:
            if forward is None or adjoint is None:
                raise ValueError(
                    "matrix-free operator needs both forward and adjoint callbacks"
                )
            self._matrix = None
            # the callbacks with their output checked; the lambdas close
            # over the callbacks and dims, not over the operator
            self._pair = (
                lambda f: _as_vector(forward(f), dims.dim_g, "forward callback output"),
                lambda y: _as_vector(adjoint(y), dims.dim_f, "adjoint callback output"),
            )

    # -- representation ---------------------------------------------------

    @property
    def is_dense(self):
        return self._matrix is not None

    @property
    def matrix(self):
        """The dense matrix, or None for matrix-free operators."""
        return self._matrix

    def materialize(self):
        """Return the dense matrix of this operator.

        A dense operator returns its stored read-only matrix, not a copy.
        Matrix-free operators are densified column by column, which costs
        ``dim_f`` forward applications.
        """
        if self.is_dense:
            return self._matrix
        cols = np.empty((self.dims.dim_g, self.dims.dim_f))
        e = np.zeros(self.dims.dim_f)
        for j in range(self.dims.dim_f):
            e[j] = 1.0
            cols[:, j] = self._pair[0](e)
            e[j] = 0.0
        return cols

    # -- action ------------------------------------------------------------

    def require_finite(self, name):
        """``ValueError`` naming the first NaN or infinite entry of a dense
        operator's matrix, called ``name``. It reads the flag that the
        pair's pick took from the row maxima of |A| (``_bandwidths``), so it
        scans the matrix only when an entry is not finite."""
        if not self._finite:
            _require_finite(name, self._matrix)

    def apply(self, f):
        """Forward action on a vector of length ``dim_f``."""
        return self._pair[0](_as_vector(f, self.dims.dim_f, "f"))

    def apply_adjoint(self, y):
        """Adjoint action on a vector of length ``dim_g``."""
        return self._pair[1](_as_vector(y, self.dims.dim_g, "y"))

    def __repr__(self):
        kind = "dense" if self.is_dense else "matrix-free"
        return f"LinearOperator({kind}, dim_f={self.dims.dim_f}, dim_g={self.dims.dim_g})"


def identity(n):
    """The identity operator on an n-dimensional space."""
    return LinearOperator(VectorSpaceDims(n, n), matrix=np.eye(n))


def from_matrix(mat):
    """Dense operator from a real 2-d array (rows map the data space)."""
    mat = _as_real(mat, "matrix")
    if mat.ndim != 2:
        raise DimensionMismatch("matrix must be 2-dimensional")
    return LinearOperator(
        VectorSpaceDims(dim_f=mat.shape[1], dim_g=mat.shape[0]), matrix=mat
    )


def from_callables(dim_f, dim_g, forward, adjoint):
    """Matrix-free operator from forward/adjoint callbacks."""
    return LinearOperator(
        VectorSpaceDims(dim_f=dim_f, dim_g=dim_g), forward=forward, adjoint=adjoint
    )


def residual_norm_sq(op, f, g):
    """Squared Euclidean norm of the residual op(f) - g."""
    g = _as_vector(g, op.dims.dim_g, "g")
    r = op.apply(f) - g
    return float(r @ r)


# -- matrix / vector file formats -------------------------------------------


def save_matrix_mdop(mat, path):
    """Write a real dense matrix in the binary MDOP format."""
    mat = _as_real(mat, "matrix")
    if mat.ndim != 2:
        raise DimensionMismatch("MDOP stores 2-d matrices")
    rows, cols = mat.shape
    header = MDOP_MAGIC + struct.pack("<II", rows, cols) + b"\x00" * 4
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asfortranarray(mat).astype("<f8").tobytes(order="F"))


def load_matrix_mdop(path):
    """Read a matrix in the binary MDOP format."""
    with open(path, "rb") as fh:
        header = fh.read(MDOP_HEADER_SIZE)
        if len(header) != MDOP_HEADER_SIZE or header[:4] != MDOP_MAGIC:
            raise ValueError(f"{path}: not an MDOP file")
        if header[12:] != b"\x00" * 4:
            raise ValueError(f"{path}: nonzero reserved MDOP header bytes")
        rows, cols = struct.unpack("<II", header[4:12])
        # the size is checked before the read: a header of up to
        # (2^32 - 1)^2 entries would otherwise ask read for up to 2^67 bytes
        size = os.fstat(fh.fileno()).st_size
        expected = MDOP_HEADER_SIZE + 8 * rows * cols
        if size != expected:
            raise ValueError(
                f"{path}: truncated MDOP payload" if size < expected
                else f"{path}: MDOP payload longer than {rows}x{cols} entries"
            )
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    return data.reshape((rows, cols), order="F").copy()


def save_vector_csv(vec, path):
    """Write a real vector as one value per line."""
    vec = _as_real(vec, "vector")
    if vec.ndim != 1:
        raise DimensionMismatch("expected a 1-d vector")
    np.savetxt(path, vec, fmt="%.17g")


def load_vector_csv(path):
    """Read a one-value-per-line vector."""
    vec = np.loadtxt(path, dtype=np.float64, ndmin=1)
    return vec
