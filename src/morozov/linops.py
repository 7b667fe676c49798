"""Linear operators on finite-dimensional real Euclidean spaces.

An operator maps the solution space (dimension ``dim_f``) into the data
space (dimension ``dim_g``) and carries its adjoint. Two representations
are supported: a dense float64 matrix, and a matrix-free pair of callbacks
(forward and adjoint action). Operators are immutable after construction
and safe to share between concurrent evaluations.

Dense matrices can be read from and written to a binary format
("MDOP"): a 16-byte header consisting of the magic bytes ``MDOP``, the
row count as little-endian u32, the column count as little-endian u32,
and 4 reserved zero bytes, followed by the entries as little-endian
float64 in column-major order.
"""

import struct
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class VectorSpaceDims:
    """Dimensions of the discretized solution and data spaces."""

    dim_f: int
    dim_g: int

    def __post_init__(self):
        if self.dim_f < 1 or self.dim_g < 1:
            raise ValueError(f"dimensions must be >= 1, got {self}")


def _as_vector(x, n, name):
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != n:
        raise DimensionMismatch(
            f"{name} must be a vector of length {n}, got shape {v.shape}"
        )
    return v


class LinearOperator:
    """A linear map with its adjoint, dense or matrix-free.

    Use the module-level constructors ``identity``, ``from_matrix`` and
    ``from_callables`` rather than calling this class directly.
    """

    def __init__(self, dims, matrix=None, forward=None, adjoint=None):
        self.dims = dims
        if matrix is not None:
            mat = np.array(matrix, dtype=np.float64, order="C", copy=True)
            if mat.ndim != 2:
                raise DimensionMismatch("matrix must be 2-dimensional")
            if mat.shape != (dims.dim_g, dims.dim_f):
                raise DimensionMismatch(
                    f"matrix shape {mat.shape} does not match dims "
                    f"({dims.dim_g}, {dims.dim_f})"
                )
            mat.setflags(write=False)
            self._matrix = mat
            self._forward = None
            self._adjoint = None
        else:
            if forward is None or adjoint is None:
                raise ValueError(
                    "matrix-free operator needs both forward and adjoint callbacks"
                )
            self._matrix = None
            self._forward = forward
            self._adjoint = adjoint

    # -- representation ---------------------------------------------------

    @property
    def is_dense(self):
        return self._matrix is not None

    @property
    def matrix(self):
        """The dense matrix, or None for matrix-free operators."""
        return self._matrix

    @property
    def shape(self):
        """(dim_g, dim_f), matching matrix convention."""
        return (self.dims.dim_g, self.dims.dim_f)

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
            cols[:, j] = self._forward(e)
            e[j] = 0.0
        return cols

    # -- action ------------------------------------------------------------

    def apply(self, f):
        """Forward action on a vector of length ``dim_f``."""
        f = _as_vector(f, self.dims.dim_f, "f")
        if self.is_dense:
            return self._matrix @ f
        out = np.asarray(self._forward(f), dtype=np.float64)
        return _as_vector(out, self.dims.dim_g, "forward callback output")

    def apply_adjoint(self, y):
        """Adjoint action on a vector of length ``dim_g``."""
        y = _as_vector(y, self.dims.dim_g, "y")
        if self.is_dense:
            return self._matrix.T @ y
        out = np.asarray(self._adjoint(y), dtype=np.float64)
        return _as_vector(out, self.dims.dim_f, "adjoint callback output")

    def __repr__(self):
        kind = "dense" if self.is_dense else "matrix-free"
        return f"LinearOperator({kind}, dim_f={self.dims.dim_f}, dim_g={self.dims.dim_g})"


def identity(n):
    """The identity operator on an n-dimensional space."""
    return LinearOperator(VectorSpaceDims(n, n), matrix=np.eye(n))


def from_matrix(mat):
    """Dense operator from a 2-d array (rows map the data space)."""
    mat = np.asarray(mat, dtype=np.float64)
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
    """Write a dense matrix in the binary MDOP format."""
    mat = np.asarray(mat, dtype=np.float64)
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
        rows, cols = struct.unpack("<II", header[4:12])
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    if data.size != rows * cols:
        raise ValueError(f"{path}: truncated MDOP payload")
    return data.reshape((rows, cols), order="F").copy()


def save_vector_csv(vec, path):
    """Write a vector as one value per line."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise DimensionMismatch("expected a 1-d vector")
    np.savetxt(path, vec, fmt="%.17g")


def load_vector_csv(path):
    """Read a one-value-per-line vector."""
    vec = np.loadtxt(path, dtype=np.float64, ndmin=1)
    return vec
