"""Synthetic test problems with exactly known noise.

Generators here produce ill-conditioned forward operators (Gaussian
deconvolution, Hilbert matrices, truncated-rank maps), ground truths and
data whose noise norm is known exactly: the perturbation is sampled and
then rescaled to the requested norm, so the tolerance handed to the
selector can be made oracle-exact, or deliberately misestimated through
``tau_accuracy``.

All randomness goes through ``numpy.random.default_rng`` (the PCG64
generator), so a fixture is fully reproducible from its seed within this
implementation. Fixtures are shipped as data (see ``save_problem``) when
bit-level reproducibility across implementations matters.

A fixture directory holds: ``A.bin`` (MDOP binary matrix), ``f0.csv`` and
``g.csv`` (one value per line), ``meta.json`` (tau, noise_level, seed,
regime, delta_g_norm, regularizer), and ``L.bin`` for custom penalties.
"""

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.linalg

from . import linops
from .dual import diagnose_regime
from .errors import DimensionMismatch
from .lagrange import Lagrangian
from .linops import LinearOperator
from .regularizers import (
    Regularizer,
    custom_regularizer,
    first_difference_regularizer,
    identity_regularizer,
)

__all__ = [
    "InverseProblem",
    "make_deconvolution",
    "make_hilbert",
    "synthesize",
    "regime_fixture",
    "save_problem",
    "load_problem",
]


@dataclass(frozen=True)
class InverseProblem:
    """A forward operator with data, ground truth and noise bookkeeping.

    ``g = g0 + noise`` with ``||noise|| = delta_g_norm`` exactly, and
    ``g0 = A f0``. ``tau`` is the noise-norm estimate handed to the
    selector; it equals ``delta_g_norm`` only when the estimate is
    oracle-exact.
    """

    op: LinearOperator
    g: np.ndarray
    g0: np.ndarray
    f0: np.ndarray
    delta_g_norm: float
    tau: float
    noise_level: float
    regularizer: Regularizer
    seed: int = None
    regime: str = None


def make_deconvolution(n, kernel_width):
    """Dense n-by-n discrete convolution with a normalized Gaussian kernel.

    The kernel is normalized over the full offset window, so interior
    rows sum to one and boundary rows (where the kernel is truncated) sum
    to less; the matrix is symmetric. Widths at or below 1e-8 degenerate
    to the identity. Weights below the smallest normal float are set to
    0. Conditioning worsens rapidly with ``kernel_width``.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    if not kernel_width > 0:  # NaN fails it too
        raise ValueError(f"kernel_width must be positive, got {kernel_width}")
    if kernel_width <= 1e-8:
        return linops.identity(n)
    offsets = np.arange(-(n - 1), n)
    weights = np.exp(-0.5 * (offsets / kernel_width) ** 2)
    weights /= weights.sum()
    # subnormal weights make every product with A several times slower
    weights[weights < np.finfo(float).tiny] = 0.0
    idx = np.subtract.outer(np.arange(n), np.arange(n)) + (n - 1)
    return linops.from_matrix(weights[idx])


def make_hilbert(n):
    """The n-by-n Hilbert matrix, a classical ill-conditioned benchmark."""
    if not 2 <= n <= 14:
        raise ValueError(f"n must be in [2, 14], got {n}")
    return linops.from_matrix(scipy.linalg.hilbert(n))


def synthesize(A, f0, noise_level, tau_accuracy=1.0, seed=None, regularizer=None):
    """Build a noisy problem around a ground truth with exact noise norm.

    Gaussian noise is drawn and rescaled so that
    ``||noise|| = noise_level * ||A f0||`` holds exactly rather than in
    expectation, and ``tau = tau_accuracy * ||noise||``;
    ``tau_accuracy = 1`` therefore means an oracle-exact estimate.
    Deterministic under ``seed``. ``ValueError`` for a ``noise_level``
    that is not nonnegative and finite, a ``tau_accuracy`` that is not
    positive and finite, or a complex ``f0``.
    """
    # comparisons that NaN fails, so NaN is refused too
    if not 0 <= noise_level < np.inf:
        raise ValueError(f"noise_level must be nonnegative and finite, got {noise_level}")
    if not 0 < tau_accuracy < np.inf:
        raise ValueError(f"tau_accuracy must be positive and finite, got {tau_accuracy}")
    f0 = linops._as_real(f0, "f0")
    if f0.ndim != 1 or f0.shape[0] != A.dims.dim_f:
        raise DimensionMismatch(
            f"f0 must have length {A.dims.dim_f}, got shape {f0.shape}"
        )
    g0 = A.apply(f0)
    g0_norm = float(np.linalg.norm(g0))
    if noise_level > 0 and g0_norm == 0.0:
        raise ValueError("clean data is zero; relative noise level undefined")
    rng = np.random.default_rng(seed)
    if noise_level == 0.0:
        noise = np.zeros_like(g0)
        delta_norm = 0.0
    else:
        noise = rng.standard_normal(A.dims.dim_g)
        noise *= (noise_level * g0_norm) / np.linalg.norm(noise)
        delta_norm = float(np.linalg.norm(noise))
    if regularizer is None:
        regularizer = identity_regularizer(A.dims.dim_f)
    return InverseProblem(
        op=A,
        g=g0 + noise,
        g0=g0,
        f0=f0,
        delta_g_norm=delta_norm,
        tau=tau_accuracy * delta_norm,
        noise_level=float(noise_level),
        regularizer=regularizer,
        seed=seed,
    )


def _bump_profile(n, rng):
    """Smooth positive ground truth: a few Gaussian bumps on [0, 1]."""
    x = np.linspace(0.0, 1.0, n)
    f = np.zeros(n)
    for _ in range(3):
        center = rng.uniform(0.15, 0.85)
        width = rng.uniform(0.04, 0.12)
        height = rng.uniform(0.5, 1.5)
        f += height * np.exp(-0.5 * ((x - center) / width) ** 2)
    return f


def _rank_deficient(n, rank, rng):
    """Random n-by-n operator of the given rank with singular values in
    [0.5, 2], and the orthonormal columns that span its range."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    s = rng.uniform(0.5, 2.0, size=rank)
    return linops.from_matrix(q1 @ np.diag(s) @ q2.T), q1


def regime_fixture(target, seed=0):
    """A small problem certified to lie in the requested regime.

    target : {"interior", "noise_dominates", "too_optimistic"}

    Construction is by design and then verified by ``diagnose_regime`` on
    the problem's ``Lagrangian``; a verification miss is an internal error.
    """
    rng = np.random.default_rng(seed)
    if target in ("interior", "noise_dominates"):
        n = 24
        A = make_deconvolution(n, kernel_width=1.5)
        problem = synthesize(
            A, _bump_profile(n, rng), noise_level=0.05, tau_accuracy=1.0, seed=seed
        )
        if target == "noise_dominates":
            problem = replace(
                problem, tau=2.0 * float(np.linalg.norm(problem.g)), regime=target
            )
        else:
            problem = replace(problem, regime=target)
    elif target == "too_optimistic":
        n = 12
        A, q1 = _rank_deficient(n, rank=6, rng=rng)
        problem = synthesize(
            A, _bump_profile(n, rng), noise_level=0.05, tau_accuracy=1.0, seed=seed
        )
        # dist(g, range A), by construction: g less its projection on range A
        dist = float(np.linalg.norm(problem.g - q1 @ (q1.T @ problem.g)))
        if dist <= 0.0:
            raise RuntimeError("internal error: noisy data landed inside the range")
        problem = replace(problem, tau=0.5 * dist, regime=target)
    else:
        raise ValueError(f"unknown regime target {target!r}")

    diag = diagnose_regime(_lagrangian(problem))
    if diag.regime != target:
        raise RuntimeError(
            f"internal error: fixture for {target!r} diagnosed as {diag.regime!r}"
        )
    return problem


def _lagrangian(problem):
    return Lagrangian(problem.op, problem.g, problem.regularizer, problem.tau**2)


def save_problem(problem: InverseProblem, directory):
    """Write a problem to a fixture directory (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    linops.save_matrix_mdop(problem.op.materialize(), directory / "A.bin")
    linops.save_vector_csv(problem.f0, directory / "f0.csv")
    linops.save_vector_csv(problem.g, directory / "g.csv")
    regime = problem.regime
    if regime is None and problem.tau > 0:
        regime = diagnose_regime(_lagrangian(problem)).regime
    meta = {
        "tau": problem.tau,
        "noise_level": problem.noise_level,
        "seed": problem.seed,
        "regime": regime,
        "delta_g_norm": problem.delta_g_norm,
        "regularizer": problem.regularizer.kind,
    }
    if problem.regularizer.kind == "custom":
        linops.save_matrix_mdop(
            problem.regularizer.seminorm_operator.materialize(), directory / "L.bin"
        )
    with open(directory / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_problem(directory):
    """Read a fixture directory written by ``save_problem``."""
    directory = Path(directory)
    A = linops.from_matrix(linops.load_matrix_mdop(directory / "A.bin"))
    f0 = linops.load_vector_csv(directory / "f0.csv")
    g = linops.load_vector_csv(directory / "g.csv")
    meta_path = directory / "meta.json"
    meta = load_json_object(meta_path)
    kind = meta.get("regularizer", "identity")
    if kind == "identity":
        reg = identity_regularizer(A.dims.dim_f)
    elif kind == "first_difference":
        reg = first_difference_regularizer(A.dims.dim_f)
    elif kind == "custom":
        reg = custom_regularizer(
            linops.from_matrix(linops.load_matrix_mdop(directory / "L.bin"))
        )
    else:
        raise ValueError(f"unknown regularizer kind {kind!r} in meta.json")
    g0 = A.apply(f0)
    if meta.get("delta_g_norm") is None:
        delta = float(np.linalg.norm(g - g0))
    else:
        delta = json_field(meta, "delta_g_norm", float, meta_path)
    return InverseProblem(
        op=A,
        g=g,
        g0=g0,
        f0=f0,
        delta_g_norm=delta,
        tau=json_field(meta, "tau", float, meta_path),
        noise_level=json_field(meta, "noise_level", float, meta_path, default=0.0),
        regularizer=reg,
        seed=meta.get("seed"),
        regime=meta.get("regime"),
    )


def load_json_object(path):
    """The JSON object in the file ``path``; ``ValueError`` for any other
    JSON value."""
    with open(path) as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(record).__name__}")
    return record


_JSON_KINDS = {float: "a number", str: "a string", bool: "true or false", list: "a list"}


def json_field(record, key, kind, source, default=None):
    """``record[key]``, or ``default`` when given and the key is absent,
    checked to be of ``kind``: float (any JSON number, returned as a
    float; true and false are not numbers), str, bool or list.
    ``ValueError`` naming ``source`` and the key for a value of another
    type, ``KeyError`` for a missing key without a default."""
    value = record[key] if default is None else record.get(key, default)
    number = kind is float and isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number or (kind is not float and isinstance(value, kind))):
        raise ValueError(f"{source}: {key} must be {_JSON_KINDS[kind]}, got {value!r}")
    return float(value) if number else value
