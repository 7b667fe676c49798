"""The answer battery: one fixed grid of selections and one record for each.

The grid is dense Gaussian blurs of width 1.2, 2 and 4 at n = 128 and 512,
with noise 2%, 1e-4 and 1e-7 on two bump profiles (seeds 1 and 2), safety
factor c = 1.02, and Newton and bisection at rtol = 1e-8, each with the
identity penalty and with first differences, and at n = 128 also with
first differences stored as a custom penalty. Every selection runs on a
problem of its own, so its record does not depend on the order of the grid.

A record holds the outcome ("converged" or the exception's type), the
evaluation count, the final column count k of the engine's basis and
lambda_star as ``float.hex``, or a failure's message and ``best``.
Apart from those, the sweep grid runs ``sweep_dual`` over the 40
multipliers ``np.logspace(-2, 8, 40)`` on the width-2 blur at n = 128 and
512, noise 2% and 1e-4, seed 1, with the identity and first differences,
and at n = 128 also custom first differences: 10 sweeps. A sweep record
holds ||g||^2 as ``float.hex`` and, for each point, its error, or its
column count k, D' and D'' as ``float.hex``. A sweep at n = 128 or 512
holds all 40 points in one round of the engine's ``solve``. The benchmark's
grid, the 200 multipliers ``np.logspace(-2, 8, 200)`` of perfbench's
``dense_sweep``, runs on the width-2 blur at n = 512, noise 2%, seed 1,
with the identity and first differences: 2 sweeps, recorded the same way
in a file of their own.

``test_battery.py`` re-runs both grids and compares them with the
committed records. A change that moves a record writes its file again:

    PYTHONPATH=src python tests/battery.py                  # selections
    PYTHONPATH=src python tests/battery.py --sweeps         # sweeps
    PYTHONPATH=src python tests/battery.py --bench-sweeps   # the benchmark's grid

The records are not byte-reproducible from one host to another. A sweep
point's D' reads its expansion F = Z V_k, a matrix product whose last bits
depend on the CPU's BLAS kernel: on a host other than the one that wrote
them, 104 of the 400 points of the committed sweep records differed in the
last bits of D', while their k and D'' agreed, with one BLAS thread and
with the default. ``test_battery.py`` compares by its rule, not by bits. A
change shows its answers unchanged by ``cmp`` of the three files written
by the parent tree and by the changed tree, on one host, both with
``OPENBLAS_NUM_THREADS=1``.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np

from morozov import linops, problems
from morozov.dual import maximize_dual, sweep_dual
from morozov.errors import MorozovError
from morozov.lagrange import Lagrangian
from morozov.regularizers import custom_regularizer, first_difference_regularizer, identity_regularizer

PATH = Path(__file__).parent / "data" / "battery.json"
SWEEP_PATH = Path(__file__).parent / "data" / "battery_sweeps.json"
BENCH_SWEEP_PATH = Path(__file__).parent / "data" / "battery_bench_sweeps.json"

SIZES = (128, 512)
WIDTHS = (1.2, 2.0, 4.0)
NOISES = (0.02, 1e-4, 1e-7)
SEEDS = (1, 2)
METHODS = ("newton", "bisection")
SAFETY = 1.02
RTOL = 1e-8
KEY = ("n", "width", "noise", "seed", "penalty", "method")

SWEEP_WIDTH = 2.0
SWEEP_NOISES = (0.02, 1e-4)
SWEEP_SEED = 1
SWEEP_GRID = np.logspace(-2, 8, 40)
SWEEP_KEY = ("n", "width", "noise", "seed", "penalty")
BENCH_SWEEP_GRID = np.logspace(-2, 8, 200)

PENALTIES = {
    "identity": identity_regularizer,
    "first_difference": first_difference_regularizer,
    "custom_first_difference": lambda n: custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0))),
}


def _penalties(n):
    # custom first differences at n = 512 spend most of the grid's time in
    # one pivoted QR each, so they run at n = 128 only
    return [name for name in PENALTIES if n == 128 or not name.startswith("custom")]


def _record(lag, method):
    """The record of one selection on ``lag`` by ``method``."""
    try:
        res = maximize_dual(lag, method=method, rtol=RTOL)
    except MorozovError as err:
        trace, best = getattr(err, "trace", None), getattr(err, "best", None)
        return {
            "outcome": type(err).__name__,
            "evaluations": None if trace is None else len(trace),
            "k": lag.engine().basis.k,
            "lambda_star": None,
            "message": str(err),
            # the search's best is its smallest |D'|, an inner solve's its
            # solution: the norm records either
            "best": None if best is None else float(np.linalg.norm(best)).hex(),
        }
    return {
        "outcome": "converged",
        "evaluations": len(res.iterations),
        "k": lag.engine().basis.k,
        "lambda_star": res.lambda_star.hex(),
        "message": None,
        "best": None,
    }


def run():
    """Every record of the grid, in grid order."""
    records = []
    for n, width in itertools.product(SIZES, WIDTHS):
        A = problems.make_deconvolution(n, width)
        for seed, noise in itertools.product(SEEDS, NOISES):
            f0 = problems._bump_profile(n, np.random.default_rng(seed))
            prob = problems.synthesize(A, f0, noise, seed=seed)
            for penalty, method in itertools.product(_penalties(n), METHODS):
                lag = Lagrangian(A, prob.g, PENALTIES[penalty](n), (SAFETY * prob.tau) ** 2)
                key = dict(zip(KEY, (n, width, noise, seed, penalty, method)))
                records.append({**key, **_record(lag, method)})
    return records


def _point(e):
    """The record of one sweep point, the ``DualEvaluation`` e."""
    if e.error is not None:
        return {"error": e.error, "k": None, "d_prime": None, "d_second": None}
    return {
        "error": None,
        "k": e.solution.solver_stats["iterations"],
        "d_prime": e.d_prime.hex(),
        "d_second": e.d_second.hex(),
    }


def _sweeps(sizes, noises, penalties, grid):
    """The sweep records of every size, noise and penalty, in that order."""
    records = []
    for n in sizes:
        A = problems.make_deconvolution(n, SWEEP_WIDTH)
        f0 = problems._bump_profile(n, np.random.default_rng(SWEEP_SEED))
        for noise in noises:
            prob = problems.synthesize(A, f0, noise, seed=SWEEP_SEED)
            for penalty in penalties(n):
                lag = Lagrangian(A, prob.g, PENALTIES[penalty](n), (SAFETY * prob.tau) ** 2)
                key = dict(zip(SWEEP_KEY, (n, SWEEP_WIDTH, noise, SWEEP_SEED, penalty)))
                points = [_point(e) for e in sweep_dual(lag, grid)]
                records.append({**key, "g_norm_sq": float(prob.g @ prob.g).hex(), "points": points})
    return records


def run_sweeps():
    """Every record of the sweep grid, in grid order."""
    return _sweeps(SIZES, SWEEP_NOISES, _penalties, SWEEP_GRID)


def run_bench_sweeps():
    """The records of the benchmark's grid, identity first."""
    return _sweeps((512,), (0.02,), lambda n: ["identity", "first_difference"], BENCH_SWEEP_GRID)


def dump(records, path=PATH):
    """Write ``records`` as a JSON list, one record a line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


def load(path=PATH):
    with open(path) as fh:
        return json.load(fh)


if __name__ == "__main__":
    args = sys.argv[1:]
    flags = {"--sweeps": (run_sweeps, SWEEP_PATH), "--bench-sweeps": (run_bench_sweeps, BENCH_SWEEP_PATH)}
    make, path = next((flags[a] for a in args if a in flags), (run, PATH))
    args = [a for a in args if a not in flags]
    out = Path(args[0]) if args else path
    records = make()
    dump(records, out)
    print(f"{len(records)} records to {out}")
