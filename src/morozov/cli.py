"""Command-line front end.

Subcommands: ``generate`` (write a fixture directory), ``diagnose``
(report where the tolerance falls), ``solve`` (select the regularization
parameter), ``sweep`` (tabulate the dual function on a grid), ``verify``
(re-check a solve result).

Exit codes are a stable contract: 0 success, 1 I/O or invalid input (a
usage error included), 2 regime precondition failed, 3 non-convergence
(including a failed verification). The environment variable
``MOROZOV_LOG`` (error, info or debug) controls log verbosity.

The Morozov safety factor ``--safety-factor`` c >= 1 rescales the noise
estimate: the solver works with the effective tolerance c * tau. Values
of exactly 1 are admitted with a warning, since the principle calls for
a constant strictly greater than one.
"""

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dual, problems
from .errors import ConvergenceFailure, MorozovError, RegimeError
from .lagrange import Lagrangian
from .linops import save_vector_csv, load_vector_csv

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

EXIT_OK = 0
EXIT_IO = 1
EXIT_REGIME = 2
EXIT_NO_CONVERGENCE = 3


def _configure_logging():
    name = os.environ.get("MOROZOV_LOG", "error").strip().lower()
    level = _LOG_LEVELS.get(name, logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are invalid input, exit 1."""

    def error(self, message):
        self.exit(EXIT_IO, f"error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="morozov",
        description="Tikhonov regularization with the parameter selected by "
        "maximizing the dual of the discrepancy constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic fixture directory")
    gen.add_argument(
        "--target",
        choices=["interior", "noise_dominates", "too_optimistic"],
        default="interior",
        help="regime the fixture is certified to lie in",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="fixture directory to create")

    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--problem", required=True, help="fixture directory")
    common = argparse.ArgumentParser(add_help=False, parents=[problem])
    common.add_argument("--tau", type=float, default=None, help="override the stored noise estimate")
    common.add_argument("--safety-factor", type=float, default=1.02, help="Morozov constant c >= 1")

    diag = sub.add_parser("diagnose", parents=[common], help="classify the regime")
    diag.add_argument("--out", default=None, help="write the report as JSON")

    solve = sub.add_parser("solve", parents=[common], help="select the regularization parameter")
    solve.add_argument(
        "--method",
        choices=["newton", "bisection", "gradient-ascent"],
        default="newton",
        help="search over the multiplier: Newton (about 6 dual evaluations at "
        "the default rtol), bisection (about 27), or plain gradient ascent",
    )
    solve.add_argument("--rtol", type=float, default=1e-8, help="relative tolerance on the discrepancy equation")
    solve.add_argument("--max-iter", type=int, default=None, help="iteration cap (default depends on the method)")
    solve.add_argument("--out", default="solution.json", help="result JSON path; the reconstruction goes next to it")

    sweep = sub.add_parser("sweep", parents=[common], help="tabulate D, D' on a log grid")
    sweep.add_argument("--lambda-min", type=float, required=True)
    sweep.add_argument("--lambda-max", type=float, required=True)
    sweep.add_argument("--points", type=int, required=True)
    sweep.add_argument("--out", default="sweep.csv")
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")

    # the saved tau_eff is checked, so no tolerance flags
    verify = sub.add_parser("verify", parents=[problem], help="re-check a solve result")
    verify.add_argument("--result", required=True, help="JSON written by solve")
    verify.add_argument("--rtol", type=float, default=1e-8)
    verify.add_argument("--out", default=None, help="write the report as JSON")

    return parser


def _effective_tau(args, problem):
    tau = args.tau if args.tau is not None else problem.tau
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    c = args.safety_factor
    if not c >= 1.0:  # NaN fails it too
        raise ValueError(f"safety factor must be >= 1, got {c}")
    if c == 1.0:
        print(
            "warning: safety factor is exactly 1; the Morozov principle "
            "calls for c strictly greater than 1",
            file=sys.stderr,
        )
    return tau, c * tau


def _lagrangian(problem, tau_eff):
    return Lagrangian(problem.op, problem.g, problem.regularizer, tau_eff**2)


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_generate(args):
    problem = problems.regime_fixture(args.target, seed=args.seed)
    problems.save_problem(problem, args.out)
    print(f"wrote {args.target} fixture (n={problem.op.dims.dim_f}) to {args.out}")
    return EXIT_OK


def _cmd_diagnose(args):
    problem = problems.load_problem(args.problem)
    tau, tau_eff = _effective_tau(args, problem)
    diagnosis = dual.diagnose_regime(_lagrangian(problem, tau_eff))
    payload = {
        "dist_to_range": diagnosis.dist_to_range,
        "data_norm": diagnosis.data_norm,
        "tau": tau,
        "tau_eff": tau_eff,
        "safety_factor": args.safety_factor,
        "regime": diagnosis.regime,
        # relative slack of each inequality in dist < tau_eff < data_norm;
        # negative where it fails. dist is the residual the verdict read,
        # an upper bound on the distance, so margin_dist is a lower bound
        "margin_dist": (tau_eff - diagnosis.dist_to_range) / tau_eff,
        "margin_norm": (diagnosis.data_norm - tau_eff) / tau_eff,
    }
    print(json.dumps(payload, indent=2))
    if args.out:
        _write_json(payload, args.out)
    return EXIT_OK


def _cmd_solve(args):
    problem = problems.load_problem(args.problem)
    tau, tau_eff = _effective_tau(args, problem)
    lag = _lagrangian(problem, tau_eff)
    method = args.method.replace("-", "_")
    result = dual.maximize_dual(lag, method=method, rtol=args.rtol, max_iter=args.max_iter)
    out_path = Path(args.out)
    f_star_path = out_path.with_suffix(".f_star.csv")
    payload = {
        "lambda_star": result.lambda_star,
        "alpha": result.alpha,
        "discrepancy": result.discrepancy,
        "tau": tau,
        "tau_eff": tau_eff,
        "safety_factor": args.safety_factor,
        "regime": result.diagnosis.regime,
        "method": args.method,
        "iterations": [[lam, d, dp] for lam, d, dp in result.iterations],
        "converged": result.converged,
        "rtol": args.rtol,
        "f_star_path": f_star_path.name,
    }
    _write_json(payload, out_path)
    save_vector_csv(result.f_star, f_star_path)
    print(
        f"lambda_star={result.lambda_star:.12g} alpha={result.alpha:.12g} "
        f"discrepancy={result.discrepancy:.12g} (tau_eff={tau_eff:.12g}) "
        f"in {len(result.iterations)} dual evaluations"
    )
    return EXIT_OK


def _cmd_sweep(args):
    if not (0 < args.lambda_min < args.lambda_max < math.inf):
        raise ValueError("need 0 < lambda-min < lambda-max < inf")
    if args.points < 2:
        raise ValueError("need at least 2 points")
    problem = problems.load_problem(args.problem)
    _, tau_eff = _effective_tau(args, problem)
    lag = _lagrangian(problem, tau_eff)
    grid = np.geomspace(args.lambda_min, args.lambda_max, args.points)
    evals = dual.sweep_dual(lag, grid)
    rows = []
    for e in evals:
        if e.solution is not None:
            rows.append(
                (e.lam, e.d_value, e.d_prime, e.solution.discrepancy_sq, e.solution.j_value)
            )
        else:
            rows.append((e.lam, math.nan, math.nan, math.nan, math.nan))
    if args.format == "csv":
        with open(args.out, "w") as fh:
            fh.write("lambda,D,Dprime,discrepancy_sq,j_value\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    else:
        # strict JSON: a failed point's values are null, not the bare NaN token
        keys = ("lambda", "D", "Dprime", "discrepancy_sq", "j_value")
        _write_json([{k: v if math.isfinite(v) else None for k, v in zip(keys, row)} for row in rows], args.out)
    n_failed = sum(e.solution is None for e in evals)
    print(f"wrote {len(rows)} sweep points to {args.out}"
          + (f" ({n_failed} failed)" if n_failed else ""))
    return EXIT_OK


def _cmd_verify(args):
    problem = problems.load_problem(args.problem)
    saved = problems.load_json_object(args.result)

    def field(key, kind):
        return problems.json_field(saved, key, kind, args.result)

    iterations = field("iterations", list)
    if not all(isinstance(t, list) and len(t) == 3 for t in iterations):
        raise ValueError(f"{args.result}: iterations must be a list of [lam, D, D'] triples")
    result = dual.SelectionResult(
        lambda_star=field("lambda_star", float),
        alpha=field("alpha", float),
        f_star=load_vector_csv(Path(args.result).parent / field("f_star_path", str)),
        discrepancy=field("discrepancy", float),
        iterations=[tuple(t) for t in iterations],
        method=field("method", str),
        converged=field("converged", bool),
    )
    lag = _lagrangian(problem, field("tau_eff", float))
    report = dual.verify_morozov_solution(result, lag, rtol=args.rtol)
    payload = {
        "passed": report.passed,
        "checks": report.checks,
    }
    for check in report.checks:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{status}  {check['name']}: value={check['value']:.3e} "
              f"threshold={check['threshold']:.3e}")
    if args.out:
        _write_json(payload, args.out)
    if not report.passed:
        print(f"verification failed: {', '.join(report.failed_items())}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "diagnose": _cmd_diagnose,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None):
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (MorozovError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
