"""Benchmark of morozov's regularization-parameter selection.

One workload runs in one process and checks every answer itself; the last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Workloads, metric units, bounds and the
default run length are read from ``BENCHMARK.json`` at the checkout root.

    python3 perfbench/run.py --workload select --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload select --seed 1 --repeat 10

``--trace 1`` reports the per-layer metrics instead: every attempt runs
once untraced and once traced, and the difference is the tracing
overhead. ``--workload all`` runs each workload in its own process and
prints every metric with its unit. ``--repeat N`` is the steadiness mode:
N runs on consecutive seeds, each end-to-end metric's median and
quartiles against its bound, then two traced runs on one seed to show
that the deterministic work counts repeat exactly.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread (nproc is 2 on the reference machine). Set before numpy
# loads; the count actually in force is recorded with the environment.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
IMPORT_PROBES = 5
PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    f"sys.path.insert(0, {str(SRC)!r})\n"
    "import numpy, scipy.linalg, morozov\n"
    "print(time.perf_counter() - t)\n"
)
# counts that a fixed seed must reproduce exactly
DETERMINISTIC = ("dual.evals", "kernels.cg_iters", "linops.applies_fwd", "linops.applies_adj")


def _load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _import_program():
    """Import the package from this checkout's ``src``, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import morozov
    except ImportError as exc:
        sys.exit(f"cannot import morozov from {SRC}: {exc}")
    if not Path(morozov.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"morozov was imported from {morozov.__file__}, not from {SRC}")


def _blas_threads():
    """Thread count each bundled OpenBLAS reports, by library owner."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            dll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    found[mod.__name__] = getattr(dll, sym)()
                    break
    return found


def _environment():
    import importlib.util

    import morozov
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "NUMBA_ENABLED": getattr(morozov, "NUMBA_ENABLED", None),
    }


def _import_seconds():
    """Median wall time of importing numpy, scipy.linalg and morozov afresh."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def _no_count(_key):
    pass


def _attempt(workload, prob, seed, k, tracer=None):
    """Run and check one attempt; returns its record and (lag, result)."""
    import workloads

    units = workloads.units(workload)
    record = {"label": prob.label, "units": units, "failed": 0, "wrong": [], "raised": None}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            lag, result = workloads.run(workload, prob, _no_count)
        else:
            with tracer.attempt_span(k):
                lag, result = workloads.run(workload, prob, tracer.count)
    except Exception as exc:  # a raising attempt is a counted failure, not a crash
        record["seconds"] = time.perf_counter() - t0
        record["failed"] = units
        record["raised"] = f"{type(exc).__name__}: {exc}"
        return record, None
    record["seconds"] = time.perf_counter() - t0
    if workloads.SPECS[workload].sweep:
        bad = workloads.check_sweep(prob, result, seed, k)
        record["failed"] = len(bad)
        record["wrong"] = [f"grid[{i}]: {why}" for i, why in sorted(bad.items())
                           if not why.startswith("point failed")]
        if len(record["wrong"]) < len(bad):
            record["raised"] = f"{len(bad) - len(record['wrong'])} sweep points failed"
    else:
        record["wrong"] = workloads.check_selection(prob, result)
        record["failed"] = int(bool(record["wrong"]))
    return record, (lag, result)


def _percentile_with_ten_beyond(values):
    """(NN, value) for the highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    nn = (100 * (n - 10)) // n
    return nn, statistics.quantiles(values, n=100, method="inclusive")[nn - 1]


def _report_failures(workload, records):
    for r in records:
        for why in r["wrong"]:
            print(f"WRONG {workload} {r['label']}: {why}")
    raised = {}
    for r in records:
        if r["raised"]:
            raised.setdefault(r["raised"].split(" (")[0], []).append(r["label"])
    for why, labels in raised.items():
        print(f"FAILED {workload} x{len(labels)}: {why}")
        for label in labels:
            print(f"    {label}")


def run_once(args, spec):
    _import_program()
    import workloads
    from morozov import verify_morozov_solution

    env = _environment()
    import_s = _import_seconds()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    records, gen_times, overheads = [], [], []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k % workloads.cycle(args.workload) or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        prob = workloads.make_problem(args.workload, args.seed, k)
        gen_times.append(time.perf_counter() - t0)
        if tracer is None:
            records.append(_attempt(args.workload, prob, args.seed, k)[0])
        else:
            plain_first = k % 2 == 0
            if plain_first:
                plain, _ = _attempt(args.workload, prob, args.seed, k)
            record, out = _attempt(args.workload, prob, args.seed, k, tracer)
            if not plain_first:
                plain, _ = _attempt(args.workload, prob, args.seed, k)
            overheads.append(record["seconds"] - plain["seconds"])
            records.append(record)
            if out is not None and not workloads.SPECS[args.workload].sweep:
                lag, res = out
                with tracer.attempt_span(k, tracing.VERIFY):
                    verify_morozov_solution(res, lag, rtol=workloads.RTOL)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r["units"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = not any(r["wrong"] for r in records)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(records)} attempts, "
          f"{attempted} operations, {failed} failed, fail_frac {failed / attempted:.4f} ratio")
    _report_failures(args.workload, records)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if tracer is None:
        ok = [r for r in records if r["failed"] == 0]
        per_op = [r["seconds"] / r["units"] for r in ok]
        metrics = {
            "setup_s": import_s + statistics.median(gen_times),
            # whole-run totals: a median over attempts would follow whichever
            # speed the host held for most of the run
            "ops_per_s": (attempted - failed) / sum(r["seconds"] for r in records),
            "op_p50_s": statistics.median(per_op) if per_op else None,
            "peak_rss_mb": peak_rss_mb,
        }
        sweep = workloads.SPECS[args.workload].sweep
        aliases = {"ops_per_s": "sweep_points_per_s" if sweep else "select_per_s",
                   "op_p50_s": "sweep_point_p50_s" if sweep else "select_p50_s"}
        print(f"  setup: import {import_s:.4f} s (median of {IMPORT_PROBES}) + "
              f"array generation {statistics.median(gen_times):.4f} s (median of {len(gen_times)})")
        for name, value in metrics.items():
            alias = f"  ({aliases[name]})" if name in aliases else ""
            shown = "n/a (no attempt succeeded)" if value is None else f"{value:.6g}"
            print(f"  {name:<28} {shown} {units[name]}{alias}")
        tail = _percentile_with_ten_beyond([r["seconds"] for r in ok])
        label = "sweep" if sweep else "select"
        if tail is None:
            print(f"  {label + '_pNN_s':<28} n/a: {len(ok)} samples, fewer than 20")
        else:
            print(f"  {label + f'_p{tail[0]}_s':<28} {tail[1]:.6g} s  "
                  f"({len(ok)} samples, at least 10 beyond)")
        print(f"  {'fail_frac':<28} {failed / attempted:.6g} ratio")
    else:
        metrics = tracing.layer_metrics(tracer, len(records), workloads.units(args.workload), overheads)
        gap = tracing.self_time_gap(tracer)
        correct = correct and gap < 1e-9
        for name, value in metrics.items():
            print(f"  {name:<34} {value:.6g} {units[name]}")
        print(f"  self times sum to each attempt's traced wall time within {gap:.2e} (relative)")
        print(f"  tracing overhead {metrics['trace.overhead_s']:.6g} s per operation, median of "
              f"{len(overheads)} traced-minus-untraced pairs")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "span_fields": ["name", "start", "end", "parent", "attempt", "raised"],
                       "spans": tracer.spans,
                       "counts": {str(k): dict(c) for k, c in tracer.counts.items()}}, fh)
        print(f"  spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))


def _child(workload, seed, seconds, trace):
    """Run one workload in its own process; returns (stdout, final JSON)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def run_all(args, spec):
    table = []
    for w in spec["workloads"]:
        stdout, result = _child(w["name"], args.seed, args.seconds, args.trace)
        print(stdout, end="")
        table.append((w["name"], result))
    print(f"\n{'workload':<16} {'metric':<34} {'value':>12}  unit")
    for name, result in table:
        for metric, m in result["metrics"].items():
            print(f"{name:<16} {metric:<34} {m['value']:>12.6g}  {m['unit']}")
        print(f"{name:<16} {'fail_frac':<34} {result['failed'] / result['attempted']:>12.6g}  "
              f"ratio  (correct={result['correct']})")
    return all(r["correct"] for _, r in table)


def run_repeat(args, spec):
    values = {}
    for i in range(args.repeat):
        _, result = _child(args.workload, args.seed + i, args.seconds, 0)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {args.seed + i}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()))
    print(f"\n{'metric':<16} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>8} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        q1, med, q3 = statistics.quantiles(values[m["name"]], n=4)
        spread = (q3 - q1) / med
        if m["name"] == "setup_s":
            verdict = "spread not gated; only its median is compared"
        else:
            verdict = "steady" if spread < m["bound"] / 3 else "WIDER THAN A THIRD OF THE BOUND"
        print(f"{m['name']:<16} {q1:>10.5g} {med:>10.5g} {q3:>10.5g} {spread:>8.2%} {m['bound']:>6}  {verdict}")

    counts = []
    for _ in range(2):
        _child(args.workload, args.seed, args.seconds, 1)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json") as fh:
            counts.append(json.load(fh)["counts"])
    common = sorted(set(counts[0]) & set(counts[1]), key=int)
    same = all(counts[0][a].get(c, 0) == counts[1][a].get(c, 0) for a in common for c in DETERMINISTIC)
    print(f"\ndeterministic counts {', '.join(DETERMINISTIC)} over {len(common)} attempts "
          f"of two traced runs with seed {args.seed}: {'repeat exactly' if same else 'DIFFER'}")
    return same


def main():
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: this many runs on consecutive seeds")
    args = parser.parse_args()
    if args.workload == "all":
        sys.exit(0 if run_all(args, spec) else 1)
    if args.repeat:
        sys.exit(0 if run_repeat(args, spec) else 1)
    run_once(args, spec)


if __name__ == "__main__":
    main()
