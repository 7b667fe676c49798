"""In-process A/B timing of two or more source trees on one workload.

    python tests/ab_timing.py <workload> <problems> <tree> <tree> [<tree> ...]
        [--repeats N] [--seed S]

Each tree is a checkout of this repository. Its ``src/morozov`` and its
``perfbench/workloads.py`` are imported as a snapshot of their own, so
every tree runs its own code in one process, on one BLAS thread (pinned
before numpy loads). A repeat times ``workloads.run`` on attempts
0..problems-1 of the workload at the seed, each on a fresh
``make_problem`` of the tree that runs it; the problem's set-up is not
timed. Every other repeat runs the trees in reverse order, so drift in
the host's speed falls on each tree alike.

It prints, per tree, the best total over the repeats, its ratio to the
first tree's, and the mean time of one run of each variant. It writes
nothing into the trees.
"""

import argparse
import importlib.util
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True


def _snapshot(tree, index):
    """The ``workloads`` module of ``tree``, bound to that tree's package."""
    for name in [m for m in sys.modules if m == "morozov" or m.startswith("morozov.")]:
        del sys.modules[name]
    src = str(Path(tree).resolve() / "src")
    sys.path.insert(0, src)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{index}", Path(tree) / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(src)
    package = sys.modules["morozov"]
    if not Path(package.__file__).resolve().is_relative_to(src):
        sys.exit(f"{tree}: morozov was imported from {package.__file__}")
    return module


def _repeat(workloads, workload, problems, seed, times):
    """One timed pass over the problems; adds each run's time to ``times``
    under its variant and returns the total."""
    total = 0.0
    for k in range(problems):
        prob = workloads.make_problem(workload, seed, k)
        start = time.perf_counter()
        workloads.run(workload, prob, lambda _key: None)
        elapsed = time.perf_counter() - start
        times[prob.variant].append(elapsed)
        total += elapsed
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("problems", type=int)
    parser.add_argument("trees", nargs="+")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if len(args.trees) < 2 or args.problems < 1 or args.repeats < 1:
        parser.error("need at least two trees, one problem and one repeat")
    snapshots = [_snapshot(tree, i) for i, tree in enumerate(args.trees)]
    totals = [[] for _ in args.trees]
    variants = [defaultdict(list) for _ in args.trees]
    order = list(range(len(args.trees)))
    for repeat in range(args.repeats):
        for i in order if repeat % 2 == 0 else order[::-1]:
            totals[i].append(_repeat(snapshots[i], args.workload, args.problems, args.seed, variants[i]))
    base = min(totals[0])
    for tree, runs, times in zip(args.trees, totals, variants):
        print(f"{tree}: best {1e3 * min(runs):.1f} ms of {args.repeats}, ratio {min(runs) / base:.3f}")
        for variant, spent in times.items():
            print(f"    {variant}: mean {1e3 * sum(spent) / len(spent):.2f} ms over {len(spent)}")


if __name__ == "__main__":
    main()
