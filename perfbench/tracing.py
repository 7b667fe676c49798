"""Spans and work counts for the traced run, recorded from outside the library.

A traced attempt swaps wrappers into the module attributes through which
``morozov.dual``, ``morozov.lagrange`` and ``morozov.linops`` look up their
callees, so each call into a layer opens a span. A span is
``[name, start, end, parent, attempt, raised]``; spans stay in memory and
are written out when the run ends. Counts come from the wrapped functions'
return values and from the benchmark's own operator callbacks, and accrue
only while an attempt's root span is open.
"""

import statistics
import time
from collections import Counter
from contextlib import contextmanager

import morozov.dual
import morozov.lagrange
import morozov.linops
import workloads

ROOT = "bench.attempt"
SEARCH = ("dual.maximize_dual", "dual.sweep_dual")
VERIFY = "dual.verify_morozov_solution"
DIAGNOSE_APPLIES = "linops.diagnose_applies"


def _count_eval(tracer, _out):
    tracer.count("dual.evals")


def _count_solve(tracer, sol):
    tracer.count("lagrange.solves")
    if "factorization" in sol.solver_stats:
        tracer.count("lagrange.factorizations")


def _count_cg(tracer, out):
    _, iters, _, status = out
    tracer.count("kernels.cg_calls")
    tracer.count("kernels.cg_iters", iters)
    tracer.count("kernels.cg_capped", status == 1)


# (module, attribute looked up there, span name, count from the return value)
HOOKS = (
    (workloads, "maximize_dual", "dual.maximize_dual", None),
    (workloads, "sweep_dual", "dual.sweep_dual", None),
    (morozov.dual, "diagnose_regime", "dual.diagnose_regime", None),
    (morozov.dual, "check_assumptions", "regularizers.check_assumptions", None),
    (morozov.dual, "eval_dual", "dual.eval_dual", _count_eval),
    (morozov.dual, "solve_lagrange", "lagrange.solve_lagrange", _count_solve),
    (morozov.dual, "distance_to_range", "linops.distance_to_range", None),
    (morozov.lagrange, "cg_matvec", "kernels.cg_matvec", _count_cg),
    (morozov.linops, "cg_matvec", "kernels.cg_matvec", _count_cg),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.attempt = None
        self.counts = {}

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.attempt, False])
        self.stack.append(len(self.spans) - 1)

    def _close(self, raised):
        span = self.spans[self.stack.pop()]
        span[2] = time.perf_counter()
        span[5] = raised

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        except BaseException:
            self._close(True)
            raise
        self._close(False)

    def count(self, key, n=1):
        if not self.stack or self.spans[self.stack[0]][0] != ROOT:
            return
        self.counts.setdefault(self.attempt, Counter())[key] += n
        if key.startswith("linops.applies") and any(
            self.spans[i][0] == "linops.distance_to_range" for i in self.stack
        ):
            self.counts[self.attempt][DIAGNOSE_APPLIES] += n

    def _wrap(self, name, fn, on_result):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    @contextmanager
    def attempt_span(self, attempt, name=ROOT):
        """Trace a span of one attempt with the hooks in place.

        A hook whose attribute no longer exists is skipped, so its layer
        reads zero instead of breaking the run.
        """
        self.attempt = attempt
        saved = []
        for module, attr, span_name, on_result in HOOKS:
            fn = getattr(module, attr, None)
            if fn is not None:
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(span_name, fn, on_result))
        try:
            with self.span(name):
                yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            self.attempt = None

    def self_times(self):
        """Each span's duration minus the time its children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out


def layer_metrics(tracer, attempts, units_per_attempt, overheads):
    """Per-layer metrics, per attempted operation unless named otherwise.

    ``overheads`` holds, per traced attempt, its traced minus its untraced
    wall time.
    """
    n_units = attempts * units_per_attempt
    dur = Counter()
    calls = Counter()
    search_self = 0.0
    for span, self_t in zip(tracer.spans, tracer.self_times()):
        dur[span[0]] += span[2] - span[1]
        calls[span[0]] += 1
        if span[0] in SEARCH:
            search_self += self_t
    c = sum(tracer.counts.values(), Counter())
    applies = c["linops.applies_fwd"] + c["linops.applies_adj"]
    return {
        "dual.evals": c["dual.evals"] / n_units,
        "dual.search_self_s": search_self / n_units,
        "dual.diagnose_s": dur["dual.diagnose_regime"] / n_units,
        "linops.distance_to_range_s": dur["linops.distance_to_range"] / n_units,
        "regularizers.check_assumptions_s": dur["regularizers.check_assumptions"] / n_units,
        "lagrange.solves": c["lagrange.solves"] / n_units,
        "lagrange.solve_s": dur["lagrange.solve_lagrange"] / max(calls["lagrange.solve_lagrange"], 1),
        "lagrange.factorizations": c["lagrange.factorizations"] / n_units,
        "kernels.cg_calls": c["kernels.cg_calls"] / n_units,
        "kernels.cg_iters": c["kernels.cg_iters"] / n_units,
        "kernels.cg_capped_frac": c["kernels.cg_capped"] / max(c["kernels.cg_calls"], 1),
        "linops.applies_fwd": c["linops.applies_fwd"] / n_units,
        "linops.applies_adj": c["linops.applies_adj"] / n_units,
        "linops.diagnose_apply_frac": c[DIAGNOSE_APPLIES] / max(applies, 1),
        "dual.verify_s": dur[VERIFY] / max(calls[VERIFY], 1),
        "trace.overhead_s": statistics.median(overheads) / units_per_attempt,
    }


def self_time_gap(tracer):
    """Largest relative gap between an attempt's wall time and its spans' self times."""
    self_t = tracer.self_times()
    root_of = {}
    for i, s in enumerate(tracer.spans):
        root_of[i] = i if s[3] is None else root_of[s[3]]
    total = Counter()
    for i, t in enumerate(self_t):
        total[root_of[i]] += t
    gap = 0.0
    for i, s in enumerate(tracer.spans):
        if s[0] == ROOT:
            wall = s[2] - s[1]
            gap = max(gap, abs(total[i] - wall) / wall)
    return gap
