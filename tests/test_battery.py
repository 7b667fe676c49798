"""The answer battery (``battery.py``) re-run against its committed records.

The outcome must match everywhere. At noise >= 1e-4 the evaluation count
and k must match exactly and lambda_star to 1e-10 relative: the BLAS
thread count alone moves it by up to 6.6e-12 there. At noise 1e-7
lambda_star must match to the selection's rtol; the thread count alone
moves it by up to 1.4e-9 there.

The sweep records (``battery.run_sweeps``) keep to their own rule: each
point's error and k must match exactly, D' to 1e-10 ||g||^2, the scale of
its rounding when the discrepancy nears epsilon, and D'' to 1e-10
relative. The records of the benchmark's grid (``battery.run_bench_sweeps``)
keep to the same rule.
"""

import battery

# noise at or above which counts must match exactly
_EXACT_NOISE = 1e-4
_LAMBDA_RTOL = 1e-10
# D' to this share of ||g||^2 and D'' to this relative tolerance
_SWEEP_TOL = 1e-10


def _moved(old, new):
    """Whether ``new`` moved from ``old`` beyond the battery's rule."""
    if old["outcome"] != new["outcome"]:
        return True
    exact = old["noise"] >= _EXACT_NOISE
    if exact and (old["evaluations"], old["k"]) != (new["evaluations"], new["k"]):
        return True
    if old["lambda_star"] is None or new["lambda_star"] is None:
        return old["lambda_star"] != new["lambda_star"]
    a, b = float.fromhex(old["lambda_star"]), float.fromhex(new["lambda_star"])
    return not abs(a - b) <= (_LAMBDA_RTOL if exact else battery.RTOL) * abs(a)


def test_battery_answers_unchanged():
    key = lambda r: tuple(r[name] for name in battery.KEY)
    old = {key(r): r for r in battery.load()}
    new = {key(r): r for r in battery.run()}
    assert sorted(old) == sorted(new), "the grid differs from the committed records"
    moved = [(old[k], new[k]) for k in old if _moved(old[k], new[k])]
    assert not moved, f"{len(moved)} of {len(old)} records moved:\n" + "\n".join(
        f"{dict(zip(battery.KEY, key(a)))}\n  old {a}\n  new {b}" for a, b in moved
    )


def _point_moved(old, new, g_norm_sq):
    """Whether the sweep point ``new`` moved from ``old`` beyond the rule."""
    if (old["error"], old["k"]) != (new["error"], new["k"]):
        return True
    if old["error"] is not None:
        return False
    d1, e1 = float.fromhex(old["d_prime"]), float.fromhex(new["d_prime"])
    d2, e2 = float.fromhex(old["d_second"]), float.fromhex(new["d_second"])
    return not (abs(d1 - e1) <= _SWEEP_TOL * g_norm_sq and abs(d2 - e2) <= _SWEEP_TOL * abs(d2))


def _sweeps_moved(path, records, grid):
    """The points of ``records`` that moved from those committed at ``path``."""
    key = lambda r: tuple(r[name] for name in battery.SWEEP_KEY)
    old = {key(r): r for r in battery.load(path)}
    new = {key(r): r for r in records}
    assert sorted(old) == sorted(new), "the sweep grid differs from the committed records"
    assert all(len(old[k]["points"]) == len(new[k]["points"]) == len(grid) for k in old)
    return [
        (k, lam, a, b)
        for k in old
        for lam, a, b in zip(grid, old[k]["points"], new[k]["points"])
        if _point_moved(a, b, float.fromhex(old[k]["g_norm_sq"]))
    ]


def _assert_unmoved(moved):
    assert not moved, f"{len(moved)} sweep points moved:\n" + "\n".join(
        f"{dict(zip(battery.SWEEP_KEY, k))} lam={lam:g}\n  old {a}\n  new {b}" for k, lam, a, b in moved
    )


def test_sweep_answers_unchanged():
    _assert_unmoved(_sweeps_moved(battery.SWEEP_PATH, battery.run_sweeps(), battery.SWEEP_GRID))


def test_bench_sweep_answers_unchanged():
    _assert_unmoved(_sweeps_moved(battery.BENCH_SWEEP_PATH, battery.run_bench_sweeps(), battery.BENCH_SWEEP_GRID))
