import dataclasses
import json
import shutil

import numpy as np
import pytest

from morozov import linops
from morozov.cli import main
from morozov.dual import maximize_dual
from morozov.lagrange import Lagrangian
from morozov.problems import (
    InverseProblem,
    _bump_profile,
    make_deconvolution,
    regime_fixture,
    save_problem,
    synthesize,
)
from morozov.regularizers import (
    custom_regularizer,
    first_difference_regularizer,
    identity_regularizer,
)


@pytest.fixture(scope="module")
def fixture_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    dirs = {}
    for target in ("interior", "noise_dominates", "too_optimistic"):
        d = root / target
        save_problem(regime_fixture(target, seed=3), d)
        dirs[target] = d
    scalar = InverseProblem(
        op=linops.from_matrix([[1.0]]),
        g=np.array([2.0]),
        g0=np.array([2.0]),
        f0=np.array([2.0]),
        delta_g_norm=0.0,
        tau=1.0,
        noise_level=0.0,
        regularizer=identity_regularizer(1),
        seed=None,
    )
    d = root / "scalar"
    save_problem(scalar, d)
    dirs["scalar"] = d
    return dirs


def run(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_writes_fixture_directory(self, tmp_path):
        out = tmp_path / "fx"
        assert run(["generate", "--target", "interior", "--seed", 7, "--out", out]) == 0
        for name in ("A.bin", "f0.csv", "g.csv", "meta.json"):
            assert (out / name).exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["regime"] == "interior"
        assert meta["seed"] == 7


class TestDiagnose:
    def test_interior(self, fixture_dirs, capsys):
        assert run(["diagnose", "--problem", fixture_dirs["interior"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "interior"
        for key in ("dist_to_range", "data_norm", "tau", "tau_eff", "regime"):
            assert key in payload
        assert payload["tau_eff"] == pytest.approx(1.02 * payload["tau"])
        tau_eff = payload["tau_eff"]
        assert payload["margin_dist"] == pytest.approx((tau_eff - payload["dist_to_range"]) / tau_eff)
        assert payload["margin_norm"] == pytest.approx((payload["data_norm"] - tau_eff) / tau_eff)
        assert payload["margin_dist"] > 0 and payload["margin_norm"] > 0
        assert list(payload) == [
            "dist_to_range", "data_norm", "tau", "tau_eff", "safety_factor",
            "regime", "margin_dist", "margin_norm",
        ]

    def test_tau_override_forces_noise_dominates(self, fixture_dirs, capsys):
        rc = run(["diagnose", "--problem", fixture_dirs["interior"], "--tau", 1e6])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "noise_dominates"
        assert payload["margin_norm"] < 0 < payload["margin_dist"]

    def test_zero_tau_rejected(self, fixture_dirs):
        rc = run(["diagnose", "--problem", fixture_dirs["interior"], "--tau", 0.0])
        assert rc == 1

    def test_report_file(self, fixture_dirs, tmp_path):
        out = tmp_path / "diag.json"
        assert run(["diagnose", "--problem", fixture_dirs["interior"], "--out", out]) == 0
        assert json.loads(out.read_text())["regime"] == "interior"


class TestSolve:
    def test_interior_end_to_end(self, fixture_dirs, tmp_path):
        out = tmp_path / "result.json"
        rc = run(["solve", "--problem", fixture_dirs["interior"], "--out", out])
        assert rc == 0
        payload = json.loads(out.read_text())
        for key in (
            "lambda_star", "alpha", "discrepancy", "tau", "regime",
            "method", "iterations", "converged",
        ):
            assert key in payload
        assert payload["converged"] is True
        assert payload["regime"] == "interior"
        assert payload["alpha"] == pytest.approx(1.0 / payload["lambda_star"], rel=1e-15)
        f_star = linops.load_vector_csv(tmp_path / payload["f_star_path"])
        assert f_star.shape[0] == 24
        # discrepancy equation at the effective tolerance
        assert abs(payload["discrepancy"] ** 2 - payload["tau_eff"] ** 2) <= (
            1e-8 * payload["tau_eff"] ** 2
        )
        assert all(len(t) == 3 for t in payload["iterations"])

    def test_cli_numbers_equal_library_numbers(self, fixture_dirs, tmp_path):
        from morozov.problems import load_problem

        out = tmp_path / "result.json"
        assert run(["solve", "--problem", fixture_dirs["interior"], "--out", out]) == 0
        payload = json.loads(out.read_text())
        prob = load_problem(fixture_dirs["interior"])
        lag = Lagrangian(prob.op, prob.g, prob.regularizer, (1.02 * prob.tau) ** 2)
        res = maximize_dual(lag, rtol=1e-8)
        assert payload["lambda_star"] == res.lambda_star
        assert payload["alpha"] == res.alpha
        assert payload["discrepancy"] == res.discrepancy
        f_star = linops.load_vector_csv(tmp_path / payload["f_star_path"])
        np.testing.assert_array_equal(f_star, res.f_star)

    def test_scalar_fixture_closed_form(self, fixture_dirs, tmp_path, capsys):
        out = tmp_path / "scalar.json"
        rc = run([
            "solve", "--problem", fixture_dirs["scalar"],
            "--safety-factor", 1.0, "--out", out,
        ])
        assert rc == 0
        assert "strictly greater than 1" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["lambda_star"] == pytest.approx(1.0, abs=1e-8)
        assert payload["alpha"] == pytest.approx(1.0, abs=1e-8)

    def test_noise_dominates_exits_2(self, fixture_dirs, tmp_path, capsys):
        rc = run([
            "solve", "--problem", fixture_dirs["noise_dominates"],
            "--out", tmp_path / "r.json",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "noise_dominates" in err
        assert "tau >= ||g||" in err

    def test_too_optimistic_exits_2(self, fixture_dirs, tmp_path, capsys):
        rc = run([
            "solve", "--problem", fixture_dirs["too_optimistic"],
            "--out", tmp_path / "r.json",
        ])
        assert rc == 2
        assert "too_optimistic" in capsys.readouterr().err

    def test_solve_diagnoses_regime_once(self, fixture_dirs, tmp_path, monkeypatch):
        import morozov.dual

        calls = []
        diagnose = morozov.dual.diagnose_regime

        def counting(*args, **kwargs):
            calls.append(args)
            return diagnose(*args, **kwargs)

        monkeypatch.setattr(morozov.dual, "diagnose_regime", counting)
        rc = run(["solve", "--problem", fixture_dirs["interior"], "--out", tmp_path / "r.json"])
        assert rc == 0
        assert len(calls) == 1
        calls.clear()
        rc = run([
            "solve", "--problem", fixture_dirs["noise_dominates"],
            "--out", tmp_path / "r.json",
        ])
        assert rc == 2
        assert len(calls) == 1

    def test_search_out_of_budget_exits_3(self, fixture_dirs, tmp_path, capsys):
        # an interior problem's search that runs out of evaluations fails
        # with its bracket and best |D'|, not as a regime
        rc = run([
            "solve", "--problem", fixture_dirs["interior"],
            "--max-iter", 1, "--out", tmp_path / "r.json",
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: newton did not reach") and "bracket [" in err, err
        assert "smallest |D'|" in err and err.count("\n") == 1, err

    def test_missing_problem_exits_1(self, tmp_path):
        assert run(["solve", "--problem", tmp_path / "nope", "--out", tmp_path / "r.json"]) == 1

    def test_bad_safety_factor_exits_1(self, fixture_dirs, tmp_path, capsys):
        # NaN is refused as a safety factor, not reported as an epsilon
        for c in (0.5, "nan"):
            rc = run([
                "solve", "--problem", fixture_dirs["interior"],
                "--safety-factor", c, "--out", tmp_path / "r.json",
            ])
            assert rc == 1
            assert capsys.readouterr().err == f"error: safety factor must be >= 1, got {float(c)}\n"

    @pytest.mark.parametrize("option", [["--max-iter", -1], ["--rtol", "nan"], ["--rtol", "inf"]])
    def test_bad_search_option_exits_1(self, fixture_dirs, tmp_path, capsys, option):
        # refused up front with the contract's "error:" line, not a
        # traceback (--max-iter -1), a search that runs on NaN (--rtol nan)
        # or one that accepts its first multiplier (--rtol inf)
        rc = run(["solve", "--problem", fixture_dirs["interior"], *option, "--out", tmp_path / "r.json"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "r.json").exists()

    def test_bisection_and_gradient_ascent_methods(self, fixture_dirs, tmp_path):
        for method in ("bisection", "gradient-ascent"):
            out = tmp_path / f"{method}.json"
            args = [
                "solve", "--problem", fixture_dirs["scalar"], "--method", method,
                "--safety-factor", 1.0, "--out", out,
            ]
            if method == "gradient-ascent":
                args += ["--rtol", 1e-4]
            assert run(args) == 0
            payload = json.loads(out.read_text())
            assert payload["method"] == method
            tol = 1e-7 if method == "bisection" else 1e-3
            assert payload["lambda_star"] == pytest.approx(1.0, abs=tol)

    def test_default_method_is_newton(self, fixture_dirs, tmp_path, capsys):
        out, bis = tmp_path / "newton.json", tmp_path / "bisection.json"
        assert run(["solve", "--problem", fixture_dirs["interior"], "--out", out]) == 0
        assert run([
            "solve", "--problem", fixture_dirs["interior"], "--method", "bisection", "--out", bis,
        ]) == 0
        newton, bisection = json.loads(out.read_text()), json.loads(bis.read_text())
        assert newton["method"] == "newton"
        assert newton["lambda_star"] == pytest.approx(bisection["lambda_star"], rel=1e-7)
        assert len(newton["iterations"]) <= 10 < len(bisection["iterations"])
        capsys.readouterr()
        # a usage error is invalid input
        with pytest.raises(SystemExit) as err:
            run(["solve", "--problem", fixture_dirs["interior"], "--method", "secant",
                 "--out", tmp_path / "s.json"])
        assert err.value.code == 1
        assert capsys.readouterr().err.startswith("error: argument --method: invalid choice")


class TestNonFiniteData:
    @pytest.mark.parametrize("command", ["diagnose", "solve"])
    def test_nan_in_data_exits_1(self, fixture_dirs, tmp_path, capsys, command):
        # refused when the problem is built, with the contract's "error:"
        # line, not a ZeroDivisionError traceback from the regime verdict
        d = tmp_path / "nan"
        shutil.copytree(fixture_dirs["interior"], d)
        lines = (d / "g.csv").read_text().splitlines()
        lines[3] = "nan"
        (d / "g.csv").write_text("\n".join(lines) + "\n")
        rc = run([command, "--problem", d, "--out", tmp_path / "r.json"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: data must be finite")
        assert not (tmp_path / "r.json").exists()


class TestMalformedFiles:
    """A malformed fixture or result file is invalid input: exit 1 with one
    "error:" line, not a traceback."""

    @pytest.mark.parametrize(
        "command, file, change",
        [
            ("diagnose", "meta.json", {"tau": None}),
            ("diagnose", "meta.json", [1, 2]),
            ("verify", "result.json", {"lambda_star": "x"}),
            ("verify", "result.json", {"iterations": 5}),
            ("verify", "result.json", {"iterations": [[1.0, 2.0]]}),
            ("verify", "result.json", {"f_star_path": None}),
            ("verify", "result.json", {"tau_eff": None}),
            # integers beyond float range
            ("diagnose", "meta.json", {"tau": 10**400}),
            ("verify", "result.json", {"tau_eff": 10**400}),
        ],
        ids=[
            "null_tau", "list_meta", "string_lambda_star", "number_iterations", "pair_iterations",
            "null_f_star_path", "null_tau_eff", "huge_tau", "huge_tau_eff",
        ],
    )
    def test_bad_json_field_exits_1(self, fixture_dirs, tmp_path, capsys, command, file, change):
        d = tmp_path / "fx"
        shutil.copytree(fixture_dirs["interior"], d)
        result = d / "result.json"
        assert run(["solve", "--problem", d, "--out", result]) == 0
        path = d / file
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, **change} if isinstance(change, dict) else change))
        capsys.readouterr()
        args = ["--problem", d] + (["--result", result] if command == "verify" else [])
        assert run([command, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_mdop_header_larger_than_the_file_exits_1(self, fixture_dirs, tmp_path, capsys):
        d = tmp_path / "fx"
        shutil.copytree(fixture_dirs["interior"], d)
        (d / "A.bin").write_bytes(b"MDOP" + b"\xff" * 8 + b"\x00" * 4 + b"\x00" * 64)
        assert run(["diagnose", "--problem", d]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated MDOP payload" in err and err.count("\n") == 1, err


class TestCustomPenaltyFixture:
    def test_solve_verify_sweep(self, tmp_path, capsys):
        # L.bin holds the first-difference matrix as a custom penalty: the
        # selection matches the built-in first differences on the same data
        n = 128
        f0 = np.sin(np.linspace(0, np.pi, n))
        custom = custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0)))
        stars = {}
        for name, J in (("custom", custom), ("builtin", first_difference_regularizer(n))):
            fx = tmp_path / name
            save_problem(synthesize(make_deconvolution(n, 2.0), f0, 0.02, seed=1, regularizer=J), fx)
            out = tmp_path / f"{name}.json"
            assert run(["solve", "--problem", fx, "--out", out]) == 0
            stars[name] = json.loads(out.read_text())["lambda_star"]
        assert (tmp_path / "custom" / "L.bin").exists()
        assert stars["custom"] == pytest.approx(stars["builtin"], rel=1e-6)
        assert stars["custom"] == pytest.approx(0.32760401383, rel=1e-6)
        fx = tmp_path / "custom"
        assert run(["verify", "--problem", fx, "--result", tmp_path / "custom.json"]) == 0
        sweep = tmp_path / "sweep.csv"
        assert run(["sweep", "--problem", fx, "--lambda-min", 1e-2, "--lambda-max", 1e2,
                    "--points", 20, "--out", sweep]) == 0
        data = np.loadtxt(sweep, delimiter=",", skiprows=1)
        assert data.shape == (20, 5) and np.isfinite(data).all()
        # D' changes sign once, around the selected multiplier
        cross = np.flatnonzero((data[:-1, 2] > 0) & (data[1:, 2] <= 0))
        assert len(cross) == 1
        assert data[cross[0], 0] <= stars["custom"] <= data[cross[0] + 1, 0]


    def test_window_case_is_noise_dominated(self, tmp_path, capsys):
        # first differences as a custom penalty on a smooth profile over a
        # large constant: tau = 28.4 lies between ||gbar|| = 0.811 and
        # ||g|| = 56.0, so the noise dominates the data that L penalizes
        n = 128
        f0 = 5.0 + 0.1 * np.sin(6.0 * np.linspace(0.0, 1.0, n))
        J = custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0)))
        fx = tmp_path / "window"
        save_problem(synthesize(make_deconvolution(n, 2.0), f0, 0.001, seed=1, regularizer=J), fx)
        assert run(["diagnose", "--problem", fx, "--tau", 28.4]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "noise_dominates"
        assert payload["data_norm"] == pytest.approx(0.81095132407, rel=1e-10)
        assert run(["solve", "--problem", fx, "--tau", 28.4, "--out", tmp_path / "sol.json"]) == 2
        assert "||gbar||" in capsys.readouterr().err


class TestVerdictAgreement:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_diagnose_reports_the_regime_solve_runs_under(self, seed, tmp_path, capsys, monkeypatch):
        # tau at half the distance a rank-cut least-squares solve finds: the
        # two commands used to give too_optimistic and interior
        import morozov.dual

        n = 128
        A = make_deconvolution(n, 2.0)
        prob = synthesize(A, _bump_profile(n, np.random.default_rng(seed)), 0.02, seed=seed)
        f_ls = np.linalg.lstsq(A.matrix, prob.g, rcond=None)[0]
        tau = 0.5 * float(np.linalg.norm(A.matrix @ f_ls - prob.g))
        fx = tmp_path / "fx"
        save_problem(dataclasses.replace(prob, tau=tau), fx)
        assert run(["diagnose", "--problem", fx, "--safety-factor", 1.0]) == 0
        payload = json.loads(capsys.readouterr().out)

        seen = []
        diagnose = morozov.dual.diagnose_regime

        def recording(*args, **kwargs):
            seen.append(diagnose(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(morozov.dual, "diagnose_regime", recording)
        rc = run(["solve", "--problem", fx, "--safety-factor", 1.0, "--out", tmp_path / "r.json"])
        assert [d.regime for d in seen] == [payload["regime"]]
        assert payload["dist_to_range"] == seen[0].dist_to_range
        # D' stays positive up to LAMBDA_MAX: the verdict refuses it, and
        # the search never runs into the cap
        assert payload["regime"] == "too_optimistic" and rc == 2


class TestSweep:
    def test_csv_contract(self, fixture_dirs, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run([
            "sweep", "--problem", fixture_dirs["interior"],
            "--lambda-min", 1e-4, "--lambda-max", 1e6, "--points", 40,
            "--out", out,
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,D,Dprime,discrepancy_sq,j_value"
        assert len(lines) == 41
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (40, 5)
        dprime = data[:, 2]
        assert dprime[0] > 0 and dprime[-1] < 0  # interior: sign change
        # D column concave with an interior maximum
        d = data[:, 1]
        k = int(np.argmax(d))
        assert 0 < k < len(d) - 1

    def test_dotted_regime_all_negative(self, fixture_dirs, tmp_path):
        out = tmp_path / "dotted.csv"
        rc = run([
            "sweep", "--problem", fixture_dirs["noise_dominates"],
            "--lambda-min", 1e-4, "--lambda-max", 1e6, "--points", 25,
            "--out", out,
        ])
        assert rc == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(data[:, 2] < 0)

    def test_dashed_regime_all_positive(self, fixture_dirs, tmp_path):
        out = tmp_path / "dashed.csv"
        rc = run([
            "sweep", "--problem", fixture_dirs["too_optimistic"],
            "--lambda-min", 1e-4, "--lambda-max", 1e6, "--points", 25,
            "--out", out,
        ])
        assert rc == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(data[:, 2] > 0)

    def test_json_format(self, fixture_dirs, tmp_path):
        out = tmp_path / "sweep.json"
        rc = run([
            "sweep", "--problem", fixture_dirs["interior"],
            "--lambda-min", 0.1, "--lambda-max", 10, "--points", 5,
            "--out", out, "--format", "json",
        ])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 5
        assert set(rows[0]) == {"lambda", "D", "Dprime", "discrepancy_sq", "j_value"}

    def test_json_is_strict_with_failed_points(self, fixture_dirs, tmp_path, capsys):
        # the multiplier above LAMBDA_MAX = 1e12 fails: its values are null,
        # which a strict parser reads, not the bare NaN token
        out = tmp_path / "sweep.json"
        rc = run([
            "sweep", "--problem", fixture_dirs["interior"],
            "--lambda-min", 1e10, "--lambda-max", 1e14, "--points", 3,
            "--out", out, "--format", "json",
        ])
        assert rc == 0
        assert "(1 failed)" in capsys.readouterr().out

        def refuse(token):
            raise ValueError(f"non-strict JSON token {token}")

        rows = json.loads(out.read_text(), parse_constant=refuse)
        assert [r["lambda"] for r in rows] == pytest.approx([1e10, 1e12, 1e14])
        assert all(isinstance(v, float) for row in rows[:2] for v in row.values())
        assert [rows[2][k] for k in ("D", "Dprime", "discrepancy_sq", "j_value")] == [None] * 4

    def test_bad_grid_exits_1(self, fixture_dirs, tmp_path, capsys):
        # a descending grid, an infinite end, whose grid repeats inf, and a
        # grid of one point
        for lo, hi, points, message in (
            (10, 1, 5, "need 0 < lambda-min < lambda-max < inf"),
            (1e-4, "inf", 5, "need 0 < lambda-min < lambda-max < inf"),
            (0.1, 10, 1, "need at least 2 points"),
        ):
            rc = run([
                "sweep", "--problem", fixture_dirs["interior"],
                "--lambda-min", lo, "--lambda-max", hi, "--points", points,
                "--out", tmp_path / "s.csv",
            ])
            assert rc == 1, (lo, hi, points)
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "s.csv").exists()


class TestLogging:
    def test_env_var_level_mapping(self):
        import logging

        from morozov.cli import _LOG_LEVELS

        assert _LOG_LEVELS == {
            "error": logging.ERROR,
            "info": logging.INFO,
            "debug": logging.DEBUG,
        }

    def test_debug_emits_solver_lines(self, fixture_dirs, tmp_path, monkeypatch, caplog):
        import logging

        monkeypatch.setenv("MOROZOV_LOG", "debug")
        with caplog.at_level(logging.DEBUG, logger="morozov.lagrange"):
            run([
                "solve", "--problem", fixture_dirs["interior"],
                "--out", tmp_path / "r.json",
            ])
        assert any("solve_lagrange" in r.message for r in caplog.records)


class TestVerify:
    def test_verify_passes_on_solve_output(self, fixture_dirs, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert run(["solve", "--problem", fixture_dirs["interior"], "--out", out]) == 0
        report = tmp_path / "report.json"
        rc = run([
            "verify", "--problem", fixture_dirs["interior"],
            "--result", out, "--out", report,
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "discrepancy" in text and "optimality" in text
        assert json.loads(report.read_text())["passed"] is True

    @pytest.mark.parametrize("flag", [["--tau", 1000], ["--safety-factor", 5]])
    def test_verify_refuses_tolerance_flags(self, fixture_dirs, tmp_path, capsys, flag):
        # verify checks against the saved tau_eff, so a tolerance flag would
        # be ignored: it is a usage error
        out = tmp_path / "result.json"
        assert run(["solve", "--problem", fixture_dirs["interior"], "--out", out]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            run(["verify", "--problem", fixture_dirs["interior"], "--result", out, *flag])
        assert err.value.code == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag[0]} {flag[1]}\n"

    @pytest.mark.parametrize("rtol", ["nan", -1, 0, "inf"])
    def test_bad_rtol_exits_1(self, fixture_dirs, tmp_path, capsys, rtol):
        # invalid input, not a failed verification (exit 3) or, at inf, a
        # verification that passes any result
        out = tmp_path / "result.json"
        assert run(["solve", "--problem", fixture_dirs["interior"], "--out", out]) == 0
        capsys.readouterr()
        rc = run(["verify", "--problem", fixture_dirs["interior"], "--result", out, "--rtol", rtol])
        assert rc == 1
        assert capsys.readouterr().err == f"error: rtol must be positive and finite, got {float(rtol)}\n"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["verify", "--help"])
        assert err.value.code == 0
        assert "--result" in capsys.readouterr().out

    @staticmethod
    def kernel_constant_result(tmp_path, **change):
        """The window fixture, first differences as a custom penalty on a
        smooth profile over a large constant (||gbar|| = 0.81), with a
        hand-made result at lam = 1e-12 and tau_eff = 28.4: the constant f,
        in ker L, with ||A f - g|| = tau_eff, which minimizes the
        Lagrangian at no lam > 0. ``change`` overrides stored fields."""
        n = 128
        fx = tmp_path / "fx_window"
        prob = synthesize(
            make_deconvolution(n, 2.0), 5.0 + 0.1 * np.sin(6.0 * np.linspace(0.0, 1.0, n)), 0.001, seed=1,
            regularizer=custom_regularizer(linops.from_matrix(np.diff(np.eye(n), axis=0))),
        )
        save_problem(prob, fx)
        a1, g, tau = prob.op.matrix.sum(axis=1), prob.g, 28.4
        b, c = a1 @ g, g @ g - tau**2
        linops.save_vector_csv(np.full(n, (b + np.sqrt(b * b - (a1 @ a1) * c)) / (a1 @ a1)), tmp_path / "bad.f_star.csv")
        result = tmp_path / "bad.json"
        payload = {
            "lambda_star": 1e-12, "alpha": 1e12, "discrepancy": tau, "tau": tau, "tau_eff": tau,
            "method": "newton", "iterations": [], "converged": True, "f_star_path": "bad.f_star.csv",
        }
        result.write_text(json.dumps({**payload, **change}))
        return fx, result

    def test_kernel_constant_fails_optimality(self, tmp_path, capsys):
        fx, result = self.kernel_constant_result(tmp_path)
        assert run(["verify", "--problem", fx, "--result", result]) == 3
        out, err = capsys.readouterr()
        assert "pass  discrepancy" in out and "FAIL  optimality" in out
        assert err == "verification failed: optimality\n"

    @pytest.mark.parametrize("field, value", [
        ("lambda_star", 0.0), ("lambda_star", -1.0), ("lambda_star", float("nan")),
        ("lambda_star", float("inf")), ("lambda_star", 2e12),
        ("tau_eff", -28.4), ("tau_eff", 0.0), ("tau_eff", float("nan")), ("tau_eff", float("inf")),
    ])
    def test_stored_value_out_of_range_exits_1(self, tmp_path, capsys, field, value):
        # a negative tau_eff would square into epsilon, and an infinite
        # lambda_star would print value=inf threshold=inf and pass
        fx, result = self.kernel_constant_result(tmp_path, **{field: value})
        capsys.readouterr()
        assert run(["verify", "--problem", fx, "--result", result]) == 1
        err = capsys.readouterr().err
        expected = "lambda_star must lie in (0, 1e+12]" if field == "lambda_star" else "tau_eff must be positive and finite"
        assert err.startswith(f"error: {expected}, got {value}") and err.count("\n") == 1, err

    def test_verify_fails_on_corrupted_result(self, fixture_dirs, tmp_path):
        out = tmp_path / "result.json"
        assert run(["solve", "--problem", fixture_dirs["interior"], "--out", out]) == 0
        payload = json.loads(out.read_text())
        f_path = out.parent / payload["f_star_path"]
        f = linops.load_vector_csv(f_path)
        f[0] += 0.01
        linops.save_vector_csv(f, f_path)
        rc = run(["verify", "--problem", fixture_dirs["interior"], "--result", out])
        assert rc == 3
