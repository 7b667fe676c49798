import dataclasses
import json

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
from morozov.regularizers import identity_regularizer


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
            "regime", "margin_dist", "margin_norm", "dist_is_bound",
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

    def test_override_regime_exits_3_on_bracket_failure(self, fixture_dirs, tmp_path):
        rc = run([
            "solve", "--problem", fixture_dirs["too_optimistic"],
            "--override-regime", "--out", tmp_path / "r.json",
        ])
        assert rc == 3

    def test_missing_problem_exits_1(self, tmp_path):
        assert run(["solve", "--problem", tmp_path / "nope", "--out", tmp_path / "r.json"]) == 1

    def test_bad_safety_factor_exits_1(self, fixture_dirs, tmp_path):
        rc = run([
            "solve", "--problem", fixture_dirs["interior"],
            "--safety-factor", 0.5, "--out", tmp_path / "r.json",
        ])
        assert rc == 1

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

    def test_default_method_is_newton(self, fixture_dirs, tmp_path):
        out, bis = tmp_path / "newton.json", tmp_path / "bisection.json"
        assert run(["solve", "--problem", fixture_dirs["interior"], "--out", out]) == 0
        assert run([
            "solve", "--problem", fixture_dirs["interior"], "--method", "bisection", "--out", bis,
        ]) == 0
        newton, bisection = json.loads(out.read_text()), json.loads(bis.read_text())
        assert newton["method"] == "newton"
        assert newton["lambda_star"] == pytest.approx(bisection["lambda_star"], rel=1e-7)
        assert len(newton["iterations"]) <= 10 < len(bisection["iterations"])
        with pytest.raises(SystemExit) as err:
            run(["solve", "--problem", fixture_dirs["interior"], "--method", "secant",
                 "--out", tmp_path / "s.json"])
        assert err.value.code == 2


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
        assert payload["dist_is_bound"] == seen[0].dist_is_bound
        # interior, yet D' stays positive up to LAMBDA_MAX: the tolerance
        # sits at the rounding level of the distance
        assert rc == (3 if payload["regime"] == "interior" else 2)


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

    def test_bad_grid_exits_1(self, fixture_dirs, tmp_path):
        rc = run([
            "sweep", "--problem", fixture_dirs["interior"],
            "--lambda-min", 10, "--lambda-max", 1, "--points", 5,
            "--out", tmp_path / "s.csv",
        ])
        assert rc == 1


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
