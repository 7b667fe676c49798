import json
import math

import numpy as np
import pytest

from morozov import linops
from morozov.dual import diagnose_regime, maximize_dual
from morozov.errors import DimensionMismatch
from morozov.lagrange import Lagrangian
from morozov.problems import (
    load_problem,
    make_deconvolution,
    make_hilbert,
    regime_fixture,
    save_problem,
    synthesize,
)

from conftest import assert_adjoint_consistent, projection_distance


def lagrangian_of(prob):
    return Lagrangian(prob.op, prob.g, prob.regularizer, prob.tau**2)


class TestMakeDeconvolution:
    def test_delta_kernel_is_identity(self):
        op = make_deconvolution(8, kernel_width=1e-9)
        np.testing.assert_array_equal(op.matrix, np.eye(8))

    def test_condition_number_blows_up(self):
        op = make_deconvolution(64, kernel_width=0.05 * 64)
        s = np.linalg.svd(op.matrix, compute_uv=False)
        assert s[0] / s[-1] > 1e6

    def test_symmetric_kernel_is_self_adjoint(self, rng):
        op = make_deconvolution(16, kernel_width=2.0)
        np.testing.assert_allclose(op.matrix, op.matrix.T, atol=1e-15)
        for _ in range(10):
            f = rng.standard_normal(16)
            np.testing.assert_allclose(
                op.apply(f), op.apply_adjoint(f), rtol=1e-12, atol=1e-14
            )

    def test_rows_sum_at_most_one(self):
        op = make_deconvolution(20, kernel_width=3.0)
        sums = op.matrix.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12)
        assert sums[0] < 0.9  # truncated boundary row
        # with a narrow kernel the whole mass fits in an interior row
        narrow = make_deconvolution(20, kernel_width=1.0).matrix.sum(axis=1)
        assert narrow[10] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n, width", [(128, 2.0), (512, 2.0), (512, 1.2)])
    def test_no_subnormal_entries(self, n, width):
        # the weight exp(-k^2 / 8) is subnormal from offset 76 on at width 2:
        # such entries are set to zero, since they slow every product with A
        mat = make_deconvolution(n, width).matrix
        assert mat[mat != 0.0].min() >= np.finfo(float).tiny

    def test_input_validation(self):
        with pytest.raises(ValueError):
            make_deconvolution(3, 1.0)
        with pytest.raises(ValueError):
            make_deconvolution(8, 0.0)
        with pytest.raises(ValueError):
            make_deconvolution(8, -1.0)


class TestMakeHilbert:
    def test_n2_formula(self):
        op = make_hilbert(2)
        np.testing.assert_allclose(
            op.matrix, [[1.0, 0.5], [0.5, 1.0 / 3.0]], rtol=1e-15
        )

    def test_n5_condition_number(self):
        # classical value, frozen from an SVD of the exact matrix
        op = make_hilbert(5)
        s = np.linalg.svd(op.matrix, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(4.766e5, rel=1e-2)

    def test_symmetry(self, rng):
        op = make_hilbert(7)
        for _ in range(10):
            f = rng.standard_normal(7)
            np.testing.assert_allclose(op.apply(f), op.apply_adjoint(f), rtol=1e-13)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            make_hilbert(1)
        with pytest.raises(ValueError):
            make_hilbert(15)


class TestSynthesize:
    def test_clean_data(self, rng):
        A = make_deconvolution(12, 1.0)
        f0 = rng.standard_normal(12)
        prob = synthesize(A, f0, noise_level=0.0, seed=3)
        np.testing.assert_array_equal(prob.g, prob.g0)
        assert prob.delta_g_norm == 0.0
        assert prob.tau == 0.0

    def test_exact_noise_norm(self, rng):
        A = make_deconvolution(16, 1.2)
        f0 = np.abs(rng.standard_normal(16)) + 0.5
        prob = synthesize(A, f0, noise_level=0.05, tau_accuracy=1.0, seed=4)
        target = 0.05 * np.linalg.norm(prob.g0)
        achieved = np.linalg.norm(prob.g - prob.g0)
        assert achieved == pytest.approx(target, rel=1e-14)
        assert prob.delta_g_norm == pytest.approx(target, rel=1e-14)
        assert prob.tau == prob.delta_g_norm

    def test_tau_accuracy_scales_estimate(self, rng):
        A = make_deconvolution(16, 1.2)
        f0 = np.abs(rng.standard_normal(16)) + 0.5
        prob = synthesize(A, f0, noise_level=0.1, tau_accuracy=1.5, seed=4)
        assert prob.tau == pytest.approx(1.5 * prob.delta_g_norm, rel=1e-15)

    def test_deterministic_under_seed(self, rng):
        A = make_hilbert(6)
        f0 = rng.standard_normal(6)
        a = synthesize(A, f0, noise_level=0.07, seed=42)
        b = synthesize(A, f0, noise_level=0.07, seed=42)
        np.testing.assert_array_equal(a.g, b.g)
        assert a.delta_g_norm == b.delta_g_norm and a.tau == b.tau

    def test_clean_data_consistency(self, rng):
        A = make_hilbert(5)
        f0 = rng.standard_normal(5)
        prob = synthesize(A, f0, noise_level=0.02, seed=1)
        rel = np.linalg.norm(prob.g0 - A.apply(f0)) / np.linalg.norm(prob.g0)
        assert rel <= 1e-12

    def test_zero_clean_data_rejected(self):
        A = make_hilbert(4)
        with pytest.raises(ValueError, match="zero"):
            synthesize(A, np.zeros(4), noise_level=0.1, seed=0)

    def test_input_validation(self, rng):
        A = make_hilbert(4)
        f0 = rng.standard_normal(4)
        with pytest.raises(ValueError):
            synthesize(A, f0, noise_level=-0.1)
        with pytest.raises(ValueError):
            synthesize(A, f0, noise_level=0.1, tau_accuracy=0.0)
        # a cast to float64 would drop the imaginary part
        with pytest.raises(ValueError, match="f0 must be real"):
            synthesize(A, f0 + 1j, noise_level=0.1)
        with pytest.raises(DimensionMismatch, match=r"f0 must have length 4, got shape \(3,\)"):
            synthesize(A, f0[:3], noise_level=0.1)


# each used to return a problem of NaN or infinite data, tau or matrix
@pytest.mark.parametrize(
    "make",
    [
        lambda f0: synthesize(make_hilbert(4), f0, math.nan),
        lambda f0: synthesize(make_hilbert(4), f0, math.inf),
        lambda f0: synthesize(make_hilbert(4), f0, 0.1, tau_accuracy=math.nan),
        lambda f0: synthesize(make_hilbert(4), f0, 0.1, tau_accuracy=math.inf),
        lambda f0: make_deconvolution(16, math.nan),
    ],
    ids=["noise_nan", "noise_inf", "tau_accuracy_nan", "tau_accuracy_inf", "width_nan"],
)
def test_generators_refuse_non_finite_input(make):
    with pytest.raises(ValueError, match="must be"):
        make(np.ones(4))


class TestRegimeFixture:
    @pytest.mark.parametrize(
        "target", ["interior", "noise_dominates", "too_optimistic"]
    )
    def test_targets_certified(self, target):
        prob = regime_fixture(target, seed=9)
        diag = diagnose_regime(lagrangian_of(prob))
        assert diag.regime == target
        assert prob.regime == target
        assert prob.op.dims.dim_f <= 32

    def test_noise_dominates_uses_double_data_norm(self):
        prob = regime_fixture("noise_dominates", seed=4)
        assert prob.tau == pytest.approx(2 * np.linalg.norm(prob.g), rel=1e-14)

    def test_too_optimistic_uses_half_distance(self):
        prob = regime_fixture("too_optimistic", seed=4)
        dist = projection_distance(prob.op, prob.g)
        assert prob.tau == pytest.approx(0.5 * dist, rel=1e-12)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            regime_fixture("sideways", seed=0)

    def test_interior_battery_with_oracle_tau(self):
        # oracle-exact tau with small noise puts every fixture interior
        for seed in range(6):
            prob = regime_fixture("interior", seed=seed)
            assert diagnose_regime(lagrangian_of(prob)).regime == "interior"

    def test_operators_pass_adjoint_gate(self):
        for target in ("interior", "too_optimistic"):
            assert_adjoint_consistent(regime_fixture(target, seed=2).op)


def test_reconstruction_beats_naive_least_squares():
    # on an ill-conditioned blur, the selected reconstruction must be
    # closer to the truth than the unregularized solve
    prob = regime_fixture("interior", seed=13)
    lag = Lagrangian(prob.op, prob.g, prob.regularizer, prob.tau**2)
    res = maximize_dual(lag)
    f_naive, *_ = np.linalg.lstsq(prob.op.matrix, prob.g, rcond=None)
    err_star = np.linalg.norm(res.f_star - prob.f0)
    err_naive = np.linalg.norm(f_naive - prob.f0)
    assert err_star <= err_naive


class TestFixtureIO:
    def test_roundtrip_exact(self, tmp_path):
        prob = regime_fixture("interior", seed=17)
        save_problem(prob, tmp_path / "fx")
        back = load_problem(tmp_path / "fx")
        np.testing.assert_array_equal(back.op.matrix, prob.op.materialize())
        np.testing.assert_array_equal(back.g, prob.g)
        np.testing.assert_array_equal(back.f0, prob.f0)
        assert back.tau == prob.tau
        assert back.noise_level == prob.noise_level
        assert back.seed == prob.seed
        assert back.regime == "interior"
        assert back.regularizer.kind == prob.regularizer.kind
        np.testing.assert_allclose(back.g0, prob.g0, rtol=1e-15)

    def test_layout_and_meta_fields(self, tmp_path):
        prob = regime_fixture("interior", seed=17)
        save_problem(prob, tmp_path / "fx")
        for name in ("A.bin", "f0.csv", "g.csv", "meta.json"):
            assert (tmp_path / "fx" / name).exists()
        meta = json.loads((tmp_path / "fx" / "meta.json").read_text())
        for key in ("tau", "noise_level", "seed", "regime"):
            assert key in meta

    def test_custom_regularizer_roundtrip(self, tmp_path, rng):
        from morozov.regularizers import custom_regularizer

        A = make_hilbert(5)
        L = linops.from_matrix(rng.standard_normal((3, 5)))
        prob = synthesize(
            A, rng.standard_normal(5), noise_level=0.05, seed=2,
            regularizer=custom_regularizer(L),
        )
        save_problem(prob, tmp_path / "fx")
        assert (tmp_path / "fx" / "L.bin").exists()
        back = load_problem(tmp_path / "fx")
        assert back.regularizer.kind == "custom"
        np.testing.assert_array_equal(
            back.regularizer.seminorm_operator.matrix, L.matrix
        )

    def test_relabelled_penalty_is_saved_as_its_map(self, tmp_path, rng):
        # a custom penalty whose instance reads kind = "identity" is saved
        # by its class, as "custom" with its L.bin, and loads back as L = 2I
        from morozov.regularizers import custom_regularizer

        n = 8
        J = custom_regularizer(linops.from_matrix(2.0 * np.eye(n)))
        J.kind = "identity"
        prob = synthesize(make_hilbert(n), rng.standard_normal(n), noise_level=0.05, seed=2, regularizer=J)
        save_problem(prob, tmp_path / "fx")
        assert (tmp_path / "fx" / "L.bin").exists()
        assert json.loads((tmp_path / "fx" / "meta.json").read_text())["regularizer"] == "custom"
        back = load_problem(tmp_path / "fx")
        assert back.regularizer.kind == "custom"
        assert back.regularizer.evaluate(np.ones(n)) == 32.0

    @staticmethod
    def saved_with_meta(directory, **change):
        """The interior fixture saved to ``directory``, its meta.json then
        updated by ``change``; a key given None is removed."""
        prob = regime_fixture("interior", seed=17)
        save_problem(prob, directory)
        path = directory / "meta.json"
        meta = {**json.loads(path.read_text()), **change}
        path.write_text(json.dumps({k: v for k, v in meta.items() if v is not None}))
        return prob

    def test_unknown_regularizer_kind_is_refused(self, tmp_path):
        self.saved_with_meta(tmp_path / "fx", regularizer="total_variation")
        with pytest.raises(ValueError, match="unknown regularizer kind 'total_variation' in meta.json"):
            load_problem(tmp_path / "fx")

    def test_missing_noise_norm_is_read_off_the_data(self, tmp_path):
        # without delta_g_norm, the noise norm is ||g - A f0|| of the files
        prob = self.saved_with_meta(tmp_path / "fx", delta_g_norm=None)
        assert "delta_g_norm" not in json.loads((tmp_path / "fx" / "meta.json").read_text())
        back = load_problem(tmp_path / "fx")
        assert back.delta_g_norm == float(np.linalg.norm(back.g - back.g0))
        assert back.delta_g_norm == pytest.approx(prob.delta_g_norm, rel=1e-12)

    def test_first_difference_roundtrip(self, tmp_path, rng):
        from morozov.regularizers import first_difference_regularizer

        A = make_hilbert(6)
        prob = synthesize(
            A, rng.standard_normal(6), noise_level=0.05, seed=2,
            regularizer=first_difference_regularizer(6),
        )
        save_problem(prob, tmp_path / "fx")
        back = load_problem(tmp_path / "fx")
        assert back.regularizer.kind == "first_difference"
        assert back.regularizer.seminorm_operator.dims.dim_g == 5
