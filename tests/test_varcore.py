import numpy as np
import pytest

from freqconn.errors import DataError, NumericError
from freqconn.ingest import synth_var_panel
from freqconn.varcore import (
    _fmt_matrix,
    fit_var,
    fit_var_values,
    model_from_text,
    model_to_text,
    stability,
    wold,
)
from helpers import make_model, model_fleet, random_stable_var


class TestFitVar:
    def test_white_noise_coefficients_near_zero(self):
        model = make_model(np.zeros((2, 2)), np.eye(2))
        panel = synth_var_panel(model, 50_000, seed=21)
        fit = fit_var(panel, p=1)
        assert np.abs(fit.phi[0]).max() < 0.02
        assert np.abs(fit.sigma - np.eye(2)).max() < 0.03

    def test_recovers_generating_coefficients(self):
        phi1 = np.array([[0.5, 0.2], [0.1, 0.5]])
        panel = synth_var_panel(make_model(phi1, np.eye(2)), 100_000, seed=22)
        fit = fit_var(panel, p=1)
        assert np.abs(fit.phi[0] - phi1).max() < 0.02

    def test_consistency_improves_with_sample(self):
        phi1 = np.array([[0.5, 0.2], [0.1, 0.5]])
        model = make_model(phi1, np.eye(2))
        err = []
        for n in (2_000, 50_000):
            fit = fit_var(synth_var_panel(model, n, seed=23), p=1)
            err.append(np.abs(fit.phi[0] - phi1).max())
        assert err[1] < err[0]

    def test_insufficient_sample_rejected(self):
        panel = synth_var_panel(make_model(np.zeros((3, 3)), np.eye(3)), 7, seed=1)
        with pytest.raises(DataError, match="insufficient sample"):
            fit_var(panel, p=2)  # T - p = 5 < k*p + 1 = 7

    def test_rank_deficiency_reported(self):
        rng = np.random.default_rng(3)
        col = rng.standard_normal(200)
        values = np.column_stack([col, col])  # perfectly collinear variables
        with pytest.raises(NumericError, match="rank-deficient"):
            fit_var_values(values, p=1)

    @pytest.mark.parametrize("k, p, intercept", [(2, 1, True), (3, 2, True), (8, 2, False)])
    def test_matches_lstsq_reference(self, k, p, intercept):
        # the fit solves through one SVD per panel; numpy.linalg.lstsq is the
        # reference for the coefficients and for the rank rule
        def lstsq(values):
            n_eff = len(values) - p
            regressors = np.hstack([np.ones((n_eff, 1))] * intercept
                                   + [values[p - j:len(values) - j] for j in range(1, p + 1)])
            beta, _, rank, _ = np.linalg.lstsq(regressors, values[p:], rcond=None)
            return beta, rank == regressors.shape[1]

        values = np.random.default_rng(40 + k).standard_normal((300, k)).cumsum(axis=0) * 0.1
        beta, full_rank = lstsq(values)
        fit = fit_var_values(values, p, include_intercept=intercept)
        got = np.vstack([fit.intercept[None, :]] * intercept + [m.T for m in fit.phi])
        assert full_rank
        assert np.abs(got - beta).max() <= 1e-12 * np.abs(beta).max()
        values[:, 1] = 2.0 * values[:, 0]
        assert not lstsq(values)[1]
        with pytest.raises(NumericError, match="rank-deficient"):
            fit_var_values(values, p, include_intercept=intercept)

    def test_intercept_zero_filled_when_excluded(self):
        panel = synth_var_panel(make_model(np.zeros((2, 2)), np.eye(2)), 500, seed=2)
        fit = fit_var(panel, p=1, include_intercept=False)
        assert fit.intercept.tolist() == [0.0, 0.0]

    def test_residuals_orthogonal_to_regressors(self):
        phi1 = np.array([[0.5, 0.2], [0.1, 0.5]])
        panel = synth_var_panel(make_model(phi1, np.eye(2)), 2_000, seed=24)
        fit = fit_var(panel, p=1)
        x = panel.values
        regressors = np.column_stack([np.ones(len(x) - 1), x[:-1]])
        beta = np.vstack([fit.intercept, fit.phi[0].T])
        resid = x[1:] - regressors @ beta
        cross = regressors.T @ resid
        assert np.abs(cross).max() < 1e-8 * len(x)

    def test_sigma_uses_ml_divisor(self):
        panel = synth_var_panel(make_model(np.zeros((2, 2)), np.eye(2)), 300, seed=4)
        fit = fit_var(panel, p=1)
        x = panel.values
        regressors = np.column_stack([np.ones(len(x) - 1), x[:-1]])
        beta = np.vstack([fit.intercept, fit.phi[0].T])
        resid = x[1:] - regressors @ beta
        expected = resid.T @ resid / (len(x) - 1)  # divide by T - p, no dof correction
        assert fit.sigma == pytest.approx(expected, rel=1e-10)


class TestStability:
    def test_diagonal_half(self):
        stable, radius = stability(make_model(0.5 * np.eye(2), np.eye(2)))
        assert stable and radius == pytest.approx(0.5, abs=1e-12)

    def test_unit_root(self):
        stable, radius = stability(make_model(np.eye(2), np.eye(2)))
        assert not stable and radius == pytest.approx(1.0, abs=1e-12)

    def test_explosive(self):
        stable, radius = stability(make_model([[0.9, 0.3], [0.3, 0.9]], np.eye(2)))
        assert not stable and radius == pytest.approx(1.2, abs=1e-12)

    def test_var2_companion(self):
        model = make_model([0.5 * np.eye(2), 0.2 * np.eye(2)], np.eye(2))
        stable, radius = stability(model)
        # roots of z^2 - 0.5 z - 0.2 per diagonal scalar AR(2)
        expected = max(abs(np.roots([1.0, -0.5, -0.2])))
        assert stable and radius == pytest.approx(expected, abs=1e-12)


class TestWold:
    def test_matrix_power_case(self):
        model = make_model(0.5 * np.eye(2), np.eye(2))
        seq = wold(model, 10)
        assert np.array_equal(seq.psi[0], np.eye(2))
        assert np.array_equal(seq.psi[3], 0.125 * np.eye(2))

    def test_white_noise_vanishes(self):
        seq = wold(make_model(np.zeros((2, 2)), np.eye(2)), 5)
        assert np.abs(seq.psi[1:]).max() == 0.0

    def test_var2_second_term(self):
        phi1 = np.array([[0.4, 0.1], [0.0, 0.3]])
        phi2 = np.array([[0.1, 0.0], [0.05, 0.1]])
        seq = wold(make_model([phi1, phi2], np.eye(2)), 5)
        assert seq.psi[1] == pytest.approx(phi1, abs=1e-15)
        assert seq.psi[2] == pytest.approx(phi1 @ phi1 + phi2, abs=1e-15)

    def test_p1_equals_matrix_powers_to_machine_precision(self):
        model = random_stable_var(3, 1, seed=31, target_radius=0.8)
        seq = wold(model, 50)
        power = np.eye(3)
        for h in range(51):
            assert np.abs(seq.psi[h] - power).max() < 1e-12
            power = power @ model.phi[0]

    def test_unstable_model_rejected(self):
        with pytest.raises(NumericError, match="unstable"):
            wold(make_model(np.eye(2), np.eye(2)), 10)

    def test_tail_norm_decays_for_fleet(self):
        for model in model_fleet(24, seed0=400):
            seq = wold(model, 100)
            ratio = np.linalg.norm(seq.psi[100]) / np.linalg.norm(seq.psi[0])
            assert ratio < 1e-6

    def test_tail_warning_when_truncation_too_short(self):
        # non-normal lag matrix with transient growth: |psi_1| > |psi_0|
        model = make_model([[0.9, 2.0], [0.0, 0.9]], np.eye(2))
        with pytest.warns(RuntimeWarning, match="tail norm"):
            wold(model, 1)


class TestSerialization:
    def test_round_trip(self):
        model = random_stable_var(3, 2, seed=77)
        text = model_to_text(model)
        back = model_from_text(text)
        assert back.k == model.k and back.p == model.p
        assert back.variable_names == model.variable_names
        for a, b in zip(back.phi, model.phi):
            assert np.array_equal(a, b)
        assert np.array_equal(back.sigma, model.sigma)
        assert np.array_equal(back.intercept, model.intercept)

    def test_matrix_format_is_repr_of_each_float(self):
        # the written files of fit, connect and roll spell vectors this way
        v = np.array([0.1, -2.5e-17, 3.0])
        assert _fmt_matrix(v) == " ".join(repr(float(x)) for x in v)
        m = np.array([[1.0, 0.2], [1 / 3, -4.0]])
        assert _fmt_matrix(m) == "1.0 0.2 ; 0.3333333333333333 -4.0"

    def test_missing_field_reported(self):
        with pytest.raises(DataError, match="missing field"):
            model_from_text("k: 2\np: 1\n")
