import numpy as np
import pytest

from freqconn.errors import DataError, NumericError
from freqconn.timedomain import ConnectednessTable, dy_measures, gfevd
from freqconn.varcore import wold
from helpers import make_model, model_fleet, random_stable_var, white_noise_model


def table_of(theta, names=None):
    theta = np.asarray(theta, dtype=float)
    names = names or tuple(f"V{i + 1}" for i in range(theta.shape[0]))
    return ConnectednessTable(theta=theta, raw=theta, horizon_tag=1, variable_names=names)


class TestGfevd:
    def test_diagonal_system_gives_identity_table(self):
        model = make_model(np.diag([0.5, 0.3]), np.diag([1.0, 2.0]))
        table = gfevd(model, wold(model, 100), 20)
        assert table.theta == pytest.approx(np.eye(2), abs=1e-14)

    def test_worked_white_noise_example(self):
        model = white_noise_model([[1.0, 0.5], [0.5, 1.0]])
        table = gfevd(model, wold(model, 10), 1)
        assert table.raw[0] == pytest.approx([1.0, 0.25], abs=1e-15)
        assert table.theta[0] == pytest.approx([0.8, 0.2], abs=1e-15)
        assert table.theta[1] == pytest.approx([0.2, 0.8], abs=1e-15)

    def test_matches_direct_summation_oracle(self):
        from oracles import direct_gfevd

        model = make_model([[0.5, 0.2], [0.1, 0.5]], np.eye(2))
        table = gfevd(model, wold(model, 100), 10)
        expected = direct_gfevd(model.phi, model.sigma, 10)
        assert np.abs(table.theta - expected).max() < 1e-12

    def test_oracle_agreement_on_random_models(self):
        from oracles import direct_gfevd

        for model in model_fleet(12, seed0=600):
            table = gfevd(model, wold(model, 100), 15)
            expected = direct_gfevd(model.phi, model.sigma, 15)
            assert np.abs(table.theta - expected).max() < 1e-12

    def test_row_sums_are_one(self):
        for model in model_fleet(12, seed0=610):
            table = gfevd(model, wold(model, 100), 30)
            assert np.abs(table.theta.sum(axis=1) - 1.0).max() < 1e-10

    def test_scale_invariance_of_standardized_table(self):
        base = random_stable_var(3, 2, seed=41)
        scaled = make_model(list(base.phi), 7.5 * base.sigma)
        t1 = gfevd(base, wold(base, 100), 20).theta
        t2 = gfevd(scaled, wold(scaled, 100), 20).theta
        assert np.abs(t1 - t2).max() < 1e-12

    def test_permutation_equivariance(self):
        model = random_stable_var(3, 1, seed=42)
        perm = np.array([2, 0, 1])
        pmat = np.eye(3)[perm]
        permuted = make_model(
            [pmat @ m @ pmat.T for m in model.phi], pmat @ model.sigma @ pmat.T)
        t = gfevd(model, wold(model, 100), 20).theta
        tp = gfevd(permuted, wold(permuted, 100), 20).theta
        assert np.abs(tp - pmat @ t @ pmat.T).max() < 1e-12

    def test_monotone_horizon(self):
        model = random_stable_var(2, 2, seed=43)
        seq = wold(model, 100)
        prev_num = prev_den = None
        for horizon in (1, 5, 20, 60):
            table = gfevd(model, seq, horizon)
            b = seq.psi[:horizon] @ model.sigma
            num = (b**2).sum(axis=0)
            den = np.einsum("hij,hij->i", b, seq.psi[:horizon])
            if prev_num is not None:
                assert (num >= prev_num - 1e-15).all()
                assert (den >= prev_den - 1e-15).all()
            prev_num, prev_den = num, den
            assert table.horizon_tag == horizon

    def test_horizon_bounds_enforced(self):
        model = white_noise_model(np.eye(2))
        seq = wold(model, 10)
        with pytest.raises(DataError):
            gfevd(model, seq, 0)
        with pytest.raises(DataError):
            gfevd(model, seq, 12)


class TestDyMeasures:
    def test_identity_table_is_unconnected(self):
        dy = dy_measures(table_of(np.eye(3)))
        assert dy.total == 0.0
        assert np.abs(dy.from_others).max() == 0.0
        assert np.abs(dy.to_others).max() == 0.0
        assert np.abs(dy.pairwise).max() == 0.0

    def test_worked_two_by_two(self):
        dy = dy_measures(table_of([[0.8, 0.2], [0.3, 0.7]]))
        assert dy.total == pytest.approx(0.25, abs=1e-15)
        assert dy.from_others == pytest.approx([0.2, 0.3], abs=1e-15)
        assert dy.to_others == pytest.approx([0.3, 0.2], abs=1e-15)
        assert dy.net == pytest.approx([0.1, -0.1], abs=1e-15)
        assert dy.pairwise[0, 1] == pytest.approx(0.1, abs=1e-15)

    def test_uniform_table_closed_form(self):
        for k in (2, 3, 5):
            dy = dy_measures(table_of(np.full((k, k), 1.0 / k)))
            assert dy.total == pytest.approx((k - 1) / k, abs=1e-12)

    def test_net_and_flow_identities(self):
        for model in model_fleet(12, seed0=620):
            dy = dy_measures(gfevd(model, wold(model, 100), 25))
            assert np.array_equal(dy.net, dy.to_others - dy.from_others)
            assert dy.from_others.sum() == pytest.approx(dy.to_others.sum(), abs=1e-10)
            assert np.abs(dy.pairwise + dy.pairwise.T).max() < 1e-12
            assert 0.0 <= dy.total <= 1.0


class TestTableValidation:
    def test_bad_row_sum_rejected(self):
        with pytest.raises(NumericError, match="sum to 1"):
            table_of([[0.9, 0.2], [0.2, 0.8]])

    def test_csv_layout(self):
        text = table_of([[0.8, 0.2], [0.3, 0.7]], names=("CO", "HO")).to_csv_text()
        lines = text.splitlines()
        assert lines[0] == ",CO,HO"
        assert lines[1].startswith("CO,0.8,")
