"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured margin (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria are property- and oracle-based on synthetic data; estimation
defaults mirror the production protocol (VAR(2) + constant, window 500,
truncation 100, grid 512, bands 1-5 days / 5+ days).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from freqconn.cli import default_synth_model, main
from freqconn.dynamics import (
    bootstrap_bands,
    evaluate_measures,
    measure_ids,
    rolling_connectedness,
)
from freqconn.freqdomain import (
    BandSpec,
    band_measures,
    band_table,
    days_to_band,
    spectral_gfevd,
)
from freqconn.ingest import ReturnGrid, bipower_variation, synth_var_panel
from freqconn.timedomain import dy_measures, gfevd
from freqconn.varcore import fit_var, wold
from helpers import make_model, model_fleet, white_noise_model
from oracles import band_mask, direct_gfevd

DATA = Path(__file__).parent / "data"
H_TRUNC = 100
N_FREQ = 512
PAPER_BANDS = (days_to_band(1, 5), days_to_band(5, math.inf))
FULL_BAND = BandSpec(0.0, math.pi)
TOTAL = measure_ids(("V1", "V2", "V3"), ()).index("total")


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS {detail}")


def random_partition(n_bands, seed):
    rng = np.random.default_rng(seed)
    lattice = np.arange(1, 128) * math.pi / 128
    cuts = np.sort(rng.choice(lattice, size=n_bands - 1, replace=False))
    edges = [0.0, *cuts, math.pi]
    return [BandSpec(a, b) for a, b in zip(edges, edges[1:])]


@pytest.fixture(scope="module")
def fleet():
    return model_fleet(200)


def test_criterion_01_row_sum_law(fleet):
    start = time.perf_counter()
    worst = 0.0
    for model in fleet:
        table = gfevd(model, wold(model, 12), 10)
        worst = max(worst, float(np.abs(table.theta.sum(axis=1) - 1.0).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    report(1, f"row-sum law: max |row sum - 1| = {worst:.3g} over 200 models "
              f"({elapsed:.1f}s < 10s)")


def test_criterion_02_reconstruction_identity(fleet):
    partitions = [list(PAPER_BANDS)] + [random_partition(n, seed=90 + n) for n in (2, 3, 4, 5, 6)]
    start = time.perf_counter()
    worst = 0.0
    for model in fleet:
        seq = wold(model, H_TRUNC)
        total = dy_measures(gfevd(model, seq, H_TRUNC)).total
        grid = spectral_gfevd(model, seq, N_FREQ)
        for bands in partitions:
            banded = sum(band_measures(grid, band).absolute_total for band in bands)
            worst = max(worst, abs(banded - total))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 60.0
    report(2, f"reconstruction identity: max |sum_d abs_total - total| = {worst:.3g} "
              f"over 200 models x {len(partitions)} partitions ({elapsed:.1f}s < 60s)")


HAND_MODELS = [
    white_noise_model([[1.0, 0.5], [0.5, 1.0]]),
    white_noise_model([[1.0, -0.3], [-0.3, 1.0]]),
    white_noise_model([[2.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]]),
    make_model([[0.5, 0.2], [0.1, 0.5]], np.eye(2)),
    make_model([[0.5, 0.2], [0.1, 0.5]], [[1.0, 0.5], [0.5, 1.0]]),
    make_model([[0.85, 0.0], [0.0, 0.85]], [[1.0, 0.9], [0.9, 1.0]]),
    make_model([[0.0, 0.8], [0.0, 0.0]], np.eye(2)),            # one-way feed
    make_model([[0.3, -0.25], [0.25, 0.3]], np.eye(2)),          # rotational
    make_model([[-0.6, 0.1], [0.1, -0.6]], np.diag([1.0, 4.0])),  # alternating
    make_model([[0.4, 0.3], [0.0, 0.2]], [[2.0, -0.5], [-0.5, 0.5]]),
    make_model([0.4 * np.eye(2), 0.3 * np.eye(2)], np.eye(2)),   # p = 2 diagonal
    make_model([np.array([[0.3, 0.2], [0.0, 0.3]]),
                np.array([[0.2, 0.0], [0.1, 0.2]])], [[1.0, 0.4], [0.4, 1.0]]),
    make_model([np.zeros((2, 2)), np.array([[0.5, 0.2], [0.1, 0.5]])], np.eye(2)),
    make_model([[0.5, 0.1, 0.1], [0.1, 0.5, 0.1], [0.1, 0.1, 0.5]], np.eye(3)),
    make_model([[0.6, 0.2, 0.0], [0.0, 0.4, 0.2], [0.2, 0.0, 0.2]],
               [[1.0, 0.3, 0.1], [0.3, 1.0, 0.3], [0.1, 0.3, 1.0]]),
    make_model([0.3 * np.eye(3), np.full((3, 3), 0.08)], np.eye(3)),
    make_model([[0.2, 0.6], [0.05, 0.2]], [[0.5, 0.2], [0.2, 2.0]]),
    make_model([[0.75, 0.15], [-0.1, 0.55]], [[1.0, 0.6], [0.6, 1.5]]),
    default_synth_model(3),
    default_synth_model(5, p=1),
]


def test_criterion_03_oracle_equivalence():
    assert len(HAND_MODELS) == 20
    start = time.perf_counter()
    worst = 0.0
    for model in HAND_MODELS:
        seq = wold(model, H_TRUNC)
        grid = spectral_gfevd(model, seq, N_FREQ)
        _, table = band_table(grid, FULL_BAND)
        oracle = direct_gfevd(model.phi, model.sigma, H_TRUNC)
        worst = max(worst, float(np.abs(table - oracle).max()))
    elapsed = time.perf_counter() - start
    # worked example: white noise with rho = 0.5 decomposes rows as (0.8, 0.2)
    worked = HAND_MODELS[0]
    _, table = band_table(spectral_gfevd(worked, wold(worked, H_TRUNC), N_FREQ), FULL_BAND)
    assert table[0] == pytest.approx([0.8, 0.2], abs=1e-12)
    assert worst < 1e-12
    assert elapsed < 5.0
    report(3, f"oracle equivalence: max |freq-integrated - direct-summation| = {worst:.3g} "
              f"over 20 hand models; worked row (0.8, 0.2) exact ({elapsed:.1f}s < 5s)")


def test_criterion_04_zero_connectedness_law():
    models = [
        make_model(np.diag([0.5, -0.3]), np.diag([1.0, 2.0])),
        make_model([np.diag([0.4, 0.2, 0.1]), np.diag([0.2, 0.1, 0.3])],
                   np.diag([0.5, 1.0, 2.0])),
    ]
    worst = 0.0
    for model in models:
        seq = wold(model, H_TRUNC)
        dy = dy_measures(gfevd(model, seq, H_TRUNC))
        values = [dy.total, *dy.from_others, *dy.to_others, *dy.net, *dy.pairwise.ravel()]
        grid = spectral_gfevd(model, seq, N_FREQ)
        for band in PAPER_BANDS:
            bm = band_measures(grid, band)
            values += [bm.within_total, *bm.within_from, *bm.within_to, *bm.within_net,
                       *bm.within_pairwise.ravel(), bm.absolute_total,
                       *bm.absolute_from, *bm.absolute_to]
        worst = max(worst, float(np.abs(np.array(values)).max()))
    assert worst <= 1e-12
    report(4, f"zero-connectedness law: max |measure| = {worst:.3g} across "
              f"diagonal models and all band measures")


def test_criterion_05_flat_spectrum_proportionality():
    sigmas = ([[1.0, 0.5], [0.5, 1.0]],
              [[2.0, -0.4], [-0.4, 0.5]],
              [[1.0, 0.3, 0.1], [0.3, 1.0, 0.3], [0.1, 0.3, 1.0]])
    bands = list(PAPER_BANDS) + random_partition(3, seed=17)
    worst_table = worst_gamma = 0.0
    for sigma in sigmas:
        model = white_noise_model(sigma)
        grid = spectral_gfevd(model, wold(model, H_TRUNC), N_FREQ)
        _, full = band_table(grid, FULL_BAND)
        for band in bands:
            bm = band_measures(grid, band)
            share = float(band_mask(band, N_FREQ).mean())
            worst_table = max(worst_table, float(np.abs(bm.within_table - full).max()))
            worst_gamma = max(worst_gamma, abs(bm.gamma - share))
    assert worst_table < 1e-12
    assert worst_gamma < 1e-12
    report(5, f"flat-spectrum proportionality: within-table dev {worst_table:.3g}, "
              f"gamma-vs-grid-share dev {worst_gamma:.3g}")


def test_criterion_06_estimation_recovery():
    truth_model = default_synth_model(3)  # k = 3, p = 2
    truth_total = evaluate_measures(truth_model, (), H_TRUNC, N_FREQ)[TOTAL]
    start = time.perf_counter()
    panel = synth_var_panel(truth_model, 100_000, seed=606)
    fit = fit_var(panel, p=2)
    coef_err = max(float(np.abs(fit.phi[j] - truth_model.phi[j]).max()) for j in range(2))
    fitted_total = evaluate_measures(fit, (), H_TRUNC, N_FREQ)[TOTAL]
    total_err = abs(fitted_total - truth_total)
    elapsed = time.perf_counter() - start
    assert coef_err < 0.02
    assert total_err < 0.01
    assert elapsed < 30.0
    report(6, f"estimation recovery: max coefficient error {coef_err:.4f} < 0.02, "
              f"total connectedness error {total_err:.4f} < 0.01 ({elapsed:.1f}s < 30s)")


def test_criterion_07_bootstrap_coverage():
    truth_model = default_synth_model(3)
    truth_total = evaluate_measures(truth_model, (), H_TRUNC, N_FREQ)[TOTAL]
    n_trials, replications = 200, 300
    start = time.perf_counter()
    hits = 0
    for trial in range(n_trials):
        panel = synth_var_panel(truth_model, 500, seed=(7000, trial))
        fit = fit_var(panel, p=2)
        lo, hi = bootstrap_bands(fit, 500, replications=replications, significance=0.10,
                                 seed=(7001, trial))
        hits += lo[TOTAL] <= truth_total <= hi[TOTAL]
    elapsed = time.perf_counter() - start
    coverage = hits / n_trials
    assert coverage >= 0.80
    assert elapsed < 600.0
    report(7, f"bootstrap coverage: true total inside 90%-spanning band in "
              f"{hits}/{n_trials} trials ({coverage:.1%} >= 80%) ({elapsed:.0f}s < 600s)")


def test_criterion_08_bipower_correctness():
    import datetime as dt

    def day(returns):
        return ReturnGrid("X", dt.date(2001, 3, 5), np.asarray(returns, dtype=float))

    n, c = 78, 0.01
    constant = bipower_variation(day([c] * n))
    assert constant == pytest.approx((math.pi / 2) * (n - 1) * c**2, rel=1e-13)
    assert bipower_variation(day([0.0] * 38 + [5.0] + [0.0] * 39)) == 0.0

    sigma = 0.01
    rng = np.random.default_rng(808)
    sample = np.array([
        bipower_variation(day(rng.standard_normal(n) * sigma))
        for _ in range(10_000)
    ])
    target = (n - 1) * sigma**2
    rel_err = abs(sample.mean() - target) / target
    assert rel_err < 0.01
    report(8, f"bipower correctness: closed forms exact; Monte Carlo mean within "
              f"{rel_err:.2%} of (n-1) sigma^2 (< 1%)")


def test_criterion_09_paper_protocol_throughput():
    model = default_synth_model(3)  # k = 3, p = 2
    panel = synth_var_panel(model, 6499, seed=909)  # exactly 6000 windows
    start = time.perf_counter()
    result = rolling_connectedness(panel, p=2, window=500, step=1, bands=PAPER_BANDS,
                                   h_trunc=H_TRUNC, n_freq=N_FREQ)
    elapsed = time.perf_counter() - start
    assert result.n_windows == 6000
    assert len(result.gaps) == 0
    assert elapsed < 60.0
    report(9, f"paper-protocol throughput: 6000 rolling windows (k=3, p=2, two bands, "
              f"n_freq=512) in {elapsed:.1f}s < 60s")


def test_criterion_10_cli_determinism(tmp_path):
    ticks = [str(DATA / "ticks_CO.csv"), str(DATA / "ticks_HO.csv")]
    synth_out = tmp_path / "synth"
    runs = {
        "rv": ["rv", *ticks, "--symbols", "CO,HO", "--out", str(tmp_path / "rv")],
        "synth": ["synth", "--k", "2", "--periods", "260", "--seed", "22",
                  "--out", str(synth_out)],
        "fit": ["fit", str(synth_out / "panel.csv"), "--out", str(tmp_path / "fit")],
        "connect": ["connect", str(synth_out / "panel.csv"), "--out", str(tmp_path / "conn")],
        "roll": ["roll", str(synth_out / "panel.csv"), "--window", "250", "--step", "5",
                 "--boot", "100", "--seed", "9", "--ratios", "--out", str(tmp_path / "roll")],
    }

    def snapshot(out_dir):
        return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}

    for name in ("rv", "synth"):  # inputs for the later commands
        assert main(runs[name]) == 0
    first = {}
    for name, argv in runs.items():
        assert main(argv) == 0
        first[name] = snapshot(argv[argv.index("--out") + 1])
    n_files = 0
    for name, argv in runs.items():
        assert main(argv) == 0
        again = snapshot(argv[argv.index("--out") + 1])
        assert again == first[name], f"{name} outputs changed between identical runs"
        n_files += len(again)
    report(10, f"CLI determinism: {n_files} output files across 5 commands "
               f"byte-identical on re-run")
