import math

import numpy as np
import pytest

from freqconn.errors import NumericError, UsageError
from freqconn.freqdomain import (
    SpectralGrid,
    _band_runs,
    _clip_rows,
    _integrate,
    BandSpec,
    band_measures,
    band_table,
    days_to_band,
    is_partition,
    spectral_gfevd,
)
from freqconn.timedomain import dy_measures, gfevd
from freqconn.varcore import wold
from helpers import make_model, model_fleet, random_stable_var, white_noise_model
from oracles import band_mask, cell_averages, frequency_response, spectral_density

PAPER_BANDS = (days_to_band(1, 5), days_to_band(5, math.inf))
FULL_BAND = BandSpec(0.0, math.pi)


def random_partition(n_bands, seed):
    """Random partition of (0, pi] with cuts on a coarse lattice so every
    band spans at least one grid cell at n_freq >= 64."""
    rng = np.random.default_rng(seed)
    lattice = np.arange(1, 64) * math.pi / 64
    cuts = np.sort(rng.choice(lattice, size=n_bands - 1, replace=False))
    edges = [0.0, *cuts, math.pi]
    return [BandSpec(a, b) for a, b in zip(edges, edges[1:])]


class TestBandSpec:
    def test_rejects_inverted_band(self):
        with pytest.raises(UsageError):
            BandSpec(1.0, 0.5)

    def test_day_mapping_short_band(self):
        band = days_to_band(1, 5)
        assert band.lower == pytest.approx(math.pi / 5, abs=1e-15)
        assert band.upper == pytest.approx(math.pi, abs=1e-15)
        assert band.label == "1-5 days"

    def test_day_mapping_long_band(self):
        band = days_to_band(5, math.inf)
        assert band.lower == 0.0
        assert band.upper == pytest.approx(math.pi / 5, abs=1e-15)
        assert band.label == "5+ days"

    def test_day_mapping_full_band(self):
        band = days_to_band(1, math.inf)
        assert (band.lower, band.upper) == (0.0, math.pi)

    def test_sub_daily_rejected(self):
        with pytest.raises(UsageError, match=">= 1"):
            days_to_band(0.5, 5)

    def test_csv_breaking_label_rejected(self):
        with pytest.raises(UsageError, match="label"):
            BandSpec(0.0, 1.0, label="a,b")

    def test_partition_predicate(self):
        assert is_partition(PAPER_BANDS)
        assert not is_partition((days_to_band(1, 5),))
        assert not is_partition((BandSpec(0.0, 1.0), BandSpec(1.5, math.pi)))


# the quadrature oracle's own checks: closed forms guard the guard
class TestFrequencyResponse:
    def test_zero_frequency_is_long_run_sum(self):
        model = random_stable_var(2, 1, seed=51, target_radius=0.6)
        seq = wold(model, 100)
        f0 = frequency_response(seq.psi, 0.0)
        assert np.abs(f0.imag).max() == 0.0
        assert f0.real == pytest.approx(seq.psi.sum(axis=0), abs=1e-12)

    def test_white_noise_is_identity_everywhere(self):
        seq = wold(white_noise_model(np.eye(2)), 50)
        for omega in (0.1, 1.0, math.pi):
            assert frequency_response(seq.psi, omega) == pytest.approx(np.eye(2), abs=1e-15)

    def test_alternating_geometric_series_at_pi(self):
        seq = wold(make_model(0.5 * np.eye(2), np.eye(2)), 100)
        response = frequency_response(seq.psi, math.pi)
        assert np.abs(response - (2.0 / 3.0) * np.eye(2)).max() < 1e-15


class TestSpectralDensity:
    def test_white_noise_flat_identity(self):
        seq = wold(white_noise_model(np.eye(2)), 50)
        for omega in (0.2, 1.5, 3.0):
            s = spectral_density(seq.psi, np.eye(2), omega)
            assert s == pytest.approx(np.eye(2), abs=1e-14)

    def test_ar1_closed_form_spectrum(self):
        from oracles import ar1_spectrum

        model = make_model(np.array([[0.5]]), np.array([[1.0]]))
        seq = wold(model, 100)
        for omega in (0.0, 0.3, 1.0, 2.0, math.pi):
            s = spectral_density(seq.psi, model.sigma, omega)[0, 0]
            assert s.imag == pytest.approx(0.0, abs=1e-14)
            assert s.real == pytest.approx(ar1_spectrum(0.5, 1.0, omega), abs=1e-12)

    def test_hermitian(self):
        model = random_stable_var(3, 2, seed=52)
        seq = wold(model, 100)
        for omega in (0.4, 2.2):
            s = spectral_density(seq.psi, model.sigma, omega)
            assert np.abs(s - s.conj().T).max() < 1e-12
            assert (np.diag(s).real >= -1e-12).all()


class TestCellAverages:
    def test_ar1_cell_averages_match_closed_form_integral(self):
        # the AR(1) spectrum 1/(1 - 2 phi cos w + phi^2) has the antiderivative
        # 2/(1 - phi^2) atan((1 + phi)/(1 - phi) tan(w/2)) on [0, pi)
        phi, n_freq = 0.5, 16
        model = make_model(np.array([[phi]]), np.array([[1.0]]))
        numer, denom = cell_averages(model, wold(model, 100).psi[:-1], n_freq)
        edges = math.pi * np.arange(n_freq + 1) / n_freq
        half = np.tan(edges / 2)
        half[-1] = np.inf
        antider = 2 / (1 - phi**2) * np.arctan((1 + phi) / (1 - phi) * half)
        expected = np.diff(antider) / (math.pi / n_freq)
        assert np.abs(denom[:, 0] / expected - 1).max() < 1e-12
        assert np.abs(numer[:, 0, 0] / expected - 1).max() < 1e-12


class TestSpectralGfevd:
    def test_diagonal_system_has_no_cross_terms(self):
        model = make_model(np.diag([0.5, 0.3]), np.diag([1.0, 2.0]))
        seq = wold(model, 100)
        grid = spectral_gfevd(model, seq, 64)
        off = ~np.eye(2, dtype=bool)
        assert np.abs(cell_averages(model, seq.psi[:-1], 64)[0][:, off]).max() == 0.0
        for band in (FULL_BAND, *PAPER_BANDS):
            assert np.abs(band_table(grid, band)[0][off]).max() == 0.0

    def test_white_noise_constant_across_frequencies(self):
        model = white_noise_model([[1.0, 0.5], [0.5, 1.0]])
        seq = wold(model, 100)
        grid = spectral_gfevd(model, seq, 128)
        numer, denom = cell_averages(model, seq.psi[:-1], 128)
        assert np.abs(numer - numer[0]).max() < 1e-14
        assert np.abs(denom - denom[0]).max() < 1e-14
        # a cosine series with no term beyond c_0 is flat
        assert np.abs(grid.numer_lags[1:]).max() < 1e-14
        assert np.abs(grid.denom_lags[1:]).max() < 1e-14

    def test_parseval_reproduces_time_domain_gfevd(self):
        model = make_model([[0.5, 0.2], [0.1, 0.5]], np.eye(2))
        seq = wold(model, 100)
        numer, denom = cell_averages(model, seq.psi[:-1], 512)
        ratio = numer.mean(axis=0) / denom.mean(axis=0)[:, None]
        table = ratio / ratio.sum(axis=1, keepdims=True)
        expected = gfevd(model, seq, 100).theta
        assert np.abs(table - expected).max() < 1e-12
        _, std = band_table(spectral_gfevd(model, seq, 512), FULL_BAND)
        assert np.abs(std - expected).max() < 1e-12

    def test_unstable_model_rejected(self):
        model = make_model(np.eye(2), np.eye(2))
        seq = wold(make_model(0.5 * np.eye(2), np.eye(2)), 10)
        with pytest.raises(NumericError, match="unstable"):
            spectral_gfevd(model, seq, 64)

    def test_grid_size_floor(self):
        model = white_noise_model(np.eye(2))
        with pytest.raises(UsageError, match="n_freq"):
            spectral_gfevd(model, wold(model, 10), 32)


class TestBandTable:
    def test_full_band_has_unit_row_sums(self):
        model = random_stable_var(3, 2, seed=53)
        grid = spectral_gfevd(model, wold(model, 100), 256)
        _, std = band_table(grid, BandSpec(0.0, math.pi))
        assert np.abs(std.sum(axis=1) - 1.0).max() < 1e-12

    def test_complementary_bands_add_to_unconditional(self):
        model = random_stable_var(2, 2, seed=54)
        grid = spectral_gfevd(model, wold(model, 100), 512)
        _, full = band_table(grid, BandSpec(0.0, math.pi))
        for cut in (0.5, math.pi / 5, 2.0):
            _, low = band_table(grid, BandSpec(0.0, cut))
            _, high = band_table(grid, BandSpec(cut, math.pi))
            assert np.abs(low + high - full).max() < 1e-12

    def test_white_noise_band_is_share_of_unconditional(self):
        model = white_noise_model([[1.0, 0.5], [0.5, 1.0]])
        grid = spectral_gfevd(model, wold(model, 100), 512)
        band = days_to_band(1, 5)
        share = band_mask(band, 512).mean()
        _, std = band_table(grid, band)
        _, full = band_table(grid, FULL_BAND)
        assert np.abs(std - share * full).max() < 1e-12
        assert share == pytest.approx(0.8, abs=2e-3)

    def test_white_noise_exact_four_fifths_on_aligned_grid(self):
        model = white_noise_model([[1.0, 0.5], [0.5, 1.0]])
        grid = spectral_gfevd(model, wold(model, 100), 640)  # pi/5 aligns: 640/5
        _, std = band_table(grid, days_to_band(1, 5))
        _, full = band_table(grid, FULL_BAND)
        assert np.abs(std - 0.8 * full).max() < 1e-12

    def test_empty_band_suggests_larger_grid(self):
        model = white_noise_model(np.eye(2))
        grid = spectral_gfevd(model, wold(model, 10), 64)
        with pytest.raises(UsageError, match="n_freq"):
            band_table(grid, BandSpec(0.001, 0.002))


class TestBandMeasures:
    def test_diagonal_system_zero_everywhere(self):
        model = make_model(np.diag([0.5, 0.3, 0.2]), np.diag([1.0, 2.0, 0.5]))
        seq = wold(model, 100)
        grid = spectral_gfevd(model, seq, 128)
        # gamma is the band's share of each variable's own spectrum
        own = np.einsum("mii->mi", cell_averages(model, seq.psi[:-1], 128)[0])
        for band in PAPER_BANDS:
            bm = band_measures(grid, band)
            mask = band_mask(band, 128)
            spectral_share = (own[mask].sum(axis=0) / own.sum(axis=0)).mean()
            assert abs(bm.within_total) < 1e-12
            assert np.abs(bm.within_from).max() < 1e-12
            assert np.abs(bm.within_to).max() < 1e-12
            assert np.abs(bm.within_net).max() < 1e-12
            assert np.abs(bm.within_pairwise).max() < 1e-12
            assert abs(bm.absolute_total) < 1e-12
            assert bm.gamma == pytest.approx(spectral_share, abs=1e-12)

    def test_full_band_reduces_to_time_domain(self):
        model = random_stable_var(3, 2, seed=55, target_radius=0.7)
        seq = wold(model, 100)
        grid = spectral_gfevd(model, seq, 256)
        bm = band_measures(grid, BandSpec(0.0, math.pi))
        dy = dy_measures(gfevd(model, seq, 100))
        assert bm.gamma == pytest.approx(1.0, abs=1e-12)
        assert bm.within_total == pytest.approx(dy.total, abs=1e-12)
        assert bm.within_from == pytest.approx(dy.from_others, abs=1e-12)
        assert bm.within_to == pytest.approx(dy.to_others, abs=1e-12)

    def test_reconstruction_identity_paper_bands(self):
        model = make_model([[0.5, 0.2], [0.1, 0.5]], np.eye(2))
        seq = wold(model, 100)
        grid = spectral_gfevd(model, seq, 512)
        dy = dy_measures(gfevd(model, seq, 100))
        total = sum(band_measures(grid, b).absolute_total for b in PAPER_BANDS)
        assert abs(total - dy.total) < 1e-12

    def test_directional_reconstruction(self):
        model = random_stable_var(3, 2, seed=56)
        seq = wold(model, 100)
        grid = spectral_gfevd(model, seq, 512)
        dy = dy_measures(gfevd(model, seq, 100))
        from_sum = sum(band_measures(grid, b).absolute_from for b in PAPER_BANDS)
        to_sum = sum(band_measures(grid, b).absolute_to for b in PAPER_BANDS)
        assert np.abs(from_sum - dy.from_others).max() < 1e-12
        assert np.abs(to_sum - dy.to_others).max() < 1e-12

    def test_within_bounds_and_weight_partition(self):
        for i, model in enumerate(model_fleet(10, seed0=630)):
            grid = spectral_gfevd(model, wold(model, 100), 256)
            bands = random_partition(3, seed=700 + i)
            gammas = []
            for band in bands:
                bm = band_measures(grid, band)
                assert -1e-12 <= bm.within_total <= 1.0 + 1e-12
                assert -1e-12 <= bm.gamma <= 1.0 + 1e-12
                assert bm.within_from.sum() == pytest.approx(bm.within_to.sum(), abs=1e-10)
                assert bm.absolute_total == bm.within_total * bm.gamma
                assert np.array_equal(bm.within_net, bm.within_to - bm.within_from)
                gammas.append(bm.gamma)
            assert sum(gammas) == pytest.approx(1.0, abs=1e-10)

    def test_white_noise_within_table_equals_unconditional(self):
        model = white_noise_model([[1.0, 0.3], [0.3, 1.0]])
        grid = spectral_gfevd(model, wold(model, 100), 512)
        _, full = band_table(grid, FULL_BAND)
        for band in PAPER_BANDS:
            bm = band_measures(grid, band)
            assert np.abs(bm.within_table - full).max() < 1e-12

    def test_permutation_equivariance(self):
        model = random_stable_var(3, 1, seed=57)
        perm = np.array([1, 2, 0])
        pmat = np.eye(3)[perm]
        permuted = make_model([pmat @ m @ pmat.T for m in model.phi],
                              pmat @ model.sigma @ pmat.T)
        band = days_to_band(1, 5)
        bm = band_measures(spectral_gfevd(model, wold(model, 100), 256), band)
        bmp = band_measures(spectral_gfevd(permuted, wold(permuted, 100), 256), band)
        assert np.abs(bmp.within_table - pmat @ bm.within_table @ pmat.T).max() < 1e-12
        assert bmp.within_from == pytest.approx(pmat @ bm.within_from, abs=1e-12)
        assert bmp.gamma == pytest.approx(bm.gamma, abs=1e-12)

    def test_grid_refinement_stability(self):
        # paper partition at the default grid: the pi/5 boundary cell edge is
        # shared between 512 and 1024 cells, so band integrals are unchanged
        model = random_stable_var(3, 2, seed=58, target_radius=0.9)
        seq = wold(model, 100)
        coarse = spectral_gfevd(model, seq, 512)
        fine = spectral_gfevd(model, seq, 1024)
        for band in PAPER_BANDS:
            a = band_measures(coarse, band).absolute_total
            b = band_measures(fine, band).absolute_total
            assert abs(a - b) < 1e-8
        for cut_num in (128, 256, 384):  # edges aligned at both resolutions
            band_lo = BandSpec(0.0, math.pi * cut_num / 512)
            band_hi = BandSpec(math.pi * cut_num / 512, math.pi)
            for band in (band_lo, band_hi):
                a = band_measures(coarse, band).absolute_total
                b = band_measures(fine, band).absolute_total
                assert abs(a - b) < 1e-8


class TestDegenerateBand:
    def test_zero_band_mass_yields_markers(self):
        # hand-built grid whose numerator carries no variance at all
        lags, k = 11, 2
        denom = np.repeat(0.5 ** np.arange(lags)[:, None], k, axis=1)
        grid = SpectralGrid(numer_lags=np.zeros((lags, k, k)), denom_lags=denom,
                            n_freq=64, variable_names=("A", "B"))
        bm = band_measures(grid, BandSpec(math.pi / 2, math.pi))
        assert bm.gamma == 0.0
        assert math.isnan(bm.within_total)
        assert np.isnan(bm.within_table).all()
        assert bm.absolute_total == 0.0
        assert np.abs(bm.absolute_from).max() == 0.0

    def test_negative_band_integral_raises(self):
        # numerator series 1 + 1.6 cos(w) integrates to about -0.59 over
        # (pi/2, pi], far below the roundoff tolerance
        numer = np.stack([np.eye(2), 0.8 * np.eye(2)])
        denom = np.array([[1.0, 1.0], [0.0, 0.0]])
        grid = SpectralGrid(numer_lags=numer, denom_lags=denom, n_freq=64,
                            variable_names=("A", "B"))
        band_measures(grid, BandSpec(0.0, math.pi / 2))
        with pytest.raises(NumericError, match="spectral numerator has negative entry"):
            band_measures(grid, BandSpec(math.pi / 2, math.pi))


    def test_clip_scale_is_per_row(self):
        # -1e-10 is roundoff next to 1e6 but not next to 1.0: only the
        # second row of a stack fails, whatever shares its stack
        faults = ["", ""]
        clipped = _clip_rows(np.array([[1e6, -1e-10], [1.0, -1e-10]]), "spectral numerator",
                             faults)
        assert faults == ["", "spectral numerator has negative entry -1e-10 beyond roundoff "
                              "tolerance"]
        assert clipped.min() == 0.0


class TestClosedFormIntegral:
    """Closed-form band integrals against sums of the quadrature oracle's
    per-cell averages on persistent VARs."""

    FLEET = [random_stable_var(k, p, seed=800 + 10 * k + p, target_radius=radius)
             for k, p, radius in [(2, 1, 0.99), (2, 2, 0.97), (3, 1, 0.98),
                                  (3, 2, 0.99), (8, 1, 0.97), (8, 2, 0.98)]]
    PARTITIONS = {"1:5,5:inf": [(1, 5), (5, math.inf)],
                  "1:5,5:20,20:60,60:inf": [(1, 5), (5, 20), (20, 60), (60, math.inf)]}

    @staticmethod
    def rel(x, ref):
        return np.abs(x - ref).max() / np.abs(ref).max()

    # pi/5 is a cell edge at 640 cells but not at 512
    @pytest.mark.parametrize("n_freq", [512, 640])
    @pytest.mark.parametrize("partition", list(PARTITIONS))
    def test_band_integrals_match_cell_sums(self, n_freq, partition):
        bands = [days_to_band(a, b) for a, b in self.PARTITIONS[partition]]
        for model in self.FLEET:
            seq = wold(model, 100)
            grid = spectral_gfevd(model, seq, n_freq)
            numer, denom = cell_averages(model, seq.psi[:-1], n_freq)
            full_den = denom.sum(axis=0)
            full_unstd, _ = band_table(grid, FULL_BAND)
            assert self.rel(full_unstd, numer.sum(axis=0) / full_den[:, None]) < 1e-12
            sum_unstd, sum_den = 0.0, 0.0
            for band in bands:
                mask = band_mask(band, n_freq)
                unstd, _ = band_table(grid, band)
                # band_table checks the band's denominator integral, then drops it
                band_den = _integrate(grid.denom_lags[np.newaxis],
                                      *_band_runs([band], 100, n_freq)[0])[0, 0]
                assert self.rel(unstd, numer[mask].sum(axis=0) / full_den[:, None]) < 1e-12
                assert self.rel(band_den, denom[mask].sum(axis=0)) < 1e-12
                sum_unstd, sum_den = sum_unstd + unstd, sum_den + band_den
            assert self.rel(sum_unstd, full_unstd) < 1e-12
            assert self.rel(sum_den, full_den) < 1e-12

    def test_reconstruction_exact_on_persistent_fleet(self):
        # both domains sum psi_0..psi_{H-1}; a psi_H term on one side only
        # leaves a residual of order 1e-4 at radius 0.99
        for model in self.FLEET:
            seq = wold(model, 100)
            dy = dy_measures(gfevd(model, seq, 100))
            grid = spectral_gfevd(model, seq, 512)
            for partition in self.PARTITIONS.values():
                measures = [band_measures(grid, days_to_band(a, b)) for a, b in partition]
                residual = abs(sum(m.absolute_total for m in measures) - dy.total)
                from_sum = sum(m.absolute_from for m in measures)
                assert residual <= 1e-12, (model.k, residual)
                assert np.abs(from_sum - dy.from_others).max() <= 1e-12

