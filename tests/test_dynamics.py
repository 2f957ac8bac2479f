import datetime as dt
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from freqconn import dynamics, freqdomain
from freqconn.cli import default_synth_model
from freqconn.dynamics import (
    BootstrapSpec,
    EventGrid,
    MeasureSeries,
    RollingResult,
    annotate,
    bootstrap_bands,
    evaluate_measures,
    linear_trend,
    measure_ids,
    ratio_series,
    read_events_csv,
    rolling_connectedness,
    write_rolling_csv,
    rolling_meta_text,
)
from freqconn.errors import DataError, NumericError, UsageError
from freqconn.freqdomain import days_to_band
from freqconn.ingest import VolatilityPanel, simulate_var, synth_var_panel
from freqconn.varcore import fit_var, fit_var_values, wold
from helpers import make_model

BANDS = (days_to_band(1, 5), days_to_band(5, math.inf))
SHORT, LONG = BANDS[0].label, BANDS[1].label
TOTAL = measure_ids(("V1", "V2"), ()).index("total")


def small_panel(n=700, seed=13):
    model = make_model([[0.5, 0.2], [0.1, 0.5]], [[1.0, 0.4], [0.4, 1.0]])
    return model, synth_var_panel(model, n, seed=seed)


class TestRollingConnectedness:
    def test_single_window_equals_full_sample(self):
        _, panel = small_panel(n=300)
        rolled = rolling_connectedness(panel, p=1, window=300, bands=BANDS,
                                       h_trunc=100, n_freq=256)
        assert rolled.n_windows == 1
        direct = dict(zip(measure_ids(panel.symbols, BANDS),
                          evaluate_measures(fit_var(panel, 1), BANDS, 100, 256)))
        for mid, series in rolled.series.items():
            assert series.point[0] == direct[mid]

    def test_window_count_arithmetic(self):
        _, panel = small_panel(n=600)
        rolled = rolling_connectedness(panel, p=1, window=500, step=10, bands=())
        assert rolled.n_windows == 11
        assert rolled.anchor_dates[0] == panel.dates[499]
        assert rolled.anchor_dates[-1] == panel.dates[599]

    def test_stationary_panel_fluctuates_around_truth(self):
        model = make_model([[0.5, 0.2], [0.1, 0.5]], [[1.0, 0.4], [0.4, 1.0]])
        truth = evaluate_measures(model, (), 100, 512)[TOTAL]
        panel = synth_var_panel(model, 5000, seed=101)
        rolled = rolling_connectedness(panel, p=1, window=500, step=500, bands=())
        vals = rolled.series["total"].point  # non-overlapping, near-independent
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - truth) < 3 * se

    def test_rank_deficient_window_becomes_gap(self):
        rng = np.random.default_rng(5)
        t_total = 700
        a = np.concatenate([np.full(500, 1.0), rng.standard_normal(200)])
        b = rng.standard_normal(t_total)
        dates = tuple(dt.date(2000, 1, 1) + dt.timedelta(days=i) for i in range(t_total))
        panel = VolatilityPanel(dates, ("A", "B"), np.column_stack([a, b]))
        rolled = rolling_connectedness(panel, p=1, window=500, step=100, bands=())
        assert len(rolled.gaps) == 1
        assert rolled.gaps[0][0] == rolled.anchor_dates[0]
        assert "fit_failed" in rolled.gaps[0][1]
        assert math.isnan(rolled.series["total"].point[0])
        assert np.isfinite(rolled.series["total"].point[1:]).all()

    def test_reconstruction_holds_window_by_window(self):
        _, panel = small_panel(n=650)
        rolled = rolling_connectedness(panel, p=1, window=500, step=50, bands=BANDS)
        total = rolled.series["total"].point
        band_sum = sum(rolled.series[f"abs_total@{b.label}"].point for b in BANDS)
        assert np.abs(band_sum - total).max() < 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("bands", [(), BANDS])
    def test_measure_vector_matches_ids(self, k, bands):
        model = make_model(0.3 * np.eye(k), np.eye(k))
        assert len(evaluate_measures(model, bands, 100, 256)) == len(
            measure_ids(model.variable_names, bands))

    def test_window_longer_than_sample_rejected(self):
        _, panel = small_panel(n=100)
        with pytest.raises(DataError, match="window"):
            rolling_connectedness(panel, p=1, window=200)


class TestBootstrapBands:
    def test_point_estimate_inside_own_band(self):
        model, panel = small_panel(n=800)
        fit = fit_var(panel, 1)
        point = evaluate_measures(fit, (), 100, 512)[TOTAL]
        lo, hi = bootstrap_bands(fit, 800, replications=500, seed=31)
        assert lo[TOTAL] < point < hi[TOTAL]

    def test_same_seed_identical(self):
        model, panel = small_panel(n=400)
        fit = fit_var(panel, 1)
        a = bootstrap_bands(fit, 400, replications=120, seed=9)
        b = bootstrap_bands(fit, 400, replications=120, seed=9)
        assert np.array_equal(a, b)

    def test_bands_monotone_in_coverage(self):
        model, panel = small_panel(n=400)
        fit = fit_var(panel, 1)
        narrow = bootstrap_bands(fit, 400, replications=150, significance=0.5, seed=11)
        wide = bootstrap_bands(fit, 400, replications=150, significance=0.1, seed=11)
        assert wide[0][TOTAL] <= narrow[0][TOTAL]
        assert narrow[1][TOTAL] <= wide[1][TOTAL]

    def test_too_many_unstable_replicates_is_error(self):
        model = make_model(-0.9999 * np.eye(2), np.eye(2))  # barely stable
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericError, match="larger window"):
                bootstrap_bands(model, 24, replications=100, seed=5)

    def test_replication_floor(self):
        model, panel = small_panel(n=400)
        with pytest.raises(UsageError, match="100 replications"):
            bootstrap_bands(fit_var(panel, 1), 400, replications=50)

    def test_rolling_bands_bracket_points(self):
        _, panel = small_panel(n=560)
        rolled = rolling_connectedness(
            panel, p=1, window=500, step=30, bands=(),
            bootstrap=BootstrapSpec(replications=120, significance=0.10, seed=3),
        )
        s = rolled.series["total"]
        assert np.isfinite(s.lower).all() and np.isfinite(s.upper).all()
        assert (s.lower <= s.point).all() and (s.point <= s.upper).all()


class TestGapPolicy:
    """Fault injection: ordinary near-unit-root panels do not trigger these
    failures, so a chosen window or replicate is made to fail."""

    ROLL = dict(p=1, window=500, step=20, bands=BANDS, n_freq=256,
                bootstrap=BootstrapSpec(replications=100, seed=3))

    def _roll_with_fault(self, monkeypatch, name, make_faulty):
        """A clean roll, then the same roll with ``dynamics.<name>`` replaced
        by ``make_faulty(real)``."""
        _, panel = small_panel(n=560)
        clean = rolling_connectedness(panel, **self.ROLL)
        monkeypatch.setattr(dynamics, name, make_faulty(getattr(dynamics, name)))
        return clean, rolling_connectedness(panel, **self.ROLL)

    @staticmethod
    def _failing_rows(fail_row):
        """A batched step whose rows with ``fail_row(row_index, panel)`` fail
        their measure step with the reason ``measure_failed: injected``."""
        def make(real):
            def faulty(panels, *args):
                res = real(panels, *args)
                bad = [fail_row(i, x) for i, x in enumerate(panels)]
                values = res.values.copy()
                values[bad] = np.nan
                reasons = ["measure_failed: injected" if b else r
                           for b, r in zip(bad, res.reasons)]
                return replace(res, values=values, reasons=reasons)
            return faulty
        return make

    @staticmethod
    def _assert_only_row_is_gap(faulted, clean, w_idx):
        assert faulted.anchor_dates == clean.anchor_dates
        others = np.arange(clean.n_windows) != w_idx
        for mid, s in clean.series.items():
            f = faulted.series[mid]
            for field in ("point", "lower", "upper"):
                assert np.array_equal(getattr(f, field)[others], getattr(s, field)[others],
                                      equal_nan=True), (mid, field)
                assert np.isnan(getattr(f, field)[w_idx]), (mid, field)

    def test_measure_failure_becomes_gap(self, monkeypatch, caplog):
        _, panel = small_panel(n=560)
        target = panel.values[20:520]  # window 1
        with caplog.at_level("WARNING", logger="freqconn.dynamics"):
            clean, faulted = self._roll_with_fault(
                monkeypatch, "_batched_step",
                self._failing_rows(lambda i, x: np.array_equal(x, target)))
        anchor = clean.anchor_dates[1]
        assert faulted.gaps == ((anchor, "measure_failed: injected"),)
        assert [r.getMessage() for r in caplog.records if "window_gap" in r.getMessage()] == [
            f"window_gap anchor={anchor} reason=measure_failed: injected"]
        self._assert_only_row_is_gap(faulted, clean, 1)

    def test_bootstrap_failure_becomes_gap(self, monkeypatch):
        def make(real):
            def faulty(*args, seed, **kwargs):
                if seed == (3, 2):
                    raise NumericError("injected")
                return real(*args, seed=seed, **kwargs)
            return faulty

        clean, faulted = self._roll_with_fault(monkeypatch, "bootstrap_bands", make)
        assert faulted.gaps == ((clean.anchor_dates[2], "bootstrap_failed: injected"),)
        self._assert_only_row_is_gap(faulted, clean, 2)

    def test_configuration_error_still_aborts(self, monkeypatch):
        _, panel = small_panel(n=560)
        with pytest.raises(DataError, match="h_trunc must be >= 1"):
            rolling_connectedness(panel, p=1, window=500, step=20, h_trunc=0)

        def broken(*args):
            raise UsageError("injected configuration error")

        monkeypatch.setattr(dynamics, "_measure_stack", broken)
        with pytest.raises(UsageError, match="injected configuration error"):
            rolling_connectedness(panel, p=1, window=500, step=20)

    def test_failed_replicates_are_skipped_and_counted(self, monkeypatch):
        _, panel = small_panel(n=400)
        fit = fit_var(panel, 1)
        real = dynamics._batched_step
        rows = []

        def spy(*args):
            res = real(*args)
            rows.extend(res.values)
            return res

        monkeypatch.setattr(dynamics, "_batched_step", spy)
        bootstrap_bands(fit, 400, replications=100, seed=9)
        assert len(rows) == 100

        def fail_calls(n_fail):
            calls = iter(range(100))
            return self._failing_rows(lambda i, x: next(calls) < n_fail)(real)

        monkeypatch.setattr(dynamics, "_batched_step", fail_calls(20))
        lo, hi = bootstrap_bands(fit, 400, replications=100, seed=9)
        want = np.quantile(np.array(rows[20:]), [0.05, 0.95], axis=0)
        assert np.array_equal(lo, want[0]) and np.array_equal(hi, want[1])

        monkeypatch.setattr(dynamics, "_batched_step", fail_calls(21))
        with pytest.raises(NumericError, match="21/100 bootstrap replicates failed"):
            bootstrap_bands(fit, 400, replications=100, seed=9)


class TestBatchedStep:
    """The batched fit-screen-measure step: a row's values and reason never
    depend on which other rows share its stack."""

    PAPER_BANDS = BANDS
    WIDE_BANDS = tuple(days_to_band(a, b) for a, b in [(1, 5), (5, 20), (20, 60), (60, math.inf)])

    @staticmethod
    def step(panels, p, bands, rows=None, h_trunc=100, n_freq=512):
        """Step results over ``panels`` in stacks of ``rows`` (all at once by default)."""
        plan = dynamics._plan(tuple(f"V{i + 1}" for i in range(panels.shape[2])), bands,
                              h_trunc, n_freq)
        rows = rows or len(panels)
        parts = [dynamics._batched_step(panels[i:i + rows], p, True, plan)
                 for i in range(0, len(panels), rows)]
        return (np.concatenate([r.values for r in parts]),
                [reason for r in parts for reason in r.reasons],
                [tail for r in parts for tail in r.tails])

    @pytest.mark.parametrize("k, bands, n_reps", [(3, PAPER_BANDS, 50), (8, WIDE_BANDS, 8)])
    def test_batched_replicate_equals_single_seed_run(self, k, bands, n_reps):
        truth = default_synth_model(k)
        panels = simulate_var(truth, 500, [(6100, k, r) for r in range(n_reps)])
        values, reasons, _ = self.step(panels, 2, bands)
        assert reasons == [""] * n_reps and np.isfinite(values).all()
        for rows in (1, 7, 50):
            assert np.array_equal(self.step(panels, 2, bands, rows)[0], values), rows
        for r in range(n_reps):
            single = evaluate_measures(fit_var_values(panels[r], 2), bands, 100, 512)
            assert np.array_equal(single, values[r]), r

    def test_bad_rows_fail_alone_with_their_reason(self):
        truth = default_synth_model(3)
        clean = simulate_var(truth, 500, [(6200, r) for r in range(9)])
        clean[8] *= 1e-10                          # full rank at its own scale, not the stack's
        mixed = clean.copy()
        mixed[2, :, 1] = 1.0                       # constant column: collinear with the intercept
        rng = np.random.default_rng(6201)
        walk = np.ones((500, 3))
        for t in range(1, 500):                    # explosive AR(1), root 1.02
            walk[t] = 1.02 * walk[t - 1] + rng.standard_normal(3)
        mixed[5] = walk
        want, _, _ = self.step(clean, 2, BANDS)
        got, reasons, _ = self.step(mixed, 2, BANDS)
        assert reasons[2].startswith("fit_failed: rank-deficient regressor matrix")
        assert reasons[5].startswith("unstable: spectral radius 1.0")
        others = [r for r in range(9) if r not in (2, 5)]
        assert all(reasons[r] == "" for r in others)
        assert np.isnan(got[[2, 5]]).all()
        assert np.array_equal(got[others], want[others])

    def test_measure_fault_fails_its_row_alone(self, monkeypatch):
        panels = simulate_var(default_synth_model(3), 500, [(6250, r) for r in range(4)])
        want, _, _ = self.step(panels, 2, BANDS)
        real = dynamics._measure_stack

        def faulty(psi, sigma, plan, faults):
            faults[1] = "injected"
            return real(psi, sigma, plan, faults)

        monkeypatch.setattr(dynamics, "_measure_stack", faulty)
        got, reasons, _ = self.step(panels, 2, BANDS)
        assert reasons == ["", "measure_failed: injected", "", ""]
        assert np.isnan(got[1]).all()
        assert np.array_equal(got[[0, 2, 3]], want[[0, 2, 3]])

    def test_short_sample_fails_every_row(self):
        panels = np.random.default_rng(6300).standard_normal((4, 6, 3))
        values, reasons, _ = self.step(panels, 2, BANDS)
        assert reasons == ["fit_failed: insufficient sample: T - p = 4 < k*p + 1 = 7"] * 4
        assert np.isnan(values).all()

    def test_tail_warning_per_offending_row(self):
        # non-normal VAR(1): psi_1 = phi keeps a norm above psi_0's at truncation 1
        truth = make_model([[0.5, 2.0], [0.0, 0.5]], np.eye(2))
        panels = simulate_var(truth, 400, [(6400, r) for r in range(3)])
        _, reasons, tails = self.step(panels, 1, (), h_trunc=1)
        assert reasons == [""] * 3
        for r in range(3):
            with pytest.warns(RuntimeWarning) as record:
                wold(fit_var_values(panels[r], 1), 1)
            assert tails[r] == str(record[0].message)
            assert tails[r].startswith("Wold tail norm")


class TestMeasurePath:
    def test_builds_no_per_cell_arrays(self, monkeypatch):
        # a band integrates in closed form as one run of cells; integrating
        # cell by cell would pass one run per cell
        integrate, runs = freqdomain._integrate, []

        def one_run(lags, weights, n_cells):
            runs.append(len(n_cells))
            return integrate(lags, weights, n_cells)

        monkeypatch.setattr(freqdomain, "_integrate", one_run)
        bands = tuple(days_to_band(a, b) for a, b in [(1, 5), (5, 20), (20, 60), (60, math.inf)])
        _, panel = small_panel(n=560)
        fit = fit_var(panel, 1)
        assert np.isfinite(evaluate_measures(fit, bands, 100, 512)).all()
        rolled = rolling_connectedness(panel, p=1, window=500, step=30, bands=bands)
        assert rolled.n_windows == 3 and not rolled.gaps
        lo, hi = bootstrap_bands(fit, 500, bands=bands, replications=100, seed=2)
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        assert runs and set(runs) == {1}, "per-cell spectral array built on the measure path"


class TestRatioSeries:
    def test_identical_series_ratio_one(self):
        _, panel = small_panel(n=520)
        rolled = rolling_connectedness(panel, p=1, window=500, step=10, bands=BANDS)
        same = ratio_series(rolled, f"within_total@{SHORT}", f"within_total@{SHORT}")
        assert all(v == 1.0 for _, v in same)

    def test_flat_spectrum_ratio_near_one(self):
        model = make_model(np.zeros((2, 2)), [[1.0, 0.5], [0.5, 1.0]])
        panel = synth_var_panel(model, 2600, seed=7)
        rolled = rolling_connectedness(panel, p=1, window=2000, step=200, bands=BANDS)
        for base in ("within_total", "within_from.V1", "within_to.V1"):
            pairs = ratio_series(rolled, f"{base}@{SHORT}", f"{base}@{LONG}")
            vals = np.array([v for _, v in pairs])
            assert np.abs(vals - 1.0).max() < 0.3

    def test_exact_proportionality_on_true_flat_model(self):
        model = make_model(np.zeros((2, 2)), [[1.0, 0.5], [0.5, 1.0]])
        truth = dict(zip(measure_ids(model.variable_names, BANDS),
                         evaluate_measures(model, BANDS, 100, 512)))
        for base in ("within_total", "within_from.V1", "within_to.V2"):
            assert truth[f"{base}@{SHORT}"] == pytest.approx(
                truth[f"{base}@{LONG}"], abs=1e-12)

    def test_missing_measure_id(self):
        _, panel = small_panel(n=510)
        rolled = rolling_connectedness(panel, p=1, window=500, step=10, bands=())
        with pytest.raises(UsageError, match="not present"):
            ratio_series(rolled, "within_total@nope", "total")

    def test_small_denominator_yields_gap(self):
        result = _toy_result({"a": [1.0, 2.0], "b": [0.5, 0.0]})
        pairs = ratio_series(result, "a", "b")
        assert pairs[0][1] == 2.0
        assert math.isnan(pairs[1][1])

    def test_zero_numerator_gives_zero_ratio(self):
        result = _toy_result({"zero": [0.0, 0.0, 0.0], "den": [0.5, 1.0, 2.0]})
        assert [v for _, v in ratio_series(result, "zero", "den")] == [0.0, 0.0, 0.0]


def _toy_result(series_values, dates=None):
    n = len(next(iter(series_values.values())))
    dates = dates or tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n))
    series = {
        key: MeasureSeries(np.asarray(vals, dtype=float), np.full(n, np.nan), np.full(n, np.nan))
        for key, vals in series_values.items()
    }
    return RollingResult(window_length=1, step=1, anchor_dates=dates, series=series,
                         bands_used=())


class TestLinearTrend:
    def test_perfect_line(self):
        fit = linear_trend([(dt.date(2020, 1, i + 1), float(v)) for i, v in enumerate((1, 2, 3))])
        assert fit.slope == pytest.approx(1.0, abs=1e-15)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_conventions(self):
        fit = linear_trend([(dt.date(2020, 1, i + 1), 5.0) for i in range(4)])
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0
        assert fit.intercept == 5.0

    def test_alternating_hand_computed(self):
        fit = linear_trend([(dt.date(2020, 1, i + 1), float(v)) for i, v in enumerate((0, 1, 0, 1))])
        assert fit.slope == pytest.approx(0.2, abs=1e-15)
        assert fit.intercept == pytest.approx(0.2, abs=1e-15)
        assert fit.r_squared == pytest.approx(0.2, abs=1e-12)

    def test_gaps_excluded_but_positions_kept(self):
        values = [0.0, math.nan, 2.0, 3.0]
        fit = linear_trend([(dt.date(2020, 1, i + 1), v) for i, v in enumerate(values)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)  # y = x on indices 0, 2, 3

    def test_all_gaps_rejected(self):
        with pytest.raises(DataError, match="non-gap"):
            linear_trend([(dt.date(2020, 1, 1), math.nan), (dt.date(2020, 1, 2), math.nan)])

    def test_trend_invariant_to_common_scaling(self):
        result = _toy_result({
            "num": [1.0, 1.1, 1.3, 1.2],
            "den": [0.9, 1.0, 1.05, 1.1],
            "num4": [4.0, 4.4, 5.2, 4.8],
            "den4": [3.6, 4.0, 4.2, 4.4],
        })
        base = linear_trend(ratio_series(result, "num", "den"))
        scaled = linear_trend(ratio_series(result, "num4", "den4"))
        assert scaled.slope == pytest.approx(base.slope, rel=1e-12)
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-12)


class TestAnnotate:
    def make_result(self):
        dates = tuple(dt.date(2020, 1, d) for d in (10, 20, 30))
        return _toy_result({"total": [0.1, 0.2, 0.3]}, dates=dates)

    def test_event_on_anchor(self):
        result = annotate(self.make_result(), EventGrid(((dt.date(2020, 1, 20), "crash"),)))
        (mk,) = result.annotations
        assert mk.anchor_date == dt.date(2020, 1, 20)

    def test_event_before_range_unplaced(self):
        result = annotate(self.make_result(), EventGrid(((dt.date(2019, 12, 1), "early"),)))
        (mk,) = result.annotations
        assert mk.anchor_date is None

    def test_equidistant_tie_goes_earlier(self):
        result = annotate(self.make_result(), EventGrid(((dt.date(2020, 1, 15), "mid"),)))
        (mk,) = result.annotations
        assert mk.anchor_date == dt.date(2020, 1, 10)

    def test_annotation_is_pure_metadata(self):
        base = self.make_result()
        result = annotate(base, EventGrid(((dt.date(2020, 1, 12), "x"),)))
        assert np.array_equal(result.series["total"].point, base.series["total"].point)
        assert result.anchor_dates == base.anchor_dates

    def test_events_csv_reader(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("date,label\n2001-09-11,Nine-Eleven\n2008-09-15,Lehman\n")
        grid = read_events_csv(path)
        assert grid.events[1] == (dt.date(2008, 9, 15), "Lehman")


class TestSerialization:
    def test_rolling_csv_layout(self, tmp_path):
        _, panel = small_panel(n=520)
        rolled = rolling_connectedness(panel, p=1, window=500, step=10, bands=BANDS)
        path = tmp_path / "rolling.csv"
        write_rolling_csv(rolled, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "date,measure,band,value,lower,upper"
        n_measures = len(rolled.series)
        assert len(lines) == 1 + n_measures * rolled.n_windows
        # band column filled for band-scoped rows, empty for time-domain rows
        time_rows = [l for l in lines[1:] if l.split(",")[1] == "total"]
        assert all(l.split(",")[2] == "" for l in time_rows)
        band_rows = [l for l in lines[1:] if l.split(",")[1] == "within_total"]
        assert {l.split(",")[2] for l in band_rows} == {SHORT, LONG}

    def test_meta_text_mentions_gaps(self):
        result = _toy_result({"total": [0.1, 0.2]})
        result = RollingResult(
            window_length=1, step=1, anchor_dates=result.anchor_dates,
            series=result.series, bands_used=(),
            gaps=((dt.date(2020, 1, 1), "unstable: spectral radius 1.01"),))
        text = rolling_meta_text(result)
        assert "gap: 2020-01-01 unstable" in text
