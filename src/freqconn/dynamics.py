"""Rolling-window connectedness, parametric-bootstrap confidence bands,
event annotation, and short/long ratio series with linear trend fits.

Measure identifiers: time-domain measures are ``total``, ``from.<var>``,
``to.<var>``, ``net.<var>``, ``pairwise.<a>.<b>``; band-scoped measures
append ``@<band label>``, e.g. ``within_from.CO@1-5 days``. These keys name
the series in :class:`RollingResult` and in the long-format CSV.
:func:`measure_ids` is the one place that spells them: every measure vector
(:func:`evaluate_measures`, the bands of :func:`bootstrap_bands`) holds one
value per identifier, in that order.
"""

from __future__ import annotations

import datetime as dt
import logging
import warnings
from bisect import bisect_left
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericError, UsageError
from .freqdomain import DEFAULT_N_FREQ, BandSpec, band_measures, spectral_gfevd
from .ingest import VolatilityPanel, simulate_var
from .timedomain import dy_measures, gfevd
from .varcore import DEFAULT_TRUNCATION, VarModel, fit_var_values, wold

log = logging.getLogger(__name__)

DEFAULT_WINDOW = 500
DEFAULT_REPLICATIONS = 500
DEFAULT_SIGNIFICANCE = 0.10
ZERO_DENOM_TOL = 1e-12


@dataclass(frozen=True)
class BootstrapSpec:
    """Parametric bootstrap configuration. The default ``significance`` spans
    the 5th-95th percentiles of the replicated measures."""

    replications: int = DEFAULT_REPLICATIONS
    significance: float = DEFAULT_SIGNIFICANCE
    seed: int = 0

    def __post_init__(self):
        if self.replications < 100:
            raise UsageError("bootstrap needs at least 100 replications")
        if not 0.0 < self.significance < 1.0:
            raise UsageError("significance must lie in (0, 1)")


@dataclass(frozen=True)
class EventGrid:
    """Dated event labels to pin against rolling anchor dates."""

    events: tuple[tuple[dt.date, str], ...]

    def __post_init__(self):
        for day, label in self.events:
            if not isinstance(day, dt.date):
                raise DataError(f"event date {day!r} is not a date")
            if not label:
                raise DataError(f"event on {day} has an empty label")


@dataclass(frozen=True)
class EventMarker:
    event_date: dt.date
    label: str
    anchor_date: dt.date | None
    placed: bool


@dataclass(frozen=True)
class TrendFit:
    """OLS of a series on its window index."""

    slope: float
    intercept: float
    r_squared: float

    def __post_init__(self):
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise NumericError(f"r_squared {self.r_squared} outside [0, 1]")


@dataclass(frozen=True)
class MeasureSeries:
    """One measure across windows; bands are NaN where no bootstrap ran and
    at gap windows."""

    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("point", "lower", "upper"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RollingResult:
    window_length: int
    step: int
    anchor_dates: tuple[dt.date, ...]
    series: Mapping[str, MeasureSeries]
    bands_used: tuple[BandSpec, ...]
    bootstrap_meta: BootstrapSpec | None = None
    gaps: tuple[tuple[dt.date, str], ...] = ()
    annotations: tuple[EventMarker, ...] = ()

    def __post_init__(self):
        n = len(self.anchor_dates)
        if any(b <= a for a, b in zip(self.anchor_dates, self.anchor_dates[1:])):
            raise DataError("anchor dates must be strictly increasing")
        for key, s in self.series.items():
            if len(s.point) != n:
                raise DataError(f"series {key!r} length differs from window count")

    @property
    def n_windows(self) -> int:
        return len(self.anchor_dates)


# ---------------------------------------------------------------------------
# measure evaluation shared by rolling and bootstrap
# ---------------------------------------------------------------------------

def measure_ids(variable_names: Sequence[str], bands: Sequence[BandSpec]) -> list[str]:
    """Canonical ordering of every measure the rolling engine reports.
    Pairs run over the upper triangle row by row, as ``np.triu_indices``."""
    names = list(variable_names)
    pairs = [f"{a}.{b}" for i, a in enumerate(names) for b in names[i + 1:]]
    ids = ["total"]
    ids += [f"from.{v}" for v in names]
    ids += [f"to.{v}" for v in names]
    ids += [f"net.{v}" for v in names]
    ids += [f"pairwise.{ab}" for ab in pairs]
    for band in bands:
        suffix = "@" + band.label
        ids.append("within_total" + suffix)
        ids += [f"within_from.{v}" + suffix for v in names]
        ids += [f"within_to.{v}" + suffix for v in names]
        ids += [f"within_net.{v}" + suffix for v in names]
        ids += [f"within_pairwise.{ab}" + suffix for ab in pairs]
        ids.append("gamma" + suffix)
        ids.append("abs_total" + suffix)
        ids += [f"abs_from.{v}" + suffix for v in names]
        ids += [f"abs_to.{v}" + suffix for v in names]
    return ids


def evaluate_measures(
    model: VarModel,
    bands: Sequence[BandSpec],
    h_trunc: int,
    n_freq: int,
) -> np.ndarray:
    """Time-domain and per-band measures for one fitted model, as one float
    vector in :func:`measure_ids` order."""
    w = wold(model, h_trunc)
    dy = dy_measures(gfevd(model, w, h_trunc))
    upper = np.triu_indices(model.k, 1)
    parts = [[dy.total], dy.from_others, dy.to_others, dy.net, dy.pairwise[upper]]
    if bands:
        grid = spectral_gfevd(model, w, n_freq)
        for band in bands:
            bm = band_measures(grid, band)
            parts += [[bm.within_total], bm.within_from, bm.within_to, bm.within_net,
                      bm.within_pairwise[upper], [bm.gamma, bm.absolute_total],
                      bm.absolute_from, bm.absolute_to]
    return np.concatenate(parts)


def _fit_screen_measure(values: np.ndarray, p: int, include_intercept: bool,
                        names: Sequence[str], bands: Sequence[BandSpec], h_trunc: int,
                        n_freq: int) -> tuple[VarModel, np.ndarray]:
    """Fit, screen and measure one (T, k) rolling window or bootstrap replicate.
    Numeric failures raise NumericError led by a reason code (``fit_failed``,
    ``unstable``, ``measure_failed``); other measure errors pass through."""
    try:
        model = fit_var_values(values, p, include_intercept, names)
    except (DataError, NumericError) as exc:
        raise NumericError(f"fit_failed: {exc}") from exc
    if not model.is_stable:
        raise NumericError(f"unstable: spectral radius {model.spectral_radius:.6g}")
    try:
        return model, evaluate_measures(model, bands, h_trunc, n_freq)
    except NumericError as exc:
        raise NumericError(f"measure_failed: {exc}") from exc


# ---------------------------------------------------------------------------
# rolling estimation
# ---------------------------------------------------------------------------

def rolling_connectedness(
    panel: VolatilityPanel,
    p: int = 2,
    window: int = DEFAULT_WINDOW,
    step: int = 1,
    bands: Sequence[BandSpec] = (),
    h_trunc: int = DEFAULT_TRUNCATION,
    n_freq: int = DEFAULT_N_FREQ,
    include_intercept: bool = True,
    bootstrap: BootstrapSpec | None = None,
) -> RollingResult:
    """Re-estimate the VAR on a sliding window and evaluate every measure.

    A failing window never aborts the roll: it becomes a gap (NaN) whose
    reason starts with ``fit_failed``, ``unstable``, ``measure_failed`` or
    ``bootstrap_failed`` and is logged once as a ``window_gap`` line. With
    ``bootstrap`` set, each window also gets parametric-bootstrap quantile
    bands widened, if needed, to include the point estimate.
    """
    t_total = panel.shape[0]
    if window > t_total:
        raise DataError(f"window {window} exceeds sample length {t_total}")
    if step < 1:
        raise UsageError("step must be >= 1")
    starts = range(0, t_total - window + 1, step)
    anchors = tuple(panel.dates[s + window - 1] for s in starts)
    ids = measure_ids(panel.symbols, bands)
    points = np.full((len(anchors), len(ids)), np.nan)
    lowers = points.copy()
    uppers = points.copy()
    gaps: list[tuple[dt.date, str]] = []

    for w_idx, start in enumerate(starts):
        try:
            model, point = _fit_screen_measure(
                panel.values[start:start + window], p, include_intercept, panel.symbols,
                bands, h_trunc, n_freq)
            if bootstrap is not None:
                try:
                    lowers[w_idx], uppers[w_idx] = bootstrap_bands(
                        model, window, bands=bands, h_trunc=h_trunc, n_freq=n_freq,
                        replications=bootstrap.replications, significance=bootstrap.significance,
                        seed=(bootstrap.seed, w_idx), include_intercept=include_intercept)
                except NumericError as exc:
                    raise NumericError(f"bootstrap_failed: {exc}") from exc
        except NumericError as exc:
            gaps.append((anchors[w_idx], str(exc)))
            log.warning("window_gap anchor=%s reason=%s", anchors[w_idx], exc)
            continue
        points[w_idx] = point

    if len(gaps) == len(anchors):
        raise NumericError("no valid windows: every window is a gap")
    # Widen each band to hold its finite point estimate. A tie keeps the
    # bootstrap bound, so a +0.0/-0.0 pair keeps the bound's sign, which
    # np.minimum/np.maximum would not.
    finite = np.isfinite(points)
    lowers = np.where(finite & (points < lowers), points, lowers)
    uppers = np.where(finite & (points > uppers), points, uppers)
    series = {m: MeasureSeries(points[:, i], lowers[:, i], uppers[:, i])
              for i, m in enumerate(ids)}
    return RollingResult(
        window_length=window, step=step, anchor_dates=anchors, series=series,
        bands_used=tuple(bands), bootstrap_meta=bootstrap, gaps=tuple(gaps),
    )


# ---------------------------------------------------------------------------
# parametric bootstrap
# ---------------------------------------------------------------------------

def bootstrap_bands(
    model: VarModel,
    window: int,
    bands: Sequence[BandSpec] = (),
    h_trunc: int = DEFAULT_TRUNCATION,
    n_freq: int = DEFAULT_N_FREQ,
    replications: int = DEFAULT_REPLICATIONS,
    significance: float = DEFAULT_SIGNIFICANCE,
    seed=0,
    include_intercept: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Parametric-bootstrap quantile bands for connectedness measures.

    Simulates ``replications`` panels of length ``window`` from the fitted
    model, replicate ``rep`` from the seed ``(*seed, rep)``, re-fits and
    re-evaluates each, and returns ``(lower, upper)``: the empirical
    (significance/2, 1 - significance/2) quantiles of each measure, as
    vectors in :func:`measure_ids` order. Non-finite replicate values are
    left out of the quantiles; a measure with none finite gets NaN bounds.
    A replicate whose fit, stability screen or measure step fails is
    skipped; more than 20% skipped is an error.
    """
    BootstrapSpec(replications, significance)
    if not model.is_stable:
        raise NumericError(f"cannot bootstrap an unstable model (radius {model.spectral_radius:.6g})")

    seed_parts = seed if isinstance(seed, tuple) else tuple(np.atleast_1d(seed).tolist())
    panels = simulate_var(model, window, [(*seed_parts, rep) for rep in range(replications)])
    samples = np.full((replications, len(measure_ids(model.variable_names, bands))), np.nan)
    n_bad = 0
    for rep, values in enumerate(panels):
        try:
            _, samples[rep] = _fit_screen_measure(
                values, model.p, include_intercept, model.variable_names, bands, h_trunc, n_freq)
        except NumericError:
            n_bad += 1
    if n_bad > 0.2 * replications:
        raise NumericError(f"{n_bad}/{replications} bootstrap replicates failed; use a larger window")
    samples[~np.isfinite(samples)] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN column -> NaN bounds
        lower, upper = np.nanquantile(samples, [significance / 2.0, 1.0 - significance / 2.0],
                                      axis=0)
    return lower, upper


# ---------------------------------------------------------------------------
# ratios, trends, events
# ---------------------------------------------------------------------------

def ratio_series(
    result: RollingResult,
    numerator_id: str,
    denominator_id: str,
) -> list[tuple[dt.date, float]]:
    """Elementwise ratio of two measure series; denominators below 1e-12 in
    magnitude produce NaN gap markers."""
    for mid in (numerator_id, denominator_id):
        if mid not in result.series:
            raise UsageError(f"measure id {mid!r} not present in rolling result")
    num = result.series[numerator_id].point
    den = result.series[denominator_id].point
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(den) < ZERO_DENOM_TOL, np.nan, num / den)
    return list(zip(result.anchor_dates, (float(v) for v in ratio)))


def linear_trend(series: Sequence[tuple[dt.date, float]]) -> TrendFit:
    """OLS of the values on their 0-based series position, NaN gaps excluded.
    A constant series gets slope 0 and r_squared 0 by convention."""
    y = np.array([v for _, v in series], dtype=float)
    x = np.arange(len(y), dtype=float)
    keep = np.isfinite(y)
    if keep.sum() < 2:
        raise DataError("linear trend needs at least 2 non-gap points")
    x, y = x[keep], y[keep]
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    slope = float(xc @ yc / sxx)
    intercept = float(y.mean() - slope * x.mean())
    if syy <= 0.0:
        return TrendFit(slope=0.0, intercept=intercept, r_squared=0.0)
    r2 = min(1.0, max(0.0, slope * slope * sxx / syy))
    return TrendFit(slope=slope, intercept=intercept, r_squared=r2)


def annotate(result: RollingResult, events: EventGrid) -> RollingResult:
    """Attach each event to the nearest anchor date (ties go to the earlier
    anchor); events outside the anchor range are flagged unplaced. The
    numeric series are untouched."""
    anchors = result.anchor_dates
    markers: list[EventMarker] = []
    for day, label in events.events:
        if day < anchors[0] or day > anchors[-1]:
            markers.append(EventMarker(day, label, None, False))
            continue
        pos = bisect_left(anchors, day)
        if pos < len(anchors) and anchors[pos] == day:
            markers.append(EventMarker(day, label, day, True))
            continue
        before, after = anchors[pos - 1], anchors[pos]
        chosen = before if (day - before) <= (after - day) else after
        markers.append(EventMarker(day, label, chosen, True))
    return replace(result, annotations=tuple(markers))


def read_events_csv(path: str | Path) -> EventGrid:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip().lower() != "date,label":
        raise DataError(f"{path}: expected header 'date,label'")
    events = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        day_text, _, label = line.partition(",")
        try:
            day = dt.date.fromisoformat(day_text.strip())
        except ValueError:
            raise DataError(f"{path} line {lineno}: bad date {day_text!r}") from None
        events.append((day, label.strip()))
    return EventGrid(tuple(events))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _split_id(measure_id: str) -> tuple[str, str]:
    base, _, band = measure_id.rpartition("@")
    return (base, band) if base else (measure_id, "")


def _csv_value(x: float) -> str:
    return "" if not np.isfinite(x) else repr(float(x))


def write_rolling_csv(result: RollingResult, path: str | Path) -> None:
    """Long-format series: ``date,measure,band,value,lower,upper``."""
    lines = ["date,measure,band,value,lower,upper"]
    for mid, s in result.series.items():
        base, band = _split_id(mid)
        for i, day in enumerate(result.anchor_dates):
            lines.append(",".join((
                day.isoformat(), base, band,
                _csv_value(s.point[i]), _csv_value(s.lower[i]), _csv_value(s.upper[i]),
            )))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def rolling_meta_text(result: RollingResult) -> str:
    lines = [
        "format: freqconn-rolling-v1",
        f"window_length: {result.window_length}",
        f"step: {result.step}",
        f"n_windows: {result.n_windows}",
        "bands: " + "; ".join(b.label for b in result.bands_used),
    ]
    if result.bootstrap_meta is not None:
        bm = result.bootstrap_meta
        lines.append(
            f"bootstrap: replications={bm.replications} "
            f"significance={bm.significance!r} seed={bm.seed}"
        )
    else:
        lines.append("bootstrap: none")
    for day, reason in result.gaps:
        lines.append(f"gap: {day.isoformat()} {reason}")
    for mk in result.annotations:
        anchor = mk.anchor_date.isoformat() if mk.anchor_date else "unplaced"
        lines.append(f"event: {mk.event_date.isoformat()} -> {anchor} {mk.label}")
    return "\n".join(lines) + "\n"
