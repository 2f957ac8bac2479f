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
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericError, UsageError
from .freqdomain import (DEFAULT_N_FREQ, BandSpec, _band_runs, _band_stack, _band_tables,
                         _spectral_lags)
from .ingest import VolatilityPanel, _decode, simulate_var
from .timedomain import _antisymmetry_faults, _dy_stack, _gfevd_stack, _table_faults
from .varcore import (DEFAULT_TRUNCATION, VarModel, _fit_stack, _flag, _raise_fault,
                      _spectral_radius, _stable, _tail_warnings, _wold_stack, wold)
# Unused here; perfbench's tracer self-test reads ``dynamics.fit_var_values``.
from .varcore import fit_var_values  # noqa: F401

log = logging.getLogger(__name__)

DEFAULT_WINDOW = 500
DEFAULT_REPLICATIONS = 500
DEFAULT_SIGNIFICANCE = 0.10
ZERO_DENOM_TOL = 1e-12
# Working-array budget of one batched step; sets how many windows or
# replicates share a stack (about 38 at k = 3 and 7 at k = 8 on the paper
# protocol's window, horizon and grid).
_STEP_BYTES = 8 << 20


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
    anchor_date: dt.date | None  # None: outside the anchor range


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


@dataclass(frozen=True)
class _Plan:
    """What a measure step needs that does not depend on the data: the
    measure ids, the upper-triangle index pair and each band's integration
    weights. Built once per public call (:func:`_plan`)."""

    ids: tuple[str, ...]
    upper: tuple[np.ndarray, np.ndarray]
    runs: tuple[tuple[np.ndarray, np.ndarray], ...]
    h_trunc: int
    n_freq: int


def _plan(names: Sequence[str], bands: Sequence[BandSpec], h_trunc: int,
          n_freq: int) -> _Plan:
    runs = _band_runs(bands, h_trunc, n_freq) if bands else ()
    return _Plan(tuple(measure_ids(names, bands)), np.triu_indices(len(names), 1), runs,
                 h_trunc, n_freq)


def _measure_stack(psi: np.ndarray, sigma: np.ndarray, plan: _Plan,
                   faults: list[str]) -> np.ndarray:
    """Measure vectors (N, n_measures), in :func:`measure_ids` order, of N
    models given as MA terms ``psi`` (N, > h_trunc, k, k) and covariances
    ``sigma`` (N, k, k). A row that fails a check gets a fault and NaNs."""
    psi = psi[:, :plan.h_trunc]
    b, _, theta = _gfevd_stack(psi, sigma, faults)
    _table_faults(theta, faults)
    total, from_others, to_others, net, pairwise = _dy_stack(theta)
    _antisymmetry_faults(pairwise, faults)
    upper = (slice(None), *plan.upper)
    parts = [total[:, None], from_others, to_others, net, pairwise[upper]]
    if plan.runs:
        lags = _spectral_lags(b, psi, np.diagonal(sigma, axis1=1, axis2=2))
        for run in plan.runs:
            bm = _band_stack(_band_tables(*lags, plan.n_freq, run, faults)[1])
            parts += [bm["within_total"][:, None], bm["within_from"], bm["within_to"],
                      bm["within_net"], bm["within_pairwise"][upper], bm["gamma"][:, None],
                      bm["absolute_total"][:, None], bm["absolute_from"], bm["absolute_to"]]
    values = np.concatenate(parts, axis=1)
    values[[bool(f) for f in faults]] = np.nan
    return values


def evaluate_measures(
    model: VarModel,
    bands: Sequence[BandSpec],
    h_trunc: int,
    n_freq: int,
) -> np.ndarray:
    """Time-domain and per-band measures for one fitted model, as one float
    vector in :func:`measure_ids` order."""
    plan = _plan(model.variable_names, bands, h_trunc, n_freq)
    w = wold(model, h_trunc)
    faults = [""]
    values = _measure_stack(w.psi[np.newaxis], model.sigma[np.newaxis], plan, faults)
    _raise_fault(faults)
    return values[0]


@dataclass(frozen=True)
class _StepResult:
    values: np.ndarray          # (N, n_measures), NaN on failed rows
    reasons: list[str]          # "" or "<reason code>: <detail>" per row
    tails: list[str]            # Wold tail warning text per row, or ""
    fit: tuple[np.ndarray, ...] | None   # intercept, phi, sigma stacks


def _batched_step(panels: np.ndarray, p: int, include_intercept: bool,
                  plan: _Plan) -> _StepResult:
    """Fit, screen and measure a stack of N (T, k) rolling windows or
    bootstrap replicates. A failing row does not raise: it gets NaNs and a
    reason led by ``fit_failed``, ``unstable`` or ``measure_failed``. A
    configuration error (``DataError``/``UsageError`` past the fit) raises.
    Each row's values are those of its own N = 1 step, bit for bit."""
    n = len(panels)
    values = np.full((n, len(plan.ids)), np.nan)
    reasons, tails = [""] * n, [""] * n
    try:
        fit = _fit_stack(panels, p, include_intercept, reasons)
    except DataError as exc:
        return _StepResult(values, [f"fit_failed: {exc}"] * n, tails, None)
    reasons = [f"fit_failed: {r}" if r else "" for r in reasons]
    phi, sigma = fit[1], fit[2]
    fitted = np.array([not r for r in reasons])
    radius = np.full(n, np.nan)
    radius[fitted] = _spectral_radius(phi[fitted])
    _flag(reasons, fitted & ~_stable(radius),
          lambda i: f"unstable: spectral radius {radius[i]:.6g}")
    live = np.flatnonzero([not r for r in reasons])
    if live.size:
        psi = _wold_stack(phi[live], plan.h_trunc)
        faults = [""] * live.size
        values[live] = _measure_stack(psi, sigma[live], plan, faults)
        for i, tail, fault in zip(live, _tail_warnings(psi), faults):
            tails[i] = tail
            reasons[i] = fault and f"measure_failed: {fault}"
    return _StepResult(values, reasons, tails, fit)


def _chunk_rows(k: int, p: int, t_total: int, plan: _Plan) -> int:
    """Rows per batched step that keep its main working arrays (fit, MA
    terms, FFT lags) within ``_STEP_BYTES``."""
    m = k * p + 1
    nfft = 1 << (2 * plan.h_trunc - 1).bit_length()
    per_row = (t_total * (2 * m + 2 * k) + 4 * (plan.h_trunc + 1) * k * k
               + (6 * nfft * k * k if plan.runs else 0))
    return max(1, _STEP_BYTES // (8 * per_row))


def _warn(text: str) -> None:
    """Emit a row's Wold tail warning. Every row warns from this one line,
    so the warnings filter's once-per-location rule treats all alike."""
    if text:
        warnings.warn(text, RuntimeWarning)


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
    windows = np.lib.stride_tricks.sliding_window_view(
        panel.values, window, axis=0)[::step].transpose(0, 2, 1)   # (n_windows, window, k)
    anchors = tuple(panel.dates[window - 1::step])
    plan = _plan(panel.symbols, bands, h_trunc, n_freq)
    points = np.full((len(anchors), len(plan.ids)), np.nan)
    lowers = points.copy()
    uppers = points.copy()
    gaps: list[tuple[dt.date, str]] = []

    rows = _chunk_rows(panel.shape[1], p, window, plan)
    for first in range(0, len(anchors), rows):
        res = _batched_step(windows[first:first + rows], p, include_intercept, plan)
        for i, reason in enumerate(res.reasons):
            w_idx = first + i
            _warn(res.tails[i])
            if not reason and bootstrap is not None:
                intercept, phi, sigma = (a[i] for a in res.fit)
                model = VarModel(k=panel.shape[1], p=p, intercept=intercept, phi=tuple(phi),
                                 sigma=sigma, n_obs=window - p, variable_names=panel.symbols)
                try:
                    lowers[w_idx], uppers[w_idx] = bootstrap_bands(
                        model, window, bands=bands, h_trunc=h_trunc, n_freq=n_freq,
                        replications=bootstrap.replications, significance=bootstrap.significance,
                        seed=(bootstrap.seed, w_idx), include_intercept=include_intercept)
                except NumericError as exc:
                    reason = f"bootstrap_failed: {exc}"
            if reason:
                gaps.append((anchors[w_idx], reason))
                log.warning("window_gap anchor=%s reason=%s", anchors[w_idx], reason)
            else:
                points[w_idx] = res.values[i]

    if len(gaps) == len(anchors):
        raise NumericError("no valid windows: every window is a gap")
    # Widen each band to hold its finite point estimate. A tie keeps the
    # bootstrap bound, so a +0.0/-0.0 pair keeps the bound's sign, which
    # np.minimum/np.maximum would not.
    finite = np.isfinite(points)
    lowers = np.where(finite & (points < lowers), points, lowers)
    uppers = np.where(finite & (points > uppers), points, uppers)
    series = {m: MeasureSeries(points[:, i], lowers[:, i], uppers[:, i])
              for i, m in enumerate(plan.ids)}
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
    plan = _plan(model.variable_names, bands, h_trunc, n_freq)
    panels = simulate_var(model, window, [(*seed_parts, rep) for rep in range(replications)])
    samples = np.empty((replications, len(plan.ids)))
    n_bad = 0
    rows = _chunk_rows(model.k, model.p, window, plan)
    for first in range(0, replications, rows):
        res = _batched_step(panels[first:first + rows], model.p, include_intercept, plan)
        for text in res.tails:
            _warn(text)
        samples[first:first + rows] = res.values
        n_bad += sum(map(bool, res.reasons))
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
            markers.append(EventMarker(day, label, None))
            continue
        pos = bisect_left(anchors, day)
        if pos < len(anchors) and anchors[pos] == day:
            markers.append(EventMarker(day, label, day))
            continue
        before, after = anchors[pos - 1], anchors[pos]
        chosen = before if (day - before) <= (after - day) else after
        markers.append(EventMarker(day, label, chosen))
    return replace(result, annotations=tuple(markers))


def read_events_csv(path: str | Path) -> EventGrid:
    lines = _decode(Path(path).read_bytes(), path).splitlines()
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


def _csv_cells(values: np.ndarray) -> list[str]:
    return ["" if not math.isfinite(x) else repr(x) for x in values.tolist()]


def write_rolling_csv(result: RollingResult, path: str | Path) -> None:
    """Long-format series: ``date,measure,band,value,lower,upper``."""
    days = [day.isoformat() + "," for day in result.anchor_dates]
    lines = ["date,measure,band,value,lower,upper"]
    for mid, s in result.series.items():
        base, band = _split_id(mid)
        prefix = f"{base},{band},"
        lines += [day + prefix + ",".join(cells) for day, *cells in
                  zip(days, _csv_cells(s.point), _csv_cells(s.lower), _csv_cells(s.upper))]
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
