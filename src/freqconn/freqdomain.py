"""Frequency-band decomposition of the generalized variance decomposition and
of every connectedness measure built on it.

The spectral grid divides (0, pi] into ``n_freq`` equal cells and holds the
decomposition as lag autocorrelations of the MA coefficient sequence. The
cell average of their cosine series telescopes, so a band, a run of cells,
integrates in closed form without visiting its cells. Cell averages rather
than point evaluations make the discrete Parseval identity exact: the
full-grid mean reproduces the time-domain sums to machine precision, so
band measures over any partition of (0, pi] reconstruct the unconditional
measures exactly instead of to O(1/n_freq). Both domains use one horizon:
at truncation H they sum the MA terms psi_0..psi_{H-1}, as
``timedomain.gfevd(model, wold_seq, H)`` does.

Standardization is global: band tables are normalized by the full-band row
sums, which is what makes within-band tables additive across a partition
and the reconstruction identity hold.

Day/frequency convention: a movement with period D days lives at frequency
``pi / D`` radians, so "up to five days" is the band (pi/5, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .timedomain import _dy_stack
from .varcore import VarModel, WoldSequence, _flag, _fmt_matrix, _raise_fault, stability

DEFAULT_N_FREQ = 512
MIN_N_FREQ = 64
NEGATIVE_CLIP_TOL = 1e-14  # relative to the scale of each integral


@dataclass(frozen=True)
class BandSpec:
    """Half-open frequency band (lower, upper] in radians, 0 <= lower < upper <= pi."""

    lower: float
    upper: float
    label: str = ""

    def __post_init__(self):
        if not (0.0 <= self.lower < self.upper <= math.pi + 1e-12):
            raise UsageError(
                f"band must satisfy 0 <= lower < upper <= pi, got ({self.lower}, {self.upper})"
            )
        object.__setattr__(self, "upper", min(self.upper, math.pi))
        if not self.label:
            object.__setattr__(self, "label", f"{self.lower:.6g}-{self.upper:.6g} rad")
        if any(c in self.label for c in ",\n\r"):  # labels become CSV cells
            raise UsageError(f"band label {self.label!r} may not contain commas or newlines")


def days_to_band(short_days: float, long_days: float) -> BandSpec:
    """Map a period range in days to a frequency band.

    A period of D days corresponds to ``pi / D`` radians; ``long_days`` may
    be infinite, mapping the lower edge to 0. The band is
    ``(pi/long_days, pi/short_days]``.
    """
    if short_days < 1:
        raise UsageError("short_days must be >= 1 (one day is the shortest resolvable period)")
    if not short_days < long_days:
        raise UsageError(f"need short_days < long_days, got {short_days} >= {long_days}")
    lower = 0.0 if math.isinf(long_days) else math.pi / long_days
    upper = math.pi / short_days
    if math.isinf(long_days):
        label = f"{short_days:g}+ days"
    else:
        label = f"{short_days:g}-{long_days:g} days"
    return BandSpec(lower=lower, upper=upper, label=label)


def is_partition(bands: tuple[BandSpec, ...] | list[BandSpec]) -> bool:
    """True when the bands tile (0, pi] with disjoint half-open intervals."""
    if not bands:
        return False
    tol = 1e-12  # on each edge
    ordered = sorted(bands, key=lambda b: b.lower)
    if abs(ordered[0].lower) > tol or abs(ordered[-1].upper - math.pi) > tol:
        return False
    return all(abs(a.upper - b.lower) <= tol for a, b in zip(ordered, ordered[1:]))


@dataclass(frozen=True)
class SpectralGrid:
    """Spectral decomposition on ``n_freq`` equal cells of (0, pi].

    ``numer_lags[g]`` and ``denom_lags[g]`` are the coefficients ``c_g`` of
    the cosine series ``c_0 + sum_g 2 c_g cos(g w)`` of ``sigma_jj**-1
    |(Psi(e^{-iw}) Sigma)_{ij}|^2`` and of the spectral-density diagonal.
    :func:`band_table` sums their cell averages over a band in closed form.
    """

    numer_lags: np.ndarray    # (H, k, k), already divided by sigma_jj
    denom_lags: np.ndarray    # (H, k)
    n_freq: int
    variable_names: tuple[str, ...]

    def __post_init__(self):
        for name in ("numer_lags", "denom_lags"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _check_n_freq(n_freq: int) -> None:
    if n_freq < MIN_N_FREQ:
        raise UsageError(f"n_freq must be >= {MIN_N_FREQ}, got {n_freq}")


def _band_runs(bands, h_trunc: int, n_freq: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``_run_weights`` of each band on the grid that ``spectral_gfevd`` builds
    from an MA sequence truncated at ``h_trunc`` on ``n_freq`` cells."""
    _check_n_freq(n_freq)
    return tuple(_run_weights(*_band_edges(band, n_freq), h_trunc, n_freq) for band in bands)


def _band_edges(band: BandSpec, n_freq: int) -> tuple[int, int]:
    """Grid edges (lo, hi) of the band's run of cells: cell m, with right edge
    pi*(m+1)/n_freq, belongs to the band when that edge lies in (lower, upper]."""
    right = np.pi * (np.arange(1, n_freq + 1) / n_freq)
    cells = np.flatnonzero((right > band.lower) & (right <= band.upper))
    if cells.size == 0:
        raise UsageError(f"band {band.label} contains no grid points; increase n_freq "
                         f"(currently {n_freq})")
    return int(cells[0]), int(cells[-1]) + 1


def _run_weights(lo, hi, n_lags: int, n_freq: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form weights of runs of cells (lo, hi] in grid edges (edge m at
    pi*m/n_freq): a run sums ``n_cells c_0 + sum_g 2 (sin g b - sin g a) /
    (g width) c_g``. Returns weights (R, n_lags - 1) and cell counts (R,)."""
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    g = np.arange(1, n_lags, dtype=float)
    sin_b, sin_a = (np.sin(np.multiply.outer(np.pi * e / n_freq, g)) for e in (hi, lo))
    return 2.0 * (sin_b - sin_a) / (g * (np.pi / n_freq)), hi - lo


def _integrate(lags: np.ndarray, weights: np.ndarray, n_cells: np.ndarray) -> np.ndarray:
    """Sums over R runs of cells of N cosine series with coefficients
    ``lags`` (N, H, ...): returns (N, R, ...)."""
    n, h = lags.shape[:2]
    flat = lags.reshape(n, h, -1)
    out = n_cells[:, np.newaxis] * flat[:, np.newaxis, 0] + weights @ flat[:, 1:]
    return out.reshape(n, len(n_cells), *lags.shape[2:])


def _clip_rows(arr: np.ndarray, what: str, faults: list[str]) -> np.ndarray:
    """Flag each row of ``arr`` (axis 0) holding an entry below
    ``-NEGATIVE_CLIP_TOL`` times the row's scale ``max(1, max |entry|)``;
    clip the rest of the negatives, which are roundoff, to zero."""
    rows = arr.reshape(len(arr), -1)
    low = rows.min(axis=1)
    scale = np.maximum(1.0, np.abs(rows).max(axis=1))
    _flag(faults, low < -NEGATIVE_CLIP_TOL * scale,
          lambda i: f"{what} has negative entry {low[i]:.3g} beyond roundoff tolerance")
    return np.maximum(arr, 0.0)


@dataclass(frozen=True)
class BandMeasures:
    """Within and absolute connectedness measures on one frequency band."""

    band: BandSpec
    within_table: np.ndarray      # band table rescaled by 1/gamma (unit total mass k)
    within_total: float
    within_from: np.ndarray
    within_to: np.ndarray
    within_net: np.ndarray
    within_pairwise: np.ndarray
    gamma: float                  # band's share of total variance, in [0, 1]
    absolute_total: float
    absolute_from: np.ndarray
    absolute_to: np.ndarray
    variable_names: tuple[str, ...]

    def __post_init__(self):
        for name in ("within_table", "within_from", "within_to", "within_net",
                     "within_pairwise", "absolute_from", "absolute_to"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# spectral decomposition grid
# ---------------------------------------------------------------------------

def _autocorr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c[g] = sum_h x[h] * y[h + g] along axis 1, for g = 0..H-1, via FFT."""
    n = x.shape[1]
    nfft = 1 << (2 * n - 1).bit_length()
    fx = np.fft.rfft(x, n=nfft, axis=1)
    fy = fx if y is x else np.fft.rfft(y, n=nfft, axis=1)
    return np.fft.irfft(fx.conj() * fy, n=nfft, axis=1)[:, :n]


def _spectral_lags(b: np.ndarray, psi: np.ndarray,
                   diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag coefficients of N models from ``B_h = psi_h Sigma`` (N, H, k, k),
    ``psi`` (N, H, k, k) and ``diag(Sigma)`` (N, k): numerator (N, H, k, k)
    divided by sigma_jj, and denominator (N, H, k)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        numer_lags = _autocorr(b, b) / diag[:, np.newaxis, np.newaxis, :]
    return numer_lags, _autocorr(b, psi).sum(axis=3)


def spectral_gfevd(
    model: VarModel,
    wold_seq: WoldSequence,
    n_freq: int = DEFAULT_N_FREQ,
) -> SpectralGrid:
    """Decompose the generalized FEVD across a uniform frequency grid on (0, pi].

    With ``B_h = psi_h Sigma``, the numerator ``sigma_jj**-1 |sum_h B_{h,ij}
    e^{-ihw}|^2`` and the denominator ``(Psi Sigma Psi*)_{ii}`` are cosine
    series whose coefficients are lag autocorrelations of ``B`` with ``B``
    and with ``psi``, computed by FFT. The sums run over psi_0..psi_{H-1},
    the horizon of ``gfevd(model, wold_seq, H)``, so averaging the whole grid
    recovers the H-truncated time-domain sums exactly.
    """
    _check_n_freq(n_freq)
    stable, radius = stability(model)
    if not stable:
        raise NumericError(f"unstable VAR (spectral radius {radius:.6g}) has no spectral decomposition")
    psi = wold_seq.psi[np.newaxis, :wold_seq.truncation]
    diag = np.diag(model.sigma)
    if (diag <= 0).any():
        raise NumericError("innovation covariance has a non-positive diagonal entry")
    numer_lags, denom_lags = _spectral_lags(psi @ model.sigma, psi, diag[np.newaxis])
    return SpectralGrid(numer_lags=numer_lags[0], denom_lags=denom_lags[0], n_freq=n_freq,
                        variable_names=model.variable_names)


# ---------------------------------------------------------------------------
# band aggregation
# ---------------------------------------------------------------------------

def band_table(grid: SpectralGrid, band: BandSpec) -> tuple[np.ndarray, np.ndarray]:
    """Within-band decomposition table, unstandardized and standardized.

    The unstandardized table integrates the band numerator against the
    full-band forecast-error variance; standardization divides row i by the
    i-th row sum of the full-band unstandardized table, so band tables are
    additive across a partition and the full band has unit row sums. A row
    with no full-band mass standardizes to zeros. The full band sums to
    ``n_freq`` times the lag-0 coefficients, read without integrating.
    """
    faults = [""]
    unstd, std = _band_tables(grid.numer_lags[np.newaxis], grid.denom_lags[np.newaxis],
                              grid.n_freq,
                              _run_weights(*_band_edges(band, grid.n_freq),
                                           grid.numer_lags.shape[0], grid.n_freq), faults)
    _raise_fault(faults)
    return unstd[0], std[0]


def _band_tables(numer_lags: np.ndarray, denom_lags: np.ndarray, n_freq: int,
                 run: tuple[np.ndarray, np.ndarray],
                 faults: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`band_table` for N grids' lags (N, H, k, k) and (N, H, k) on one
    band, given as its ``_run_weights``: unstandardized and standardized
    tables (N, k, k)."""
    band_num = _clip_rows(_integrate(numer_lags, *run)[:, 0], "spectral numerator", faults)
    _clip_rows(_integrate(denom_lags, *run)[:, 0], "spectral denominator", faults)
    numer_full = _clip_rows(n_freq * numer_lags[:, 0], "spectral numerator", faults)
    denom_full = n_freq * denom_lags[:, 0]
    _flag(faults, (denom_full <= 0).any(axis=1), "zero full-band forecast-error variance")
    with np.errstate(divide="ignore", invalid="ignore"):
        unstd = band_num / denom_full[:, :, np.newaxis]
        row_full = (numer_full.sum(axis=2) / denom_full)[:, :, np.newaxis]
    std = np.divide(unstd, row_full, out=np.zeros_like(unstd), where=row_full != 0)
    return unstd, std


def band_measures(grid: SpectralGrid, band: BandSpec) -> BandMeasures:
    """All connectedness measures on one band.

    ``gamma``, the band's share of total variance, is the mean entry of the
    globally standardized band table times k. The within table rescales
    that band table by 1/gamma, so it is a connectedness table in its own
    right (for the full band it has unit row sums, and for a
    frequency-flat model every band reproduces the unconditional table);
    within measures read off it ignore how much variance the band
    carries. Multiplying by ``gamma`` converts them to absolute ones:
    ``absolute_total = within_total * gamma``, and the absolute measures
    add up across a band partition to the unconditional time-domain ones.
    A band with no mass gets NaN within measures and zero absolute ones.
    """
    _, std = band_table(grid, band)
    fields = {name: v[0] for name, v in _band_stack(std[np.newaxis]).items()}
    for name in ("within_total", "gamma", "absolute_total"):
        fields[name] = float(fields[name])
    return BandMeasures(band=band, variable_names=grid.variable_names, **fields)


def _band_stack(std: np.ndarray) -> dict[str, np.ndarray]:
    """:class:`BandMeasures` fields of N standardized band tables (N, k, k),
    each field an array with a leading N axis."""
    k = std.shape[1]
    mass = std.reshape(len(std), -1).sum(axis=1)
    live = mass > 0.0
    gamma = np.where(live, mass / k, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        within = np.where(live[:, np.newaxis, np.newaxis],
                          std / gamma[:, np.newaxis, np.newaxis], np.nan)
    within_total, within_from, within_to, within_net, within_pairwise = _dy_stack(within)
    return dict(within_table=within, within_total=within_total, within_from=within_from,
                within_to=within_to, within_net=within_net, within_pairwise=within_pairwise,
                gamma=gamma, absolute_total=np.where(live, within_total * gamma, 0.0),
                absolute_from=np.where(live[:, np.newaxis], within_from * gamma[:, np.newaxis], 0.0),
                absolute_to=np.where(live[:, np.newaxis], within_to * gamma[:, np.newaxis], 0.0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def band_measures_to_text(measures: BandMeasures) -> str:
    m = measures
    names = " ".join(m.variable_names)
    lines = [
        f"band: {m.band.label}",
        f"lower: {float(m.band.lower)!r}",
        f"upper: {float(m.band.upper)!r}",
        f"variable_names: {names}",
        f"within_total: {float(m.within_total)!r}",
        f"gamma: {float(m.gamma)!r}",
        f"absolute_total: {float(m.absolute_total)!r}",
        "within_from: " + _fmt_matrix(m.within_from),
        "within_to: " + _fmt_matrix(m.within_to),
        "within_net: " + _fmt_matrix(m.within_net),
        "absolute_from: " + _fmt_matrix(m.absolute_from),
        "absolute_to: " + _fmt_matrix(m.absolute_to),
        "within_table: " + _fmt_matrix(m.within_table),
        "within_pairwise: " + _fmt_matrix(m.within_pairwise),
    ]
    return "\n".join(lines) + "\n"


def band_measures_to_csv_rows(measures: BandMeasures) -> list[tuple[str, str, str, str, str]]:
    """Long-format rows (band, measure, variable_i, variable_j, value)."""
    m = measures
    names = m.variable_names
    rows = [
        (m.band.label, "within_total", "", "", repr(float(m.within_total))),
        (m.band.label, "gamma", "", "", repr(float(m.gamma))),
        (m.band.label, "absolute_total", "", "", repr(float(m.absolute_total))),
    ]
    for vec_name in ("within_from", "within_to", "within_net", "absolute_from", "absolute_to"):
        vec = getattr(m, vec_name)
        rows.extend((m.band.label, vec_name, names[i], "", repr(float(vec[i]))) for i in range(len(names)))
    for mat_name in ("within_table", "within_pairwise"):
        mat = getattr(m, mat_name)
        rows.extend(
            (m.band.label, mat_name, names[i], names[j], repr(float(mat[i, j])))
            for i in range(len(names)) for j in range(len(names))
        )
    return rows
