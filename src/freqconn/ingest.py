"""Turn raw tick data into the daily log-volatility panel the estimator consumes.

Pipeline: tick CSV -> calendar filtering -> fixed intraday return grid
(previous-tick interpolation) -> daily bi-power variation -> aligned
multi-symbol panel. Also hosts the synthetic VAR panel generator used as a
test fixture throughout the toolkit.

Scale conventions: bi-power variation is a daily *variance*-scale quantity.
``transform="sqrt"`` stores its square root (a daily volatility),
``transform="log"`` stores ``log(sqrt(BPV))``, which is the scale the
estimator is normally fit on.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, NumericError, UsageError

log = logging.getLogger(__name__)

TRANSFORMS = ("raw", "sqrt", "log")

SECONDS_PER_DAY = 86_400


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TickSeries:
    """Irregularly spaced timestamped prices for one instrument.

    Timestamps are UTC, microsecond resolution, strictly increasing;
    all prices are positive.
    """

    symbol: str
    timestamps: np.ndarray  # datetime64[us], strictly increasing
    prices: np.ndarray      # float64, > 0

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[us]")
        px = np.asarray(self.prices, dtype=float)
        if ts.shape != px.shape or ts.ndim != 1:
            raise DataError("timestamps and prices must be 1-d arrays of equal length")
        if len(ts) == 0:
            raise DataError(f"{self.symbol}: empty tick series")
        us = ts.view("int64")
        if not (us[1:] > us[:-1]).all():
            raise DataError(f"{self.symbol}: timestamps must be strictly increasing")
        if not (px > 0).all():
            raise DataError(f"{self.symbol}: all prices must be positive")
        ts.setflags(write=False)
        px.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class ReturnGrid:
    """Log returns of one trading day on a fixed intraday grid."""

    symbol: str
    trading_day: dt.date
    returns: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        r.setflags(write=False)
        object.__setattr__(self, "returns", r)


@dataclass(frozen=True)
class VolatilityPanel:
    """T x k matrix of daily (transformed) realized volatilities on a shared
    strictly increasing date index. No missing cells; k >= 2."""

    dates: tuple[dt.date, ...]
    symbols: tuple[str, ...]
    values: np.ndarray  # (T, k)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape != (len(self.dates), len(self.symbols)):
            raise DataError("panel values must be a (T, k) matrix matching dates/symbols")
        if len(self.symbols) < 2:
            raise DataError("panel needs at least 2 symbols")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("panel dates must be strictly increasing")
        if not np.isfinite(vals).all():
            raise DataError("panel contains non-finite cells")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "symbols", tuple(self.symbols))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class PanelStats:
    """Per-symbol descriptive statistics (kurtosis is the raw fourth
    standardized moment, not excess)."""

    symbols: tuple[str, ...]
    mean: np.ndarray
    median: np.ndarray
    std: np.ndarray
    skewness: np.ndarray
    kurtosis: np.ndarray

    STAT_NAMES = ("mean", "median", "std", "skewness", "kurtosis")

    def to_csv_text(self) -> str:
        out = ["statistic," + ",".join(self.symbols)]
        for name in self.STAT_NAMES:
            vals = getattr(self, name)
            out.append(name + "," + ",".join(repr(float(v)) for v in vals))
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# tick loading and filtering
# ---------------------------------------------------------------------------

def _decode(raw: bytes, name: str | Path) -> str:
    """The UTF-8 text of a file's bytes, without any leading BOMs."""
    try:
        return raw.decode("utf-8").lstrip("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(f"{name}: not UTF-8 text at byte offset {exc.start}") from None


def _parse_timestamp(text: str, lineno: int) -> np.datetime64:
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        stamp = dt.datetime.fromisoformat(s)
    except ValueError:
        raise DataError(f"line {lineno}: unparseable timestamp {text!r}") from None
    if stamp.tzinfo is None:
        raise DataError(f"line {lineno}: timestamp {text!r} lacks a UTC offset")
    try:
        stamp = stamp.astimezone(dt.timezone.utc).replace(tzinfo=None)
    except OverflowError:
        raise DataError(f"line {lineno}: timestamp {text!r} falls outside years 1-9999 "
                        "in UTC") from None
    return np.datetime64(stamp, "us")


# Canonical tick row: ``YYYY-MM-DDTHH:MM:SS±HH:MM,<price>``. The 18 digits sit
# in fixed byte columns; the price starts at byte 26.
_DIGIT_COLS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24])
_SEPARATOR_COLS = np.array([4, 7, 10, 13, 16, 22, 25])
_SEPARATORS = np.frombuffer(b"--T:::,", np.uint8)
_SIGN_COL = 19
_PRICE_COL = 26
# bytes a canonical price may hold; 0 is the padding of shorter rows
_PRICE_BYTES = b"\x000123456789.eE+-"
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# largest hour, minute, second, offset hour and offset minute
_CLOCK_MAX = np.array([23, 59, 59, 23, 59], dtype=np.uint8)
# bytes of rows per parse window, and the widest row a window takes (a 38-byte
# price): with both bounds a window's working arrays stay near 10 MiB whatever
# the file
_CHUNK_BYTES = 1 << 20
_MAX_ROW_BYTES = 64
_BOM = "\ufeff".encode()


def _canonical_chunk(rows: list[bytes]) -> tuple[np.ndarray, np.ndarray] | None:
    """UTC microseconds and prices of canonical rows, or None if a row is not
    canonical, has an impossible date or time, or has an unparseable price."""
    width = max(map(len, rows))
    if not _PRICE_COL < width <= _MAX_ROW_BYTES:
        return None
    m = np.array(rows, dtype=f"S{width}").view(np.uint8).reshape(len(rows), width)
    digits = m[:, _DIGIT_COLS] - np.uint8(ord("0"))  # non-digits wrap above 9
    sign = m[:, _SIGN_COL]
    price = np.ascontiguousarray(m[:, _PRICE_COL:])
    if ((digits > 9).any() or (m[:, _SEPARATOR_COLS] != _SEPARATORS).any()
            or ((sign != ord("+")) & (sign != ord("-"))).any()
            or price.tobytes().translate(None, _PRICE_BYTES)):
        return None
    # the nine two-digit fields (century, year, month, day, hour, minute,
    # second, offset hours and minutes), each at most 99
    pairs = digits[:, 0::2] * np.uint8(10) + digits[:, 1::2]
    if not (pairs[:, 4:] <= _CLOCK_MAX).all():
        return None
    # each date is checked and converted once per run of rows that share it
    key = np.ascontiguousarray(pairs[:, :4]).view(np.uint32).ravel()
    first = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    century, yy, month, day = pairs[first, :4].T.astype(np.int64)
    year = century * 100 + yy
    # years 2-9998 keep a shift of up to 23:59 inside datetime's years 1-9999
    if not ((2 <= year) & (year <= 9998) & (1 <= month) & (month <= 12)).all():
        return None
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    if not ((1 <= day) & (day <= _DAYS_IN_MONTH[month] + (leap & (month == 2)))).all():
        return None
    # days from 1970-01-01 by the days-from-civil algorithm (March-based years)
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doe = yoe * 365 + yoe // 4 - yoe // 100 + (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    seconds = np.repeat((era * 146_097 + doe - 719_468) * SECONDS_PER_DAY,
                        np.diff(first, append=len(rows)))
    # time of day less the UTC offset, in int32 (|value| < 2 * 86,400)
    hour, minute, second, off_h, off_m = pairs[:, 4:].T.astype(np.int32, order="C")
    offset = off_h * np.int32(3600) + off_m * np.int32(60)
    seconds += hour * np.int32(3600) + minute * np.int32(60) + second - np.where(
        sign == ord("+"), offset, -offset)
    seconds *= 1_000_000
    try:
        prices = price.view(f"S{price.shape[1]}").ravel().astype(float)
    except ValueError:
        return None
    return seconds, prices


def _load_canonical(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Timestamps and prices of a tick CSV's bytes, parsed one window of whole
    rows at a time, or None unless, after any leading BOM, the header is
    exactly ``timestamp,price``, the file is ASCII with ``\\n`` line ends and
    no NUL, every data row is canonical and would load, and the timestamps
    never decrease. The arrays equal the per-line parser's."""
    lo = 0
    while data.startswith(_BOM, lo):
        lo += len(_BOM)
    head = data.find(b"\n", lo)
    end = len(data) - data.endswith(b"\n")
    # every other byte of a row is checked in its column, and a non-ASCII or
    # \r byte fails there; a NUL would pass as the padding of a short row
    if (head < 0 or head + 1 >= end or data[lo:head].lower() != b"timestamp,price"
            or data.find(b"\0", head) >= 0):
        return None
    n_rows = data.count(b"\n", head + 1, end) + 1
    us = np.empty(n_rows, dtype=np.int64)
    prices = np.empty(n_rows)
    lo, n = head + 1, 0
    while lo < end:  # each window ends at the first line end past the budget
        hi = data.find(b"\n", lo + _CHUNK_BYTES - 1, end)
        hi = end if hi < 0 else hi
        part = _canonical_chunk(data[lo:hi].split(b"\n"))
        if part is None:
            return None
        rows = len(part[0])
        us[n:n + rows], prices[n:n + rows] = part
        lo, n = hi + 1, n + rows
    # a window that ends on the last data row leaves a trailing blank row unread
    if n != n_rows:
        return None
    if not (np.isfinite(prices) & (prices > 0)).all() or (us[1:] < us[:-1]).any():
        return None
    last = np.append(us[1:] != us[:-1], True)  # duplicate instant: last price wins
    if not last.all():
        us, prices = us[last], prices[last]
    return us.view("datetime64[us]"), prices


def load_ticks(source: str | Path | BinaryIO, symbol: str) -> TickSeries:
    """Parse a tick CSV (header ``timestamp,price``), given as a path or a
    binary stream, into a TickSeries.

    Rows must be time-ordered; an out-of-order row is rejected with its line
    number. Rows sharing a timestamp are collapsed keeping the last price.
    A file of canonical rows (``YYYY-MM-DDTHH:MM:SS±HH:MM,<price>``) is read
    from its bytes one window of rows at a time; any other file is decoded
    and read row by row, with the same result.
    """
    if hasattr(source, "read"):
        raw, name = source.read(), getattr(source, "name", symbol)
    else:
        raw, name = Path(source).read_bytes(), source
    canonical = _load_canonical(raw)
    if canonical is None:
        return _load_rows(_decode(raw, name), symbol)
    del raw  # the series' own checks run without the file's bytes held
    return TickSeries(symbol, *canonical)


def _load_rows(text: str, symbol: str) -> TickSeries:
    """The per-line parser: reads every ISO-8601 form ``fromisoformat`` takes
    and raises every tick-file error with its line number."""
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{symbol}: empty input")
    header = lines[0].strip().lower()
    if header != "timestamp,price":
        raise DataError(f"line 1: expected header 'timestamp,price', got {lines[0]!r}")

    stamps: list[np.datetime64] = []
    prices: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"line {lineno}: expected 2 fields, got {len(parts)}")
        ts = _parse_timestamp(parts[0], lineno)
        try:
            price = float(parts[1])
        except ValueError:
            raise DataError(f"line {lineno}: unparseable price {parts[1]!r}") from None
        if not math.isfinite(price) or price <= 0:
            raise DataError(f"line {lineno}: non-positive price {parts[1].strip()}")
        if stamps:
            if ts < stamps[-1]:
                raise DataError(f"line {lineno}: out-of-order timestamp {parts[0].strip()}")
            if ts == stamps[-1]:  # duplicate instant: last price wins
                prices[-1] = price
                continue
        stamps.append(ts)
        prices.append(price)
    if not stamps:
        raise DataError(f"{symbol}: no data rows")
    return TickSeries(symbol, np.array(stamps, dtype="datetime64[us]"), np.array(prices))


def _day_runs(timestamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The UTC days that hold ticks, and the index of each day's first tick:
    timestamps are strictly increasing, so each day is one contiguous run."""
    day = timestamps.astype("datetime64[D]")
    first = np.append(0, np.flatnonzero(day[1:] != day[:-1]) + 1)
    return day[first], first


# (month, day) of the low-activity days around the year end
_QUIET_DAYS = frozenset({(12, 24), (12, 25), (12, 26), (12, 31), (1, 1), (1, 2)})


def filter_calendar(ticks: TickSeries, holidays: Iterable[dt.date] = ()) -> TickSeries:
    """Drop every observation on a low-activity UTC date: weekends, Dec 24-26,
    Dec 31 - Jan 2 and ``holidays``. Order is preserved."""
    holidays = frozenset(holidays)
    days, first = _day_runs(ticks.timestamps)
    keep_day = np.array([d.weekday() < 5 and (d.month, d.day) not in _QUIET_DAYS
                         and d not in holidays for d in days.tolist()], dtype=bool)
    if keep_day.all():
        return ticks
    if not keep_day.any():
        raise DataError(f"{ticks.symbol}: calendar rules exclude every observation")
    mask = np.repeat(keep_day, np.diff(first, append=len(ticks)))
    return TickSeries(ticks.symbol, ticks.timestamps[mask], ticks.prices[mask])


# ---------------------------------------------------------------------------
# resampling and bi-power variation
# ---------------------------------------------------------------------------

# grid points per resample block: whole days, and at least one, so that a
# block's index arrays stay near 1 MiB whatever the spacing
_BLOCK_POINTS = 1 << 16


def resample_grid(
    ticks: TickSeries,
    spacing: dt.timedelta = dt.timedelta(minutes=5),
    session: tuple[int, int] = (0, SECONDS_PER_DAY),
) -> list[ReturnGrid]:
    """Extract fixed-interval log returns for each day via previous-tick
    interpolation.

    ``session`` gives the session start/end as seconds of the UTC day
    (end may be 86400). Each grid point takes the last price observed at or
    before it within the day; grid points before the day's first tick carry
    no price. Days with fewer than 2 priced grid points are skipped with a
    warning.
    """
    step = int(spacing.total_seconds())
    start_s, end_s = session
    if step <= 0:
        raise UsageError("grid spacing must be positive")
    if not (0 <= start_s < end_s <= SECONDS_PER_DAY):
        raise UsageError(f"invalid session ({start_s}, {end_s})")
    if (end_s - start_s) % step != 0:
        raise UsageError("grid spacing must divide the session length")

    offsets = np.arange(start_s, end_s + 1, step, dtype=np.int64) * 1_000_000
    days, first = _day_runs(ticks.timestamps)
    last = np.append(first[1:], len(ticks)) - 1
    us = ticks.timestamps.view(np.int64)
    day_us = days.astype("datetime64[us]").view(np.int64)
    per_block = max(1, _BLOCK_POINTS // len(offsets))
    out: list[ReturnGrid] = []
    for lo in range(0, len(days), per_block):
        block = slice(lo, lo + per_block)
        # one search over the whole series; each grid point is then clamped to
        # its own day's ticks, so the previous tick never comes from another day
        idx = np.searchsorted(us, day_us[block, None] + offsets, side="right") - 1
        np.minimum(idx, last[block, None], out=idx)
        priced = idx >= first[block, None]
        count = priced.sum(axis=1)
        # a day's priced points are a suffix of its row, so the block's log
        # prices run day by day; the differences across two days are never read
        returns = np.diff(np.log(ticks.prices[idx[priced]]))
        end = np.cumsum(count)
        for day, n, hi in zip(days[block].tolist(), count.tolist(), end.tolist()):
            if n < 2:
                log.warning("day_skipped symbol=%s date=%s reason=insufficient_grid_prices",
                            ticks.symbol, day)
                continue
            out.append(ReturnGrid(ticks.symbol, day, returns[hi - n:hi - 1]))
    return out


MU1 = math.sqrt(2.0 / math.pi)  # E|Z| for standard normal Z


def bipower_variation(day: ReturnGrid) -> float:
    """Jump-robust daily variance estimate:
    ``mu1**-2 * sum(|r_t| * |r_{t-1}|)`` over adjacent intraday returns."""
    r = day.returns
    if len(r) < 2:
        raise DataError(f"{day.symbol} {day.trading_day}: insufficient intraday returns")
    a = np.abs(r)
    return float(np.sum(a[1:] * a[:-1]) / MU1**2)


# ---------------------------------------------------------------------------
# panel assembly
# ---------------------------------------------------------------------------

def _apply_transform(bpv: float, transform: str, symbol: str, day: dt.date) -> float:
    if transform == "raw":
        return bpv
    if bpv <= 0:
        raise DataError(f"{symbol} {day}: non-positive BPV {bpv!r} under {transform!r} transform")
    root = math.sqrt(bpv)
    return root if transform == "sqrt" else math.log(root)


def build_panel(
    per_symbol_daily: Mapping[str, Sequence[tuple[dt.date, float]]],
    transform: str = "log",
) -> VolatilityPanel:
    """Inner-join per-symbol daily series on dates and apply the cell-wise
    transform. ``log`` means log of the square root of BPV (volatility
    scale); see module docstring."""
    if transform not in TRANSFORMS:
        raise UsageError(f"transform must be one of {TRANSFORMS}, got {transform!r}")
    if len(per_symbol_daily) < 2:
        raise DataError("panel needs at least 2 symbols")
    symbols = tuple(per_symbol_daily)
    maps = {s: dict(rows) for s, rows in per_symbol_daily.items()}
    shared = set(maps[symbols[0]])
    for s in symbols[1:]:
        shared &= set(maps[s])
    if not shared:
        raise DataError("no dates shared by all symbols")
    dates = tuple(sorted(shared))
    values = np.empty((len(dates), len(symbols)))
    for j, s in enumerate(symbols):
        for i, d in enumerate(dates):
            values[i, j] = _apply_transform(maps[s][d], transform, s, d)
    return VolatilityPanel(dates, symbols, values)


def summary_stats(panel: VolatilityPanel) -> PanelStats:
    """Per-symbol mean, median, sample std, skewness, and (non-excess)
    kurtosis. Zero-variance columns get NaN skewness/kurtosis."""
    x = panel.values
    if x.shape[0] < 2:
        raise DataError("summary statistics need T >= 2")
    mean = x.mean(axis=0)
    centered = x - mean
    m2 = (centered**2).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.where(m2 > 0, (centered**3).mean(axis=0) / m2**1.5, np.nan)
        kurt = np.where(m2 > 0, (centered**4).mean(axis=0) / m2**2, np.nan)
    return PanelStats(
        symbols=panel.symbols,
        mean=mean,
        median=np.median(x, axis=0),
        std=x.std(axis=0, ddof=1),
        skewness=skew,
        kurtosis=kurt,
    )


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def synth_var_panel(model, n_periods: int, seed) -> VolatilityPanel:
    """Simulate a panel from a stable VAR with Gaussian innovations.

    Deterministic given ``seed``; a burn-in of ``max(1000, 10 p)`` draws is
    discarded. Dates are consecutive calendar days from 2000-01-03.
    """
    if not model.is_stable:
        raise NumericError(f"generator VAR is unstable (spectral radius {model.spectral_radius:.6g})")
    values = simulate_var(model, n_periods, [seed])[0]
    start = dt.date(2000, 1, 3)
    dates = tuple(start + dt.timedelta(days=i) for i in range(n_periods))
    return VolatilityPanel(dates, model.variable_names, values)


def simulate_var(model, n_periods: int, seeds: Sequence) -> np.ndarray:
    """Simulate ``n_periods`` observations from a VAR after burn-in, once per
    seed: returns ``(len(seeds), n_periods, k)``.

    Each entry of ``seeds`` may be anything accepted by
    ``numpy.random.default_rng`` and draws its own innovation stream; the
    recursion then runs batched over the streams, so a run's output does
    not depend on which other seeds share its batch.
    """
    try:
        chol = np.linalg.cholesky(model.sigma)
    except np.linalg.LinAlgError:
        raise NumericError("innovation covariance is not positive definite") from None
    burn = max(1000, 10 * model.p)
    total = burn + n_periods
    eps = np.empty((total, len(seeds), model.k))
    for i, seed in enumerate(seeds):
        eps[:, i] = np.random.default_rng(seed).standard_normal((total, model.k)) @ chol.T
    return _var_recursion(model, eps)[burn:].transpose(1, 0, 2)


def _var_recursion(model, eps: np.ndarray) -> np.ndarray:
    """Run x_t = c + sum_j Phi_j x_{t-j} + eps_t from a zero start over
    batched innovations ``eps`` of shape (T, reps, k)."""
    p, k = model.p, model.k
    total = eps.shape[0]
    x = np.zeros_like(eps)
    phi_t = [np.ascontiguousarray(m.T) for m in model.phi]
    c = model.intercept
    for t in range(total):
        acc = eps[t] + c
        for j in range(1, min(t, p) + 1):
            acc = acc + x[t - j] @ phi_t[j - 1]
        x[t] = acc
    return x


# ---------------------------------------------------------------------------
# panel CSV interface
# ---------------------------------------------------------------------------

def write_panel_csv(panel: VolatilityPanel, path: str | Path) -> None:
    lines = ["date," + ",".join(panel.symbols)]
    for i, d in enumerate(panel.dates):
        lines.append(d.isoformat() + "," + ",".join(repr(float(v)) for v in panel.values[i]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_panel_csv(path: str | Path) -> VolatilityPanel:
    lines = _decode(Path(path).read_bytes(), path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty panel file")
    header = lines[0].split(",")
    if header[0].strip().lower() != "date" or len(header) < 3:
        raise DataError(f"{path}: expected header 'date,<symbol>,...' with >= 2 symbols")
    symbols = tuple(s.strip() for s in header[1:])
    dates: list[dt.date] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise DataError(f"{path} line {lineno}: expected {len(header)} fields")
        try:
            dates.append(dt.date.fromisoformat(parts[0].strip()))
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return VolatilityPanel(tuple(dates), symbols, np.array(rows))
