"""Output checks: every finding is a string in the returned problem list,
and any problem makes the run incorrect.

- roll: window and row counts, a replay of sampled windows through the
  single-model public API (``fit_var`` -> ``wold`` -> ``gfevd`` /
  ``dy_measures`` -> ``spectral_gfevd`` -> ``band_measures``) within
  ``REPLAY_TOL``, and ``lower <= value <= upper`` on every bootstrap row;
- rv: trading days against the documented calendar, BPV of sampled days
  against an independent previous-tick / bi-power reference, and the panel
  against ``log(sqrt(BPV))``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from inputs import TickDay, is_low_activity, panel_dates

REPLAY_TOL = 1e-12
BPV_REL_TOL = 1e-9   # reference sums in another order and uses math.log


def parse_bands(text: str) -> list[tuple[float, float]]:
    pairs = []
    for piece in text.split(","):
        short, long_ = piece.split(":")
        pairs.append((float(short), math.inf if long_ == "inf" else float(long_)))
    return pairs


# --- roll --------------------------------------------------------------------

def read_rolling(path: Path) -> dict[str, dict[tuple[str, str], tuple[str, str, str]]]:
    """date -> {(measure, band): (value, lower, upper)} as written."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "date,measure,band,value,lower,upper":
        raise ValueError(f"{path.name}: unexpected header")
    by_date: dict[str, dict[tuple[str, str], tuple[str, str, str]]] = {}
    for line in lines[1:]:
        day, measure, band, value, lower, upper = line.split(",")
        by_date.setdefault(day, {})[(measure, band)] = (value, lower, upper)
    return by_date


def replay_measures(values: np.ndarray, names: tuple[str, ...], start: int, window: int,
                    bands: list[tuple[float, float]], h_trunc: int,
                    n_freq: int) -> dict[tuple[str, str], float]:
    """Every rolling measure of one window, recomputed through the public
    single-model API and named as ``rolling.csv`` names them."""
    import freqconn as fc

    dates = panel_dates(len(values))[start:start + window]
    panel = fc.VolatilityPanel(tuple(dates), names, values[start:start + window])
    model = fc.fit_var(panel, p=2)
    ma = fc.wold(model, h_trunc)
    dy = fc.dy_measures(fc.gfevd(model, ma, h_trunc))
    k = len(names)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    out = {("total", ""): dy.total}
    for i, v in enumerate(names):
        out[(f"from.{v}", "")] = dy.from_others[i]
        out[(f"to.{v}", "")] = dy.to_others[i]
        out[(f"net.{v}", "")] = dy.net[i]
    for i, j in pairs:
        out[(f"pairwise.{names[i]}.{names[j]}", "")] = dy.pairwise[i, j]
    grid = fc.spectral_gfevd(model, ma, n_freq)
    for short, long_ in bands:
        bm = fc.band_measures(grid, fc.days_to_band(short, long_))
        label = bm.band.label
        out[("within_total", label)] = bm.within_total
        out[("gamma", label)] = bm.gamma
        out[("abs_total", label)] = bm.absolute_total
        for i, v in enumerate(names):
            out[(f"within_from.{v}", label)] = bm.within_from[i]
            out[(f"within_to.{v}", label)] = bm.within_to[i]
            out[(f"within_net.{v}", label)] = bm.within_net[i]
            out[(f"abs_from.{v}", label)] = bm.absolute_from[i]
            out[(f"abs_to.{v}", label)] = bm.absolute_to[i]
        for i, j in pairs:
            out[(f"within_pairwise.{names[i]}.{names[j]}", label)] = bm.within_pairwise[i, j]
    return {key: float(v) for key, v in out.items()}


def compare_replay(rows: dict[tuple[str, str], tuple[str, str, str]],
                   expected: dict[tuple[str, str], float], day: str) -> list[str]:
    problems = []
    if set(rows) != set(expected):
        extra = sorted(set(rows) - set(expected))[:3]
        missing = sorted(set(expected) - set(rows))[:3]
        problems.append(f"{day}: measure set differs (extra {extra}, missing {missing})")
    for key, want in expected.items():
        if key not in rows:
            continue
        got = float(rows[key][0]) if rows[key][0] else math.nan
        if not abs(got - want) <= REPLAY_TOL:
            problems.append(f"{day} {key[0]}@{key[1]}: csv {got!r} vs replay {want!r}")
    return problems


def gap_count(meta_path: Path) -> int:
    return sum(1 for line in meta_path.read_text(encoding="utf-8").splitlines()
               if line.startswith("gap: "))


def recon_residual_max(by_date, band_labels: list[str]) -> float:
    """max over windows of |sum_band abs_total - total|."""
    worst = 0.0
    for rows in by_date.values():
        if not rows[("total", "")][0]:
            continue
        total = float(rows[("total", "")][0])
        absolute = sum(float(rows[("abs_total", b)][0]) for b in band_labels)
        worst = max(worst, abs(absolute - total))
    return worst


def check_roll(out: Path, values: np.ndarray, names: tuple[str, ...], window: int,
               bands_text: str, h_trunc: int, n_freq: int, boot: int,
               sample: list[int]) -> tuple[list[str], dict]:
    import freqconn as fc

    bands = parse_bands(bands_text)
    n_windows = len(values) - window + 1
    anchors = [d.isoformat() for d in panel_dates(len(values))[window - 1:]]
    by_date = read_rolling(out / "rolling.csv")
    gaps = gap_count(out / "rolling_meta.txt")
    problems = []
    if list(by_date) != anchors:
        problems.append(f"rolling.csv has {len(by_date)} window dates, expected {n_windows}")
    expected0 = replay_measures(values, names, 0, window, bands, h_trunc, n_freq)
    n_rows = sum(len(rows) for rows in by_date.values())
    if n_rows != n_windows * len(expected0):
        problems.append(f"rolling.csv has {n_rows} rows, expected "
                        f"{n_windows} x {len(expected0)}")
    gap_days = {day for day, rows in by_date.items() if not rows[("total", "")][0]}
    for w in sample:
        day = anchors[w]
        if day in by_date and day not in gap_days:
            expected = expected0 if w == 0 else replay_measures(
                values, names, w, window, bands, h_trunc, n_freq)
            problems += compare_replay(by_date[day], expected, day)
    if boot:
        for day, rows in by_date.items():
            if day in gap_days:
                continue
            for (measure, band), (value, lower, upper) in rows.items():
                if not (lower and upper and float(lower) <= float(value) <= float(upper)):
                    problems.append(f"{day} {measure}@{band}: band [{lower}, {upper}] "
                                    f"does not hold value {value}")
                    break
    labels = [fc.days_to_band(s, l).label for s, l in bands]
    info = {"windows": len(by_date), "gap_windows": gaps,
            "recon_residual_max": recon_residual_max(by_date, labels),
            "csv_bytes": (out / "rolling.csv").stat().st_size}
    return problems[:20], info


# --- rv ----------------------------------------------------------------------

def reference_bpv(day: TickDay, spacing_s: int = 300) -> float:
    """Previous-tick prices on the 00:00-24:00 grid (end point included),
    log returns between priced points, then (pi/2) sum |r_t||r_t-1|."""
    secs, prices = day.seconds.tolist(), day.prices.tolist()
    logs, last = [], -1
    for g in range(0, 86_400 + 1, spacing_s):
        while last + 1 < len(secs) and secs[last + 1] <= g:
            last += 1
        if last >= 0:
            logs.append(math.log(prices[last]))
    r = [b - a for a, b in zip(logs, logs[1:])]
    return math.pi / 2 * sum(abs(a) * abs(b) for a, b in zip(r, r[1:]))


def _read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: unexpected header")
    return [line.split(",") for line in lines[1:]]


def expected_days(history: list[TickDay]) -> list[str]:
    return [td.day.isoformat() for td in history
            if len(td.seconds) and not is_low_activity(td.day)]


def check_rv(out: Path, histories: dict[str, list[TickDay]],
             rng: np.random.Generator, n_sample: int = 12) -> tuple[list[str], dict]:
    problems = []
    bpv: dict[str, dict[str, float]] = {}
    skipped = 0
    for symbol, history in histories.items():
        rows = {d: float(v) for d, v in _read_csv(out / f"rv_{symbol}.csv", "date,bpv")}
        bpv[symbol] = rows
        want = expected_days(history)
        extra = set(rows) - set(want)
        if extra:
            problems.append(f"{symbol}: {len(extra)} unexpected days, e.g. {min(extra)}")
        skipped += len(set(want) - set(rows))
        by_day = {td.day.isoformat(): td for td in history}
        present = sorted(set(want) & set(rows))
        for day in rng.choice(present, size=min(n_sample, len(present)), replace=False):
            ref = reference_bpv(by_day[day])
            if not abs(rows[day] - ref) <= BPV_REL_TOL * ref:
                problems.append(f"{symbol} {day}: BPV {rows[day]!r} vs reference {ref!r}")
    symbols = list(histories)
    shared = sorted(set.intersection(*(set(bpv[s]) for s in symbols)))
    panel = _read_csv(out / "panel.csv", "date," + ",".join(symbols))
    if [row[0] for row in panel] != shared:
        problems.append(f"panel.csv has {len(panel)} dates, expected {len(shared)}")
    else:
        for row in panel:
            for symbol, cell in zip(symbols, row[1:]):
                want_v = math.log(math.sqrt(bpv[symbol][row[0]]))
                if not abs(float(cell) - want_v) <= REPLAY_TOL:
                    problems.append(f"panel {row[0]} {symbol}: {cell} vs log(sqrt(BPV)) {want_v!r}")
                    break
    return problems[:20], {"days_skipped": skipped, "panel_days": len(panel)}
