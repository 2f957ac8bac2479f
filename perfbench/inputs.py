"""Workload inputs, generated deterministically from the benchmark seed.

The generators here are the benchmark's own (numpy ``default_rng`` plus a
plain VAR recursion), so a change to freqconn's simulators can never change
what a workload feeds the program.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

# --- tick history (rv-ticks) -------------------------------------------------

TICK_SYMBOLS = ("CO", "HO", "XB")
TICK_START_PRICES = (25.0, 0.70, 0.80)
# Same intraday density as tests/data/generate_ticks.py: 30-300 s gaps,
# 08:00-16:00 UTC, lognormal price steps with sd 2e-4.
SESSION_OPEN_S = 8 * 3600
SESSION_CLOSE_S = 16 * 3600
GAP_LOW_S, GAP_HIGH_S = 30, 300
STEP_SD = 2e-4
MAX_TICKS_PER_DAY = math.ceil((SESSION_CLOSE_S - SESSION_OPEN_S) / GAP_LOW_S)

_CLOCK = [f"{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}" for s in range(86_400)]


@dataclass(frozen=True)
class TickDay:
    day: dt.date
    seconds: np.ndarray   # tick times, seconds of the UTC day
    prices: np.ndarray    # the exact doubles written to the CSV


def tick_history(seed: int, symbol_index: int, start: dt.date, n_days: int) -> list[TickDay]:
    """Ticks on every calendar day (weekends and holidays included, so the
    calendar filter has work to do)."""
    rng = np.random.default_rng([seed, symbol_index])
    gaps = rng.integers(GAP_LOW_S, GAP_HIGH_S, size=(n_days, MAX_TICKS_PER_DAY))
    seconds = SESSION_OPEN_S + np.cumsum(gaps, axis=1) - gaps[:, :1]
    keep = seconds < SESSION_CLOSE_S
    steps = rng.normal(0.0, STEP_SD, size=int(keep.sum()))
    prices = TICK_START_PRICES[symbol_index] * np.exp(np.cumsum(steps))
    days, pos = [], 0
    for d in range(n_days):
        secs = seconds[d][keep[d]]
        days.append(TickDay(start + dt.timedelta(days=d), secs, prices[pos:pos + len(secs)]))
        pos += len(secs)
    return days


def tick_csv_text(days: list[TickDay]) -> str:
    lines = ["timestamp,price"]
    for td in days:
        stamp = td.day.isoformat() + "T"
        lines += [f"{stamp}{_CLOCK[s]}+00:00,{p!r}"
                  for s, p in zip(td.seconds.tolist(), td.prices.tolist())]
    return "\n".join(lines) + "\n"


def is_low_activity(day: dt.date) -> bool:
    """The calendar the README documents: weekends, Dec 24-26, Dec 31 - Jan 2."""
    md = (day.month, day.day)
    return (day.weekday() >= 5 or (12, 24) <= md <= (12, 26)
            or md >= (12, 31) or md <= (1, 2))


# --- VAR panels (roll-*) -----------------------------------------------------

@dataclass(frozen=True)
class VarSpec:
    phi: tuple[np.ndarray, ...]
    sigma: np.ndarray
    names: tuple[str, ...]

    @property
    def k(self) -> int:
        return len(self.names)

    def spectral_radius(self) -> float:
        k, p = self.k, len(self.phi)
        comp = np.zeros((k * p, k * p))
        comp[:k, :] = np.hstack(self.phi)
        comp[k:, :-k] = np.eye(k * (p - 1))
        return float(np.abs(np.linalg.eigvals(comp)).max())


def paper_model() -> VarSpec:
    """The coefficients of ``freqconn.cli.default_synth_model(3)``
    (spectral radius about 0.73), copied so the inputs stay fixed."""
    k = 3
    eye, ones = np.eye(k), np.ones((k, k))
    phi1 = 0.35 * eye + 0.1 * (ones - eye) / (k - 1)
    return VarSpec((phi1, 0.2 * eye), 0.6 * eye + 0.4 * ones, TICK_SYMBOLS)


def wide_model() -> VarSpec:
    """k=8, p=2 with heterogeneous own-lags and spectral radius about 0.978,
    the persistence of realized-volatility panels."""
    k = 8
    eye, ones = np.eye(k), np.ones((k, k))
    phi1 = np.diag(np.linspace(0.50, 0.64, k)) + 0.2 * (ones - eye) / (k - 1)
    names = tuple(f"S{i + 1}" for i in range(k))
    return VarSpec((phi1, 0.1945 * eye), 0.6 * eye + 0.4 * ones, names)


def simulate_panel(spec: VarSpec, n_rows: int, seed: int, burn: int = 1000) -> np.ndarray:
    rng = np.random.default_rng([seed, spec.k])
    chol = np.linalg.cholesky(spec.sigma)
    eps = rng.standard_normal((burn + n_rows, spec.k)) @ chol.T
    x = np.zeros_like(eps)
    for t in range(len(eps)):
        x[t] = eps[t]
        for j, phi in enumerate(spec.phi, start=1):
            if t >= j:
                x[t] += phi @ x[t - j]
    return x[burn:]


PANEL_START = dt.date(2000, 1, 3)


def panel_dates(n_rows: int) -> list[dt.date]:
    return [PANEL_START + dt.timedelta(days=i) for i in range(n_rows)]


def panel_csv_text(names: tuple[str, ...], values: np.ndarray) -> str:
    lines = ["date," + ",".join(names)]
    for day, row in zip(panel_dates(len(values)), values.tolist()):
        lines.append(day.isoformat() + "," + ",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"
