"""Independent reference implementations used only as test oracles.

Deliberately separate from the library code paths: MA terms come from
companion-matrix powers, the decomposition sums are explicit loops, and
frequency-domain cell averages come from quadrature of the transfer
function rather than from lag autocorrelations, the intraday grid is
resampled one day at a time, and the low-activity calendar is a generic
rule set of exclusion windows.
"""

import numpy as np


def companion(phi_mats):
    phi_mats = [np.asarray(m, dtype=float) for m in phi_mats]
    k = phi_mats[0].shape[0]
    p = len(phi_mats)
    comp = np.zeros((k * p, k * p))
    for j, m in enumerate(phi_mats):
        comp[:k, j * k:(j + 1) * k] = m
    if p > 1:
        comp[k:, :-k] = np.eye(k * (p - 1))
    return comp


def direct_gfevd(phi_mats, sigma, horizon):
    """Direct-summation generalized FEVD, standardized rows.

    theta[i, j] = sigma_jj^-1 sum_h (psi_h sigma)_{ij}^2
                  / sum_h (psi_h sigma psi_h')_{ii},  h = 0..horizon-1,
    with psi_h read off powers of the companion matrix.
    """
    sigma = np.asarray(sigma, dtype=float)
    k = sigma.shape[0]
    comp = companion(phi_mats)
    selector = np.zeros((k, comp.shape[0]))
    selector[:, :k] = np.eye(k)
    psi = []
    power = np.eye(comp.shape[0])
    for _ in range(horizon):
        psi.append(selector @ power @ selector.T)
        power = power @ comp
    theta = np.zeros((k, k))
    for i in range(k):
        denom = 0.0
        for h in range(horizon):
            denom += (psi[h] @ sigma @ psi[h].T)[i, i]
        for j in range(k):
            num = 0.0
            for h in range(horizon):
                num += (psi[h] @ sigma)[i, j] ** 2
            theta[i, j] = num / (sigma[j, j] * denom)
    return theta / theta.sum(axis=1, keepdims=True)


def ar1_spectrum(phi, sigma2, omega):
    """Closed-form spectral density of a univariate AR(1)."""
    return sigma2 / (1.0 + phi**2 - 2.0 * phi * np.cos(omega))


def lyapunov_cov(phi1, sigma):
    """Stationary covariance of a VAR(1): solves V = phi V phi' + sigma."""
    phi1 = np.asarray(phi1, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    k = sigma.shape[0]
    vec = np.linalg.solve(np.eye(k * k) - np.kron(phi1, phi1), sigma.reshape(-1))
    return vec.reshape(k, k)


def frequency_response(psi, omega):
    """Truncated transfer function ``sum_h psi_h exp(-i h omega)`` of MA terms
    ``psi`` (H, k, k) at a frequency or an array of them: (..., k, k) complex."""
    psi = np.asarray(psi, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(omega, np.arange(len(psi))))
    return np.tensordot(phases, psi, axes=1)


def spectral_density(psi, sigma, omega):
    """Spectral density ``Psi(e^{-iw}) Sigma Psi(e^{-iw})*`` at ``omega``."""
    f = frequency_response(psi, omega)
    return f @ np.asarray(sigma, dtype=float) @ np.conj(np.swapaxes(f, -1, -2))


def band_mask(band, n_freq):
    """Cells of the ``n_freq`` equal cells of (0, pi] whose right edge lies in
    the band's (lower, upper]."""
    right = np.pi * np.arange(1, n_freq + 1) / n_freq
    return (right > band.lower) & (right <= band.upper)


def cell_averages(model, psi, n_freq, nodes=8):
    """Averages over each of the ``n_freq`` equal cells of (0, pi] of the
    GFEVD numerator ``sigma_jj^-1 |(Psi(e^{-iw}) Sigma)_ij|^2`` (n_freq, k, k)
    and of the spectral-density diagonal ``diag(Psi Sigma Psi*)`` (n_freq, k),
    with Psi summing the MA terms ``psi`` (psi_0..psi_{H-1}). Each cell is
    integrated by Gauss-Legendre quadrature on ``nodes`` points."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    width = np.pi / n_freq
    omega = width * (np.arange(n_freq)[:, np.newaxis] + 0.5 + 0.5 * x)   # (n_freq, nodes)
    sigma = np.asarray(model.sigma, dtype=float)
    numer = np.abs(frequency_response(psi, omega) @ sigma) ** 2 / np.diag(sigma)
    denom = np.diagonal(spectral_density(psi, sigma, omega), axis1=-2, axis2=-1).real
    # the mean over a cell is half the Gauss-Legendre sum on [-1, 1]
    return np.tensordot(w / 2, numer, axes=(0, 1)), np.tensordot(w / 2, denom, axes=(0, 1))


def resample_per_day(ticks, spacing_s, session):
    """Previous-tick grid returns of each UTC day, searching only that day's
    ticks: ``([(date, returns), ...], [skipped date, ...])``, where a day with
    fewer than 2 priced grid points is skipped."""
    start_s, end_s = session
    offsets = np.arange(start_s, end_s + 1, spacing_s).astype("timedelta64[s]")
    day_of_tick = ticks.timestamps.astype("datetime64[D]")
    grids, skipped = [], []
    for day in np.unique(day_of_tick):
        on_day = day_of_tick == day
        ts, px = ticks.timestamps[on_day], ticks.prices[on_day]
        grid = (day.astype("datetime64[s]") + offsets).astype("datetime64[us]")
        idx = np.searchsorted(ts, grid, side="right") - 1
        priced = idx >= 0
        if priced.sum() < 2:
            skipped.append(day.astype(object))
            continue
        grids.append((day.astype(object), np.diff(np.log(px[idx[priced]]))))
    return grids, skipped


# weekends, Dec 24-26 and Dec 31 - Jan 2 as inclusive (month, day) windows;
# the second one wraps the year end
LOW_ACTIVITY_WINDOWS = (((12, 24), (12, 26)), ((12, 31), (1, 2)))


def calendar_excludes(day, holidays=frozenset(), weekends=True,
                      windows=LOW_ACTIVITY_WINDOWS):
    """True when ``day`` falls on a weekend, on a holiday or inside a fixed
    (month, day) window."""
    if weekends and day.weekday() >= 5:
        return True
    if day in holidays:
        return True
    md = (day.month, day.day)
    for start, end in windows:
        if start <= end:
            if start <= md <= end:
                return True
        elif md >= start or md <= end:  # wraps the year end
            return True
    return False
