"""The horizon-H generalized forecast-error variance decomposition and the
classical connectedness measures built on it.

Identification is generalized (order-invariant): shocks are one own standard
deviation in size and never orthogonalized, so raw decomposition rows need
not sum to one and are row-standardized for the connectedness table.

Horizon convention: an H-period decomposition sums MA terms h = 0..H-1,
so H = 1 is the one-step-ahead decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .varcore import VarModel, WoldSequence, _flag, _fmt_matrix, _raise_fault

ROW_SUM_TOL = 1e-10


@dataclass(frozen=True)
class ConnectednessTable:
    """k x k standardized variance-decomposition shares.

    Row i gives the shares of variable i's forecast-error variance
    attributed to shocks in each column variable; rows sum to one.
    ``raw`` keeps the unstandardized shares for diagnostics.
    """

    theta: np.ndarray
    raw: np.ndarray
    horizon_tag: int | str
    variable_names: tuple[str, ...]

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        k = len(self.variable_names)
        if th.shape != (k, k):
            raise DataError("theta must be k x k matching variable_names")
        faults = [""]
        _table_faults(th[np.newaxis], faults)
        _raise_fault(faults)
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)
        raw = np.asarray(self.raw, dtype=float)
        raw.setflags(write=False)
        object.__setattr__(self, "raw", raw)

    def to_csv_text(self) -> str:
        lines = ["," + ",".join(self.variable_names)]
        for i, name in enumerate(self.variable_names):
            lines.append(name + "," + ",".join(repr(float(v)) for v in self.theta[i]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            "format: freqconn-connectedness-table-v1",
            f"horizon: {self.horizon_tag}",
            "variable_names: " + " ".join(self.variable_names),
            "theta: " + _fmt_matrix(self.theta),
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DyMeasures:
    """Total, directional, net, and pairwise connectedness derived from a
    standardized table."""

    total: float
    from_others: np.ndarray
    to_others: np.ndarray
    net: np.ndarray
    pairwise: np.ndarray
    variable_names: tuple[str, ...]

    def __post_init__(self):
        for name in ("from_others", "to_others", "net", "pairwise"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        faults = [""]
        _antisymmetry_faults(self.pairwise[np.newaxis], faults)
        _raise_fault(faults)


def _table_faults(theta: np.ndarray, faults: list[str]) -> None:
    """Flag standardized tables (N, k, k) whose rows do not sum to one or
    whose shares leave [0, 1]."""
    _flag(faults, np.abs(theta.sum(axis=2) - 1.0).max(axis=1) > ROW_SUM_TOL,
          "standardized rows must sum to 1 within 1e-10")
    _flag(faults, (theta.min(axis=(1, 2)) < -1e-12) | (theta.max(axis=(1, 2)) > 1.0 + 1e-12),
          "standardized shares must lie in [0, 1]")


def _antisymmetry_faults(pairwise: np.ndarray, faults: list[str]) -> None:
    _flag(faults, np.abs(pairwise + pairwise.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-12,
          "pairwise matrix must be antisymmetric within 1e-12")


def gfevd(model: VarModel, wold_seq: WoldSequence, horizon: int) -> ConnectednessTable:
    """Generalized H-step forecast-error variance decomposition.

    Unstandardized share (i, j):
    ``sigma_jj**-1 * sum_h (psi_h sigma)_{ij}**2 / sum_h (psi_h sigma psi_h')_{ii}``
    with sums over h = 0..H-1. The standardized table divides each row by
    its sum.
    """
    if not 1 <= horizon <= wold_seq.truncation + 1:
        raise DataError(f"horizon {horizon} outside 1..{wold_seq.truncation + 1}")
    faults = [""]
    _, raw, theta = _gfevd_stack(wold_seq.psi[np.newaxis, :horizon],
                                 model.sigma[np.newaxis], faults)
    _raise_fault(faults)
    return ConnectednessTable(theta=theta[0], raw=raw[0], horizon_tag=horizon,
                              variable_names=model.variable_names)


def _gfevd_stack(psi: np.ndarray, sigma: np.ndarray,
                 faults: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GFEVD of N models from their MA terms ``psi`` (N, H, k, k) and
    covariances ``sigma`` (N, k, k). Returns ``B_h = psi_h sigma``
    (N, H, k, k), the raw shares and the row-standardized table (N, k, k).
    The table checks are the caller's (``_table_faults``)."""
    diag = np.diagonal(sigma, axis1=1, axis2=2)
    _flag(faults, (diag <= 0).any(axis=1),
          "innovation covariance has a non-positive diagonal entry")
    b = psi @ sigma[:, np.newaxis]
    denom = (b * psi).sum(axis=3).sum(axis=1)            # forecast-error variances
    _flag(faults, (denom <= 0).any(axis=1),
          "zero forecast-error variance in decomposition denominator")
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (b**2).sum(axis=1) / diag[:, np.newaxis, :] / denom[:, :, np.newaxis]
        theta = raw / raw.sum(axis=2, keepdims=True)
    return b, raw, theta


def dy_measures(table: ConnectednessTable) -> DyMeasures:
    """Classical spillover measures on a standardized table: total is the
    off-diagonal share ``1 - trace/k``; from/to are off-diagonal row/column
    sums; net = to - from; pairwise (i, j) = theta[j, i] - theta[i, j]."""
    total, from_others, to_others, net, pairwise = (
        v[0] for v in _dy_stack(table.theta[np.newaxis]))
    return DyMeasures(total=float(total), from_others=from_others, to_others=to_others,
                      net=net, pairwise=pairwise, variable_names=table.variable_names)


def _dy_stack(theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(total, from, to, net, pairwise)`` of N standardized tables (N, k, k)."""
    k = theta.shape[1]
    diag = np.diagonal(theta, axis1=1, axis2=2)
    from_others = theta.sum(axis=2) - diag
    to_others = theta.sum(axis=1) - diag
    return (1.0 - diag.sum(axis=1) / k, from_others, to_others, to_others - from_others,
            theta.transpose(0, 2, 1) - theta)
