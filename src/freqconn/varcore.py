"""VAR estimation by equation-wise least squares, stability diagnostics, and
the truncated moving-average (Wold) coefficient sequence.

The regression is solved through an orthogonal (SVD) decomposition rather
than normal equations, which keeps near-collinear volatility panels well
behaved. The residual covariance uses the maximum-likelihood divisor
``1 / (T - p)`` with no degrees-of-freedom correction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .ingest import VolatilityPanel

STABILITY_EPS = 1e-8
DEFAULT_TRUNCATION = 100


@dataclass(frozen=True)
class VarModel:
    """Fitted VAR(p): ``x_t = c + Phi_1 x_{t-1} + ... + Phi_p x_{t-p} + e_t``
    with ``e_t ~ N(0, sigma)``. Immutable after construction."""

    k: int
    p: int
    intercept: np.ndarray            # (k,)
    phi: tuple[np.ndarray, ...]      # p lag matrices, each (k, k)
    sigma: np.ndarray                # (k, k) residual covariance
    n_obs: int                       # effective sample size (rows used in OLS)
    variable_names: tuple[str, ...]

    def __post_init__(self):
        if self.k < 1 or self.p < 1:
            raise DataError("VarModel needs k >= 1 and p >= 1")
        if len(self.variable_names) != self.k:
            raise DataError("variable_names length must equal k")
        c = np.array(self.intercept, dtype=float).reshape(self.k)
        phi = tuple(np.array(m, dtype=float).reshape(self.k, self.k) for m in self.phi)
        if len(phi) != self.p:
            raise DataError("phi must hold exactly p matrices")
        s = np.array(self.sigma, dtype=float).reshape(self.k, self.k)
        s = (s + s.T) / 2.0
        for arr in (c, *phi, s):
            arr.setflags(write=False)
        object.__setattr__(self, "intercept", c)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        object.__setattr__(self, "_spectral_radius",
                           float(np.abs(np.linalg.eigvals(self.companion())).max()))

    def companion(self) -> np.ndarray:
        """(k p) x (k p) companion matrix of the lag polynomial."""
        k, p = self.k, self.p
        comp = np.zeros((k * p, k * p))
        comp[:k, :] = np.hstack(self.phi)
        if p > 1:
            comp[k:, :-k] = np.eye(k * (p - 1))
        return comp

    @property
    def spectral_radius(self) -> float:
        """Largest companion eigenvalue modulus, solved once at construction."""
        return self._spectral_radius

    @property
    def is_stable(self) -> bool:
        return self.spectral_radius < 1.0 - STABILITY_EPS


@dataclass(frozen=True)
class WoldSequence:
    """Truncated MA coefficients ``psi[h]`` for h = 0..truncation; psi[0] = I."""

    psi: np.ndarray  # (truncation + 1, k, k)
    truncation: int

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if psi.ndim != 3 or psi.shape[0] != self.truncation + 1:
            raise DataError("psi must be (truncation + 1, k, k)")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def k(self) -> int:
        return self.psi.shape[1]


def fit_var(panel: VolatilityPanel, p: int, include_intercept: bool = True) -> VarModel:
    """Estimate a VAR(p) by ordinary least squares.

    Equation-by-equation OLS with shared regressors, solved jointly through
    ``numpy.linalg.lstsq``. Residual covariance is the residual cross-product
    divided by the effective sample size T - p.
    """
    return fit_var_values(panel.values, p, include_intercept, panel.symbols)


def fit_var_values(
    values: np.ndarray,
    p: int,
    include_intercept: bool = True,
    variable_names: tuple[str, ...] | None = None,
) -> VarModel:
    """``fit_var`` on a bare (T, k) array; used by bootstrap replicates."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 2:
        raise DataError("values must be a (T, k) matrix")
    t_total, k = x.shape
    if p < 1:
        raise DataError("lag order p must be >= 1")
    n_eff = t_total - p
    if n_eff < k * p + 1:
        raise DataError(
            f"insufficient sample: T - p = {n_eff} < k*p + 1 = {k * p + 1}"
        )
    names = variable_names or tuple(f"V{i + 1}" for i in range(k))

    y = x[p:]
    blocks = [x[p - j: t_total - j] for j in range(1, p + 1)]
    if include_intercept:
        blocks.insert(0, np.ones((n_eff, 1)))
    regressors = np.hstack(blocks)

    beta, _, rank, sv = np.linalg.lstsq(regressors, y, rcond=None)
    if rank < regressors.shape[1]:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        raise NumericError(
            f"rank-deficient regressor matrix (rank {rank} < {regressors.shape[1]}, "
            f"condition number {cond:.3g})"
        )
    resid = y - regressors @ beta
    sigma = resid.T @ resid / n_eff

    offset = 1 if include_intercept else 0
    intercept = beta[0] if include_intercept else np.zeros(k)
    phi = tuple(beta[offset + (j - 1) * k: offset + j * k].T for j in range(1, p + 1))
    return VarModel(k=k, p=p, intercept=intercept, phi=phi, sigma=sigma,
                    n_obs=n_eff, variable_names=names)


def stability(model: VarModel) -> tuple[bool, float]:
    """``(model.is_stable, model.spectral_radius)``: the stability predicate
    and the companion-matrix spectral radius."""
    return model.is_stable, model.spectral_radius


def wold(model: VarModel, h_trunc: int = DEFAULT_TRUNCATION) -> WoldSequence:
    """Truncated MA representation: ``psi_0 = I``,
    ``psi_h = sum_{j<=min(h,p)} Phi_j psi_{h-j}``. Requires a stable model."""
    stable, radius = stability(model)
    if not stable:
        raise NumericError(
            f"unstable VAR (spectral radius {radius:.6g}); "
            "truncated MA representation would not converge"
        )
    if h_trunc < 1:
        raise DataError("h_trunc must be >= 1")
    k, p = model.k, model.p
    psi = np.zeros((h_trunc + 1, k, k))
    psi[0] = np.eye(k)
    for h in range(1, h_trunc + 1):
        for j in range(1, min(h, p) + 1):
            psi[h] += model.phi[j - 1] @ psi[h - j]
    tail = float(np.linalg.norm(psi[h_trunc]))
    head = float(np.linalg.norm(psi[0]))
    if tail >= head:
        warnings.warn(
            f"Wold tail norm {tail:.3g} has not decayed below psi_0 norm at "
            f"truncation {h_trunc}; consider a larger truncation",
            RuntimeWarning,
            stacklevel=2,
        )
    return WoldSequence(psi=psi, truncation=h_trunc)


# ---------------------------------------------------------------------------
# structured text serialization
# ---------------------------------------------------------------------------

def _fmt_matrix(m: np.ndarray) -> str:
    return " ; ".join(" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(m))


def _parse_matrix(text: str, k: int) -> np.ndarray:
    rows = [[float(v) for v in row.split()] for row in text.split(";")]
    m = np.array(rows)
    if m.shape != (k, k):
        raise DataError(f"expected a {k}x{k} matrix, got shape {m.shape}")
    return m


def model_to_text(model: VarModel) -> str:
    """Serialize a VarModel to a flat key: value document, matrices row-major
    with ';' separating rows."""
    lines = [
        "format: freqconn-var-model-v1",
        f"k: {model.k}",
        f"p: {model.p}",
        f"n_obs: {model.n_obs}",
        "variable_names: " + " ".join(model.variable_names),
        "intercept: " + " ".join(repr(float(v)) for v in model.intercept),
    ]
    for j, m in enumerate(model.phi, start=1):
        lines.append(f"phi_{j}: " + _fmt_matrix(m))
    lines.append("sigma: " + _fmt_matrix(model.sigma))
    lines.append(f"spectral_radius: {model.spectral_radius!r}")
    lines.append(f"stable: {str(model.is_stable).lower()}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> VarModel:
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if ":" not in line:
            raise DataError(f"model text line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    try:
        k = int(fields["k"])
        p = int(fields["p"])
        n_obs = int(fields.get("n_obs", "0"))
        names = tuple(fields["variable_names"].split())
        intercept = np.array([float(v) for v in fields["intercept"].split()])
        phi = tuple(_parse_matrix(fields[f"phi_{j}"], k) for j in range(1, p + 1))
        sigma = _parse_matrix(fields["sigma"], k)
    except KeyError as exc:
        raise DataError(f"model text missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise DataError(f"model text: {exc}") from None
    return VarModel(k=k, p=p, intercept=intercept, phi=phi, sigma=sigma,
                    n_obs=n_obs, variable_names=names)
