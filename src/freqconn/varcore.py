"""VAR estimation by equation-wise least squares, stability diagnostics, and
the truncated moving-average (Wold) coefficient sequence.

The regression is solved through an orthogonal (SVD) decomposition rather
than normal equations, which keeps near-collinear volatility panels well
behaved. The residual covariance uses the maximum-likelihood divisor
``1 / (T - p)`` with no degrees-of-freedom correction.

The numerical kernels (``_fit_stack``, ``_spectral_radius``, ``_wold_stack``)
work on stacks of N models along a leading axis, and a row's result does
not depend on which other rows share its stack. The public single-model
functions are N = 1 calls into them. A kernel does not raise for a bad
row: it records the row's first failure in a ``faults`` list (one message
per row, ``""`` while the row is sound), which the single-model functions
turn into the exception they raise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .ingest import VolatilityPanel

STABILITY_EPS = 1e-8
DEFAULT_TRUNCATION = 100


def _flag(faults: list[str], bad: np.ndarray, message) -> None:
    """Record ``message`` (a string, or a function of the row index) for
    each row flagged in ``bad`` that has no fault yet, so a row keeps the
    first check it failed."""
    for i in np.flatnonzero(bad):
        if not faults[i]:
            faults[i] = message(i) if callable(message) else message


def _raise_fault(faults: list[str]) -> None:
    """Single-model callers: raise the first fault of their one row."""
    if faults[0]:
        raise NumericError(faults[0])


def _companion(phi: np.ndarray) -> np.ndarray:
    """(N, k p, k p) companion matrices of lag matrices ``phi`` (N, p, k, k)."""
    n, p, k, _ = phi.shape
    comp = np.zeros((n, k * p, k * p))
    comp[:, :k, :] = phi.transpose(0, 2, 1, 3).reshape(n, k, k * p)
    if p > 1:
        comp[:, k:, :-k] = np.eye(k * (p - 1))
    return comp


def _spectral_radius(phi: np.ndarray) -> np.ndarray:
    """(N,) largest companion eigenvalue modulus of each model."""
    return np.abs(np.linalg.eigvals(_companion(phi))).max(axis=1)


def _stable(radius):
    """The stability rule on spectral radii; NaN is not stable."""
    return radius < 1.0 - STABILITY_EPS


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
        object.__setattr__(self, "_spectral_radius", float(_spectral_radius(self._phi_stack())[0]))

    def _phi_stack(self) -> np.ndarray:
        """The lag matrices as a one-model kernel stack (1, p, k, k)."""
        return np.stack(self.phi)[np.newaxis]

    @property
    def spectral_radius(self) -> float:
        """Largest companion eigenvalue modulus, solved once at construction."""
        return self._spectral_radius

    @property
    def is_stable(self) -> bool:
        return _stable(self.spectral_radius)


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


def fit_var(panel: VolatilityPanel, p: int, include_intercept: bool = True) -> VarModel:
    """Estimate a VAR(p) by ordinary least squares.

    Equation-by-equation OLS with shared regressors, solved jointly through
    one SVD of the regressor matrix. Residual covariance is the residual
    cross-product divided by the effective sample size T - p.
    """
    return fit_var_values(panel.values, p, include_intercept, panel.symbols)


def fit_var_values(
    values: np.ndarray,
    p: int,
    include_intercept: bool = True,
    variable_names: tuple[str, ...] | None = None,
) -> VarModel:
    """``fit_var`` on a bare (T, k) array."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 2:
        raise DataError("values must be a (T, k) matrix")
    faults = [""]
    intercept, phi, sigma = _fit_stack(x[np.newaxis], p, include_intercept, faults)
    _raise_fault(faults)
    k = x.shape[1]
    return VarModel(k=k, p=p, intercept=intercept[0], phi=tuple(phi[0]), sigma=sigma[0],
                    n_obs=x.shape[0] - p,
                    variable_names=variable_names or tuple(f"V{i + 1}" for i in range(k)))


def _fit_stack(x: np.ndarray, p: int, include_intercept: bool,
               faults: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OLS VAR(p) fits of N (T, k) panels ``x`` (N, T, k), through one SVD
    of each regressor matrix. Returns ``(intercept (N, k), phi (N, p, k, k),
    sigma (N, k, k))``, sigma symmetrized as ``VarModel`` stores it. A row
    is rank-deficient under the rule of ``numpy.linalg.lstsq(rcond=None)``:
    a singular value at or below ``eps * max(T - p, m) * s_max``. Such a row
    gets a fault and NaN coefficients. A sample too short for any row raises
    ``DataError``."""
    n, t_total, k = x.shape
    if p < 1:
        raise DataError("lag order p must be >= 1")
    n_eff = t_total - p
    if n_eff < k * p + 1:
        raise DataError(
            f"insufficient sample: T - p = {n_eff} < k*p + 1 = {k * p + 1}"
        )
    y = x[:, p:]
    blocks = [x[:, p - j: t_total - j] for j in range(1, p + 1)]
    if include_intercept:
        blocks.insert(0, np.ones((n, n_eff, 1)))
    regressors = np.concatenate(blocks, axis=2)             # (N, n_eff, m)
    m = regressors.shape[2]

    u, sv, vt = np.linalg.svd(regressors, full_matrices=False)
    cutoff = np.finfo(float).eps * max(n_eff, m) * sv[:, :1]
    rank = (sv > cutoff).sum(axis=1)
    _flag(faults, rank < m, lambda i: (
        f"rank-deficient regressor matrix (rank {rank[i]} < {m}, condition number "
        f"{float(sv[i, 0] / sv[i, -1]) if sv[i, -1] > 0 else np.inf:.3g})"))
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = vt.transpose(0, 2, 1) @ ((u.transpose(0, 2, 1) @ y) / sv[:, :, np.newaxis])
    beta[rank < m] = np.nan
    resid = y - regressors @ beta
    sigma = resid.transpose(0, 2, 1) @ resid / n_eff
    sigma = (sigma + sigma.transpose(0, 2, 1)) / 2.0

    offset = 1 if include_intercept else 0
    intercept = beta[:, 0] if include_intercept else np.zeros((n, k))
    phi = beta[:, offset:].reshape(n, p, k, k).transpose(0, 1, 3, 2).copy()
    return intercept, phi, sigma


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
    psi = _wold_stack(model._phi_stack(), h_trunc)
    tail = _tail_warnings(psi)[0]
    if tail:
        warnings.warn(tail, RuntimeWarning, stacklevel=2)
    return WoldSequence(psi=psi[0], truncation=h_trunc)


def _wold_stack(phi: np.ndarray, h_trunc: int) -> np.ndarray:
    """(N, h_trunc + 1, k, k) MA coefficients of lag matrices ``phi`` (N, p, k, k)."""
    if h_trunc < 1:
        raise DataError("h_trunc must be >= 1")
    n, p, k, _ = phi.shape
    psi = np.zeros((n, h_trunc + 1, k, k))
    psi[:, 0] = np.eye(k)
    for h in range(1, h_trunc + 1):
        for j in range(1, min(h, p) + 1):
            psi[:, h] += phi[:, j - 1] @ psi[:, h - j]
    return psi


def _tail_warnings(psi: np.ndarray) -> list[str]:
    """Per model of an MA stack, the warning text when the last term's norm
    has not decayed below psi_0's, else ``""``."""
    h_trunc = psi.shape[1] - 1
    tail = np.linalg.norm(psi[:, -1], axis=(1, 2))
    head = np.linalg.norm(psi[:, 0], axis=(1, 2))
    return [f"Wold tail norm {t:.3g} has not decayed below psi_0 norm at truncation "
            f"{h_trunc}; consider a larger truncation" if t >= h0 else ""
            for t, h0 in zip(tail.tolist(), head.tolist())]


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
        "intercept: " + _fmt_matrix(model.intercept),
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
