"""Per-user earning curves.

A user's token earnings are tau * h(x), where x is the combined normalized
resolution-plus-bitrate input and h is one of three concave families fitted
to opinion-score data: a power law, a saturating logarithm, and a saturating
exponential. The model and the resolution step evaluate them only through
this module, and fit_params fits one to samples by variable projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .model import SystemConfig

__all__ = [
    "EarnFamily",
    "EarnParams",
    "DEFAULT_PARAMS",
    "normalize_input",
    "eval_earning",
    "eval_earning_derivative",
    "fit_params",
    "check_assumption1",
    "FitResult",
    "FitStatus",
    "CheckResult",
    "DegenerateFitError",
    "DerivativeSingularError",
]


class EarnFamily(Enum):
    POW = "pow"
    LOG = "log"
    EXP = "exp"


class DegenerateFitError(ValueError):
    """Fitting samples carry no usable curvature (e.g. constant scores)."""


class DerivativeSingularError(ValueError):
    """Analytic derivative is unbounded at the requested point."""


@dataclass(frozen=True)
class EarnParams:
    """Shape parameters (alpha, beta) of one earning family.

    alpha scales the curve, beta controls saturation. Monotonicity and
    concavity on (0, 1] additionally require beta <= 1 for the power family
    and beta > 0 everywhere; those conditions are diagnosed by
    ``check_assumption1`` rather than enforced here, so that out-of-bound
    parameter sets can be constructed and rejected explicitly.
    """

    family: EarnFamily
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")


# Fitted constants of the three built-in families (power / log / exp).
DEFAULT_PARAMS = {
    EarnFamily.POW: EarnParams(EarnFamily.POW, 4.268, 0.2714),
    EarnFamily.LOG: EarnParams(EarnFamily.LOG, 1.159, 91.92),
    EarnFamily.EXP: EarnParams(EarnFamily.EXP, 89.95, 4.732),
}


def normalize_input(cfg: "SystemConfig", resolution_px, downlink_rate_bps):
    """Map (resolution, downlink rate) to [0, 1], each axis contributing [0, 0.5].

    Works elementwise on arrays, which broadcast; ValueError names the first
    resolution, then the first rate, outside its range.
    """
    res = np.asarray(resolution_px, dtype=float)
    rate = np.asarray(downlink_rate_bps, dtype=float)
    for name, v, top in (("resolution", res, cfg.res_norm_px),
                         ("rate", rate, cfg.rate_norm_bps)):
        bad = np.flatnonzero(~((v >= 0) & (v <= top)))
        if bad.size:
            raise ValueError(f"{name} {v.flat[bad[0]]} outside [0, {top}]")
    return np.minimum(0.5 * res / cfg.res_norm_px + 0.5 * rate / cfg.rate_norm_bps, 1.0)


def _h(params: EarnParams, x):
    a, b = params.alpha, params.beta
    if params.family is EarnFamily.POW:
        return a * np.power(x, b)
    if params.family is EarnFamily.LOG:
        return a * np.log1p(b * np.asarray(x, dtype=float))
    return a * -np.expm1(-b * np.asarray(x, dtype=float))


def _dh(params: EarnParams, x):
    a, b = params.alpha, params.beta
    if params.family is EarnFamily.POW:
        return a * b * np.power(x, b - 1.0)
    if params.family is EarnFamily.LOG:
        return a * b / (1.0 + b * np.asarray(x, dtype=float))
    return a * b * np.exp(-b * np.asarray(x, dtype=float))


def _d2h(params: EarnParams, x):
    a, b = params.alpha, params.beta
    if params.family is EarnFamily.POW:
        return a * b * (b - 1.0) * np.power(x, b - 2.0)
    if params.family is EarnFamily.LOG:
        return -a * b * b / np.square(1.0 + b * np.asarray(x, dtype=float))
    return -a * b * b * np.exp(-b * np.asarray(x, dtype=float))


def _family_masks(families: Sequence[EarnFamily]) -> Iterator[Tuple[EarnParams, np.ndarray]]:
    """Each DEFAULT_PARAMS curve with the mask of the rows whose family it is."""
    for family, params in DEFAULT_PARAMS.items():
        yield params, np.array([f is family for f in families], dtype=bool)


def _h_rows(families: Sequence[EarnFamily], x: np.ndarray) -> np.ndarray:
    """h over the array x, whose leading axis is the user: families[k] picks
    the DEFAULT_PARAMS curve of row k."""
    out = np.empty(x.shape)
    for params, mine in _family_masks(families):
        out[mine] = _h(params, x[mine])
    return out


def _as_x(x) -> float:
    v = float(x)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"normalized input outside [0, 1]: {v}")
    return v


def eval_earning(params: EarnParams, tau: float, x) -> float:
    """Earnings tau * h(x) for a normalized input x in [0, 1]."""
    return float(tau * _h(params, _as_x(x)))


def eval_earning_derivative(params: EarnParams, tau: float, x) -> float:
    """Analytic d(earnings)/dx. Power family is singular at x = 0 for beta < 1."""
    v = _as_x(x)
    if params.family is EarnFamily.POW and v == 0.0 and params.beta < 1.0:
        raise DerivativeSingularError(
            f"power-family derivative diverges at x=0 for beta={params.beta}")
    return float(tau * _dh(params, v))


class FitStatus(Enum):
    CONVERGED = "converged"
    GRID_ONLY = "grid_only"


@dataclass(frozen=True)
class FitResult:
    params: EarnParams
    sse: float
    status: FitStatus


def _beta_grid(family: EarnFamily) -> np.ndarray:
    if family is EarnFamily.POW:
        return np.linspace(0.01, 1.0, 200)
    return np.geomspace(1e-2, 1e3, 400)


# (sqrt(5) - 1) / 2: each golden-section step keeps this share of the bracket.
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def fit_params(samples: Iterable[Tuple[float, float]],
               family: EarnFamily,
               max_iter: int = 100) -> FitResult:
    """Least-squares (alpha, beta) fit of one family to (x, score) samples.

    Variable projection (Golub & Pereyra 1973): for a fixed beta the optimal
    alpha is the closed form f.y / f.f with f = h(x) at alpha = 1, so the fit
    searches beta alone. A coarse beta grid picks the best point, then a
    golden-section search runs between that point's two grid neighbours.
    The best point evaluated is returned. Its status is ``CONVERGED`` once
    the bracket has closed to 1e-12 relative within ``max_iter`` steps, and
    ``GRID_ONLY`` otherwise.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 5:
        raise ValueError("need at least 5 (x, score) samples")
    x, y = pts[:, 0], pts[:, 1]
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("sample inputs must lie in [0, 1]")
    if np.ptp(y) <= 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        raise DegenerateFitError("scores are constant; no curve shape to fit")

    best = (math.inf, 0.0, 0.0)

    def sse_at(beta: float) -> float:
        """The SSE at beta's optimal alpha, inf where that alpha is not
        positive; the best (sse, alpha, beta) seen is kept."""
        nonlocal best
        f = _h(EarnParams(family, 1.0, beta), x)
        denom = float(f @ f)
        alpha = float(f @ y) / denom if denom > 0 else 0.0
        if not alpha > 0:
            return math.inf
        r = alpha * f - y
        sse = float(r @ r)
        if sse < best[0]:
            best = (sse, alpha, beta)
        return sse

    grid = _beta_grid(family)
    i = int(np.argmin([sse_at(beta) for beta in grid]))
    if best[0] == math.inf:
        raise DegenerateFitError(f"no admissible grid point for the {family.value} family")

    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    status = FitStatus.GRID_ONLY
    for _ in range(max_iter):
        c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        if sse_at(c) < sse_at(d):
            hi = d
        else:
            lo = c
        if hi - lo <= 1e-12 * hi:
            status = FitStatus.CONVERGED
            break
    sse, alpha, beta = best
    return FitResult(EarnParams(family, alpha, beta), sse, status)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    defect: Optional[str] = None
    x: Optional[float] = None


def check_assumption1(params: EarnParams, grid_points: int = 1000) -> CheckResult:
    """Verify dh/dx > 0 and d2h/dx2 < 0 on a uniform grid of (0, 1]."""
    xs = np.arange(1, grid_points + 1, dtype=float) / grid_points
    d1 = _dh(params, xs)
    d2 = _d2h(params, xs)
    bad = np.nonzero(d1 <= 0)[0]
    if bad.size:
        return CheckResult(False, "monotonicity", float(xs[bad[0]]))
    bad = np.nonzero(d2 >= 0)[0]
    if bad.size:
        return CheckResult(False, "concavity", float(xs[bad[0]]))
    return CheckResult(True)
