"""Per-user earning curves.

A user's token earnings are tau * h(x), where x is the combined normalized
resolution-plus-bitrate input and h is one of three concave families fitted
to opinion-score data: a power law, a saturating logarithm, and a saturating
exponential. The model evaluates them, and the resolution step finds their
stationary points, only through this module; fit_params fits one to
samples by variable projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .model import SystemConfig

__all__ = [
    "EarnFamily",
    "EarnParams",
    "DEFAULT_PARAMS",
    "normalize_input",
    "eval_earning",
    "fit_params",
    "FitResult",
    "FitStatus",
    "DegenerateFitError",
]


class EarnFamily(Enum):
    POW = "pow"
    LOG = "log"
    EXP = "exp"


class DegenerateFitError(ValueError):
    """Fitting samples carry no usable curvature (e.g. constant scores)."""


@dataclass(frozen=True)
class EarnParams:
    """Shape parameters (alpha, beta) of one earning family.

    alpha scales the curve, beta controls saturation. Every instance meets
    the paper's Assumption 1, that h is increasing and concave on (0, 1],
    which the resolution step's closed form needs: for a positive alpha that
    holds exactly when beta is positive, and also below 1 for the power
    family. A parameter that is not finite, or that breaks the assumption,
    raises ValueError naming it.
    """

    family: EarnFamily
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.family is EarnFamily.POW and not self.beta < 1:
            raise ValueError(f"beta must be below 1 for the pow family, got {self.beta}")


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


def _peak_input(params: EarnParams, slope, weight, dx_ds: float):
    """The input x at which weight * h'(x) * dx_ds equals slope, elementwise:
    the stationary point of weight * h(x) - slope * s when x moves dx_ds per
    unit of s, a maximum because h is increasing and concave. Where the
    ratio of the two slopes overflows or underflows, the result is +-inf
    and numpy warns."""
    a, b = params.alpha, params.beta
    marginal = weight * a * b * dx_ds
    if params.family is EarnFamily.POW:
        return (slope / marginal) ** (1.0 / (b - 1.0))
    if params.family is EarnFamily.LOG:
        return (marginal / slope - 1.0) / b
    return -np.log(slope / marginal) / b


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


def eval_earning(params: EarnParams, tau: float, x) -> float:
    """Earnings tau * h(x) for a normalized input x in [0, 1]."""
    v = float(x)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"normalized input outside [0, 1]: {v}")
    return float(tau * _h(params, v))


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
_GOLDEN_STEPS = 100


def fit_params(samples: Iterable[Tuple[float, float]], family: EarnFamily) -> FitResult:
    """Least-squares (alpha, beta) fit of one family to (x, score) samples.

    Variable projection (Golub & Pereyra 1973): for a fixed beta the optimal
    alpha is the closed form f.y / f.f with f = h(x) at alpha = 1, so the fit
    searches beta alone. A coarse beta grid picks the best point, then a
    golden-section search runs between that point's two grid neighbours.
    A beta at which EarnParams rejects the curve or its optimal alpha is
    inadmissible, so the power fit stays below beta = 1. The best point
    evaluated is returned. Its status is ``CONVERGED`` once the bracket has
    closed to 1e-12 relative within ``_GOLDEN_STEPS`` steps, and
    ``GRID_ONLY`` otherwise or when the best beta is an end of the grid,
    where no stationary point was shown. Every family is increasing, so
    scores with no positive least-squares alpha at any grid beta raise
    DegenerateFitError.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 5:
        raise ValueError("need at least 5 (x, score) samples")
    x, y = pts[:, 0], pts[:, 1]
    outside = ~((x >= 0) & (x <= 1))
    if outside.any():
        raise ValueError(f"sample inputs must lie in [0, 1], got {x[outside][0]}")
    if not np.isfinite(y).all():
        raise ValueError(f"sample scores must be finite, got {y[~np.isfinite(y)][0]}")
    if np.ptp(y) <= 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        raise DegenerateFitError("scores are constant; no curve shape to fit")

    best = (math.inf, None)

    def sse_at(beta: float) -> float:
        """The SSE at beta's optimal alpha, inf where EarnParams rejects
        either; the best (sse, params) seen is kept."""
        nonlocal best
        try:
            f = _h(EarnParams(family, 1.0, beta), x)
            denom = float(f @ f)
            params = EarnParams(family, float(f @ y) / denom if denom > 0 else 0.0, beta)
        except ValueError:
            return math.inf
        r = params.alpha * f - y
        sse = float(r @ r)
        if sse < best[0]:
            best = (sse, params)
        return sse

    grid = _beta_grid(family)
    i = int(np.argmin([sse_at(beta) for beta in grid.tolist()]))
    if best[0] == math.inf:
        raise DegenerateFitError(
            f"the least-squares alpha of the {family.value} family is not positive at any "
            "grid beta; every family is increasing, so it cannot fit scores that fall as x rises")

    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    status = FitStatus.GRID_ONLY
    for _ in range(_GOLDEN_STEPS):
        c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        if sse_at(c) < sse_at(d):
            hi = d
        else:
            lo = c
        if hi - lo <= 1e-12 * hi:
            status = FitStatus.CONVERGED
            break
    sse, params = best
    if params.beta in (grid[0], grid[-1]):
        status = FitStatus.GRID_ONLY
    return FitResult(params, sse, status)

