"""Per-user earning curves.

A user's token earnings are tau * h(x), where x is the combined normalized
resolution-plus-bitrate input and h is one of three concave families fitted
to opinion-score data: a power law, a saturating logarithm, and a saturating
exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

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


def normalize_input(cfg: "SystemConfig", resolution_px: float,
                    downlink_rate_bps: float) -> float:
    """Map (resolution, downlink rate) to [0, 1], each axis contributing [0, 0.5]."""
    if not 0 <= resolution_px <= cfg.res_norm_px:
        raise ValueError(f"resolution {resolution_px} outside [0, {cfg.res_norm_px}]")
    if not 0 <= downlink_rate_bps <= cfg.rate_norm_bps:
        raise ValueError(f"rate {downlink_rate_bps} outside [0, {cfg.rate_norm_bps}]")
    x = 0.5 * resolution_px / cfg.res_norm_px + 0.5 * downlink_rate_bps / cfg.rate_norm_bps
    return min(float(x), 1.0)


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


def _basis_dbeta(family: EarnFamily, beta: float, x: np.ndarray) -> np.ndarray:
    if family is EarnFamily.POW:
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.power(x[pos], beta) * np.log(x[pos])
        return out
    if family is EarnFamily.LOG:
        return x / (1.0 + beta * x)
    return x * np.exp(-beta * x)


def fit_params(samples: Iterable[Tuple[float, float]],
               family: EarnFamily,
               max_iter: int = 100) -> FitResult:
    """Least-squares (alpha, beta) fit of one family to (x, score) samples.

    A coarse beta grid with the closed-form optimal alpha per beta seeds a
    damped Gauss-Newton refinement. If refinement fails to improve, the best
    grid point is returned with ``GRID_ONLY`` status.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 5:
        raise ValueError("need at least 5 (x, score) samples")
    x, y = pts[:, 0], pts[:, 1]
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("sample inputs must lie in [0, 1]")
    if np.ptp(y) <= 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        raise DegenerateFitError("scores are constant; no curve shape to fit")

    def basis(beta: float) -> np.ndarray:
        return _h(EarnParams(family, 1.0, beta), x)

    def sse_of(alpha: float, beta: float) -> float:
        r = alpha * basis(beta) - y
        return float(r @ r)

    best = None
    for beta in _beta_grid(family):
        f = basis(beta)
        denom = float(f @ f)
        if denom <= 0:
            continue
        alpha = float(f @ y) / denom
        if alpha <= 0:
            continue
        s = sse_of(alpha, beta)
        if best is None or s < best[0]:
            best = (s, alpha, beta)
    if best is None:
        raise DegenerateFitError("no admissible grid point for this family")

    sse, alpha, beta = best
    converged = False
    for _ in range(max_iter):
        f = basis(beta)
        jac = np.column_stack([f, alpha * _basis_dbeta(family, beta, x)])
        r = alpha * f - y
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        damp = 1.0
        improved = False
        for _ in range(20):
            a_new = alpha + damp * step[0]
            b_new = beta + damp * step[1]
            if family is EarnFamily.POW:
                b_new = min(b_new, 1.0)
            if a_new > 0 and b_new > 0:
                s_new = sse_of(a_new, b_new)
                if s_new <= sse:
                    improved = True
                    break
            damp *= 0.5
        if not improved:
            break
        rel = math.hypot(a_new - alpha, b_new - beta) / max(1e-12, math.hypot(alpha, beta))
        alpha, beta, sse = a_new, b_new, s_new
        if rel < 1e-12:
            converged = True
            break

    # On refinement stall or iteration-cap exhaustion the best parameters
    # found so far are returned (never worse than the seeding grid point,
    # since steps are only accepted when they do not raise the SSE) with the
    # warning status.
    status = FitStatus.CONVERGED if converged else FitStatus.GRID_ONLY
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
