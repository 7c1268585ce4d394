"""Optimal per-user transmit power.

The uplink energy y(p) = p * D / R(p) is strictly increasing in p, so the
energy budget binds at a unique root y(p_hat) = E_max whenever the p -> 0
energy limit sits below the budget. That root has a closed form through the
lower real branch of the Lambert W function; the optimal power is then the
smaller of p_hat and the hardware power cap. A plain bisection of
model.transmit_energy against the budget serves as a cross-check that is
independent of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import SystemConfig, UserProfile, transmit_energy

__all__ = [
    "WBranch",
    "lambert_w",
    "PowerBinding",
    "PowerSolution",
    "EnergyInfeasibleError",
    "feasibility_ratio",
    "optimal_power",
    "energy_root_oracle",
]

LN2 = math.log(2.0)
BRANCH_POINT = -math.exp(-1.0)  # -1/e, where the two real branches meet
_HALLEY_CAP = 50
_BISECT_STEPS = 200


class WBranch(Enum):
    PRINCIPAL = 0
    LOWER = -1


def _halley(w: float, x: float) -> float:
    """Polish w toward w*exp(w) = x until the update stalls.

    Convergence is judged on the step size, not the residual: near the
    branch point the defining function flattens and a small residual can
    hide a much larger error in w itself.
    """
    for _ in range(_HALLEY_CAP):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            return w
        wp1 = w + 1.0
        if wp1 == 0.0:
            return w
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            return w
        step = f / denom
        w -= step
        if abs(step) <= 5e-16 * max(1.0, abs(w)):
            return w
    return w


def lambert_w(branch: WBranch, x: float) -> float:
    """Real Lambert W: the solution w of w * exp(w) = x on the chosen branch.

    PRINCIPAL covers x >= -1/e (w >= -1); LOWER covers -1/e <= x < 0
    (w <= -1). Inputs a hair below -1/e from rounding are snapped to the
    branch point.
    """
    if not math.isfinite(x):
        raise ValueError(f"non-finite argument: {x}")
    if x < BRANCH_POINT:
        if x > BRANCH_POINT - 1e-15:
            return -1.0
        raise ValueError(f"{x} below the branch point -1/e")
    if x == BRANCH_POINT:
        return -1.0

    # p-series around the branch point; p flips sign on the lower branch.
    p2 = 2.0 * (math.e * x + 1.0)
    p = math.sqrt(max(p2, 0.0))
    if branch is WBranch.LOWER:
        p = -p

    def _series(q: float) -> float:
        return (-1.0 + q - q * q / 3.0 + 11.0 / 72.0 * q ** 3
                - 43.0 / 540.0 * q ** 4 + 769.0 / 17280.0 * q ** 5)

    if branch is WBranch.PRINCIPAL:
        if x == 0.0:
            return 0.0
        if abs(p) < 1e-3:
            # Halley cannot improve here (the iteration map is singular at
            # the branch point); the series is accurate to O(p^6).
            return _series(p)
        if x < -0.25:
            w = _series(p)
        elif x < math.e:
            w = math.log1p(x) if x > -0.5 else x
        else:
            lx = math.log(x)
            w = lx - math.log(lx)
        return _halley(w, x)

    if x >= 0.0:
        raise ValueError(f"lower branch needs x in [-1/e, 0), got {x}")
    if x > -1e-300:
        raise ValueError(f"{x} too close to zero for the lower branch")
    if abs(p) < 1e-3:
        return _series(p)
    if p2 < 0.045:
        w = _series(p)
    else:
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1 + l2 * (l2 - 2.0) / (2.0 * l1 * l1)
    w = _halley(w, x)
    # Halley preserves the branch from these starting points; w <= -1 holds.
    return min(w, -1.0)


class PowerBinding(Enum):
    POWER_CAP = "power_cap"
    ENERGY_BUDGET = "energy_budget"


class EnergyInfeasibleError(ValueError):
    """No positive power meets the energy budget: the p -> 0 limit already exceeds it."""

    def __init__(self, z: float):
        self.z = z
        super().__init__(
            f"energy budget infeasible: zero-power energy limit is {z:.6g}x the budget")


@dataclass(frozen=True)
class PowerSolution:
    p_star: float
    binding: PowerBinding
    z: float  # zero-power energy limit divided by the budget; < 1 when feasible


def feasibility_ratio(cfg: SystemConfig, user: UserProfile) -> float:
    """Ratio of the p -> 0 uplink energy limit to the user's energy budget."""
    return LN2 * user.uplink_bits * cfg.noise_density_w_per_hz \
        / (user.energy_budget_j * user.channel_gain)


def optimal_power(cfg: SystemConfig, user: UserProfile) -> PowerSolution:
    """Rate-maximizing transmit power under the energy budget and power cap."""
    z = feasibility_ratio(cfg, user)
    if z >= 1.0:
        raise EnergyInfeasibleError(z)
    w = lambert_w(WBranch.LOWER, -z * math.exp(-z))
    scale = cfg.bandwidth_hz * user.energy_budget_j \
        / (LN2 * user.uplink_bits * cfg.num_users)
    p_hat = scale * (-w - z)
    if p_hat >= user.power_cap_w:
        return PowerSolution(user.power_cap_w, PowerBinding.POWER_CAP, z)
    return PowerSolution(p_hat, PowerBinding.ENERGY_BUDGET, z)


def energy_root_oracle(cfg: SystemConfig, user: UserProfile) -> float:
    """Bisection root of transmit_energy(p) = E_max, relying only on its monotonicity."""
    z = feasibility_ratio(cfg, user)
    if z >= 1.0:
        raise EnergyInfeasibleError(z)
    budget = user.energy_budget_j
    lo = 1e-12
    hi = 2e-12
    while transmit_energy(cfg, user, hi) <= budget:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the energy root")
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if transmit_energy(cfg, user, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
