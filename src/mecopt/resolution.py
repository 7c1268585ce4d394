"""Downlink resolution of every user in one pass.

With power and association fixed, each user's contribution to the objective
separates into a concave earnings term minus a linear latency cost in the
pixel count, so each user's optimum is its family's closed-form stationary
point clamped to the allowed range.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .earnings import DEFAULT_PARAMS, EarnFamily
from .model import (STEREO_BITS_PER_PIXEL, Association, ServerProfile,
                    SystemConfig, UserProfile, _per_user)

__all__ = ["optimal_resolution"]


def optimal_resolution(cfg: SystemConfig, users: Sequence[UserProfile],
                       servers: Sequence[ServerProfile],
                       association: Association) -> np.ndarray:
    """Each user's utility-maximizing resolution under the given association.

    User k's utility depends on its resolution s through
    eta_earn * tau_k * h_k(x_k(s)) - slope_k * s. x_k(s) is the normalized
    input of normalize_input, and slope_k is eta_lat * omega times the
    latency of one more pixel: its downlink bits over the downlink rate plus
    their FLOPs times the server's user count over its compute rate.
    """
    shape = (association.num_users, association.num_servers)
    if shape != (len(users), len(servers)):
        raise ValueError(f"association has shape {shape}, "
                         f"expected ({len(users)}, {len(servers)})")
    idx = association.server_indices
    flops = np.array([s.compute_flops for s in servers], dtype=float)
    rate = _per_user(users, "downlink_rate_bps")
    per_bit = 1.0 / rate + _per_user(users, "lambda_down_flop_per_bit") \
        * association.loads[idx] / flops[idx]
    slope = cfg.eta_lat * cfg.weight_omega \
        * (STEREO_BITS_PER_PIXEL / _per_user(users, "compression_ratio")) * per_bit
    return _closed_form(cfg, [u.earn_family for u in users], slope,
                        cfg.eta_earn * _per_user(users, "earn_scale"),
                        0.5 * rate / cfg.rate_norm_bps)


def _closed_form(cfg: SystemConfig, families: Sequence[EarnFamily],
                 slope: np.ndarray, earn_scale: np.ndarray,
                 x_offset: np.ndarray) -> np.ndarray:
    """Maximizers over [s_min, s_max] of earn_scale * h(x_offset + dx_ds * s)
    - slope * s, elementwise, with dx_ds = 0.5 / res_norm_px.

    The three arrays share a leading axis, the user, and broadcast against
    slope: families[k] picks the DEFAULT_PARAMS curve h of row k. h is
    increasing and concave, so the stationary point
    h'(x) = slope / (earn_scale * dx_ds) clamped to the bounds is exact.
    Where the ratio of the two slopes overflows or underflows, the
    stationary point becomes +-inf and the clamp returns the bound it lies
    beyond.
    """
    dx_ds = 0.5 / cfg.res_norm_px
    x_star = np.empty(np.shape(slope))
    with np.errstate(over="ignore", divide="ignore"):
        for family, p in DEFAULT_PARAMS.items():
            mine = np.array([f is family for f in families], dtype=bool)
            c1 = slope[mine]
            marginal = earn_scale[mine] * p.alpha * p.beta * dx_ds
            if family is EarnFamily.POW:
                x_star[mine] = (c1 / marginal) ** (1.0 / (p.beta - 1.0))
            elif family is EarnFamily.LOG:
                x_star[mine] = (marginal / c1 - 1.0) / p.beta
            else:
                x_star[mine] = -np.log(c1 / marginal) / p.beta
        return np.clip((x_star - x_offset) / dx_ds, cfg.s_min_px, cfg.s_max_px)
