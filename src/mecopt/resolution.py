"""Downlink resolution of every user in one pass.

With power and association fixed, each user's contribution to the objective
separates into a concave earnings term minus a linear latency cost in the
pixel count, so each user's optimum is its family's closed-form stationary
point clamped to the allowed range.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .earnings import EarnFamily, _family_masks, _peak_input
from .model import (Association, ServerProfile, SystemConfig, UserProfile,
                    _downlink_bits, _per_user)

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
    return _closed_form(cfg, [u.earn_family for u in users],
                        *_closed_form_inputs(cfg, users, association.loads[idx], flops[idx]))


def _closed_form_inputs(cfg: SystemConfig, users: Sequence[UserProfile],
                        load: np.ndarray, flops: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slope, earn_scale and x_offset arrays _closed_form takes, for
    users on a server carrying load users at flops FLOP/s.

    The arrays' leading axis is the user, and load and flops broadcast
    against it: user k's row of load / flops is its server's load over FLOP
    rate, the only way its server enters its resolution trade-off.
    """
    lead = (len(users),) + (1,) * (np.broadcast(load, flops).ndim - 1)

    def per_user(name: str) -> np.ndarray:
        return _per_user(users, name).reshape(lead)

    rate = per_user("downlink_rate_bps")
    per_bit = 1.0 / rate + per_user("lambda_down_flop_per_bit") * load / flops
    slope = cfg.eta_lat * cfg.weight_omega * _downlink_bits(users, 1.0).reshape(lead) * per_bit
    return slope, cfg.eta_earn * per_user("earn_scale"), 0.5 * rate / cfg.rate_norm_bps


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
        for p, mine in _family_masks(families):
            x_star[mine] = _peak_input(p, slope[mine], earn_scale[mine], dx_ds)
        return np.clip((x_star - x_offset) / dx_ds, cfg.s_min_px, cfg.s_max_px)
