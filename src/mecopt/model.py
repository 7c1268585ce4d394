"""Physical system model: channels, latency, energy and the joint utility.

All operations are pure functions of their inputs. Rates follow the equal
bandwidth-share Shannon model, compute latency follows the equal
processor-share rule of the assigned edge server, and per-user utility is the
weighted difference between earnings and total latency. evaluate_allocation
is the one place that formula is computed, for all users at once;
total_objective is its objective and user_earnings its earnings term.
_compute_latency is the one place the compute latency T_k * L_n / f_n is
written: evaluate_allocation reads one row of it, and the association
subproblem sums many candidate rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence, Tuple

import numpy as np

from .earnings import EarnFamily, _h_rows, normalize_input

__all__ = [
    "SystemConfig",
    "UserProfile",
    "ServerProfile",
    "Association",
    "Allocation",
    "ZeroRateError",
    "dbm_per_hz_to_w_per_hz",
    "uplink_rate",
    "transmit_energy",
    "user_task_flops",
    "user_earnings",
    "total_objective",
    "evaluate_allocation",
    "snap_resolution",
    "RESOLUTION_TIERS",
]

# One stereo frame pixel costs 24 bits per eye.
STEREO_BITS_PER_PIXEL = 48.0

RESOLUTION_TIERS = (
    ("720p", 1280 * 720),
    ("1080p", 1920 * 1080),
    ("1440p", 2560 * 1440),
    ("4k", 3840 * 2160),
    ("8k", 7680 * 4320),
)


def dbm_per_hz_to_w_per_hz(dbm_per_hz: float) -> float:
    """Convert a spectral density quoted in dBm/Hz to W/Hz."""
    return 10.0 ** ((dbm_per_hz - 30.0) / 10.0)


class ZeroRateError(ValueError):
    """Uplink latency is undefined at a non-positive transmit power."""


@dataclass(frozen=True)
class SystemConfig:
    """Global constants shared by every user and server.

    The noise figure is a power spectral density in W/Hz (quoted network
    values in dBm/Hz convert via :func:`dbm_per_hz_to_w_per_hz`); per-user
    noise power is ``bandwidth_hz * noise / num_users``. Bandwidth, uplink
    payload and energy budgets have no published reference values; defaults
    here are desk-scale choices and freely overridable.
    """

    num_users: int
    bandwidth_hz: float = 20e6
    noise_density_w_per_hz: float = dbm_per_hz_to_w_per_hz(-134.0)
    weight_omega: float = 1.0
    eta_earn: float = 1.0
    eta_lat: float = 1.0
    lambda_up_flop_per_bit: float = 5.5e3
    s_min_px: float = 1280 * 720
    s_max_px: float = 7680 * 4320
    res_norm_px: float = 7680 * 4320
    rate_norm_bps: float = 20e6

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError("need at least one user")
        for name in _CONFIG_FLOATS:
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")
        if not self.s_min_px < self.s_max_px:
            raise ValueError("s_min_px must be below s_max_px")
        if self.s_max_px > self.res_norm_px:
            raise ValueError(f"s_max_px {self.s_max_px} exceeds the earnings normalizer "
                             f"res_norm_px {self.res_norm_px}")

    @property
    def noise_power_w(self) -> float:
        """Noise power seen by one user's equal bandwidth share."""
        return self.bandwidth_hz * self.noise_density_w_per_hz / self.num_users


_CONFIG_FLOATS = tuple(f.name for f in fields(SystemConfig) if f.type == "float")


@dataclass(frozen=True)
class UserProfile:
    channel_gain: float
    uplink_bits: float
    compression_ratio: float
    downlink_rate_bps: float
    earn_scale: float
    earn_family: EarnFamily
    energy_budget_j: float
    power_cap_w: float
    lambda_down_flop_per_bit: float

    def __post_init__(self) -> None:
        for name in _USER_FLOATS:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if not isinstance(self.earn_family, EarnFamily):
            raise ValueError(f"unknown earning family: {self.earn_family!r}")


_USER_FLOATS = tuple(f.name for f in fields(UserProfile) if f.type == "float")


@dataclass(frozen=True)
class ServerProfile:
    compute_flops: float

    def __post_init__(self) -> None:
        if not self.compute_flops > 0:
            raise ValueError("compute_flops must be strictly positive")


@dataclass(frozen=True, eq=False)
class Association:
    """User-to-server assignment: user k is on server server_indices[k].

    The paper's one-hot K x N matrix is the assign property, built on each
    read; the solvers work on the index vector. Equality and hash are by value.
    """

    server_indices: np.ndarray
    num_servers: int

    def __post_init__(self) -> None:
        n = self.num_servers
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"num_servers must be an integer >= 1, got {n!r}")
        idx = np.asarray(self.server_indices)
        if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer) \
                or np.any((idx < 0) | (idx >= n)):
            raise ValueError(f"server indices must be a 1-D integer array in [0, {n})")
        idx = idx.astype(np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "server_indices", idx)
        object.__setattr__(self, "num_servers", int(n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Association):
            return NotImplemented
        return self.num_servers == other.num_servers \
            and np.array_equal(self.server_indices, other.server_indices)

    def __hash__(self) -> int:
        return hash((self.num_servers, self.server_indices.tobytes()))

    @property
    def num_users(self) -> int:
        return self.server_indices.size

    @property
    def assign(self) -> np.ndarray:
        """The one-hot K x N int64 matrix, built on each read."""
        return np.eye(self.num_servers, dtype=np.int64)[self.server_indices]

    @property
    def loads(self) -> np.ndarray:
        """Number of users attached to each server."""
        return np.bincount(self.server_indices, minlength=self.num_servers)


def uplink_rate(cfg: SystemConfig, user: UserProfile, power_w: float) -> float:
    """Shannon uplink rate on the user's equal bandwidth share, in bit/s."""
    if power_w < 0:
        raise ValueError(f"negative transmit power: {power_w}")
    snr = user.channel_gain * power_w / cfg.noise_power_w
    share = cfg.bandwidth_hz / cfg.num_users
    return share * math.log1p(snr) / math.log(2.0)


def transmit_energy(cfg: SystemConfig, user: UserProfile, power_w: float) -> float:
    """Energy spent pushing the uplink payload at the given power, in joules."""
    if power_w <= 0:
        raise ValueError(f"transmit power must be positive, got {power_w}")
    return power_w * user.uplink_bits / uplink_rate(cfg, user, power_w)


def _per_user(users: Sequence[UserProfile], name: str) -> np.ndarray:
    return np.array([getattr(u, name) for u in users], dtype=float)


def _downlink_bits(users: Sequence[UserProfile], resolutions: np.ndarray) -> np.ndarray:
    """Each user's compressed stereo downlink frame at the given resolution, in bits."""
    return STEREO_BITS_PER_PIXEL * resolutions / _per_user(users, "compression_ratio")


def user_task_flops(cfg: SystemConfig, users: Sequence[UserProfile],
                    resolutions: np.ndarray) -> np.ndarray:
    """Each user's task FLOPs: its uplink payload plus its compressed
    downlink frame at the given resolution, each at its per-bit rate."""
    return cfg.lambda_up_flop_per_bit * _per_user(users, "uplink_bits") \
        + _per_user(users, "lambda_down_flop_per_bit") * _downlink_bits(users, resolutions)


def user_earnings(cfg: SystemConfig, users: Sequence[UserProfile],
                  resolutions: Sequence[float]) -> np.ndarray:
    """Each user's earnings tau * h(x) at the given resolutions, x being
    :func:`normalize_input` of its resolution and downlink rate."""
    x = normalize_input(cfg, resolutions, _per_user(users, "downlink_rate_bps"))
    return _per_user(users, "earn_scale") * _h_rows([u.earn_family for u in users], x)


def _compute_latency(task_flops: np.ndarray, server_flops: np.ndarray,
                     indices: np.ndarray) -> np.ndarray:
    """Each user's compute latency (s) for each row of a (rows, K) array of
    server indices: T_k * L_n / f_n, with n user k's server in that row and
    L_n that server's user count in it (equal processor shares)."""
    rows, n = np.arange(indices.shape[0])[:, None], server_flops.size
    counts = np.bincount((rows * n + indices).ravel(), minlength=rows.size * n).reshape(-1, n)
    return task_flops * counts[rows, indices] / server_flops[indices]


def total_objective(cfg: SystemConfig, users: Sequence[UserProfile],
                    servers: Sequence[ServerProfile], powers: Sequence[float],
                    resolutions: Sequence[float], association: Association) -> float:
    """Negated sum of user utilities; the quantity the solvers minimize."""
    return evaluate_allocation(cfg, users, servers, powers, resolutions,
                               association).objective


@dataclass(frozen=True)
class Allocation:
    """A full solution plus its latency/earnings/utility breakdown."""

    powers: np.ndarray
    resolutions: np.ndarray
    association: Association
    latency_up_s: np.ndarray
    latency_down_s: np.ndarray
    latency_proc_s: np.ndarray
    per_user_earnings: np.ndarray
    per_user_utility: np.ndarray
    objective: float

    @property
    def total_latency_s(self) -> np.ndarray:
        return self.latency_up_s + self.latency_down_s + self.latency_proc_s


def evaluate_allocation(cfg: SystemConfig, users: Sequence[UserProfile],
                        servers: Sequence[ServerProfile], powers: Sequence[float],
                        resolutions: Sequence[float],
                        association: Association) -> Allocation:
    """Evaluate a candidate solution and bundle all derived quantities.

    User k's latency is its uplink payload over its uplink rate, its
    downlink payload over its downlink rate, and its task FLOPs times its
    server's user count over the server's compute rate. Its utility is
    eta_earn times its earnings minus eta_lat * omega times that latency.
    """
    k_total = len(users)
    if k_total != cfg.num_users:
        raise ValueError(f"{k_total} users given for a config of {cfg.num_users}")
    powers = np.asarray(powers, dtype=float)
    resolutions = np.asarray(resolutions, dtype=float)
    if powers.shape != (k_total,) or resolutions.shape != (k_total,):
        raise ValueError("powers/resolutions must have one entry per user")
    shape = (association.num_users, association.num_servers)
    if shape != (k_total, len(servers)):
        raise ValueError(f"association has shape {shape}, "
                         f"expected ({k_total}, {len(servers)})")
    slack = 1e-9
    zero = np.flatnonzero(powers <= 0)
    if zero.size:
        raise ZeroRateError(f"user {zero[0]} has non-positive transmit power "
                            f"{powers[zero[0]]}; uplink rate undefined")
    bad = np.flatnonzero(~(powers <= _per_user(users, "power_cap_w") * (1 + slack)))
    if bad.size:
        raise ValueError(f"user {bad[0]} power {powers[bad[0]]} outside (0, p_max]")
    bad = np.flatnonzero(~((resolutions >= cfg.s_min_px * (1 - slack))
                           & (resolutions <= cfg.s_max_px * (1 + slack))))
    if bad.size:
        raise ValueError(
            f"user {bad[0]} resolution {resolutions[bad[0]]} outside bounds")

    l_up = _per_user(users, "uplink_bits") \
        / np.array([uplink_rate(cfg, u, p) for u, p in zip(users, powers)])
    l_down = _downlink_bits(users, resolutions) / _per_user(users, "downlink_rate_bps")
    l_proc = _compute_latency(user_task_flops(cfg, users, resolutions),
                              np.array([s.compute_flops for s in servers], dtype=float),
                              association.server_indices[None, :])[0]
    earn = user_earnings(cfg, users, resolutions)
    utility = cfg.eta_earn * earn \
        - cfg.eta_lat * cfg.weight_omega * (l_up + l_down + l_proc)
    return Allocation(
        powers=powers,
        resolutions=resolutions,
        association=association,
        latency_up_s=l_up,
        latency_down_s=l_down,
        latency_proc_s=l_proc,
        per_user_earnings=earn,
        per_user_utility=utility,
        objective=float(-utility.sum()),
    )


def snap_resolution(resolution_px: float) -> Tuple[str, int]:
    """Nearest standard display tier to a continuous pixel count."""
    return min(RESOLUTION_TIERS, key=lambda tier: abs(tier[1] - resolution_px))
