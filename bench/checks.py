"""Correctness checks on the outputs of the benchmark's workloads.

Each check either recomputes a quantity from the model's formulas with its
own numpy code, without calling into mecopt, or tests a property the method
must have. None of them compares against a stored copy of earlier output.
Only the fitted earning-curve constants (``DEFAULT_PARAMS``) are read from
mecopt, because they are data, not code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mecopt.earnings import DEFAULT_PARAMS, EarnFamily

STEREO_BITS_PER_PIXEL = 48.0
REL_TOL = 1e-9
# The closed-form power and this module's bisection differ by up to 8e-10
# relative over 900 drawn users; 1e-7 leaves a wide margin and still rejects
# a power 1e-6 off its root.
POWER_REL_TOL = 1e-7
GRID_POINTS = 2001


class CheckFailed(AssertionError):
    """An output of mecopt broke a property or disagreed with a recomputation."""


def _close(a, b, rel: float = REL_TOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(b), 1.0)))


@dataclass(frozen=True)
class Users:
    """The per-user fields the model's formulas need, as arrays."""

    gain: np.ndarray
    uplink_bits: np.ndarray
    compression: np.ndarray
    down_rate: np.ndarray
    tau: np.ndarray
    budget: np.ndarray
    cap: np.ndarray
    lam_down: np.ndarray
    families: tuple

    @classmethod
    def of(cls, users) -> "Users":
        def col(name):
            return np.array([getattr(u, name) for u in users], dtype=float)
        return cls(col("channel_gain"), col("uplink_bits"), col("compression_ratio"),
                   col("downlink_rate_bps"), col("earn_scale"), col("energy_budget_j"),
                   col("power_cap_w"), col("lambda_down_flop_per_bit"),
                   tuple(u.earn_family for u in users))


def uplink_rate(cfg, u: Users, powers) -> np.ndarray:
    """Shannon rate on the equal bandwidth share B/K."""
    share = cfg.bandwidth_hz / cfg.num_users
    snr = u.gain * np.asarray(powers, dtype=float) / (share * cfg.noise_density_w_per_hz)
    return share * np.log1p(snr) / math.log(2.0)


def bisect_power(cfg, u: Users, iterations: int = 200) -> np.ndarray:
    """Power that spends exactly the energy budget, or the cap if that costs less.

    Uplink energy p * D / R(p) increases with p, so its root on (0, cap] is
    found by bisection on every user at once.
    """
    def energy(p):
        return p * u.uplink_bits / uplink_rate(cfg, u, p)

    capped = energy(u.cap) <= u.budget
    lo = np.zeros_like(u.cap)
    hi = u.cap.copy()
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = energy(mid) <= u.budget
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(capped, u.cap, 0.5 * (lo + hi))


def earnings(cfg, u: Users, resolutions) -> np.ndarray:
    s = np.asarray(resolutions, dtype=float)
    x = np.minimum(0.5 * s / cfg.res_norm_px + 0.5 * u.down_rate / cfg.rate_norm_bps, 1.0)
    out = np.empty(np.broadcast(s, u.tau).shape)
    for fam in EarnFamily:
        sel = np.array([f is fam for f in u.families])
        if not sel.any():
            continue
        a, b = DEFAULT_PARAMS[fam].alpha, DEFAULT_PARAMS[fam].beta
        xs = x[..., sel]
        if fam is EarnFamily.POW:
            h = a * xs ** b
        elif fam is EarnFamily.LOG:
            h = a * np.log(1.0 + b * xs)
        else:
            h = a * (1.0 - np.exp(-b * xs))
        out[..., sel] = u.tau[sel] * h
    return out


def evaluate(cfg, users, servers, powers, resolutions, indices) -> dict:
    """Latency terms, earnings and utility of every user, from the formulas."""
    u = users if isinstance(users, Users) else Users.of(users)
    f = np.array([s.compute_flops for s in servers], dtype=float)
    idx = np.asarray(indices, dtype=np.int64)
    s = np.asarray(resolutions, dtype=float)
    d_down = STEREO_BITS_PER_PIXEL * s / u.compression
    task = cfg.lambda_up_flop_per_bit * u.uplink_bits + u.lam_down * d_down
    loads = np.bincount(idx, minlength=len(f))
    out = {
        "up": u.uplink_bits / uplink_rate(cfg, u, powers),
        "down": d_down / u.down_rate,
        "proc": task * loads[idx] / f[idx],
        "earn": earnings(cfg, u, s),
    }
    latency = out["up"] + out["down"] + out["proc"]
    out["utility"] = cfg.eta_earn * out["earn"] - cfg.eta_lat * cfg.weight_omega * latency
    return out


def start_point_utility(cfg, users, servers) -> float:
    """Summed utility of the round-robin, minimum-resolution start point."""
    u = Users.of(users)
    k, n = len(users), len(servers)
    ev = evaluate(cfg, u, servers, bisect_power(cfg, u), np.full(k, cfg.s_min_px),
                  np.arange(k) % n)
    return float(ev["utility"].sum())


def check_allocation(cfg, users, servers, alloc) -> float:
    """Check one allocation and return its recomputed summed utility."""
    u = Users.of(users)
    k, n = len(users), len(servers)
    a = np.asarray(alloc.association.assign)
    if a.shape != (k, n) or not np.all((a == 0) | (a == 1)) or not np.all(a.sum(axis=1) == 1):
        raise CheckFailed("association is not one-hot")
    p = np.asarray(alloc.powers, dtype=float)
    if not np.all((p > 0) & (p <= u.cap)):
        raise CheckFailed("a power lies outside (0, cap]")
    if not _close(p, bisect_power(cfg, u), POWER_REL_TOL):
        raise CheckFailed("a power is neither the energy root nor the cap")
    s = np.asarray(alloc.resolutions, dtype=float)
    if not np.all((s >= cfg.s_min_px) & (s <= cfg.s_max_px)):
        raise CheckFailed("a resolution lies outside [s_min, s_max]")
    ev = evaluate(cfg, u, servers, p, s, np.argmax(a, axis=1))
    for name, got in (("up", alloc.latency_up_s), ("down", alloc.latency_down_s),
                      ("proc", alloc.latency_proc_s), ("earn", alloc.per_user_earnings),
                      ("utility", alloc.per_user_utility)):
        if not _close(got, ev[name]):
            raise CheckFailed(f"per-user {name} disagrees with the model's formulas")
    total = float(ev["utility"].sum())
    if not _close(alloc.objective, -total):
        raise CheckFailed("objective is not the negated summed utility")
    return total


def check_descent(objective_values: Sequence[float]) -> None:
    v = np.asarray(objective_values, dtype=float)
    if np.any(v[1:] > v[:-1] + 1e-12 * np.abs(v[:-1])):
        raise CheckFailed("the objective trace increases")


def check_resolutions_optimal(cfg, users, servers, alloc, points: int = GRID_POINTS) -> None:
    """No user gains by moving to another point of a grid over [s_min, s_max].

    With the association fixed, user k's resolution changes only user k's
    own utility (its task size on its server), so each user is checked alone.
    """
    u = Users.of(users)
    idx = np.argmax(np.asarray(alloc.association.assign), axis=1)
    grid = np.linspace(cfg.s_min_px, cfg.s_max_px, points)[:, None]
    trial = np.broadcast_to(grid, (points, len(users)))
    base = evaluate(cfg, u, servers, alloc.powers, alloc.resolutions, idx)["utility"]
    moved = evaluate(cfg, u, servers, alloc.powers, trial, idx)["utility"]
    if np.any(moved > base + REL_TOL * np.maximum(np.abs(base), 1.0)):
        raise CheckFailed("a user's utility rises at another resolution")


def compute_latency(cfg, users, servers, indices, resolutions) -> float:
    """Scaled compute latency scale * sum_n L_n * T_n / f_n of one assignment."""
    u = Users.of(users)
    f = np.array([s.compute_flops for s in servers], dtype=float)
    idx = np.asarray(indices, dtype=np.int64)
    task = cfg.lambda_up_flop_per_bit * u.uplink_bits \
        + u.lam_down * STEREO_BITS_PER_PIXEL * np.asarray(resolutions, dtype=float) / u.compression
    loads = np.bincount(idx, minlength=len(f))
    totals = np.bincount(idx, weights=task, minlength=len(f))
    return float(cfg.eta_lat * cfg.weight_omega * (loads * totals / f).sum())


def check_relaxation(cfg, users, servers, alloc, b_star) -> None:
    """The optlat pipeline: minimum resolution, rounding no worse than the diagonal."""
    k, n = len(users), len(servers)
    s = np.asarray(alloc.resolutions, dtype=float)
    if not np.all(s == cfg.s_min_px):
        raise CheckFailed("an optlat resolution is not s_min")
    diag = np.diag(np.asarray(b_star, dtype=float))[:k * n].reshape(k, n)
    chosen = compute_latency(cfg, users, servers,
                             np.argmax(np.asarray(alloc.association.assign), axis=1), s)
    fallback = compute_latency(cfg, users, servers, np.argmax(diag, axis=1), s)
    if chosen > fallback * (1.0 + REL_TOL):
        raise CheckFailed("rounded association is worse than the diagonal candidate")


def check_sweep_rows(rows, num_seeds: int, grid, methods, start_utility) -> None:
    """Row count and status, the optearn anchor, and proposed beating its start.

    start_utility maps (seed, omega) to the start point's summed utility.
    """
    if len(rows) != num_seeds * len(grid) * len(methods):
        raise CheckFailed(f"sweep returned {len(rows)} rows")
    bad = [r for r in rows if r.status != "ok"]
    if bad:
        raise CheckFailed(f"{len(bad)} sweep rows are not ok")
    for r in rows:
        if r.method == "optearn" and abs(r.mean_earnings_norm - 1.0) > 1e-12:
            raise CheckFailed("optearn earnings are not the normalization anchor")
        if r.method == "proposed":
            start = start_utility[(r.seed, r.omega)]
            if r.mean_utility * r.num_users < start - REL_TOL * max(abs(start), 1.0):
                raise CheckFailed("proposed utility is below its start point")


def check_row_matches(row, utility_total: float) -> None:
    """A sweep row carries the mean utility of the allocation it came from."""
    if not _close(row.mean_utility, utility_total / row.num_users):
        raise CheckFailed("sweep row utility disagrees with its allocation")
