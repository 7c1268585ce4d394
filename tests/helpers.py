"""Shared factories and independent oracles for the test suite."""

import itertools
import math

import numpy as np

from mecopt.earnings import DEFAULT_PARAMS, EarnFamily
from mecopt.harness import ScenarioSpec, generate_scenario
from mecopt.model import Association, SystemConfig, UserProfile, total_objective
from mecopt.resolution import make_subproblem, optimal_resolution


def make_cfg(num_users=4, num_servers=2, **overrides) -> SystemConfig:
    return SystemConfig(num_users=num_users, num_servers=num_servers, **overrides)


def make_user(**overrides) -> UserProfile:
    base = dict(
        channel_gain=1e-9,
        uplink_bits=1e5,
        compression_ratio=450.0,
        downlink_rate_bps=15e6,
        earn_scale=1.0,
        earn_family=EarnFamily.EXP,
        energy_budget_j=0.1,
        power_cap_w=0.2,
        lambda_down_flop_per_bit=5e5,
    )
    base.update(overrides)
    return UserProfile(**base)


def small_scenario(seed, num_users, num_servers, **cfg_overrides):
    spec = ScenarioSpec(seed=seed, num_users=num_users, num_servers=num_servers,
                        config_overrides=cfg_overrides)
    return generate_scenario(spec)


def nested_brute_force(cfg, users, servers, powers):
    """Exact joint optimum with powers fixed: enumerate every assignment and
    solve each user's resolution exactly under it."""
    k_total, n_total = len(users), len(servers)
    best = (np.inf, None, None)
    for combo in itertools.product(range(n_total), repeat=k_total):
        assoc = Association.from_server_indices(np.array(combo), n_total)
        loads = assoc.loads
        s = np.empty(k_total)
        for k, user in enumerate(users):
            n = combo[k]
            sub = make_subproblem(cfg, user, k, int(loads[n]), servers[n])
            s[k] = optimal_resolution(sub, DEFAULT_PARAMS[user.earn_family])
        f = total_objective(cfg, users, servers, powers, s, assoc)
        if f < best[0]:
            best = (f, assoc, s)
    return best


def spearman(xs, ys) -> float:
    """Rank correlation without ties handling beyond averaging (none expected)."""
    xr = np.argsort(np.argsort(xs)).astype(float)
    yr = np.argsort(np.argsort(ys)).astype(float)
    xc = xr - xr.mean()
    yc = yr - yr.mean()
    return float((xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc)))


def random_one_hot(rng, num_users, num_servers) -> Association:
    return Association.from_server_indices(
        rng.integers(0, num_servers, size=num_users), num_servers)


def jacobi_eig(a, tol=1e-12, max_sweeps=100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix, ascending.

    Rotates away off-diagonal entries sweep by sweep until the off-diagonal
    norm drops below tol times the matrix norm. Quadratic-time per sweep and
    meant for small matrices: an independent cross-check of LAPACK's eigh.
    """
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.allclose(m, m.T):
        raise ValueError("jacobi_eig needs a square symmetric matrix")
    m = 0.5 * (m + m.T)
    n = m.shape[0]
    v = np.eye(n)
    norm_a = float(np.linalg.norm(m)) or 1.0

    def off_norm() -> float:
        off = m - np.diag(np.diag(m))
        return float(np.linalg.norm(off))

    for _ in range(max_sweeps):
        if off_norm() <= tol * norm_a:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= 1e-300:
                    continue
                phi = 0.5 * math.atan2(2.0 * apq, m[q, q] - m[p, p])
                c, s = math.cos(phi), math.sin(phi)
                rot_p = c * m[p, :] - s * m[q, :]
                rot_q = s * m[p, :] + c * m[q, :]
                m[p, :], m[q, :] = rot_p, rot_q
                col_p = c * m[:, p] - s * m[:, q]
                col_q = s * m[:, p] + c * m[:, q]
                m[:, p], m[:, q] = col_p, col_q
                m[p, q] = m[q, p] = 0.0
                vp = c * v[:, p] - s * v[:, q]
                vq = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = vp, vq
    w = np.diag(m).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
