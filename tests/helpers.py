"""Shared factories and independent oracles for the test suite."""

import itertools
import math

import numpy as np

from mecopt.association import _sdr_cost
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


class AffineStep:
    """Exact projection onto the equalities Tr(A_i X) = b_i and the half-space
    Tr(Y X) <= 0, as one solve_sdp constraint set.

    All A_i and Y vanish off their support (the flat indices where any of
    them is nonzero), so the projection v - A'(AA')^+(Av - b) changes only
    those entries, and A is stored restricted to them as an
    (m x |support|) array. If the equality projection lands outside the
    half-space, the inequality is active and the step is redone with Y
    appended to the equalities. Both Gram pseudo-inverses are cached.
    """

    def __init__(self, dim, eq_constraints, trace_ineq=None):
        mats = [np.asarray(mat, dtype=float) for mat, _ in eq_constraints]
        touched = np.zeros((dim, dim), dtype=bool)
        for mat in mats + ([] if trace_ineq is None else [trace_ineq]):
            touched |= mat != 0.0
        sup = self.support = np.flatnonzero(touched)
        self.a_mat = np.array([mat.ravel()[sup] for mat in mats]).reshape(len(mats), sup.size)
        self.b_vec = np.array([rhs for _, rhs in eq_constraints], dtype=float)
        self.b_ref = np.maximum(1.0, np.abs(self.b_vec))
        self.gram_inv = np.linalg.pinv(self.a_mat @ self.a_mat.T)
        self.y = None if trace_ineq is None else np.asarray(trace_ineq, dtype=float).ravel()[sup]
        if self.y is not None:
            self.aug_mat = np.vstack([self.a_mat, self.y[None, :]])
            self.aug_b = np.append(self.b_vec, 0.0)
            self.aug_gram_inv = np.linalg.pinv(self.aug_mat @ self.aug_mat.T)

    def project(self, v):
        vs = v.ravel()[self.support]
        a_mat = self.a_mat
        ws = vs - a_mat.T @ (self.gram_inv @ (a_mat @ vs - self.b_vec))
        if self.y is not None and float(self.y @ ws) > 0.0:
            a_mat = self.aug_mat
            ws = vs - a_mat.T @ (self.aug_gram_inv @ (a_mat @ vs - self.aug_b))
        w = v.copy()
        w.reshape(-1)[self.support] = ws
        return w

    def violations(self, x):
        """Largest relative equality residual, no sign residual, and the
        trace inequality's excess."""
        xs = x.ravel()[self.support]
        eq_v = float(np.max(np.abs(self.a_mat @ xs - self.b_vec) / self.b_ref, initial=0.0))
        ineq_v = max(0.0, float(self.y @ xs)) if self.y is not None else 0.0
        return eq_v, 0.0, ineq_v


class MaskStep:
    """Exact projection onto X >= 0 on a symmetric boolean mask: clamp the
    masked entries."""

    def __init__(self, mask):
        self.masked = np.flatnonzero(mask)
        self.free = np.flatnonzero(~mask)

    def project(self, v):
        w = np.maximum(v, 0.0)
        w.reshape(-1)[self.free] = v.reshape(-1)[self.free]
        return w

    def violations(self, x):
        """The most negative masked entry, as a positive number."""
        return 0.0, max(0.0, -float(x.reshape(-1)[self.masked].min(initial=0.0))), 0.0


def generic_relaxation(inst):
    """The association relaxation in generic trace form, as the cost and the
    constraint sets solve_sdp takes: the dense row-sum matrices and the
    corner as equalities with the binarity half-space, then the sign mask
    (every entry but the corner)."""
    dim = inst.a_dim + 1
    corner = np.zeros((dim, dim))
    corner[-1, -1] = 1.0
    mask = np.ones((dim, dim), dtype=bool)
    mask[-1, -1] = False
    eqs = [(g, 1.0) for g in inst.g_matrices] + [(corner, 1.0)]
    return _sdr_cost(inst), [AffineStep(dim, eqs, inst.y_matrix), MaskStep(mask)]
