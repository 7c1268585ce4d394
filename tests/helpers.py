"""Shared factories and independent oracles for the test suite."""

import itertools
import math
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from mecopt.association import (InstanceTooLargeError, RoundingReport, _batch_objectives,
                                _block_cost, _project_assignment, _schur_parts, build_qcqp)
from mecopt.earnings import EarnFamily, _h_rows
from mecopt.harness import ScenarioSpec, generate_scenario
from mecopt.model import (STEREO_BITS_PER_PIXEL, Association, SystemConfig, UserProfile,
                          _per_user, total_objective)
from mecopt.resolution import _closed_form, optimal_resolution
from mecopt.sdp import _RHO_COLD, SdpSolution, SdpStatus, _check_symmetric, _clamp_negative

BRUTE_FORCE_LIMIT = 1_000_000
# The sweep CSV header as README's "CSV schema" section documents it.
README_CSV_HEADER = ("method,seed,omega,s_min_px,num_users,mean_latency_s,"
                     "mean_earnings_norm,mean_utility,iters,sdr_gap,wall_ms,status")
_BRUTE_FORCE_CHUNK = 8192


def make_cfg(num_users=4, **overrides) -> SystemConfig:
    return SystemConfig(num_users=num_users, **overrides)


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


def resolution_objective(cfg, families, slope, earn_scale, x_offset, s):
    """The terms of a user's utility that vary with its resolution s,
    earn_scale * h(x_offset + dx_ds * s) - slope * s, with dx_ds =
    0.5 / res_norm_px, elementwise: the quantity resolution._closed_form
    maximizes. The arrays broadcast, and the leading axis of the result is
    the user: families[k] picks the DEFAULT_PARAMS curve h of row k."""
    x = x_offset + 0.5 / cfg.res_norm_px * s
    return earn_scale * _h_rows(families, x) - slope * s


def nested_brute_force(cfg, users, servers, powers):
    """Exact joint optimum with powers fixed: enumerate every assignment and
    solve the resolutions exactly under it."""
    n_total = len(servers)
    best = (np.inf, None, None)
    for combo in itertools.product(range(n_total), repeat=len(users)):
        assoc = Association(np.array(combo), n_total)
        s = optimal_resolution(cfg, users, servers, assoc)
        f = total_objective(cfg, users, servers, powers, s, assoc)
        if f < best[0]:
            best = (f, assoc, s)
    return best


def brute_force_association(cfg, users, servers, resolutions) -> Tuple[Association, float]:
    """Exhaustive minimum of the association subproblem (exactness oracle).

    Guarded at N^K <= 1e6 assignments. Ties resolve to the lexicographically
    first index tuple.
    """
    k_total, n_total = len(users), len(servers)
    total = n_total ** k_total
    if total > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"{n_total}^{k_total} = {total} assignments exceeds {BRUTE_FORCE_LIMIT}")
    inst = build_qcqp(cfg, users, servers, resolutions)

    best_obj = np.inf
    best_idx: Optional[np.ndarray] = None
    it = itertools.product(range(n_total), repeat=k_total)
    while True:
        block = list(itertools.islice(it, _BRUTE_FORCE_CHUNK))
        if not block:
            break
        idx = np.asarray(block, dtype=np.int64)
        objs = _batch_objectives(inst, idx)
        i = int(np.argmin(objs))
        if objs[i] < best_obj:
            best_obj = float(objs[i])
            best_idx = idx[i]
    assert best_idx is not None
    return Association(best_idx, n_total), best_obj


def joint_oracle(cfg, users, servers, powers):
    """Exact joint optimum with powers fixed, as nested_brute_force returns it,
    without enumerating assignments.

    User k's objective term depends only on its server n and that server's
    load L, so it is tabulated at its exact resolution for every (k, n, L)
    in one array evaluation; the uplink latency, the same under every
    assignment, is left out of the table. For each load vector summing to K, the best assignment matches
    the users to the load slots (L_n slots of server n, each at cost
    table[:, n, L_n]) by one linear assignment. The best load vector's
    allocation is evaluated by total_objective.
    """
    k_total, n_total = len(users), len(servers)
    families = [u.earn_family for u in users]

    def per_user(name):
        return _per_user(users, name)[:, None, None]

    rate = per_user("downlink_rate_bps")
    flops = np.array([srv.compute_flops for srv in servers])[None, :, None]
    load = np.arange(1, k_total + 1)[None, None, :]
    slope = cfg.eta_lat * cfg.weight_omega \
        * (STEREO_BITS_PER_PIXEL / per_user("compression_ratio")) \
        * (1.0 / rate + per_user("lambda_down_flop_per_bit") * load / flops)
    earn_scale = cfg.eta_earn * per_user("earn_scale")
    x_offset = 0.5 * rate / cfg.rate_norm_bps
    res = _closed_form(cfg, families, slope, earn_scale, x_offset)
    uplink_flops = cfg.lambda_up_flop_per_bit * per_user("uplink_bits")
    table = cfg.eta_lat * cfg.weight_omega * uplink_flops * load / flops \
        - resolution_objective(cfg, families, slope, earn_scale, x_offset, res)
    best = (np.inf, None)
    for bars in itertools.combinations(range(k_total + n_total - 1), n_total - 1):
        loads = np.diff(np.array([-1, *bars, k_total + n_total - 1])) - 1
        slot_server = np.repeat(np.arange(n_total), loads)
        slot_load = loads[slot_server]
        cost = table[:, slot_server, slot_load - 1]
        rows, cols = linear_sum_assignment(cost)
        total = cost[rows, cols].sum()
        if total < best[0]:
            best = (total, slot_server[cols])
    idx = best[1]
    assoc = Association(idx, n_total)
    s = res[np.arange(k_total), idx, assoc.loads[idx] - 1]
    return total_objective(cfg, users, servers, powers, s, assoc), assoc, s


def spearman(xs, ys) -> float:
    """Rank correlation without ties handling beyond averaging (none expected)."""
    xr = np.argsort(np.argsort(xs)).astype(float)
    yr = np.argsort(np.argsort(ys)).astype(float)
    xc = xr - xr.mean()
    yc = yr - yr.mean()
    return float((xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc)))


def random_one_hot(rng, num_users, num_servers) -> Association:
    return Association(rng.integers(0, num_servers, size=num_users), num_servers)


def batched_gaussian_randomize(inst, x, num_samples, rng_seed) -> RoundingReport:
    """gaussian_randomize with every server's draws made in one
    (N, samples, K) array and argmax taken across the servers at once; the
    streamed rounding must match it bit for bit."""
    x = _check_symmetric(x)
    border, schur = _schur_parts(x)
    candidates = [np.argmax(border * border + np.diagonal(schur, axis1=1, axis2=2), axis=0)]
    if num_samples:
        w, v = np.linalg.eigh(schur)
        factor_t = (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]).swapaxes(-1, -2)
        rng = np.random.default_rng(rng_seed)
        h = np.abs(rng.standard_normal(num_samples))
        g = rng.standard_normal((schur.shape[0], num_samples, schur.shape[1]))
        candidates.append(np.argmax(h[:, None] * border[:, None, :] + g @ factor_t, axis=0))
    all_idx = np.vstack(candidates)
    objs = _batch_objectives(inst, all_idx)
    best = int(np.argmin(objs))
    bound = float((_block_cost(inst) * x).sum())
    return RoundingReport(
        num_samples=num_samples,
        best_objective=float(objs[best]),
        best_assoc=Association(all_idx[best], inst.num_servers),
        sdr_lower_bound=bound,
        gap=(float(objs[best]) - bound) / max(abs(bound), 1e-300),
    )


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


def consensus_sdp(cost, sets, tol=1e-6, max_iter=20000):
    """Minimize Tr(cost X) over the PSD matrices in the intersection of sets,
    by consensus splitting (O'Donoghue et al., JOTA 2016): a reference
    algorithm for solve_sdp that takes several sets. Each set has a
    project(v) and a violations(x) giving x's largest relative equality
    residual, its most negative entry that the set keeps nonnegative (as a
    positive number) and its half-space excess; a set without one of these
    reports 0 for it. The averaged iterate lies in none of the sets, so
    unlike solve_sdp the stopping test reads these.

    Each iteration projects one copy onto each set and one onto the cone.
    The averaged iterate z then carries the cost, and the scaled duals move
    by each copy's distance from it. rho adapts as in solve_sdp. Converged
    means, on z: relative equality residuals below tol, sign residuals at
    most 0.1 * tol, half-space excess at most tol, the smallest eigenvalue
    as solve_sdp demands it, the largest copy-to-z distance and
    rho * sqrt(copies) times z's movement below tol, relative to
    max(1, ||z||). Returns z. It starts at solve_sdp's cold rho and checks
    every 25 iterations.
    """
    cost = _check_symmetric(cost, "cost")
    c_scale = float(np.linalg.norm(cost))
    cost_n = cost / c_scale if c_scale > 0 else cost
    ns = len(sets) + 1  # the cone's copy is the last
    z = np.zeros(cost.shape)
    duals = [np.zeros(cost.shape) for _ in range(ns)]
    copies = [np.zeros(cost.shape) for _ in range(ns)]
    rho = _RHO_COLD
    history = []
    status = SdpStatus.ITERATION_CAP
    prim_n = dual_n = feas = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        for i, step in enumerate(sets):
            copies[i] = step.project(z - duals[i])
        copies[-1] = _clamp_negative(z - duals[-1])
        z_new = sum(c + d for c, d in zip(copies, duals)) / ns - cost_n / (ns * rho)
        z_new = 0.5 * (z_new + z_new.swapaxes(-1, -2))
        for c, d in zip(copies, duals):
            d += c - z_new
        if it % 25 == 0 or it == max_iter:
            z_norm = float(np.linalg.norm(z_new))
            den, den_x = max(1.0, z_norm), max(z_norm, 1e-12)
            prim = max(float(np.linalg.norm(c - z_new)) for c in copies)
            dual = rho * math.sqrt(ns) * float(np.linalg.norm(z_new - z))
            prim_n, dual_n = prim / den, dual / den
            eq_v, sign_v, ineq_v = map(max, zip(*(step.violations(z_new) for step in sets)))
            eig_v = max(0.0, -float(np.linalg.eigvalsh(z_new).min()))
            history.append((it, prim_n, dual_n))
            feas = max(eq_v, sign_v, ineq_v, eig_v / den_x)
            if (prim_n < tol and dual_n < tol and eq_v < tol
                    and sign_v <= 0.1 * tol and ineq_v <= tol
                    and eig_v <= 0.1 * tol * den_x):
                z = z_new
                status = SdpStatus.CONVERGED
                break
            if it % 50 == 0 and it < max_iter // 2:
                if prim > 5.0 * dual:
                    rho *= 1.5
                    for d in duals:
                        d /= 1.5
                elif dual > 5.0 * prim:
                    rho /= 1.5
                    for d in duals:
                        d *= 1.5
        z = z_new
    return SdpSolution(x=z, objective=float((cost * z).sum()),
                       primal_residual=max(prim_n, feas), dual_residual=dual_n,
                       iterations=it, status=status, rho=rho, residual_history=history)


class AffineStep:
    """Exact projection onto the equalities Tr(A_i X) = b_i and the half-space
    Tr(Y X) <= 0, as one consensus_sdp set; its project is a solve_sdp
    projection.

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


def polytope_violations(x):
    """Residuals of an (N, K+1, K+1) stack against the assignment polytope,
    as consensus_sdp reads them: the row-sum or corner residual, the most
    negative entry off the corners and the half-space excess."""
    users = np.arange(x.shape[1] - 1)
    border = 0.5 * (x[:, :-1, -1] + x[:, -1, :-1])
    eq_v = float(max(np.abs(border.sum(axis=0) - 1.0).max(), np.abs(x[:, -1, -1] - 1.0).max()))
    sign_v = max(0.0, -min(float(x[:, :-1].min()), float(x[:, -1, :-1].min())))
    ineq_v = max(0.0, float(border.sum() - x[:, users, users].sum()))
    return eq_v, sign_v, ineq_v


# the polytope solve_sdp projects onto, as one consensus_sdp set
POLYTOPE = SimpleNamespace(project=_project_assignment, violations=polytope_violations)


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


def dense_sdr_cost(inst):
    """The relaxation's dense (KN+1)^2 cost (p1 + p1') / 2, scattered
    from the server blocks: entry ((j, n), (k, n)) is block n's (j, k) and
    every other entry is zero."""
    k, n = inst.num_users, inst.num_servers
    lifted = np.zeros((k, n, k, n))
    lifted[:, np.arange(n), :, np.arange(n)] = _block_cost(inst)[:, :-1, :-1]
    return np.pad(lifted.reshape(k * n, k * n), ((0, 1), (0, 1)))


def generic_relaxation(inst):
    """The association relaxation in generic trace form, as the cost and the
    sets consensus_sdp takes: the dense row-sum matrices and the
    corner as equalities with the binarity half-space, then the sign mask
    (every entry but the corner)."""
    dim = inst.a_dim + 1
    corner = np.zeros((dim, dim))
    corner[-1, -1] = 1.0
    mask = np.ones((dim, dim), dtype=bool)
    mask[-1, -1] = False
    eqs = [(g, 1.0) for g in inst.g_matrices] + [(corner, 1.0)]
    return dense_sdr_cost(inst), [AffineStep(dim, eqs, inst.y_matrix), MaskStep(mask)]
