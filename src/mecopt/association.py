"""User-to-server association.

With powers and resolutions fixed, only the compute latency depends on the
assignment, and its total is the quadratic form a' P a over the stacked 0/1
assignment vector. The binary program is lifted to a semidefinite relaxation
over B = b b' (b the homogenized vector), solved, and rounded back to a
feasible one-hot assignment by Gaussian randomization. Exhaustive enumeration
is provided as the exactness oracle for small instances.

The relaxation's constraints other than B >= 0 (PSD) are the one-server row
sums on the border, the corner B_nn = 1, the binarity half-space
Tr(Y B) <= 0 and B >= 0 off the corner. Together they form a polytope with a
closed-form projection (per-user simplex projections of the border plus a
one-threshold water-fill on the diagonal), so solve_association_sdr hands
solve_sdp the cost and that one set, and the solver splits the relaxation
over two copies: the polytope and the PSD cone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .model import Association, SystemConfig, ServerProfile, UserProfile, downlink_bits
from .sdp import SdpSolution, solve_sdp

__all__ = [
    "QcqpInstance",
    "RoundingReport",
    "SdrResult",
    "InstanceTooLargeError",
    "build_qcqp",
    "association_objective",
    "solve_association_sdr",
    "gaussian_randomize",
    "brute_force_association",
]

BRUTE_FORCE_LIMIT = 1_000_000


class InstanceTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class QcqpInstance:
    """Quadratic program data for one association subproblem.

    p_matrix stacks identical block-rows [J_1 ... J_K], J_k the diagonal
    per-server compute-latency block of user k, so that a' P a equals the
    total compute latency of the assignment. p1 is the homogenized cost with
    a zero border, y_matrix encodes binarity (b' Y b = sum a(1-a)) and
    g_matrices the one-server-per-user row sums (Tr(G_k B) = 1). scale
    multiplies latency into utility units.
    """

    num_users: int
    num_servers: int
    a_dim: int
    p_matrix: np.ndarray
    q_matrix: np.ndarray
    p1: np.ndarray
    scale: float
    task_flops: np.ndarray
    server_flops: np.ndarray

    # The solver projects onto the constraints in closed form, so their
    # dense matrices are built on each access, only to check the formulation.

    @property
    def y_matrix(self) -> np.ndarray:
        m = self.a_dim
        y = np.zeros((m + 1, m + 1))
        y[:m, :m] = -np.eye(m)
        y[:m, m] = 0.5
        y[m, :m] = 0.5
        return y

    @property
    def g_matrices(self) -> Tuple[np.ndarray, ...]:
        m = self.a_dim
        gs = []
        for q_row in self.q_matrix:
            g = np.zeros((m + 1, m + 1))
            g[:m, m] = 0.5 * q_row
            g[m, :m] = 0.5 * q_row
            gs.append(g)
        return tuple(gs)


def build_qcqp(cfg: SystemConfig, users: Sequence[UserProfile],
               servers: Sequence[ServerProfile],
               resolutions: Sequence[float]) -> QcqpInstance:
    """Assemble the QCQP matrices at the given per-user resolutions."""
    k_total = len(users)
    n_total = len(servers)
    resolutions = np.asarray(resolutions, dtype=float)
    if np.any(resolutions < cfg.s_min_px * (1 - 1e-9)) \
            or np.any(resolutions > cfg.s_max_px * (1 + 1e-9)):
        raise ValueError("resolutions outside [s_min, s_max]")

    task = np.array([
        cfg.lambda_up_flop_per_bit * u.uplink_bits
        + u.lambda_down_flop_per_bit * downlink_bits(cfg, u, float(resolutions[k]))
        for k, u in enumerate(users)])
    f = np.array([s.compute_flops for s in servers])

    m = k_total * n_total
    block_row = np.hstack([np.diag(task[k] / f) for k in range(k_total)])
    p_matrix = np.tile(block_row, (k_total, 1))
    q_matrix = np.kron(np.eye(k_total), np.ones(n_total))

    p1 = np.zeros((m + 1, m + 1))
    p1[:m, :m] = p_matrix

    return QcqpInstance(
        num_users=k_total,
        num_servers=n_total,
        a_dim=m,
        p_matrix=p_matrix,
        q_matrix=q_matrix,
        p1=p1,
        scale=cfg.eta_lat * cfg.weight_omega,
        task_flops=task,
        server_flops=f,
    )


def _batch_objectives(inst: QcqpInstance, indices: np.ndarray) -> np.ndarray:
    """Scaled total compute latency for each row of server indices."""
    indices = np.atleast_2d(indices)
    rows, k_total = indices.shape
    counts = np.zeros((rows, inst.num_servers))
    np.add.at(counts, (np.repeat(np.arange(rows), k_total), indices.ravel()), 1.0)
    per_user = inst.task_flops * counts[np.arange(rows)[:, None], indices] \
        / inst.server_flops[indices]
    return inst.scale * per_user.sum(axis=1)


def association_objective(inst: QcqpInstance, association: Association) -> float:
    """Scaled total compute latency of one assignment, from the latency formulas."""
    return float(_batch_objectives(inst, association.server_indices[None, :])[0])


def _sdr_cost(inst: QcqpInstance) -> np.ndarray:
    return inst.scale * 0.5 * (inst.p1 + inst.p1.T)


@dataclass(frozen=True)
class SdrResult:
    b_star: np.ndarray
    lower_bound: float
    solution: SdpSolution


def _project_simplex_rows(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of each row of v onto {x >= 0, sum x = total}.

    Duchi et al., ICML 2008: with the row sorted descending, the number of
    positive entries r is the last j where u_j > (u_1 + ... + u_j - total) / j,
    and the answer is max(v - theta, 0) with theta that mean excess.
    """
    u = -np.sort(-v, axis=1)
    excess = np.cumsum(u, axis=1) - total
    positive = u * np.arange(1, v.shape[1] + 1) > excess
    positive[:, 0] = True  # true in exact arithmetic for total > 0
    r = v.shape[1] - np.argmax(positive[:, ::-1], axis=1)
    theta = excess[np.arange(v.shape[0]), r - 1] / r
    return np.maximum(v - theta[:, None], 0.0)


class _AssignmentPolytope:
    """The relaxation's constraints besides the cone, as one exact projection.

    For symmetric B of size m + 1 (m = K N, the border is row and column m)
    the set is: user k's N border entries sum to one, B_mm = 1,
    Tr(Y B) = sum(border) - sum(diag) <= 0, and B >= 0 off the corner. The row
    sums fix sum(border) = K, so the half-space reduces to sum(diag) >= K, and
    the set is a product: per-user probability simplices on the border, the
    set {d >= 0, sum d >= K} on the diagonal, the orthant elsewhere and the
    fixed corner. Its projection therefore splits the same way.
    """

    def __init__(self, num_users: int, num_servers: int) -> None:
        self.num_users = num_users
        self.num_servers = num_servers
        self.m = num_users * num_servers

    def project(self, v: np.ndarray) -> np.ndarray:
        m, k_total = self.m, self.num_users
        w = np.maximum(v, 0.0)
        w[m, m] = 1.0
        border = 0.5 * (v[:m, m] + v[m, :m])
        border = _project_simplex_rows(border.reshape(k_total, self.num_servers), 1.0).ravel()
        w[:m, m] = border
        w[m, :m] = border
        diag = np.diagonal(w)[:m]
        if diag.sum() < k_total:
            # the half-space is active: water-fill the diagonal up to sum K
            diag = _project_simplex_rows(np.diagonal(v)[None, :m], float(k_total))[0]
            np.fill_diagonal(w[:m, :m], diag)
        return w

    def violations(self, x: np.ndarray) -> Tuple[float, float, float]:
        """Largest row-sum or corner residual, the most negative entry off
        the corner, and the half-space's excess."""
        m = self.m
        border = 0.5 * (x[:m, m] + x[m, :m])
        rows = border.reshape(self.num_users, self.num_servers).sum(axis=1)
        eq_v = max(float(np.abs(rows - 1.0).max()), abs(float(x[m, m]) - 1.0))
        sign_v = max(0.0, -min(float(x[:m].min()), float(x[m, :m].min())))
        ineq_v = max(0.0, float(border.sum() - np.trace(x[:m, :m])))
        return eq_v, sign_v, ineq_v


def solve_association_sdr(inst: QcqpInstance, tol: float = 1e-6,
                          max_iter: int = 20000,
                          initial: Optional[np.ndarray] = None) -> SdrResult:
    """Solve the lifted relaxation; the objective is a lower bound on the
    best binary assignment's scaled compute latency."""
    polytope = _AssignmentPolytope(inst.num_users, inst.num_servers)
    sol = solve_sdp(_sdr_cost(inst), [polytope], tol=tol, max_iter=max_iter, initial=initial)
    return SdrResult(b_star=sol.x, lower_bound=sol.objective, solution=sol)


@dataclass(frozen=True)
class RoundingReport:
    num_samples: int
    best_objective: float
    best_assoc: Association
    sdr_lower_bound: float
    gap: float


def gaussian_randomize(inst: QcqpInstance, b_star: np.ndarray,
                       num_samples: int, rng_seed) -> RoundingReport:
    """Round a relaxation solution to a feasible assignment.

    Draws num_samples vectors from the Gaussian with covariance b_star,
    drops the homogenization entry, and projects each candidate to one-hot
    rows by per-user argmax (ties to the lowest server index). The
    deterministic candidate read off b_star's diagonal is always included,
    so num_samples = 0 still yields a report. Candidates are ranked by their
    true scaled compute latency.
    """
    if num_samples < 0:
        raise ValueError("num_samples must be nonnegative")
    dim = inst.a_dim + 1
    b_sym = 0.5 * (np.asarray(b_star, dtype=float) + np.asarray(b_star, dtype=float).T)
    if b_sym.shape != (dim, dim):
        raise ValueError(f"b_star shape {b_sym.shape} != ({dim}, {dim})")
    w, v = np.linalg.eigh(b_sym)
    scale_ref = max(1.0, float(np.abs(w).max()))
    if w[0] < -1e-4 * scale_ref:
        raise ValueError(f"b_star is not PSD within tolerance (min eig {w[0]:.3g})")

    diag_idx = np.argmax(
        np.diag(b_sym)[:inst.a_dim].reshape(inst.num_users, inst.num_servers), axis=1)
    candidates = [diag_idx]
    if num_samples:
        factor = v * np.sqrt(np.maximum(w, 0.0))
        rng = np.random.default_rng(rng_seed)
        draws = rng.standard_normal((num_samples, dim))
        cand = draws @ factor.T
        # A candidate and its negation describe the same lifted point; fix
        # the sign so the homogenization coordinate is nonnegative, then
        # drop it.
        cand *= np.where(cand[:, -1:] < 0.0, -1.0, 1.0)
        cand = cand[:, :inst.a_dim]
        cand = cand.reshape(num_samples, inst.num_users, inst.num_servers)
        candidates.append(np.argmax(cand, axis=2))
    all_idx = np.vstack(candidates)

    objs = _batch_objectives(inst, all_idx)
    best = int(np.argmin(objs))
    best_assoc = Association.from_server_indices(all_idx[best], inst.num_servers)
    bound = float((_sdr_cost(inst) * b_sym).sum())
    gap = (float(objs[best]) - bound) / max(abs(bound), 1e-300)
    return RoundingReport(
        num_samples=num_samples,
        best_objective=float(objs[best]),
        best_assoc=best_assoc,
        sdr_lower_bound=bound,
        gap=gap,
    )


def brute_force_association(cfg: SystemConfig, users: Sequence[UserProfile],
                            servers: Sequence[ServerProfile],
                            resolutions: Sequence[float],
                            chunk: int = 8192) -> Tuple[Association, float]:
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
        block = list(itertools.islice(it, chunk))
        if not block:
            break
        idx = np.asarray(block, dtype=np.int64)
        objs = _batch_objectives(inst, idx)
        i = int(np.argmin(objs))
        if objs[i] < best_obj:
            best_obj = float(objs[i])
            best_idx = idx[i]
    assert best_idx is not None
    return Association.from_server_indices(best_idx, n_total), best_obj
