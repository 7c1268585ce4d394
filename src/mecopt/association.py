"""User-to-server association.

With powers and resolutions fixed, only the compute latency depends on the
assignment, and its total is the quadratic form a' P a over the stacked 0/1
assignment vector. P pairs only users on the same server, so an instance
stores just the per-user task FLOPs and per-server compute rates. The binary
program is lifted to a semidefinite relaxation over B = b b' (b the
homogenized vector), solved, and rounded back to a feasible one-hot
assignment by Gaussian randomization, then refined by load descent. An exact
dynamic program over subsets of servers is the oracle up to about 40x8.

The cost and every constraint but B >= 0 touch only same-server entries and
the homogenization entry h: N cliques sharing only h, a chordal pattern. So
the relaxation is solved over N coupled PSD blocks X_n (server n's users,
then h; Fukuda et al., SIAM J. Optim. 2001), and the rest is a polytope with
a closed-form projection (per-user simplices across the N borders, fixed
corners, a one-threshold water-fill of the diagonals), which solve_sdp
splits against the cone. Rounding samples B, the blocks' PSD completion,
one server block at a time, and scores every candidate in one array; the
dense B is built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .model import Association, SystemConfig, ServerProfile, UserProfile, user_task_flops
from .sdp import SdpSolution, _check_symmetric, project_psd, solve_sdp

__all__ = [
    "QcqpInstance",
    "RoundingReport",
    "SdrResult",
    "InstanceTooLargeError",
    "build_qcqp",
    "association_objective",
    "solve_association_sdr",
    "gaussian_randomize",
    "descend_association",
    "exact_association",
]


class InstanceTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class QcqpInstance:
    """Quadratic program data for one association subproblem.

    The stored fields are the per-user task FLOPs T and the per-server compute
    rates f. Costs are compute latencies in seconds: the objective's weight
    eta_lat * omega scales every assignment alike, so it is left out. The
    paper's matrices are built on each access: p_matrix stacks identical
    block-rows [J_1 ... J_K], J_k = diag(T_k / f), so that a' P a equals the
    total compute latency of the assignment; p1 is the homogenized cost with
    a zero border, y_matrix encodes binarity (b' Y b = sum a(1-a)) and
    g_matrices the one-server-per-user row sums (Tr(G_k B) = 1).
    """

    num_users: int
    num_servers: int
    task_flops: np.ndarray
    server_flops: np.ndarray

    @property
    def a_dim(self) -> int:
        return self.num_users * self.num_servers

    @property
    def p_matrix(self) -> np.ndarray:
        block_row = np.hstack([np.diag(t / self.server_flops) for t in self.task_flops])
        return np.tile(block_row, (self.num_users, 1))

    @property
    def q_matrix(self) -> np.ndarray:
        return np.kron(np.eye(self.num_users), np.ones(self.num_servers))

    @property
    def p1(self) -> np.ndarray:
        return np.pad(self.p_matrix, ((0, 1), (0, 1)))

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
    """The association subproblem at the given per-user resolutions."""
    resolutions = np.asarray(resolutions, dtype=float)
    if np.any(resolutions < cfg.s_min_px * (1 - 1e-9)) \
            or np.any(resolutions > cfg.s_max_px * (1 + 1e-9)):
        raise ValueError("resolutions outside [s_min, s_max]")
    return QcqpInstance(
        num_users=len(users),
        num_servers=len(servers),
        task_flops=user_task_flops(cfg, users, resolutions),
        server_flops=np.array([s.compute_flops for s in servers]),
    )


def _batch_objectives(inst: QcqpInstance, indices: np.ndarray) -> np.ndarray:
    """Total compute latency (s) for each row of server indices."""
    indices = np.atleast_2d(indices)
    rows, n = indices.shape[0], inst.num_servers
    counts = np.bincount((np.arange(rows)[:, None] * n + indices).ravel(),
                         minlength=rows * n).reshape(rows, n)
    per_user = inst.task_flops * counts[np.arange(rows)[:, None], indices] \
        / inst.server_flops[indices]
    return per_user.sum(axis=1)


def association_objective(inst: QcqpInstance, association: Association) -> float:
    """Total compute latency (s) of one assignment, from the latency formulas."""
    return float(_batch_objectives(inst, association.server_indices[None, :])[0])


def _block_cost(inst: QcqpInstance) -> np.ndarray:
    """(p1 + p1') / 2 as N blocks: block n's entry (j, k) is
    (T_j / f_n + T_k / f_n) / 2, with a zero h row and column."""
    per = (inst.task_flops[:, None] / inst.server_flops).T  # per[n, k] = T_k / f_n
    cost = np.zeros((inst.num_servers, inst.num_users + 1, inst.num_users + 1))
    cost[:, :-1, :-1] = 0.5 * (per[:, :, None] + per[:, None, :])
    return cost


def _schur_parts(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The border b (N, K) of a block stack and each block's Schur complement
    X_n[:K, :K] - b_n b_n' projected onto the PSD cone, S_n (N, K, K)."""
    border = x[:, :-1, -1]
    return border, project_psd(x[:, :-1, :-1] - border[:, :, None] * border[:, None, :])


def _completion(x: np.ndarray) -> np.ndarray:
    """The dense B = [[b b' + blockdiag(S_n), b], [b', 1]] of a block stack,
    entry (k, n) at k N + n and h last, with b and S_n from _schur_parts: B
    is PSD by construction and its cross-server entries are products b_kn b_jm.
    """
    servers = np.arange(x.shape[0])
    border, schur = _schur_parts(x)
    lifted = np.multiply.outer(border.T, border.T)  # lifted[:, servers, :, servers][n] = b_n b_n'
    lifted[:, servers, :, servers] += schur
    b = border.T.ravel()
    return np.block([[lifted.reshape(b.size, b.size), b[:, None]], [b, 1.0]])


@dataclass(frozen=True)
class SdrResult:
    solution: SdpSolution  # x is the (N, K+1, K+1) block stack

    @property
    def lower_bound(self) -> float:
        """Tr(C X) at solution.x, in compute-latency seconds."""
        return self.solution.objective

    @property
    def b_star(self) -> np.ndarray:
        """The stack's dense (KN+1)^2 completion, built on each read."""
        return _completion(self.solution.x)


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


def _project_assignment(v: np.ndarray) -> np.ndarray:
    """The relaxation's constraints besides the cone, as one exact projection.

    For a symmetric (N, K+1, K+1) stack X (h = K in each block) the set is:
    user k's N borders X_n[k, h] sum to one, corners X_n[h, h] = 1,
    sum(borders) - sum(user diagonals) <= 0, and X >= 0 off the corners. The
    row sums fix sum(borders) = K, so the half-space is sum(diagonals) >= K,
    and the set is a product, projected piece by piece: per-user simplices
    on the borders, {d >= 0, sum d >= K} on the N K user diagonals, the
    orthant elsewhere and the fixed corners.
    """
    num_servers, num_users = v.shape[0], v.shape[1] - 1
    users = np.arange(num_users)
    w = np.maximum(v, 0.0)
    w[:, -1, -1] = 1.0
    border = _project_simplex_rows(0.5 * (v[:, :-1, -1] + v[:, -1, :-1]).T, 1.0)
    w[:, :-1, -1] = w[:, -1, :-1] = border.T
    if w[:, users, users].sum() < num_users:
        # the half-space is active: water-fill the diagonals up to sum K
        diag = _project_simplex_rows(v[:, users, users].reshape(1, -1), float(num_users))
        w[:, users, users] = diag.reshape(num_servers, num_users)
    return w


def solve_association_sdr(inst: QcqpInstance, tol: float = 1e-6,
                          max_iter: int = 20000) -> SdrResult:
    """Solve the relaxation over server blocks."""
    return SdrResult(solve_sdp(_block_cost(inst), _project_assignment, tol=tol, max_iter=max_iter))


@dataclass(frozen=True)
class RoundingReport:
    num_samples: int
    best_objective: float
    best_assoc: Association
    sdr_lower_bound: float
    gap: float


def _lifted_draws(border: np.ndarray, schur: np.ndarray, num_samples: int,
                  rng_seed) -> Tuple[np.ndarray, Iterator[np.ndarray]]:
    """h = |N(0, 1)| (samples,) and an iterator over the servers' draws
    x_n = b_n h + L_n g_n (samples, K), with L_n L_n' = S_n and g standard
    normal: [x; h] has the completion's second moment. Server n's normals are
    drawn when x_n is requested, in the order of one (N, samples, K) draw.
    Every x_n is written into the same (samples, K) array, which the next
    step overwrites, so a caller that keeps one copies it; the normals and
    h b_n' share one more, so two such arrays are live."""
    w, v = np.linalg.eigh(schur)
    factor_t = (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]).swapaxes(-1, -2)
    rng = np.random.default_rng(rng_seed)
    h = np.abs(rng.standard_normal(num_samples))

    def per_server() -> Iterator[np.ndarray]:
        x_n = np.empty((num_samples, border.shape[1]))
        buf = np.empty_like(x_n)
        for b_n, f_n in zip(border, factor_t):
            np.matmul(rng.standard_normal(out=buf), f_n, out=x_n)
            x_n += np.multiply(h[:, None], b_n, out=buf)
            yield x_n

    return h, per_server()


def gaussian_randomize(inst: QcqpInstance, x: np.ndarray,
                       num_samples: int, rng_seed) -> RoundingReport:
    """Round a relaxation's (N, K+1, K+1) block stack to a feasible assignment.

    Draws num_samples vectors from the Gaussian whose second moment is the
    stack's PSD completion (SdrResult.b_star) one server at a time, folding
    each server's draws into a running maximum, and gives each user the
    server of its largest entry (ties to the lowest index). Every candidate
    is a row of one array: row 0 is read off the completion's diagonal,
    b_kn^2 + S_n[k, k], so num_samples = 0 still yields a report, and rows
    1.. are the samples in draw order. One _batch_objectives call ranks them
    by their true compute latency (s), and the first minimum wins, so ties go
    to the diagonal candidate, then to the earliest sample. The bound is
    Tr(C X).

    The fold's working set is three (num_samples, K) float64 arrays, the
    running maximum and _lifted_draws' two buffers, which are released before
    scoring; the candidates are one (num_samples + 1, K) array of the
    smallest unsigned type that holds N - 1.
    """
    if num_samples < 0:
        raise ValueError("num_samples must be nonnegative")
    shape = (inst.num_servers, inst.num_users + 1, inst.num_users + 1)
    x = _check_symmetric(x, "relaxation stack")
    if x.shape != shape:
        raise ValueError(f"relaxation stack shape {x.shape} != {shape}")
    border, schur = _schur_parts(x)
    candidates = np.zeros((num_samples + 1, inst.num_users),
                          dtype=np.min_scalar_type(inst.num_servers - 1))
    candidates[0] = np.argmax(border * border + np.diagonal(schur, axis1=1, axis2=2), axis=0)
    if num_samples:
        pick = candidates[1:]
        top = np.full(pick.shape, -np.inf)
        for n, x_n in enumerate(_lifted_draws(border, schur, num_samples, rng_seed)[1]):
            # x_n > top is strict, so ties keep the lowest server, as argmax
            # does; n exceeds every earlier pick, so the maximum writes n
            # exactly where x_n is better, without a (slower) masked write.
            # n in pick's type keeps the product as narrow as pick.
            np.maximum(pick, (x_n > top) * pick.dtype.type(n), out=pick)
            np.maximum(top, x_n, out=top)
        del top, x_n  # the draws are exhausted, so this frees their buffers
    objs = _batch_objectives(inst, candidates)
    best = int(np.argmin(objs))
    bound = float((_block_cost(inst) * x).sum())
    return RoundingReport(
        num_samples=num_samples,
        best_objective=float(objs[best]),
        best_assoc=Association(candidates[best], inst.num_servers),
        sdr_lower_bound=bound,
        gap=(float(objs[best]) - bound) / max(abs(bound), 1e-300),
    )


def descend_association(inst: QcqpInstance, start: Association) -> Association:
    """Load descent on the association subproblem; never above start.

    At fixed server loads L, the users sorted by T descending fill the
    servers in ascending L_n / f_n in contiguous blocks (see
    exact_association), which prices a load vector in one sort. From
    start's loads and from equal loads, each step scores all N(N-1) moves
    of one user between servers in one array pass and takes the cheapest
    while it is strictly cheaper. Returns the better end's assignment if it
    is strictly below start (start is row 0 of the argmin), else start.
    """
    k_total, n_total = inst.num_users, inst.num_servers
    order = np.argsort(-inst.task_flops, kind="stable")
    prefix = np.concatenate([[0.0], np.cumsum(inst.task_flops[order])])
    eye = np.eye(n_total, dtype=np.int64)
    moves = (eye[:, None] - eye)[eye == 0]  # row (i, j), i != j: a user from j to i

    def descend(loads: np.ndarray) -> Tuple[float, np.ndarray]:
        while True:  # row 0 is loads itself, so argmin leaves it only to go lower
            rows = np.vstack([loads, loads + moves])
            rows = rows[(rows >= 0).all(axis=1)]
            rate = rows / inst.server_flops
            by = np.argsort(rate, axis=1, kind="stable")
            ends = np.cumsum(np.take_along_axis(rows, by, axis=1), axis=1)
            costs = (np.take_along_axis(rate, by, axis=1)
                     * np.diff(prefix[ends], axis=1, prepend=0.0)).sum(axis=1)
            i = int(np.argmin(costs))
            if i == 0:
                return costs[0], loads
            loads = rows[i]

    loads = min(descend(np.bincount(start.server_indices, minlength=n_total)),
                descend(np.bincount(np.arange(k_total) % n_total, minlength=n_total)),
                key=lambda end: end[0])[1]
    by = np.argsort(loads / inst.server_flops, kind="stable")
    both = np.vstack([start.server_indices, np.empty(k_total, dtype=np.int64)])
    both[1, order] = np.repeat(by, loads[by])
    return Association(both[int(np.argmin(_batch_objectives(inst, both)))], n_total)


def exact_association(inst: QcqpInstance) -> Tuple[Association, float]:
    """Exact minimum of the association subproblem and its association_objective.

    User k costs T_k * L_n / f_n seconds, so for fixed loads the rearrangement
    inequality (Hardy, Littlewood & Polya, Inequalities, 1934) pairs the largest
    T with the smallest L_n / f_n: some optimum gives the users, sorted by T
    descending, to the servers in contiguous blocks. A DP over server subsets S
    finds it, with P the prefix sums of the sorted T and 2^N N (K+1)^2 terms:
    dp[S + {n}][j] = min_i dp[S][i] + ((j - i) / f_n)(P_j - P_i). Guarded at 1e9.
    """
    k_total, n_total = inst.num_users, inst.num_servers
    if 2 ** n_total * n_total * (k_total + 1) ** 2 > 1e9:
        raise InstanceTooLargeError(f"{k_total}x{n_total} needs over 1e9 DP terms")
    order = np.argsort(-inst.task_flops, kind="stable")
    prefix = np.concatenate([[0.0], np.cumsum(inst.task_flops[order])])
    span = np.arange(k_total + 1) - np.arange(k_total + 1)[:, None]  # span[i, j] = j - i
    block = np.where(span >= 0, span * (prefix - prefix[:, None]), np.inf)
    dp = np.full((2 ** n_total, k_total + 1), np.inf)
    dp[0, 0] = 0.0
    step = np.zeros(dp.shape, dtype=np.int64)  # (K+1) n + i: dp[S][j] gave sorted users i..j-1 to n
    bits = 1 << np.arange(n_total)
    for subset in range(1, 2 ** n_total):
        # for n outside S, S ^ bits[n] is a later subset, whose row is still inf
        cand = dp[subset ^ bits, :, None] + block / inst.server_flops[:, None, None]
        dp[subset] = cand.min(axis=(0, 1))
        step[subset] = cand.reshape(-1, k_total + 1).argmin(axis=0)
    idx = np.empty(k_total, dtype=np.int64)
    subset, j = 2 ** n_total - 1, k_total
    while subset:
        n, i = divmod(int(step[subset, j]), k_total + 1)
        idx[order[i:j]] = n
        subset, j = subset ^ (1 << n), i
    assoc = Association(idx, n_total)
    return assoc, association_objective(inst, assoc)
