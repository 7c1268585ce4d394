"""Joint solver and comparison methods.

Powers are set once by the closed form, then the assignment (relaxation plus
randomized rounding, accepted only if it strictly lowers the objective) and
the per-user resolutions (exact closed form) alternate until the objective
stabilizes. The three reference methods share the same power rule so every
comparison isolates the assignment/resolution choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .association import (QcqpInstance, SdrResult, _sdr_cost, build_qcqp,
                          gaussian_randomize, solve_association_sdr)
from .earnings import DEFAULT_PARAMS
from .model import (Allocation, Association, ServerProfile, SystemConfig,
                    UserProfile, evaluate_allocation, total_objective,
                    user_earnings)
from .power import optimal_power
from .resolution import make_subproblem, optimal_resolution

__all__ = [
    "SolveOptions",
    "SolveTrace",
    "BaselineKind",
    "solve_joint",
    "run_baseline",
    "memoized_association_solver",
    "auto_normalized_config",
    "round_robin_association",
]

AssociationSolver = Callable[[QcqpInstance, "SolveOptions", Optional[np.ndarray]], SdrResult]


@dataclass(frozen=True)
class SolveOptions:
    tol_rel: float = 1e-4
    max_outer_iters: int = 50
    rand_samples_l: int = 1000
    rng_seed: int = 0
    init_resolution: Optional[float] = None
    sdp_tol: float = 3e-4
    sdp_max_iter: int = 2000

    def __post_init__(self) -> None:
        if not self.tol_rel > 0:
            raise ValueError("tol_rel must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")


@dataclass
class SolveTrace:
    """Per-outer-iteration record of a joint solve.

    sdp_iterations, sdp_status, sdp_primal_residual and sdp_dual_residual
    describe the relaxation each outer iteration used (its SdpSolution's
    iteration count, status value and final residuals).
    """

    objective_values: List[float] = field(default_factory=list)
    association_accepted: List[bool] = field(default_factory=list)
    sdr_gaps: List[float] = field(default_factory=list)
    sdp_iterations: List[int] = field(default_factory=list)
    sdp_status: List[str] = field(default_factory=list)
    sdp_primal_residual: List[float] = field(default_factory=list)
    sdp_dual_residual: List[float] = field(default_factory=list)


class BaselineKind(Enum):
    OPT_LATENCY = "optlat"
    OPT_EARNINGS = "optearn"
    RANDOM = "random"


def round_robin_association(num_users: int, num_servers: int) -> Association:
    return Association.from_server_indices(
        np.arange(num_users) % num_servers, num_servers)


def _derive_seed(base: int, *tags: int) -> int:
    return int(np.random.SeedSequence((base,) + tags).generate_state(1)[0])


def _default_association_solver(inst: QcqpInstance, opts: SolveOptions,
                                initial: Optional[np.ndarray]) -> SdrResult:
    return solve_association_sdr(
        inst, tol=opts.sdp_tol, max_iter=opts.sdp_max_iter, initial=initial)


def memoized_association_solver(cache: Dict[bytes, SdrResult]) -> AssociationSolver:
    """The default association solver, reusing relaxations held in cache.

    Entries are keyed by the instance's task and server FLOPs, which fix the
    relaxation up to the cost scale; the solver normalizes the cost, so a hit
    reuses the cached solution and recomputes only the bound at the new
    scale. The cache belongs to the caller, who decides its lifetime.
    """

    def solver(inst: QcqpInstance, opts: SolveOptions,
               initial: Optional[np.ndarray]) -> SdrResult:
        key = (inst.task_flops.tobytes() + inst.server_flops.tobytes()
               + inst.a_dim.to_bytes(4, "little"))
        hit = cache.get(key)
        if hit is not None:
            bound = float((_sdr_cost(inst) * hit.b_star).sum())
            return SdrResult(hit.b_star, bound, hit.solution)
        res = _default_association_solver(inst, opts, initial)
        cache[key] = res
        return res

    return solver


def _prop1_powers(cfg: SystemConfig, users: Sequence[UserProfile]) -> np.ndarray:
    return np.array([optimal_power(cfg, u).p_star for u in users])


def _optimize_resolutions(cfg: SystemConfig, users: Sequence[UserProfile],
                          servers: Sequence[ServerProfile],
                          assoc: Association) -> np.ndarray:
    loads = assoc.loads
    idx = assoc.server_indices
    out = np.empty(len(users))
    for k, user in enumerate(users):
        n = int(idx[k])
        sub = make_subproblem(cfg, user, k, int(loads[n]), servers[n])
        out[k] = optimal_resolution(sub, DEFAULT_PARAMS[user.earn_family])
    return out


def solve_joint(cfg: SystemConfig, users: Sequence[UserProfile],
                servers: Sequence[ServerProfile], opts: SolveOptions,
                association_solver: Optional[AssociationSolver] = None,
                ) -> Tuple[Allocation, SolveTrace]:
    """Alternating solve of powers, assignment and resolutions.

    The assignment candidate from each rounding pass is adopted only when it
    strictly lowers the objective, and the resolution pass is an exact
    argmin, so the recorded objective sequence never increases. Starts from
    a round-robin assignment and the minimum resolution.
    """
    solver = association_solver or _default_association_solver
    powers = _prop1_powers(cfg, users)
    init_s = opts.init_resolution if opts.init_resolution is not None else cfg.s_min_px
    if not cfg.s_min_px <= init_s <= cfg.s_max_px:
        raise ValueError("init_resolution outside [s_min, s_max]")
    resolutions = np.full(len(users), float(init_s))
    assoc = round_robin_association(len(users), len(servers))

    trace = SolveTrace()
    f_cur = total_objective(cfg, users, servers, powers, resolutions, assoc)
    trace.objective_values.append(f_cur)

    warm: Optional[np.ndarray] = None
    for it in range(1, opts.max_outer_iters + 1):
        inst = build_qcqp(cfg, users, servers, resolutions)
        sdr = solver(inst, opts, warm)
        warm = sdr.b_star
        report = gaussian_randomize(
            inst, sdr.b_star, opts.rand_samples_l, _derive_seed(opts.rng_seed, it))
        trace.sdr_gaps.append(report.gap)
        trace.sdp_iterations.append(sdr.solution.iterations)
        trace.sdp_status.append(sdr.solution.status.value)
        trace.sdp_primal_residual.append(sdr.solution.primal_residual)
        trace.sdp_dual_residual.append(sdr.solution.dual_residual)
        candidate = report.best_assoc
        f_cand = total_objective(cfg, users, servers, powers, resolutions, candidate)
        if f_cand < f_cur:
            assoc = candidate
            f_cur = f_cand
            trace.association_accepted.append(True)
        else:
            trace.association_accepted.append(False)

        resolutions = _optimize_resolutions(cfg, users, servers, assoc)
        f_new = total_objective(cfg, users, servers, powers, resolutions, assoc)
        f_prev = trace.objective_values[-1]
        trace.objective_values.append(f_new)
        f_cur = f_new
        if abs(f_new - f_prev) <= opts.tol_rel * abs(f_prev):
            break

    return evaluate_allocation(cfg, users, servers, powers, resolutions, assoc), trace


_BASELINE_SEED_TAG = {
    BaselineKind.OPT_LATENCY: 1,
    BaselineKind.OPT_EARNINGS: 100001,
    BaselineKind.RANDOM: 100002,
}


def run_baseline(kind: BaselineKind, cfg: SystemConfig,
                 users: Sequence[UserProfile], servers: Sequence[ServerProfile],
                 opts: SolveOptions,
                 association_solver: Optional[AssociationSolver] = None) -> Allocation:
    """One of the three reference methods, with powers set by the closed form.

    OPT_LATENCY pins the minimum resolution and runs the relaxation pipeline
    for the assignment (its rounding seed matches the joint solver's first
    pass, so on a shared seed both start from the same assignment); its
    relaxation goes through association_solver, as in solve_joint.
    OPT_EARNINGS pins the maximum resolution with a uniform-random
    assignment; RANDOM draws both uniformly.
    """
    powers = _prop1_powers(cfg, users)
    k_total, n_total = len(users), len(servers)
    tag = _BASELINE_SEED_TAG[kind]

    if kind is BaselineKind.OPT_LATENCY:
        resolutions = np.full(k_total, cfg.s_min_px)
        inst = build_qcqp(cfg, users, servers, resolutions)
        sdr = (association_solver or _default_association_solver)(inst, opts, None)
        report = gaussian_randomize(
            inst, sdr.b_star, opts.rand_samples_l, _derive_seed(opts.rng_seed, tag))
        assoc = report.best_assoc
    elif kind is BaselineKind.OPT_EARNINGS:
        rng = np.random.default_rng(_derive_seed(opts.rng_seed, tag))
        resolutions = np.full(k_total, cfg.s_max_px)
        assoc = Association.from_server_indices(
            rng.integers(0, n_total, size=k_total), n_total)
    else:
        rng = np.random.default_rng(_derive_seed(opts.rng_seed, tag))
        resolutions = rng.uniform(cfg.s_min_px, cfg.s_max_px, size=k_total)
        assoc = Association.from_server_indices(
            rng.integers(0, n_total, size=k_total), n_total)

    return evaluate_allocation(cfg, users, servers, powers, resolutions, assoc)


def auto_normalized_config(cfg: SystemConfig, users: Sequence[UserProfile],
                           servers: Sequence[ServerProfile]) -> SystemConfig:
    """Optional normalization of the utility weights.

    Sets the earnings weight to one over the total earnings at maximum
    resolution, and the latency weight to one over the mean per-user latency
    at minimum resolution under a round-robin assignment, so that a sweep of
    the trade-off weight spans a balanced range. Off by default; the
    resulting weights are carried in the returned config.
    """
    total_earn = float(user_earnings(cfg, users, np.full(len(users), cfg.s_max_px)).sum())
    powers = _prop1_powers(cfg, users)
    assoc = round_robin_association(len(users), len(servers))
    resolutions = np.full(len(users), cfg.s_min_px)
    alloc = evaluate_allocation(cfg, users, servers, powers, resolutions, assoc)
    mean_latency = float(alloc.total_latency_s.mean())
    return replace(cfg,
                   eta_earn=1.0 / total_earn if total_earn > 0 else 1.0,
                   eta_lat=1.0 / mean_latency if mean_latency > 0 else 1.0)
