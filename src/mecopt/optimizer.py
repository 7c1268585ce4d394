"""Joint solver and comparison methods.

Powers are set once by the closed form, then the assignment (relaxation plus
randomized rounding, accepted only if it strictly lowers the objective) and
the resolutions (every user's closed form in one pass) alternate until the
objective stabilizes. The three reference methods share the same power rule
so every comparison isolates the assignment/resolution choices. A caller
that solves many methods or weights on one scenario passes a dict as
sdr_cache, and relaxations that differ only in cost scale are solved once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .association import (QcqpInstance, SdrResult, _block_cost, build_qcqp,
                          gaussian_randomize, solve_association_sdr)
from .model import (Allocation, Association, ServerProfile, SystemConfig,
                    UserProfile, evaluate_allocation, total_objective)
from .power import optimal_power
from .resolution import optimal_resolution
from .sdp import SdpSolution

__all__ = [
    "SolveOptions",
    "SolveTrace",
    "BaselineKind",
    "solve_joint",
    "run_baseline",
    "round_robin_association",
]

# solve_joint stops once an outer iteration moves the objective by at most
# this fraction, or after this many iterations.
_TOL_REL = 1e-4
_MAX_OUTER_ITERS = 50


@dataclass(frozen=True)
class SolveOptions:
    rand_samples_l: int = 1000
    rng_seed: int = 0
    sdp_tol: float = 3e-4
    sdp_max_iter: int = 2000


@dataclass
class SolveTrace:
    """Per-outer-iteration record of a joint solve.

    sdp_iterations, sdp_status, sdp_primal_residual, sdp_dual_residual and
    sdp_rho describe the relaxation each outer iteration used (its
    SdpSolution's iteration count, status value, final residuals and final
    rho).
    """

    objective_values: List[float] = field(default_factory=list)
    association_accepted: List[bool] = field(default_factory=list)
    sdr_gaps: List[float] = field(default_factory=list)
    sdp_iterations: List[int] = field(default_factory=list)
    sdp_status: List[str] = field(default_factory=list)
    sdp_primal_residual: List[float] = field(default_factory=list)
    sdp_dual_residual: List[float] = field(default_factory=list)
    sdp_rho: List[float] = field(default_factory=list)


class BaselineKind(Enum):
    OPT_LATENCY = "optlat"
    OPT_EARNINGS = "optearn"
    RANDOM = "random"


def round_robin_association(num_users: int, num_servers: int) -> Association:
    return Association.from_server_indices(
        np.arange(num_users) % num_servers, num_servers)


def _derive_seed(base: int, *tags: int) -> int:
    return int(np.random.SeedSequence((base,) + tags).generate_state(1)[0])


def _relax(inst: QcqpInstance, opts: SolveOptions, initial: Optional[SdpSolution],
           cache: Optional[Dict[bytes, SdrResult]]) -> SdrResult:
    """The association relaxation, reused from cache when it holds one.

    Entries are keyed by the instance's task and server FLOPs, which fix the
    relaxation up to the cost scale; the solver normalizes the cost, so a hit
    reuses the cached solution, warm-start state included, and recomputes
    only the bound at the new scale. The cache belongs to the caller, who
    decides its lifetime.
    """
    key = (inst.task_flops.tobytes() + inst.server_flops.tobytes()
           + inst.a_dim.to_bytes(4, "little"))
    hit = cache.get(key) if cache is not None else None
    if hit is not None:
        bound = float((_block_cost(inst) * hit.solution.x).sum())
        return SdrResult(bound, hit.solution)
    res = solve_association_sdr(
        inst, tol=opts.sdp_tol, max_iter=opts.sdp_max_iter, initial=initial)
    if cache is not None:
        cache[key] = res
    return res


def _prop1_powers(cfg: SystemConfig, users: Sequence[UserProfile]) -> np.ndarray:
    return np.array([optimal_power(cfg, u).p_star for u in users])


def solve_joint(cfg: SystemConfig, users: Sequence[UserProfile],
                servers: Sequence[ServerProfile], opts: SolveOptions,
                sdr_cache: Optional[Dict[bytes, SdrResult]] = None,
                ) -> Tuple[Allocation, SolveTrace]:
    """Alternating solve of powers, assignment and resolutions.

    The assignment candidate from each rounding pass is adopted only when it
    strictly lowers the objective, and the resolution pass is an exact
    argmin, so the recorded objective sequence never increases. Starts from
    a round-robin assignment and the minimum resolution. Each relaxation
    resumes the previous outer iteration's solution (iterate, scaled dual
    and rho). Relaxations are looked up in and added to sdr_cache when one
    is given.
    """
    powers = _prop1_powers(cfg, users)
    resolutions = np.full(len(users), float(cfg.s_min_px))
    assoc = round_robin_association(len(users), len(servers))

    f_prev = total_objective(cfg, users, servers, powers, resolutions, assoc)
    trace = SolveTrace(objective_values=[f_prev])

    warm: Optional[SdpSolution] = None
    for it in range(1, _MAX_OUTER_ITERS + 1):
        inst = build_qcqp(cfg, users, servers, resolutions)
        sdr = _relax(inst, opts, warm, sdr_cache)
        warm = sdr.solution
        report = gaussian_randomize(
            inst, sdr.solution.x, opts.rand_samples_l, _derive_seed(opts.rng_seed, it))
        trace.sdr_gaps.append(report.gap)
        trace.sdp_iterations.append(sdr.solution.iterations)
        trace.sdp_status.append(sdr.solution.status.value)
        trace.sdp_primal_residual.append(sdr.solution.primal_residual)
        trace.sdp_dual_residual.append(sdr.solution.dual_residual)
        trace.sdp_rho.append(sdr.solution.rho)
        accepted = total_objective(cfg, users, servers, powers, resolutions,
                                   report.best_assoc) < f_prev
        trace.association_accepted.append(accepted)
        if accepted:
            assoc = report.best_assoc

        resolutions = optimal_resolution(cfg, users, servers, assoc)
        f_new = total_objective(cfg, users, servers, powers, resolutions, assoc)
        trace.objective_values.append(f_new)
        if abs(f_new - f_prev) <= _TOL_REL * abs(f_prev):
            break
        f_prev = f_new

    return evaluate_allocation(cfg, users, servers, powers, resolutions, assoc), trace


_BASELINE_SEED_TAG = {
    BaselineKind.OPT_LATENCY: 1,
    BaselineKind.OPT_EARNINGS: 100001,
    BaselineKind.RANDOM: 100002,
}


def run_baseline(kind: BaselineKind, cfg: SystemConfig,
                 users: Sequence[UserProfile], servers: Sequence[ServerProfile],
                 opts: SolveOptions,
                 sdr_cache: Optional[Dict[bytes, SdrResult]] = None) -> Allocation:
    """One of the three reference methods, with powers set by the closed form.

    OPT_LATENCY pins the minimum resolution and runs the relaxation pipeline
    for the assignment (its rounding seed matches the joint solver's first
    pass, so on a shared seed both start from the same assignment); its
    relaxation goes through sdr_cache, as in solve_joint.
    OPT_EARNINGS pins the maximum resolution with a uniform-random
    assignment; RANDOM draws both uniformly.
    """
    powers = _prop1_powers(cfg, users)
    k_total, n_total = len(users), len(servers)
    tag = _BASELINE_SEED_TAG[kind]

    if kind is BaselineKind.OPT_LATENCY:
        resolutions = np.full(k_total, cfg.s_min_px)
        inst = build_qcqp(cfg, users, servers, resolutions)
        sdr = _relax(inst, opts, None, sdr_cache)
        report = gaussian_randomize(
            inst, sdr.solution.x, opts.rand_samples_l, _derive_seed(opts.rng_seed, tag))
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
