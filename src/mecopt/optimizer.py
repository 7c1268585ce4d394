"""Joint solver and comparison methods.

Powers are set once by the closed form, then the assignment (load descent,
from the relaxation's rounding at first, accepted only if it strictly lowers
the objective) and the resolutions (every user's closed form in one pass)
alternate until the objective stabilizes. The three reference methods share
the same power rule so every comparison isolates the assignment/resolution
choices. A caller that solves many methods or weights on one scenario passes
a dict as sdr_cache, and an association pass that repeats across them runs once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .association import (QcqpInstance, RoundingReport, build_qcqp, descend_association,
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
    """Objective at the start and after each outer iteration, whether each
    iteration adopted its candidate, and the one association pass. The
    relaxation's iterate, N (K+1)^2 floats, is not kept: its x is None."""

    objective_values: List[float]
    association_accepted: List[bool]
    relaxation: SdpSolution
    rounding: RoundingReport


class BaselineKind(Enum):
    OPT_LATENCY = "optlat"
    OPT_EARNINGS = "optearn"
    RANDOM = "random"


def round_robin_association(num_users: int, num_servers: int) -> Association:
    return Association.from_server_indices(
        np.arange(num_users) % num_servers, num_servers)


def _derive_seed(base: int, *tags: int) -> int:
    return int(np.random.SeedSequence((base,) + tags).generate_state(1)[0])


SdrCache = Dict[Tuple[bytes, bytes, SolveOptions], Tuple[SdpSolution, RoundingReport]]


def _associate(inst: QcqpInstance, opts: SolveOptions,
               cache: Optional[SdrCache]) -> Tuple[SdpSolution, RoundingReport]:
    """One association pass: the relaxation, then its rounding. The weights
    do not enter the subproblem, so the FLOP vectors and opts fix the pass,
    and a hit in the caller-owned cache is returned as it is."""
    key = (inst.task_flops.tobytes(), inst.server_flops.tobytes(), opts)
    if cache is not None and key in cache:
        return cache[key]
    sol = solve_association_sdr(inst, tol=opts.sdp_tol, max_iter=opts.sdp_max_iter).solution
    done = sol, gaussian_randomize(
        inst, sol.x, opts.rand_samples_l, _derive_seed(opts.rng_seed, 1))
    if cache is not None:
        cache[key] = done
    return done


def _prop1_powers(cfg: SystemConfig, users: Sequence[UserProfile]) -> np.ndarray:
    return np.array([optimal_power(cfg, u).p_star for u in users])


def solve_joint(cfg: SystemConfig, users: Sequence[UserProfile],
                servers: Sequence[ServerProfile], opts: SolveOptions,
                sdr_cache: Optional[SdrCache] = None,
                ) -> Tuple[Allocation, SolveTrace]:
    """Alternating solve of powers, assignment and resolutions.

    Starts from a round-robin assignment and the minimum resolution. The
    candidate association is descend_association from the association
    pass's rounding (looked up in and added to sdr_cache when one is given)
    at the first outer iteration and from the current assignment after it.
    It is adopted only when it strictly lowers the objective, and the
    resolution pass is an exact argmin, so the objective never increases.
    """
    powers = _prop1_powers(cfg, users)
    resolutions = np.full(len(users), float(cfg.s_min_px))
    assoc = round_robin_association(len(users), len(servers))

    f_prev = total_objective(cfg, users, servers, powers, resolutions, assoc)
    values, accepted = [f_prev], []
    for it in range(1, _MAX_OUTER_ITERS + 1):
        inst = build_qcqp(cfg, users, servers, resolutions)
        if it == 1:
            sol, report = _associate(inst, opts, sdr_cache)
        candidate = descend_association(inst, report.best_assoc if it == 1 else assoc)
        accepted.append(total_objective(cfg, users, servers, powers, resolutions,
                                        candidate) < f_prev)
        if accepted[-1]:
            assoc = candidate

        resolutions = optimal_resolution(cfg, users, servers, assoc)
        f_new = total_objective(cfg, users, servers, powers, resolutions, assoc)
        values.append(f_new)
        if abs(f_new - f_prev) <= _TOL_REL * abs(f_prev):
            break
        f_prev = f_new

    return (evaluate_allocation(cfg, users, servers, powers, resolutions, assoc),
            SolveTrace(values, accepted, replace(sol, x=None), report))


_BASELINE_SEED_TAG = {
    BaselineKind.OPT_EARNINGS: 100001,
    BaselineKind.RANDOM: 100002,
}


def run_baseline(kind: BaselineKind, cfg: SystemConfig,
                 users: Sequence[UserProfile], servers: Sequence[ServerProfile],
                 opts: SolveOptions,
                 sdr_cache: Optional[SdrCache] = None) -> Allocation:
    """One of the three reference methods, with powers set by the closed form.

    OPT_LATENCY pins the minimum resolution and takes the rounded
    assignment of one association pass (relaxation plus rounding), the joint
    solver's own first pass, so through sdr_cache each serves the other's.
    OPT_EARNINGS pins the maximum resolution with a uniform-random
    assignment; RANDOM draws both uniformly.
    """
    powers = _prop1_powers(cfg, users)
    k_total, n_total = len(users), len(servers)

    if kind is BaselineKind.OPT_LATENCY:
        resolutions = np.full(k_total, cfg.s_min_px)
        inst = build_qcqp(cfg, users, servers, resolutions)
        assoc = _associate(inst, opts, sdr_cache)[1].best_assoc
    else:
        rng = np.random.default_rng(_derive_seed(opts.rng_seed, _BASELINE_SEED_TAG[kind]))
        if kind is BaselineKind.OPT_EARNINGS:
            resolutions = np.full(k_total, cfg.s_max_px)
        else:
            resolutions = rng.uniform(cfg.s_min_px, cfg.s_max_px, size=k_total)
        assoc = Association.from_server_indices(
            rng.integers(0, n_total, size=k_total), n_total)

    return evaluate_allocation(cfg, users, servers, powers, resolutions, assoc)
