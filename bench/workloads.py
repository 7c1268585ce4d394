"""The benchmark's three workloads, run against mecopt's public API.

Every input derives from the run's seed: scenario seeds are ``1000 * seed``
onward, and the number of operations follows from the run length through a
fixed nominal cost per operation, so one (seed, seconds) pair always gives
the same inputs and the same answers. Calls go through module attributes
(``optimizer.solve_joint``, ``harness.run_sweep``, ...) so that the tracer and
the result capture below see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

from mecopt import harness, optimizer
from mecopt.harness import ScenarioSpec, SweepKind
from mecopt.optimizer import BaselineKind, SolveOptions

import checks
from tracing import patched

# The sweep's SDP and rounding settings (run_sweep's defaults).
SDP_TOL = 3e-4
SDP_MAX_ITER = 2000
ROUNDING_SAMPLES = 1000
OMEGA_GRID = (0.5, 1.0, 2.0, 3.0, 5.0)
SWEEP_USERS, SWEEP_SERVERS = 10, 4


def solve_options(scenario_seed: int) -> SolveOptions:
    return SolveOptions(rng_seed=scenario_seed, rand_samples_l=ROUNDING_SAMPLES,
                        sdp_tol=SDP_TOL, sdp_max_iter=SDP_MAX_ITER)


def scenario_seeds(seed: int, count: int) -> List[int]:
    return [1000 * seed + i for i in range(count)]


@dataclass
class Outcome:
    """What a solve phase returned, plus the results captured on the way."""

    results: list
    captured: list
    op_s: List[float]

    @classmethod
    def joined(cls, parts: List["Outcome"]) -> "Outcome":
        """One outcome from solve phases run on consecutive slices of the inputs."""
        return cls([r for p in parts for r in p.results],
                   [c for p in parts for c in p.captured],
                   [t for p in parts for t in p.op_s])


@dataclass
class Verdict:
    attempted: int
    failed: int
    utility: float   # summed utility of the relaxation pipeline's allocations
    start: float     # summed utility of the start point on the same scenarios
    note: Dict[str, str]


class Capture:
    """Pass-through wrappers that keep what the checks need and time nothing."""

    def __init__(self, places) -> None:
        self.places = places
        self.results: list = []

    def installed(self):
        sink = self.results
        replacements = []
        for obj, attr in self.places:
            fn = getattr(obj, attr)

            def keep(*args, _fn=fn, **kwargs):
                out = _fn(*args, **kwargs)
                sink.append(out)
                return out

            replacements.append((obj, attr, keep))
        return patched(replacements)


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    servers: int
    nominal_op_s: float   # one operation's cost on the reference machine
    solve: Callable[[list], Outcome]
    check: Callable[[list, Outcome, int, Path], Verdict]

    def operations(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_op_s))

    def make_inputs(self, seed: int, count: int) -> list:
        """(scenario seed, (cfg, users, servers)) for each operation."""
        return [(s, harness.generate_scenario(
                    ScenarioSpec(seed=s, num_users=self.users, num_servers=self.servers)))
                for s in scenario_seeds(seed, count)]


def _timed_each(inputs: list, op: Callable, capture: Capture = None) -> Outcome:
    results, op_s = [], []
    with capture.installed() if capture else nullcontext():
        for scen_seed, scenario in inputs:
            t = time.perf_counter()
            results.append(op(scen_seed, *scenario))
            op_s.append(time.perf_counter() - t)
    return Outcome(results, capture.results if capture else [], op_s)


# joint_desk: solve_joint at the reference size 20 x 5 (lifted dimension 101).

def _joint_solve(inputs: list) -> Outcome:
    return _timed_each(inputs, lambda s, cfg, users, servers: optimizer.solve_joint(
        cfg, users, servers, solve_options(s)))


def _joint_check(inputs: list, out: Outcome, seed: int, out_dir: Path) -> Verdict:
    utility = start = 0.0
    for (_, (cfg, users, servers)), (alloc, trace) in zip(inputs, out.results):
        utility += checks.check_allocation(cfg, users, servers, alloc)
        checks.check_descent(trace.objective_values)
        checks.check_resolutions_optimal(cfg, users, servers, alloc)
        start += checks.start_point_utility(cfg, users, servers)
    return Verdict(len(inputs), 0, utility, start, {})


# relax_large: one cold optlat relaxation per 30 x 6 scenario (dimension 181).

def _relax_solve(inputs: list) -> Outcome:
    return _timed_each(
        inputs,
        lambda s, cfg, users, servers: optimizer.run_baseline(
            BaselineKind.OPT_LATENCY, cfg, users, servers, solve_options(s)),
        Capture([(optimizer, "solve_association_sdr")]))


def _relax_check(inputs: list, out: Outcome, seed: int, out_dir: Path) -> Verdict:
    if len(out.captured) != len(inputs):
        raise checks.CheckFailed("optlat did not solve exactly one relaxation per scenario")
    utility = start = 0.0
    for (_, (cfg, users, servers)), alloc, sdr in zip(inputs, out.results, out.captured):
        utility += checks.check_allocation(cfg, users, servers, alloc)
        checks.check_relaxation(cfg, users, servers, alloc, sdr.b_star)
        start += checks.start_point_utility(cfg, users, servers)
    return Verdict(len(inputs), 0, utility, start, {})


# sweep_omega: the omega sweep with all four methods at 10 x 4 (dimension 41).
# The sweep draws its own scenarios; the inputs made here serve the checks.

def _sweep_solve(inputs: list) -> Outcome:
    capture = Capture([(harness, "solve_joint"), (harness, "run_baseline")])
    spec = ScenarioSpec(seed=inputs[0][0], num_users=SWEEP_USERS, num_servers=SWEEP_SERVERS)
    t = time.perf_counter()
    with capture.installed():
        rows = harness.run_sweep(SweepKind.OMEGA, spec, harness.METHODS, OMEGA_GRID,
                                 num_seeds=len(inputs), rand_samples=ROUNDING_SAMPLES,
                                 sdp_tol=SDP_TOL, sdp_max_iter=SDP_MAX_ITER)
    return Outcome(rows, capture.results, [time.perf_counter() - t])


def _sweep_check(inputs: list, out: Outcome, seed: int, out_dir: Path) -> Verdict:
    rows = out.results
    scenarios = dict(inputs)
    start_of = {}
    for scen_seed, (cfg, users, servers) in inputs:
        for omega in OMEGA_GRID:
            start_of[(scen_seed, omega)] = checks.start_point_utility(
                dataclasses.replace(cfg, weight_omega=omega), users, servers)
    failed = sum(r.status != "ok" for r in rows)
    checks.check_sweep_rows(rows, len(inputs), OMEGA_GRID, harness.METHODS, start_of)
    if len(out.captured) != len(rows):
        raise checks.CheckFailed("sweep rows and solver calls do not pair up")
    utility = start = 0.0
    for row, result in zip(rows, out.captured):
        cfg, users, servers = scenarios[row.seed]
        cfg = dataclasses.replace(cfg, weight_omega=row.omega)
        alloc = result[0] if row.method == "proposed" else result
        total = checks.check_allocation(cfg, users, servers, alloc)
        checks.check_row_matches(row, total)
        if row.method == "proposed":
            checks.check_descent(result[1].objective_values)
            checks.check_resolutions_optimal(cfg, users, servers, alloc)
        if row.method in ("proposed", "optlat"):
            utility += row.mean_utility * row.num_users
            start += start_of[(row.seed, row.omega)]
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / f"sweep_omega_seed{seed}.csv"
    harness.emit_results(rows, csv)
    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    return Verdict(len(rows), failed, utility, start, {"csv": str(csv), "csv_sha256": digest})


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("joint_desk", 20, 5, 4.0, _joint_solve, _joint_check),
    Workload("relax_large", 30, 6, 7.5, _relax_solve, _relax_check),
    Workload("sweep_omega", SWEEP_USERS, SWEEP_SERVERS, 2.9, _sweep_solve, _sweep_check),
)}
