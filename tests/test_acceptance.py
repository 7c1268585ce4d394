"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible under ``pytest -v -s``). Exact
oracle checks run at full size; the trend checks run the desk-scale sweeps
(20 users, 5 servers, 20 seeds) and take several minutes.
"""

import math
import time

import numpy as np

from mecopt.association import build_qcqp, gaussian_randomize, solve_association_sdr
from mecopt.earnings import DEFAULT_PARAMS, EarnFamily, eval_earning, fit_params
from mecopt.harness import ScenarioSpec, SweepKind, emit_results, run_sweep
from mecopt.model import evaluate_allocation
from mecopt.optimizer import SolveOptions, solve_joint
from mecopt.power import (WBranch, energy_root_oracle, feasibility_ratio,
                          lambert_w, optimal_power)
from mecopt.resolution import _closed_form
from helpers import (brute_force_association, joint_oracle, make_cfg, make_user,
                     nested_brute_force, random_one_hot, resolution_objective,
                     small_scenario, spearman)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_ac01_power_agreement():
    rng = np.random.default_rng(101)
    cfg = make_cfg(num_users=20)
    users = []
    while len(users) < 1000:
        user = make_user(channel_gain=10 ** rng.uniform(-12.5, -9.0),
                         uplink_bits=rng.uniform(5e4, 2e5),
                         energy_budget_j=rng.uniform(0.05, 0.2),
                         power_cap_w=1e9)
        if feasibility_ratio(cfg, user) < 1.0:
            users.append(user)
    start = time.perf_counter()
    worst = 0.0
    for user in users:
        p_lambert = optimal_power(cfg, user).p_star
        p_bisect = energy_root_oracle(cfg, user)
        worst = max(worst, abs(p_lambert - p_bisect) / p_bisect)
    elapsed = time.perf_counter() - start
    _report("power-agreement", worst < 1e-8 and elapsed < 1.0,
            f"worst rel diff {worst:.3g}, {elapsed * 1e3:.0f} ms for 1000 users")


def test_ac02_lambert_branch_facts():
    rng = np.random.default_rng(102)
    branch_ok = lambert_w(WBranch.LOWER, -math.exp(-1.0)) == -1.0
    worst = 0.0
    for z in rng.uniform(0.0, 1.0, 100):
        x = -z * math.exp(-z)
        worst = max(worst, abs(lambert_w(WBranch.PRINCIPAL, x) + z))
    _report("lambert-branch-facts", branch_ok and worst < 1e-12,
            f"branch point exact: {branch_ok}, worst identity error {worst:.3g}")


def test_ac03_quadratic_form_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    checked = 0
    for trial in range(40):
        k = int(rng.integers(2, 11))
        n = int(rng.integers(2, 6))
        cfg, users, servers = small_scenario(
            1000 + trial, k, n, weight_omega=float(rng.uniform(0.5, 5.0)))
        k = len(users)
        res = rng.uniform(cfg.s_min_px, cfg.s_max_px, k)
        inst = build_qcqp(cfg, users, servers, res)
        powers = np.full(k, 0.1)
        for _ in range(25):
            assoc = random_one_hot(rng, k, n)
            a = assoc.assign.astype(float).ravel()
            quad = inst.scale * float(a @ inst.p_matrix @ a)
            total = inst.scale * evaluate_allocation(
                cfg, users, servers, powers, res, assoc).latency_proc_s.sum()
            worst = max(worst, abs(quad - total) / abs(total))
            checked += 1
    _report("quadratic-form-equivalence", checked == 1000 and worst < 1e-9,
            f"{checked} associations, worst rel err {worst:.3g}")


def test_ac04_sdr_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    bound_ok = 0
    within = 0
    instances = 100
    for trial in range(instances):
        cfg, users, servers = small_scenario(2000 + trial, 6, 3)
        res = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
        inst = build_qcqp(cfg, users, servers, res)
        sdr = solve_association_sdr(inst, tol=1e-9, max_iter=50000)
        report = gaussian_randomize(inst, sdr.solution.x, 1000, 2000 + trial)
        _, best = brute_force_association(cfg, users, servers, res)
        bound_ok += sdr.lower_bound <= best + 1e-6
        within += report.best_objective <= 1.05 * best
    elapsed = time.perf_counter() - start
    _report("sdr-soundness",
            bound_ok == instances and within >= 95 and elapsed < 300.0,
            f"bound ok {bound_ok}/100, within 5% on {within}/100, {elapsed:.0f} s")


def test_ac05_joint_solve_quality():
    hits = 0
    instances = 50
    for trial in range(instances):
        cfg, users, servers = small_scenario(3000 + trial, 5, 3,
                                             weight_omega=2.75)
        opts = SolveOptions(rng_seed=trial, sdp_tol=1e-5, sdp_max_iter=10000)
        alloc, _ = solve_joint(cfg, users, servers, opts)
        f_star, _, _ = nested_brute_force(cfg, users, servers, alloc.powers)
        hits += alloc.objective <= f_star + 0.05 * abs(f_star)
    _report("joint-solve-quality", hits >= 45,
            f"within 5% of nested brute force on {hits}/{instances}")


def test_ac05_joint_solve_quality_at_desk_scale():
    gaps = []
    for seed in range(5000, 5006):
        cfg, users, servers = small_scenario(seed, 20, 5, weight_omega=2.75)
        alloc, _ = solve_joint(cfg, users, servers, SolveOptions())
        f_star, _, _ = joint_oracle(cfg, users, servers, alloc.powers)
        gaps.append((alloc.objective - f_star) / abs(f_star))
    _report("joint-solve-quality-20x5", np.mean(gaps) <= 0.01 and max(gaps) <= 0.02,
            f"above the exact joint optimum by {np.mean(gaps):.2%} on average, "
            f"{max(gaps):.2%} at worst, on {len(gaps)} instances")


def test_ac06_resolution_exactness():
    rng = np.random.default_rng(106)
    cfg = make_cfg()
    families = [list(EarnFamily)[trial % 3] for trial in range(300)]
    slope, earn_scale, x_offset = np.array(
        [(10 ** rng.uniform(-9.5, -5.0), rng.uniform(0.2, 4.0), rng.uniform(0.25, 0.5))
         for _ in range(300)]).T
    s_star = _closed_form(cfg, families, slope, earn_scale, x_offset)
    grid = np.linspace(cfg.s_min_px, cfg.s_max_px, 10_000)
    vals = resolution_objective(cfg, families, slope[:, None], earn_scale[:, None],
                                x_offset[:, None], grid)
    rows = np.arange(300)
    best = np.argmax(vals, axis=1)
    lo = np.maximum(best - 1, 0)
    hi = np.minimum(best + 1, len(grid) - 1)
    top = vals[rows, best]
    step_var = (top - vals[rows, lo]) + (top - vals[rows, hi])
    at_star = resolution_objective(cfg, families, slope, earn_scale, x_offset, s_star)
    failures = int(np.sum(at_star < top - step_var - 1e-9))
    _report("resolution-exactness", failures == 0,
            f"{300 - failures}/300 subproblems beat the 10k grid")


def test_ac07_monotone_descent():
    rng = np.random.default_rng(107)
    violations = 0
    for trial in range(200):
        k = int(rng.integers(3, 7))
        n = int(rng.integers(2, 4))
        cfg, users, servers = small_scenario(
            4000 + trial, k, n, weight_omega=float(rng.uniform(0.5, 5.0)))
        opts = SolveOptions(rng_seed=trial, rand_samples_l=200,
                            sdp_tol=1e-4, sdp_max_iter=4000)
        _, trace = solve_joint(cfg, users, servers, opts)
        seq = trace.objective_values
        if not all(b <= a + 1e-9 for a, b in zip(seq, seq[1:])):
            violations += 1
    _report("monotone-descent", violations == 0,
            f"non-increasing objective in {200 - violations}/200 solves")


def test_ac08_trend_reproduction():
    spec = ScenarioSpec(seed=0, num_users=20, num_servers=5)
    omega_grid = [0.5, 1.0, 1.5, 2.0, 2.5, 2.75, 3.0, 3.5, 4.0, 4.5, 5.0]
    trend_grid = [v for v in omega_grid if v != 2.75]
    rows = run_sweep(SweepKind.OMEGA, spec, ["proposed", "random"],
                     omega_grid, num_seeds=20)

    def agg(method, field, omega):
        vals = [getattr(r, field) for r in rows
                if r.method == method and r.omega == omega and r.status == "ok"]
        return float(np.mean(vals))

    lat = [agg("proposed", "mean_latency_s", v) for v in trend_grid]
    earn = [agg("proposed", "mean_earnings_norm", v) for v in trend_grid]
    rho_lat = spearman(trend_grid, lat)
    rho_earn = spearman(trend_grid, earn)

    lat_gain = 1.0 - agg("proposed", "mean_latency_s", 2.75) \
        / agg("random", "mean_latency_s", 2.75)
    earn_drift = abs(agg("proposed", "mean_earnings_norm", 2.75)
                     - agg("random", "mean_earnings_norm", 2.75)) \
        / agg("random", "mean_earnings_norm", 2.75)

    users_rows = run_sweep(SweepKind.USERS, spec, ["proposed"],
                           [10.0, 15.0, 20.0, 25.0], num_seeds=20)
    by_k = [float(np.mean([r.mean_latency_s for r in users_rows
                           if r.num_users == int(v)]))
            for v in [10.0, 15.0, 20.0, 25.0]]
    k_monotone = all(b > a for a, b in zip(by_k, by_k[1:]))

    ok = (rho_lat <= -0.9 and rho_earn <= -0.9 and lat_gain >= 0.20
          and earn_drift <= 0.10 and k_monotone)
    _report("trend-reproduction", ok,
            f"spearman(lat)={rho_lat:.3f}, spearman(earn)={rho_earn:.3f}, "
            f"latency cut at omega=2.75: {lat_gain:.1%}, "
            f"earnings drift {earn_drift:.1%}, "
            f"latency vs users {['%.3f' % v for v in by_k]}")


def test_ac09_earning_fit_recovery():
    worst = 0.0
    for family, truth in DEFAULT_PARAMS.items():
        xs = np.linspace(0.0, 1.0, 50)
        samples = [(float(x), eval_earning(truth, 1.0, float(x))) for x in xs]
        fit = fit_params(samples, family)
        worst = max(worst,
                    abs(fit.params.alpha - truth.alpha) / truth.alpha,
                    abs(fit.params.beta - truth.beta) / truth.beta)
    _report("earning-fit-recovery", worst < 0.01,
            f"worst parameter error {worst:.2%}")


def test_ac10_sweep_determinism(tmp_path):
    spec = ScenarioSpec(seed=77, num_users=6, num_servers=3)
    blobs = []
    for name in ("first.csv", "second.csv"):
        rows = run_sweep(SweepKind.OMEGA, spec, ["proposed", "random"],
                         [1.0, 2.75], num_seeds=2, rand_samples=500)
        path = tmp_path / name
        emit_results(rows, path)
        blobs.append(path.read_bytes())
    _report("sweep-determinism", blobs[0] == blobs[1],
            f"two runs produced {len(blobs[0])} identical bytes: "
            f"{blobs[0] == blobs[1]}")
