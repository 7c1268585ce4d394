import dataclasses

import numpy as np
import pytest

from mecopt import optimizer
from mecopt.association import build_qcqp, solve_association_sdr
from mecopt.earnings import DEFAULT_PARAMS
from mecopt.harness import ScenarioSpec, generate_scenario
from mecopt.model import Association, ServerProfile, total_objective
from mecopt.optimizer import BaselineKind, SolveOptions, run_baseline, solve_joint
from mecopt.power import optimal_power
from mecopt.resolution import optimal_resolution
from helpers import joint_oracle, make_cfg, make_user, nested_brute_force, small_scenario

FAST = dict(sdp_tol=1e-4, sdp_max_iter=4000)


def test_single_user_single_server_terminates_quickly():
    cfg = make_cfg(num_users=1, num_servers=1, weight_omega=2.0)
    users = [make_user(channel_gain=1e-9)]
    servers = [ServerProfile(2e12)]
    opts = SolveOptions(rng_seed=0, rand_samples_l=50, **FAST)
    alloc, trace = solve_joint(cfg, users, servers, opts)
    assert len(trace.objective_values) - 1 <= 2

    p_star = optimal_power(cfg, users[0]).p_star
    assoc = Association.from_server_indices([0], 1)
    s_star = optimal_resolution(cfg, users, servers, assoc)
    assert alloc.powers[0] == p_star
    assert alloc.resolutions == pytest.approx(s_star, rel=1e-12)
    want = total_objective(cfg, users, servers, [p_star], s_star, assoc)
    assert alloc.objective == pytest.approx(want, rel=1e-12)


def test_trace_is_deterministic():
    cfg, users, servers = small_scenario(60, 5, 3, weight_omega=2.75)
    opts = SolveOptions(rng_seed=9, rand_samples_l=300, **FAST)
    a1, t1 = solve_joint(cfg, users, servers, opts)
    a2, t2 = solve_joint(cfg, users, servers, opts)
    assert t1.objective_values == t2.objective_values
    assert t1.association_accepted == t2.association_accepted
    assert np.array_equal(a1.association.assign, a2.association.assign)
    assert np.array_equal(a1.resolutions, a2.resolutions)


def test_trace_records_sdp_iteration_cap():
    # Ten iterations are far from converged, yet the relaxation's completion
    # is PSD by construction, so every capped solve still rounds and finishes.
    cases = [(*small_scenario(seed, k, n), SolveOptions(sdp_max_iter=10))
             for k, n in ((3, 2), (4, 2), (5, 3)) for seed in range(60, 70)]
    for cfg, users, servers, opts in cases:
        _, trace = solve_joint(cfg, users, servers, opts)
        outer = len(trace.objective_values) - 1
        assert outer >= 1
        assert trace.sdp_status == ["iteration_cap"] * outer
        assert trace.sdp_iterations == [10] * outer


def test_trace_records_exact_single_assignment_relaxation():
    # One user on one server: the relaxation's only point is the assignment
    # itself, which the splitting reaches exactly within ten iterations.
    cfg = make_cfg(num_users=1, num_servers=1, weight_omega=2.0)
    opts = SolveOptions(rng_seed=0, rand_samples_l=50, sdp_tol=1e-4, sdp_max_iter=10)
    _, trace = solve_joint(cfg, [make_user()], [ServerProfile(2e12)], opts)
    outer = len(trace.objective_values) - 1
    assert outer >= 1
    assert trace.sdp_status == ["converged"] * outer
    assert trace.sdp_primal_residual == trace.sdp_dual_residual == [0.0] * outer


def test_trace_records_sdp_residuals(monkeypatch):
    cfg, users, servers = small_scenario(61, 5, 3, weight_omega=2.75)
    solutions = []

    def recording_solver(*args, **kwargs):
        sdr = solve_association_sdr(*args, **kwargs)
        solutions.append(sdr.solution)
        return sdr

    monkeypatch.setattr(optimizer, "solve_association_sdr", recording_solver)
    opts = SolveOptions(rng_seed=2, rand_samples_l=100, **FAST)
    _, trace = solve_joint(cfg, users, servers, opts)
    assert len(solutions) == len(trace.objective_values) - 1
    assert trace.sdp_iterations == [s.iterations for s in solutions]
    assert trace.sdp_primal_residual == [s.primal_residual for s in solutions]
    assert trace.sdp_dual_residual == [s.dual_residual for s in solutions]
    assert trace.sdp_rho == [s.rho for s in solutions]
    assert all(0.0 <= r < opts.sdp_tol for r in trace.sdp_primal_residual + trace.sdp_dual_residual)


def test_relaxation_cache_hit_matches_fresh_solve(monkeypatch):
    # Doubling omega doubles the cost exactly, so its normalized form, and
    # with it the relaxation, is unchanged: the optlat relaxation at s_min
    # is the one solve_joint's first outer iteration cached.
    cfg, users, servers = small_scenario(62, 5, 3, weight_omega=1.0)
    cfg2 = dataclasses.replace(cfg, weight_omega=2.0)
    opts = SolveOptions(rng_seed=3, rand_samples_l=100, **FAST)
    cache = {}
    solve_joint(cfg, users, servers, opts, sdr_cache=cache)
    filled = len(cache)
    assert filled >= 1

    def no_solve(*args, **kwargs):
        raise AssertionError("the relaxation should come from the cache")

    monkeypatch.setattr(optimizer, "solve_association_sdr", no_solve)
    run_baseline(BaselineKind.OPT_LATENCY, cfg2, users, servers, opts, sdr_cache=cache)
    assert len(cache) == filled
    inst = build_qcqp(cfg2, users, servers, np.full(len(users), cfg2.s_min_px))
    hit = optimizer._relax(inst, opts, None, cache)
    monkeypatch.undo()

    fresh = solve_association_sdr(inst, tol=opts.sdp_tol, max_iter=opts.sdp_max_iter)
    assert hit.b_star.tobytes() == fresh.b_star.tobytes()
    assert hit.lower_bound == fresh.lower_bound


def test_warm_outer_iterations_take_fewer_iterations_than_cold_solves(monkeypatch):
    # Each relaxation resumes the previous one's iterate, dual and rho, and
    # takes fewer iterations than a cold solve of the same relaxation
    # (measured: worst ratio 0.80, summed ratios 0.38-0.68). Restarted with
    # u = 0, the summed ratios were 0.54-0.83.
    for seed in range(5000, 5006):
        cfg, users, servers = small_scenario(seed, 20, 5)
        pairs = []

        def paired_solver(inst, tol, max_iter, initial=None):
            sdr = solve_association_sdr(inst, tol=tol, max_iter=max_iter, initial=initial)
            if initial is not None:
                cold = solve_association_sdr(inst, tol=tol, max_iter=max_iter)
                pairs.append((sdr.solution.iterations, cold.solution.iterations))
            return sdr

        monkeypatch.setattr(optimizer, "solve_association_sdr", paired_solver)
        solve_joint(cfg, users, servers, SolveOptions())
        assert pairs and all(warm < cold for warm, cold in pairs), (seed, pairs)
        warm, cold = map(sum, zip(*pairs))
        assert warm <= 0.7 * cold, (seed, pairs)


def test_last_trace_objective_is_the_allocation_objective():
    # 20 users: numpy sums the utilities pairwise, so a second summation
    # order would disagree with the allocation in the last digit.
    cfg, users, servers = generate_scenario(
        ScenarioSpec(seed=3000, num_users=20, num_servers=5))
    opts = SolveOptions(rng_seed=3000, sdp_tol=3e-4, sdp_max_iter=2000)
    alloc, trace = solve_joint(cfg, users, servers, opts)
    assert trace.objective_values[-1] == alloc.objective


def test_accepted_objective_sequence_never_increases():
    for seed in range(8):
        cfg, users, servers = small_scenario(70 + seed, 6, 3,
                                             weight_omega=float(1 + seed % 4))
        opts = SolveOptions(rng_seed=seed, rand_samples_l=200, **FAST)
        _, trace = solve_joint(cfg, users, servers, opts)
        values = trace.objective_values
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_joint_solve_close_to_nested_brute_force():
    hits = 0
    for seed in range(10):
        cfg, users, servers = small_scenario(80 + seed, 5, 3, weight_omega=2.75)
        opts = SolveOptions(rng_seed=seed, **FAST)
        alloc, _ = solve_joint(cfg, users, servers, opts)
        f_star, _, _ = nested_brute_force(cfg, users, servers, alloc.powers)
        assert alloc.objective >= f_star - 1e-9
        hits += alloc.objective <= f_star + 0.05 * abs(f_star)
    assert hits >= 9


def test_joint_oracle_equals_nested_brute_force():
    for trial in range(10):
        cfg, users, servers = small_scenario(3000 + trial, 5, 3, weight_omega=2.75)
        powers = np.array([optimal_power(cfg, u).p_star for u in users])
        f_star, _, _ = nested_brute_force(cfg, users, servers, powers)
        f_oracle, assoc, s = joint_oracle(cfg, users, servers, powers)
        assert f_oracle == pytest.approx(f_star, rel=1e-12)
        assert f_oracle == total_objective(cfg, users, servers, powers, s, assoc)


def test_optlat_never_slower_than_random_on_average():
    lat_opt, lat_rnd = [], []
    for seed in range(20):
        cfg, users, servers = small_scenario(200 + seed, 8, 3, weight_omega=2.0)
        opts = SolveOptions(rng_seed=seed, rand_samples_l=300, **FAST)
        a_opt = run_baseline(BaselineKind.OPT_LATENCY, cfg, users, servers, opts)
        a_rnd = run_baseline(BaselineKind.RANDOM, cfg, users, servers, opts)
        lat_opt.append(a_opt.total_latency_s.mean())
        lat_rnd.append(a_rnd.total_latency_s.mean())
    assert np.mean(lat_opt) <= np.mean(lat_rnd)


def test_optearn_reaches_maximum_earnings():
    cfg, users, servers = small_scenario(210, 6, 3)
    opts = SolveOptions(rng_seed=1, **FAST)
    alloc = run_baseline(BaselineKind.OPT_EARNINGS, cfg, users, servers, opts)
    assert np.all(alloc.resolutions == cfg.s_max_px)
    # any other in-range resolution earns no more, per-user
    rng = np.random.default_rng(0)
    for k, user in enumerate(users):
        from mecopt.earnings import eval_earning, normalize_input
        best = alloc.per_user_earnings[k]
        for s in rng.uniform(cfg.s_min_px, cfg.s_max_px, 25):
            other = eval_earning(DEFAULT_PARAMS[user.earn_family], user.earn_scale,
                                 normalize_input(cfg, s, user.downlink_rate_bps))
            assert other <= best + 1e-12


def test_random_baseline_reproducible():
    cfg, users, servers = small_scenario(220, 5, 2)
    opts = SolveOptions(rng_seed=4, **FAST)
    a = run_baseline(BaselineKind.RANDOM, cfg, users, servers, opts)
    b = run_baseline(BaselineKind.RANDOM, cfg, users, servers, opts)
    assert np.array_equal(a.resolutions, b.resolutions)
    assert np.array_equal(a.association.assign, b.association.assign)


def test_proposed_dominates_baselines_on_average():
    sums = {"proposed": 0.0, "optlat": 0.0, "optearn": 0.0, "random": 0.0}
    for seed in range(20):
        cfg, users, servers = small_scenario(300 + seed, 6, 3, weight_omega=2.75)
        opts = SolveOptions(rng_seed=seed, rand_samples_l=300, **FAST)
        alloc, _ = solve_joint(cfg, users, servers, opts)
        sums["proposed"] += alloc.per_user_utility.sum()
        for kind in BaselineKind:
            out = run_baseline(kind, cfg, users, servers, opts)
            sums[kind.value] += out.per_user_utility.sum()
    for kind in BaselineKind:
        assert sums["proposed"] >= sums[kind.value] - 1e-9


def test_proposed_matches_optlat_association_on_shared_seed():
    # both run the same relaxation pipeline with the same derived seed at the
    # minimum resolution, so the proposed method can only improve from there
    cfg, users, servers = small_scenario(230, 6, 3, weight_omega=3.0)
    opts = SolveOptions(rng_seed=13, rand_samples_l=300, **FAST)
    alloc, _ = solve_joint(cfg, users, servers, opts)
    base = run_baseline(BaselineKind.OPT_LATENCY, cfg, users, servers, opts)
    assert alloc.objective <= base.objective + 1e-9
