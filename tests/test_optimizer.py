import dataclasses

import numpy as np
import pytest

from mecopt import optimizer
from mecopt.association import gaussian_randomize, solve_association_sdr
from mecopt.earnings import DEFAULT_PARAMS
from mecopt.harness import METHODS, ScenarioSpec, SweepKind, generate_scenario, run_sweep
from mecopt.model import Association, ServerProfile, total_objective
from mecopt.optimizer import BaselineKind, SolveOptions, run_baseline, solve_joint
from mecopt.power import optimal_power
from mecopt.resolution import optimal_resolution
from mecopt.sdp import SdpStatus
from helpers import joint_oracle, make_cfg, make_user, nested_brute_force, small_scenario

FAST = dict(sdp_tol=1e-4, sdp_max_iter=4000)


def test_single_user_single_server_terminates_quickly():
    cfg = make_cfg(num_users=1, weight_omega=2.0)
    users = [make_user(channel_gain=1e-9)]
    servers = [ServerProfile(2e12)]
    opts = SolveOptions(rng_seed=0, rand_samples_l=50, **FAST)
    alloc, trace = solve_joint(cfg, users, servers, opts)
    assert len(trace.objective_values) - 1 <= 2

    p_star = optimal_power(cfg, users[0]).p_star
    assoc = Association([0], 1)
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


def test_solve_path_never_builds_the_one_hot_matrix(monkeypatch):
    # The solvers work on server-index vectors; the K x N matrix is for readers.
    def refuse(self):
        raise AssertionError("the solve path read Association.assign")

    monkeypatch.setattr(Association, "assign", property(refuse))
    cfg, users, servers = small_scenario(61, 6, 3)
    opts = SolveOptions(rng_seed=1, rand_samples_l=100, **FAST)
    solve_joint(cfg, users, servers, opts)
    for kind in BaselineKind:
        run_baseline(kind, cfg, users, servers, opts)
    rows = run_sweep(SweepKind.OMEGA, ScenarioSpec(seed=61, num_users=6, num_servers=3),
                     METHODS, [1.0], num_seeds=1, rand_samples=100, **FAST)
    assert [r.status for r in rows] == ["ok"] * len(METHODS)


def test_trace_records_sdp_iteration_cap():
    # Ten iterations are far from converged, yet the relaxation's completion
    # is PSD by construction, so every capped solve still rounds and finishes.
    cases = [(*small_scenario(seed, k, n), SolveOptions(sdp_max_iter=10))
             for k, n in ((3, 2), (4, 2), (5, 3)) for seed in range(60, 70)]
    for cfg, users, servers, opts in cases:
        _, trace = solve_joint(cfg, users, servers, opts)
        assert len(trace.objective_values) - 1 >= 1
        assert trace.relaxation.status is SdpStatus.ITERATION_CAP
        assert trace.relaxation.iterations == 10


def test_trace_records_exact_single_assignment_relaxation():
    # One user on one server: the relaxation's only point is the assignment
    # itself, which the splitting reaches exactly within ten iterations.
    cfg = make_cfg(num_users=1, weight_omega=2.0)
    opts = SolveOptions(rng_seed=0, rand_samples_l=50, sdp_tol=1e-4, sdp_max_iter=10)
    _, trace = solve_joint(cfg, [make_user()], [ServerProfile(2e12)], opts)
    assert len(trace.objective_values) - 1 >= 1
    assert trace.relaxation.status is SdpStatus.CONVERGED
    assert trace.relaxation.primal_residual == trace.relaxation.dual_residual == 0.0


def test_trace_records_sdp_residuals(monkeypatch):
    cfg, users, servers = small_scenario(61, 5, 3, weight_omega=2.75)
    solutions, reports = [], []

    def recording_solver(*args, **kwargs):
        sdr = solve_association_sdr(*args, **kwargs)
        solutions.append(sdr.solution)
        return sdr

    def recording_rounding(*args, **kwargs):
        reports.append(gaussian_randomize(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(optimizer, "solve_association_sdr", recording_solver)
    monkeypatch.setattr(optimizer, "gaussian_randomize", recording_rounding)
    opts = SolveOptions(rng_seed=2, rand_samples_l=100, **FAST)
    _, trace = solve_joint(cfg, users, servers, opts)
    assert len(solutions) == 1 and reports == [trace.rounding]
    assert trace.relaxation == dataclasses.replace(solutions[0], x=None)
    assert trace.rounding.sdr_lower_bound == trace.relaxation.objective
    assert 0.0 <= trace.relaxation.primal_residual < opts.sdp_tol
    assert 0.0 <= trace.relaxation.dual_residual < opts.sdp_tol


def _count_calls(monkeypatch):
    """Wrap the solve path's two association steps, counting their calls."""
    calls = {"solve_association_sdr": 0, "gaussian_randomize": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(optimizer, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(optimizer, name, counted)
    return calls


def test_relaxation_cache_hit_matches_fresh_solve(monkeypatch):
    # The association subproblem does not depend on omega, and optlat's
    # pass at s_min is solve_joint's (same instance and options), so at
    # omega = 3 it comes from the cache filled at omega = 1, rounding
    # included, and equals a run without the cache.
    cfg, users, servers = small_scenario(62, 5, 3, weight_omega=1.0)
    cfg3 = dataclasses.replace(cfg, weight_omega=3.0)
    opts = SolveOptions(rng_seed=3, rand_samples_l=100, **FAST)
    uncached = run_baseline(BaselineKind.OPT_LATENCY, cfg3, users, servers, opts)
    cache = {}
    solve_joint(cfg, users, servers, opts, sdr_cache=cache)
    filled = len(cache)
    assert filled >= 1

    def no_call(*args, **kwargs):
        raise AssertionError("the association pass should come from the cache")

    monkeypatch.setattr(optimizer, "solve_association_sdr", no_call)
    monkeypatch.setattr(optimizer, "gaussian_randomize", no_call)
    cached = run_baseline(BaselineKind.OPT_LATENCY, cfg3, users, servers, opts,
                          sdr_cache=cache)
    assert len(cache) == filled
    assert np.array_equal(cached.association.assign, uncached.association.assign)
    assert cached.objective == uncached.objective
    monkeypatch.undo()

    # other SDP settings are another pass: it misses and is solved and rounded
    calls = _count_calls(monkeypatch)
    run_baseline(BaselineKind.OPT_LATENCY, cfg3, users, servers,
                 dataclasses.replace(opts, sdp_tol=opts.sdp_tol / 2), sdr_cache=cache)
    assert calls == {"solve_association_sdr": 1, "gaussian_randomize": 1}
    assert len(cache) == filled + 1


def test_optlat_runs_one_association_pass(monkeypatch):
    cfg, users, servers = small_scenario(63, 6, 3)
    calls = _count_calls(monkeypatch)
    run_baseline(BaselineKind.OPT_LATENCY, cfg, users, servers, SolveOptions(**FAST))
    assert calls == {"solve_association_sdr": 1, "gaussian_randomize": 1}


def test_sweep_never_repeats_a_rounding(monkeypatch):
    seen = []

    def recording(inst, x, num_samples, rng_seed):
        seen.append((x.tobytes(), rng_seed, num_samples))
        return gaussian_randomize(inst, x, num_samples, rng_seed)

    monkeypatch.setattr(optimizer, "gaussian_randomize", recording)
    run_sweep(SweepKind.OMEGA, ScenarioSpec(seed=64, num_users=6, num_servers=3),
              METHODS, [0.5, 1.0, 3.0], num_seeds=2, rand_samples=100,
              sdp_tol=FAST["sdp_tol"], sdp_max_iter=FAST["sdp_max_iter"])
    assert seen and len(set(seen)) == len(seen)


def test_joint_solve_runs_one_association_pass(monkeypatch):
    # Later outer iterations refine the assignment by load descent alone.
    calls = _count_calls(monkeypatch)
    outer = []
    for seed in range(5000, 5003):
        cfg, users, servers = small_scenario(seed, 20, 5, weight_omega=2.75)
        calls.update(solve_association_sdr=0, gaussian_randomize=0)
        _, trace = solve_joint(cfg, users, servers, SolveOptions())
        outer.append(len(trace.objective_values) - 1)
        assert calls == {"solve_association_sdr": 1, "gaussian_randomize": 1}
    assert max(outer) >= 2, outer


def test_joint_solve_evaluates_each_allocation_once(monkeypatch):
    # the start, then per outer iteration the candidate's test and the new
    # allocation, whose evaluation is the one returned
    calls = []
    for name in ("total_objective", "evaluate_allocation"):
        def counted(*args, _name=name, _fn=getattr(optimizer, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(optimizer, name, counted)
    for seed in range(5000, 5003):
        cfg, users, servers = small_scenario(seed, 20, 5, weight_omega=2.75)
        calls.clear()
        alloc, trace = solve_joint(cfg, users, servers, SolveOptions())
        outer = len(trace.objective_values) - 1
        assert len(calls) == 1 + 2 * outer, (seed, calls)
        assert calls[-1] == "evaluate_allocation"
        assert alloc.objective == trace.objective_values[-1]


def test_omega_sweep_solves_one_relaxation_per_scenario(monkeypatch):
    calls = _count_calls(monkeypatch)
    run_sweep(SweepKind.OMEGA, ScenarioSpec(seed=65, num_users=10, num_servers=4),
              ["proposed", "optlat"], [0.5, 1.0, 2.0, 3.0, 5.0], num_seeds=2,
              rand_samples=100, sdp_tol=FAST["sdp_tol"], sdp_max_iter=FAST["sdp_max_iter"])
    assert calls == {"solve_association_sdr": 2, "gaussian_randomize": 2}


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
