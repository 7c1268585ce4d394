import dataclasses

import numpy as np
import pytest

from mecopt.association import (InstanceTooLargeError, _AssignmentPolytope,
                                association_objective, brute_force_association,
                                build_qcqp, gaussian_randomize, solve_association_sdr)
from mecopt.model import Association, ServerProfile, evaluate_allocation
from mecopt.sdp import SdpStatus, solve_sdp
from helpers import (generic_relaxation, make_cfg, make_user, random_one_hot,
                     small_scenario)


def _binary_vector(assoc: Association) -> np.ndarray:
    return assoc.assign.astype(float).ravel()


def test_smallest_instance_matrices():
    cfg = make_cfg(num_users=1, num_servers=1, lambda_up_flop_per_bit=5e3)
    user = make_user(uplink_bits=1e5, compression_ratio=480.0,
                     lambda_down_flop_per_bit=5e3)
    inst = build_qcqp(cfg, [user], [ServerProfile(1e12)], [1e6])
    task = 5e3 * 1e5 + 5e3 * (48.0 * 1e6 / 480.0)
    assert inst.p_matrix.shape == (1, 1)
    assert inst.p_matrix[0, 0] == pytest.approx(task / 1e12, rel=1e-12)
    assert np.array_equal(inst.q_matrix, [[1.0]])
    assert inst.a_dim == 1


def test_quadratic_form_equals_double_sum(rng):
    cfg, users, servers = small_scenario(21, 2, 2)
    res = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res)
    for combo in ([0, 0], [0, 1], [1, 0], [1, 1]):
        assoc = Association.from_server_indices(combo, 2)
        a = _binary_vector(assoc)
        quad = a @ inst.p_matrix @ a
        # direct double sum over users and servers
        direct = 0.0
        for k in range(2):
            for n in range(2):
                if assoc.assign[k, n]:
                    count = sum(assoc.assign[k2, n] for k2 in range(2))
                    direct += inst.task_flops[k] * count / inst.server_flops[n]
        assert quad == pytest.approx(direct, rel=1e-12)


def test_homogenization_preserves_quadratic_form(rng):
    cfg, users, servers = small_scenario(22, 3, 2)
    res = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res)
    assoc = random_one_hot(rng, 3, 2)
    a = _binary_vector(assoc)
    b = np.concatenate([a, [1.0]])
    assert b @ inst.p1 @ b == a @ inst.p_matrix @ a


def test_quadratic_form_matches_latency_model(rng):
    for trial in range(25):
        k = int(rng.integers(2, 11))
        n = int(rng.integers(2, 6))
        cfg, users, servers = small_scenario(100 + trial, k, n,
                                             weight_omega=float(rng.uniform(0.5, 5)))
        k = len(users)
        res = rng.uniform(cfg.s_min_px, cfg.s_max_px, k)
        inst = build_qcqp(cfg, users, servers, res)
        assert np.all(inst.p_matrix >= 0)
        assoc = random_one_hot(rng, k, n)
        a = _binary_vector(assoc)
        quad = inst.scale * (a @ inst.p_matrix @ a)
        powers = np.full(k, 0.1)
        total = evaluate_allocation(
            cfg, users, servers, powers, res, assoc).latency_proc_s.sum()
        assert quad == pytest.approx(inst.scale * total, rel=1e-9)
        assert association_objective(inst, assoc) == pytest.approx(quad, rel=1e-9)


def test_integrality_matrix_separates_binary_from_fractional(rng):
    cfg, users, servers = small_scenario(23, 3, 3)
    res = np.full(len(users), cfg.s_min_px)
    inst = build_qcqp(cfg, users, servers, res)
    y = inst.y_matrix
    for _ in range(200):
        assoc = random_one_hot(rng, 3, 3)
        b = np.concatenate([_binary_vector(assoc), [1.0]])
        assert abs(b @ y @ b) < 1e-12
    for _ in range(1000):
        frac = rng.dirichlet(np.ones(3), size=3)
        if np.all((frac == 0) | (frac == 1)):
            continue
        b = np.concatenate([frac.ravel(), [1.0]])
        assert b @ y @ b > 0


def test_row_sum_matrices_match_one_hot_rows(rng):
    cfg, users, servers = small_scenario(24, 4, 3)
    res = np.full(len(users), cfg.s_min_px)
    inst = build_qcqp(cfg, users, servers, res)
    for _ in range(50):
        assoc = random_one_hot(rng, 4, 3)
        b = np.concatenate([_binary_vector(assoc), [1.0]])
        big_b = np.outer(b, b)
        for g in inst.g_matrices:
            assert (g * big_b).sum() == pytest.approx(1.0, rel=1e-12)
        # destroying a row breaks exactly that constraint
        broken = b.copy()
        broken[:3] = 0.0
        big_broken = np.outer(broken, broken)
        assert (inst.g_matrices[0] * big_broken).sum() == pytest.approx(0.0, abs=1e-12)


def test_build_rejects_out_of_range_resolutions():
    cfg, users, servers = small_scenario(25, 2, 2)
    with pytest.raises(ValueError):
        build_qcqp(cfg, users, servers, np.full(len(users), cfg.s_max_px * 2))


def _uniform_instance(k, n):
    cfg = make_cfg(num_users=k, num_servers=n)
    return build_qcqp(cfg, [make_user()] * k, [ServerProfile(1e12)] * n, [2e6] * k)


def _dykstra_projection(inst, v, iters=1000):
    """Dykstra's alternating projections between the generic relaxation's
    affine step and its mask clamp; converges to the projection onto their
    intersection."""
    _, (affine, mask) = generic_relaxation(inst)
    x, p, q = v.copy(), np.zeros_like(v), np.zeros_like(v)
    for _ in range(iters):
        y = affine.project(x + p)
        p = x + p - y
        x = mask.project(y + q)
        q = y + q - x
    return x


def _polytope_cases(rng, count):
    """Random symmetric inputs for K in 1..5, N in 1..4, with the half-space
    pushed active, tied border entries and an all-negative user block mixed in."""
    for trial in range(count):
        k = int(rng.integers(1, 6))
        n = 1 if trial % 5 == 0 else int(rng.integers(1, 5))
        m = k * n
        a = rng.standard_normal((m + 1, m + 1)) * rng.uniform(0.1, 3.0)
        v = a + a.T
        kind = trial % 4
        if kind == 0:
            v[np.arange(m), np.arange(m)] -= 2.0
        elif kind == 1:
            v[:m, m] = v[m, :m] = np.repeat(rng.standard_normal(k), n)
        elif kind == 2:
            user = int(rng.integers(0, k))
            block = -np.abs(rng.standard_normal(n)) - 0.1
            v[user * n:(user + 1) * n, m] = v[m, user * n:(user + 1) * n] = block
        yield k, n, v


def test_polytope_projection_matches_dykstra(rng):
    active = inactive = single_server = 0
    for k, n, v in _polytope_cases(rng, 60):
        m = k * n
        inst = _uniform_instance(k, n)
        got = _AssignmentPolytope(k, n).project(v)
        want = _dykstra_projection(inst, v)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(v).max())
        if np.maximum(np.diagonal(v)[:m], 0.0).sum() < k:
            active += 1
            assert np.trace(got[:m, :m]) == pytest.approx(k, rel=1e-12)
        else:
            inactive += 1
        single_server += n == 1
    assert active and inactive and single_server


def test_polytope_violations_match_affine_step(rng):
    signs_seen = 0
    for k, n, v in _polytope_cases(rng, 40):
        _, (affine, mask) = generic_relaxation(_uniform_instance(k, n))
        eq_v, _, ineq_v = affine.violations(v)
        _, sign_v, _ = mask.violations(v)
        got = _AssignmentPolytope(k, n).violations(v)
        assert got == pytest.approx((eq_v, sign_v, ineq_v), rel=1e-12,
                                    abs=1e-12 * np.abs(v).max())
        assert got[1] == sign_v
        signs_seen += sign_v > 0
    assert signs_seen


def test_polytope_projection_is_idempotent(rng):
    for k, n, v in _polytope_cases(rng, 40):
        polytope = _AssignmentPolytope(k, n)
        once = polytope.project(v)
        assert np.abs(polytope.project(once) - once).max() <= 1e-14 * max(1.0, np.abs(v).max())
        eq_v, sign_v, ineq_v = polytope.violations(once)
        assert eq_v <= 1e-14 and sign_v == 0.0 and ineq_v <= 1e-14 * k


def test_relaxation_matches_generic_sdp_problem(rng):
    for seed in range(32, 42):
        cfg, users, servers = small_scenario(seed, 4, 3)
        res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
        inst = build_qcqp(cfg, users, servers, res_px)
        fast = solve_association_sdr(inst, tol=1e-8)
        generic = solve_sdp(*generic_relaxation(inst), tol=1e-8)
        assert fast.solution.status is generic.status is SdpStatus.CONVERGED
        assert fast.lower_bound == pytest.approx(generic.objective, rel=1e-6)


def test_sdr_concentrates_on_fast_server():
    cfg = make_cfg(num_users=1, num_servers=2)
    user = make_user()
    servers = [ServerProfile(5e12), ServerProfile(5e10)]
    inst = build_qcqp(cfg, [user], servers, [5e6])
    res = solve_association_sdr(inst, tol=1e-8)
    assert res.b_star[0, 0] > 0.99
    assert res.b_star[1, 1] < 0.01
    assoc, _ = brute_force_association(cfg, [user], servers, [5e6])
    assert assoc.server_indices[0] == 0


def test_sdr_row_constraints_hold(rng):
    cfg, users, servers = small_scenario(26, 4, 2)
    res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res_px)
    res = solve_association_sdr(inst)
    for g in inst.g_matrices:
        assert abs((g * res.b_star).sum() - 1.0) < 1e-6


def test_sdr_bound_below_brute_force(rng):
    cfg, users, servers = small_scenario(27, 4, 2)
    res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res_px)
    res = solve_association_sdr(inst, tol=1e-8)
    _, best = brute_force_association(cfg, users, servers, res_px)
    assert res.lower_bound <= best + 1e-6


def test_rounding_degenerate_rank_one(rng):
    cfg, users, servers = small_scenario(28, 3, 2)
    res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res_px)
    assoc = random_one_hot(rng, len(users), 2)
    b = np.concatenate([_binary_vector(assoc), [1.0]])
    b_star = np.outer(b, b)
    report = gaussian_randomize(inst, b_star, 50, rng_seed=3)
    assert np.array_equal(report.best_assoc.assign, assoc.assign)
    assert report.best_objective == pytest.approx(
        association_objective(inst, assoc), rel=1e-12)


def test_rounding_deterministic_for_fixed_seed(rng):
    cfg, users, servers = small_scenario(29, 5, 3)
    res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res_px)
    sdr = solve_association_sdr(inst)
    a = gaussian_randomize(inst, sdr.b_star, 200, rng_seed=77)
    b = gaussian_randomize(inst, sdr.b_star, 200, rng_seed=77)
    assert a.best_objective == b.best_objective
    assert a.sdr_lower_bound == b.sdr_lower_bound
    assert a.gap == b.gap
    assert np.array_equal(a.best_assoc.assign, b.best_assoc.assign)


def test_rounding_beats_or_matches_diagonal_candidate(rng):
    cfg, users, servers = small_scenario(30, 6, 3)
    res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res_px)
    sdr = solve_association_sdr(inst)
    diag_only = gaussian_randomize(inst, sdr.b_star, 0, rng_seed=0)
    full = gaussian_randomize(inst, sdr.b_star, 500, rng_seed=0)
    assert full.best_objective <= diag_only.best_objective
    assert full.best_objective >= full.sdr_lower_bound - 1e-6


def test_rounding_close_to_brute_force(rng):
    hits = 0
    for trial in range(10):
        cfg, users, servers = small_scenario(31 + trial, 6, 3)
        res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
        inst = build_qcqp(cfg, users, servers, res_px)
        sdr = solve_association_sdr(inst)
        report = gaussian_randomize(inst, sdr.b_star, 1000, rng_seed=trial)
        _, best = brute_force_association(cfg, users, servers, res_px)
        hits += report.best_objective <= 1.05 * best
    assert hits >= 9


def test_brute_force_balances_identical_users():
    cfg = make_cfg(num_users=2, num_servers=2)
    users = [make_user(), make_user()]
    servers = [ServerProfile(1e12), ServerProfile(1e12)]
    assoc, _ = brute_force_association(cfg, users, servers, [2e6, 2e6])
    assert assoc.loads.tolist() == [1, 1]


def test_brute_force_single_user_picks_fastest():
    cfg = make_cfg(num_users=1, num_servers=3)
    servers = [ServerProfile(1e12), ServerProfile(4e12), ServerProfile(2e12)]
    assoc, _ = brute_force_association(cfg, [make_user()], servers, [2e6])
    assert assoc.server_indices[0] == 1


def test_brute_force_dominates_random_assignments(rng):
    cfg, users, servers = small_scenario(40, 5, 3)
    res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res_px)
    _, best = brute_force_association(cfg, users, servers, res_px)
    for _ in range(50):
        assoc = random_one_hot(rng, len(users), 3)
        assert best <= association_objective(inst, assoc) + 1e-12


def test_brute_force_guard():
    cfg, users, servers = small_scenario(41, 9, 2)
    users = users * 3  # 27 users on 2 servers -> 2^27 > 1e6
    cfg = dataclasses.replace(cfg, num_users=len(users))
    with pytest.raises(InstanceTooLargeError):
        brute_force_association(cfg, users, servers,
                                np.full(len(users), cfg.s_min_px))
