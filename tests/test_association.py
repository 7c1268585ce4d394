import dataclasses
import tracemalloc

import numpy as np
import pytest

from mecopt import association
from mecopt.association import (InstanceTooLargeError, QcqpInstance, _project_assignment,
                                association_objective, build_qcqp, descend_association,
                                exact_association, gaussian_randomize, solve_association_sdr)
from mecopt.model import Association, ServerProfile, evaluate_allocation
from mecopt.optimizer import (BaselineKind, SolveOptions, round_robin_association,
                              run_baseline, solve_joint)
from mecopt.sdp import SdpStatus, project_psd
from helpers import (AffineStep, MaskStep, batched_gaussian_randomize, brute_force_association,
                     consensus_sdp, dense_sdr_cost, generic_relaxation, make_cfg, make_user,
                     polytope_violations, random_one_hot, small_scenario)


def _binary_vector(assoc: Association) -> np.ndarray:
    return assoc.assign.astype(float).ravel()


def test_smallest_instance_matrices():
    cfg = make_cfg(num_users=1, lambda_up_flop_per_bit=5e3)
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
        assoc = Association(combo, 2)
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
        quad = a @ inst.p_matrix @ a
        powers = np.full(k, 0.1)
        total = evaluate_allocation(
            cfg, users, servers, powers, res, assoc).latency_proc_s.sum()
        assert quad == pytest.approx(total, rel=1e-9)
        assert association_objective(inst, assoc) == pytest.approx(quad, rel=1e-9)


def test_allocation_compute_latency_is_the_association_objective(rng):
    # both read model._compute_latency; AC05's desk set, 50 random assignments
    scenarios = [small_scenario(seed, 20, 5, weight_omega=2.75) for seed in range(5000, 5006)]
    for trial in range(50):
        cfg, users, servers = scenarios[trial % len(scenarios)]
        res = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
        assoc = random_one_hot(rng, len(users), len(servers))
        alloc = evaluate_allocation(cfg, users, servers, [u.power_cap_w for u in users],
                                    res, assoc)
        inst = build_qcqp(cfg, users, servers, res)
        assert alloc.latency_proc_s.sum() == pytest.approx(association_objective(inst, assoc),
                                                           rel=1e-15)


def test_sdr_cost_matches_dense_homogenized_cost(rng):
    # The cost is built as server blocks from the FLOP vectors; scattered to
    # the dense layout it must be (p1 + p1') / 2 to the last bit.
    for _ in range(60):
        k = int(rng.integers(1, 31))
        n = int(rng.integers(1, 9))
        inst = QcqpInstance(
            num_users=k, num_servers=n,
            task_flops=rng.uniform(1e5, 1e9, k), server_flops=rng.uniform(1e12, 5e12, n))
        dense = 0.5 * (inst.p1 + inst.p1.T)
        assert dense_sdr_cost(inst).tobytes() == dense.tobytes()


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


def _embed(stack):
    """The block-diagonal matrix with the stack's blocks on its diagonal."""
    n, d, _ = stack.shape
    dense = np.zeros((n * d, n * d))
    for b in range(n):
        dense[b * d:(b + 1) * d, b * d:(b + 1) * d] = stack[b]
    return dense


def _unembed(dense, n):
    d = dense.shape[0] // n
    return np.stack([dense[b * d:(b + 1) * d, b * d:(b + 1) * d] for b in range(n)])


def _embedded_steps(k, n):
    """The polytope on the block-diagonal embedding of a K-user, N-server
    stack, in generic form: the row sums and the N corners as equalities
    with the binarity half-space, then the sign mask (all but the corners).
    Off-block entries are outside every equality's support and stay zero
    under the mask, so the steps keep a block-diagonal input block-diagonal."""
    d = k + 1
    size = n * d
    borders = [[b * d + j for b in range(n)] for j in range(k)]
    corners = [b * d + k for b in range(n)]
    eqs = []
    for user in borders:
        g = np.zeros((size, size))
        for i, h in zip(user, corners):
            g[i, h] = g[h, i] = 0.5
        eqs.append((g, 1.0))
    for h in corners:
        e = np.zeros((size, size))
        e[h, h] = 1.0
        eqs.append((e, 1.0))
    y = sum(g for g, _ in eqs[:k]) - np.diag(np.isin(np.arange(size), borders))
    mask = np.ones((size, size), dtype=bool)
    mask[corners, corners] = False
    return AffineStep(size, eqs, y), MaskStep(mask)


def _dykstra_projection(v, iters=1000):
    """Dykstra's alternating projections between the embedded polytope's
    affine step and its mask clamp; converges to the projection onto their
    intersection, read back as a stack."""
    n, d, _ = v.shape
    affine, mask = _embedded_steps(d - 1, n)
    x = _embed(v)
    p, q = np.zeros_like(x), np.zeros_like(x)
    for _ in range(iters):
        y = affine.project(x + p)
        p = x + p - y
        x = mask.project(y + q)
        q = y + q - x
    return _unembed(x, n)


def _polytope_cases(rng, count):
    """Random symmetric (N, K+1, K+1) stacks for K in 1..5, N in 1..4, with
    the half-space pushed active, tied border entries and an all-negative
    user border mixed in."""
    for trial in range(count):
        k = int(rng.integers(1, 6))
        n = 1 if trial % 5 == 0 else int(rng.integers(1, 5))
        a = rng.standard_normal((n, k + 1, k + 1)) * rng.uniform(0.1, 3.0)
        v = a + a.swapaxes(1, 2)
        users = np.arange(k)
        kind = trial % 4
        if kind == 0:
            v[:, users, users] -= 2.0
        elif kind == 1:
            v[:, :k, k] = v[:, k, :k] = rng.standard_normal(k)
        elif kind == 2:
            user = int(rng.integers(0, k))
            v[:, user, k] = v[:, k, user] = -np.abs(rng.standard_normal(n)) - 0.1
        yield k, n, v


def test_polytope_projection_matches_dykstra(rng):
    active = inactive = single_server = 0
    for k, n, v in _polytope_cases(rng, 60):
        users = np.arange(k)
        got = _project_assignment(v)
        want = _dykstra_projection(v)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(v).max())
        if np.maximum(v[:, users, users], 0.0).sum() < k:
            active += 1
            assert got[:, users, users].sum() == pytest.approx(k, rel=1e-12)
        else:
            inactive += 1
        single_server += n == 1
    assert active and inactive and single_server


def test_polytope_violations_match_affine_step(rng):
    signs_seen = 0
    for k, n, v in _polytope_cases(rng, 40):
        affine, mask = _embedded_steps(k, n)
        eq_v, _, ineq_v = affine.violations(_embed(v))
        _, sign_v, _ = mask.violations(_embed(v))
        got = polytope_violations(v)
        assert got == pytest.approx((eq_v, sign_v, ineq_v), rel=1e-12,
                                    abs=1e-12 * np.abs(v).max())
        assert got[1] == sign_v
        signs_seen += sign_v > 0
    assert signs_seen


def test_polytope_projection_is_idempotent(rng):
    for k, n, v in _polytope_cases(rng, 40):
        once = _project_assignment(v)
        assert np.abs(_project_assignment(once) - once).max() <= 1e-14 * max(1.0, np.abs(v).max())
        eq_v, sign_v, ineq_v = polytope_violations(once)
        assert eq_v <= 1e-14 and sign_v == 0.0 and ineq_v <= 1e-14 * k


def test_relaxation_matches_generic_sdp_problem(rng):
    # The block relaxation against the dense (KN+1)^2 one in generic form,
    # solved by the consensus reference: same bound, and the blocks' dense
    # completion is PSD and nonnegative.
    sizes = [(4, 3)] * 10 + [(6, 3)] * 7 + [(10, 4)] * 3
    for seed, (k, n) in enumerate(sizes, start=32):
        cfg, users, servers = small_scenario(seed, k, n)
        res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
        inst = build_qcqp(cfg, users, servers, res_px)
        fast = solve_association_sdr(inst, tol=1e-8)
        generic = consensus_sdp(*generic_relaxation(inst), tol=1e-8)
        assert fast.solution.status is generic.status is SdpStatus.CONVERGED
        assert fast.lower_bound == pytest.approx(generic.objective, rel=1e-6)
        b = fast.b_star
        assert np.linalg.eigvalsh(b)[0] >= -1e-7 * np.linalg.norm(b)
        assert b.min() >= -1e-7


def test_sdr_concentrates_on_fast_server():
    cfg = make_cfg(num_users=1)
    user = make_user()
    servers = [ServerProfile(5e12), ServerProfile(5e10)]
    inst = build_qcqp(cfg, [user], servers, [5e6])
    res = solve_association_sdr(inst, tol=1e-8)
    assert res.b_star[0, 0] > 0.99
    assert res.b_star[1, 1] < 0.01
    assoc, _ = exact_association(inst)
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
    _, best = exact_association(inst)
    assert res.lower_bound <= best + 1e-6


def test_rounding_degenerate_rank_one(rng):
    cfg, users, servers = small_scenario(28, 3, 2)
    res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res_px)
    assoc = random_one_hot(rng, len(users), 2)
    b = np.column_stack([assoc.assign.T, np.ones(2)])  # server n's block is b[n] b[n]'
    report = gaussian_randomize(inst, b[:, :, None] * b[:, None, :], 50, rng_seed=3)
    assert np.array_equal(report.best_assoc.assign, assoc.assign)
    assert report.best_objective == pytest.approx(
        association_objective(inst, assoc), rel=1e-12)


def test_rounding_deterministic_for_fixed_seed(rng):
    cfg, users, servers = small_scenario(29, 5, 3)
    res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res_px)
    sdr = solve_association_sdr(inst)
    a = gaussian_randomize(inst, sdr.solution.x, 200, rng_seed=77)
    b = gaussian_randomize(inst, sdr.solution.x, 200, rng_seed=77)
    assert a.best_objective == b.best_objective
    assert a.sdr_lower_bound == b.sdr_lower_bound
    assert a.gap == b.gap
    assert np.array_equal(a.best_assoc.assign, b.best_assoc.assign)


def test_rounding_beats_or_matches_diagonal_candidate(rng):
    cfg, users, servers = small_scenario(30, 6, 3)
    res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res_px)
    sdr = solve_association_sdr(inst)
    diag_only = gaussian_randomize(inst, sdr.solution.x, 0, rng_seed=0)
    full = gaussian_randomize(inst, sdr.solution.x, 500, rng_seed=0)
    assert full.best_objective <= diag_only.best_objective
    assert full.best_objective >= full.sdr_lower_bound - 1e-6


def test_rounding_close_to_brute_force(rng):
    hits = 0
    for trial in range(10):
        cfg, users, servers = small_scenario(31 + trial, 6, 3)
        res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
        inst = build_qcqp(cfg, users, servers, res_px)
        sdr = solve_association_sdr(inst)
        report = gaussian_randomize(inst, sdr.solution.x, 1000, rng_seed=trial)
        _, best = exact_association(inst)
        hits += report.best_objective <= 1.05 * best
    assert hits >= 9


def test_schur_parts_equal_the_checked_projection():
    # the complement of an exactly symmetric stack is exactly symmetric, so
    # skipping project_psd's check and symmetrization changes no bit
    for seed in range(5000, 5006):
        cfg, users, servers = small_scenario(seed, 20, 5, weight_omega=2.75)
        inst = build_qcqp(cfg, users, servers, np.full(len(users), cfg.s_min_px))
        x = solve_association_sdr(inst, tol=3e-4, max_iter=2000).solution.x
        border, schur = association._schur_parts(x)
        assert np.array_equal(border, x[:, :-1, -1])
        complement = x[:, :-1, :-1] - border[:, :, None] * border[:, None, :]
        assert np.array_equal(schur, project_psd(complement))


def test_lifted_draws_have_the_completion_as_second_moment():
    # [x; h] with entry (k, n) at k N + n: each product v_i v_j is that of a
    # Gaussian with covariance B, so its sample mean over S draws has
    # standard deviation sqrt((B_ii B_jj + B_ij^2) / S); allow five of them.
    cfg, users, servers = small_scenario(33, 6, 3)
    inst = build_qcqp(cfg, users, servers, np.full(len(users), cfg.s_min_px))
    sdr = solve_association_sdr(inst)
    samples = 200_000
    h, draws = association._lifted_draws(*association._schur_parts(sdr.solution.x), samples, 5)
    x = np.stack([x_n.copy() for x_n in draws])  # each step overwrites the last
    assert h.shape == (samples,) and h.min() >= 0.0 and x.shape == (3, samples, 6)
    lifted = np.column_stack([x.transpose(1, 2, 0).reshape(samples, -1), h])
    moment = lifted.T @ lifted / samples
    b = sdr.b_star
    sigma = np.sqrt((np.outer(np.diag(b), np.diag(b)) + b * b) / samples)
    assert np.all(np.abs(moment - b) <= 5.0 * sigma)


def test_streamed_rounding_equals_the_batched_draw(rng):
    # Relaxations capped early or run longer, plus stacks whose blocks are all
    # b b' with b uniform, where every server's draw ties exactly.
    for i in range(100):
        k, n = int(rng.integers(1, 31)), int(rng.integers(1, 8))
        if i < 2:
            k, n = (1, 1) if i == 0 else (30, 7)
        cfg, users, servers = small_scenario(200 + i, k, n)
        inst = build_qcqp(cfg, users, servers, rng.uniform(cfg.s_min_px, cfg.s_max_px, k))
        if i % 4 == 3:
            b = np.append(np.full(k, 1.0 / n), 1.0)
            x = np.broadcast_to(np.outer(b, b), (n, k + 1, k + 1))
        else:
            x = solve_association_sdr(inst, tol=3e-4, max_iter=(10, 300)[i % 2]).solution.x
        for samples in (0, 1, 7, 128, 129, 1000):
            for seed in (i, 1000 + i):
                got = gaussian_randomize(inst, x, samples, rng_seed=seed)
                ref = batched_gaussian_randomize(inst, x, samples, rng_seed=seed)
                assert np.array_equal(got.best_assoc.assign, ref.best_assoc.assign)
                assert got.best_objective == ref.best_objective
                assert got.gap == ref.gap and got.sdr_lower_bound == ref.sdr_lower_bound


def test_rounding_memory_does_not_grow_with_servers():
    # Holding every server's draws at once costs at least one (N, samples, K)
    # float64 array; the streamed pass keeps a few (samples, K) ones.
    k, n, samples = 10, 16, 2000
    cfg, users, servers = small_scenario(80, k, n)
    inst = build_qcqp(cfg, users, servers, np.full(k, cfg.s_min_px))
    x = solve_association_sdr(inst, max_iter=10).solution.x
    gaussian_randomize(inst, x, samples, rng_seed=1)
    tracemalloc.start()
    try:
        gaussian_randomize(inst, x, samples, rng_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * samples * k * 8


def test_rounding_scores_every_candidate_in_one_call(monkeypatch):
    calls = []
    batch_objectives = association._batch_objectives

    def counted(inst, indices):
        calls.append(np.atleast_2d(indices).shape)
        return batch_objectives(inst, indices)

    monkeypatch.setattr(association, "_batch_objectives", counted)
    cfg, users, servers = small_scenario(81, 10, 4)
    inst = build_qcqp(cfg, users, servers, np.full(10, cfg.s_min_px))
    x = solve_association_sdr(inst, max_iter=50).solution.x
    for samples in (0, 1000):
        calls.clear()
        gaussian_randomize(inst, x, samples, rng_seed=3)
        assert calls == [(samples + 1, 10)]


def test_streamed_rounding_equals_the_batched_draw_past_256_or_on_equal_servers():
    # Server indices past 255 do not fit the one-byte picks of smaller N; on
    # servers of one speed, candidates that differ only in which servers they
    # use tie exactly, and the first of them must win.
    for seed, k, n, equal in ((82, 3, 300, False), (85, 4, 3, True)):
        cfg, users, servers = small_scenario(seed, k, n)
        if equal:
            servers = [ServerProfile(compute_flops=2e12)] * n
        inst = build_qcqp(cfg, users, servers, np.full(k, cfg.s_min_px))
        x = solve_association_sdr(inst, max_iter=50).solution.x
        for rng_seed in (4, 5):
            got = gaussian_randomize(inst, x, 300, rng_seed=rng_seed)
            ref = batched_gaussian_randomize(inst, x, 300, rng_seed=rng_seed)
            assert np.array_equal(got.best_assoc.assign, ref.best_assoc.assign)
            assert got.best_objective == ref.best_objective and got.gap == ref.gap


def test_rounding_holds_only_its_draw_buffers():
    # The running maximum and the two draw buffers are three (samples, K)
    # float64 arrays; stacking and scoring every candidate at once took 7.5.
    samples = 1000
    for seed, k, n in ((83, 30, 6), (84, 20, 5)):
        cfg, users, servers = small_scenario(seed, k, n)
        inst = build_qcqp(cfg, users, servers, np.full(k, cfg.s_min_px))
        x = solve_association_sdr(inst, max_iter=10).solution.x
        gaussian_randomize(inst, x, samples, rng_seed=1)
        tracemalloc.start()
        try:
            gaussian_randomize(inst, x, samples, rng_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * samples * k * 8


def test_diagonal_candidate_is_the_completion_diagonal_argmax(rng):
    capped = 0
    for seed in range(60, 72):
        k, n = (6, 3) if seed % 2 else (4, 2)
        cfg, users, servers = small_scenario(seed, k, n)
        inst = build_qcqp(cfg, users, servers, rng.uniform(cfg.s_min_px, cfg.s_max_px, k))
        for max_iter in (10, 20000):
            sdr = solve_association_sdr(inst, max_iter=max_iter)
            capped += sdr.solution.status is SdpStatus.ITERATION_CAP
            diag = np.diag(sdr.b_star)[:k * n].reshape(k, n)
            report = gaussian_randomize(inst, sdr.solution.x, 0, rng_seed=0)
            assert np.array_equal(report.best_assoc.server_indices, np.argmax(diag, axis=1))
    assert capped == 12


def test_rounding_bound_is_the_relaxation_bound(rng):
    for seed in range(72, 78):
        cfg, users, servers = small_scenario(seed, 5, 3)
        inst = build_qcqp(cfg, users, servers, rng.uniform(cfg.s_min_px, cfg.s_max_px, 5))
        for max_iter in (10, 20000):
            sdr = solve_association_sdr(inst, max_iter=max_iter)
            report = gaussian_randomize(inst, sdr.solution.x, 20, rng_seed=seed)
            assert report.sdr_lower_bound == sdr.lower_bound


def test_solving_and_rounding_never_form_the_completion(monkeypatch):
    def no_completion(x):
        raise AssertionError("the dense completion is on the solve path")

    monkeypatch.setattr(association, "_completion", no_completion)
    cfg, users, servers = small_scenario(78, 5, 3)
    opts = SolveOptions(rng_seed=2, rand_samples_l=200)
    alloc, trace = solve_joint(cfg, users, servers, opts)
    assert trace.rounding.num_samples == 200
    run_baseline(BaselineKind.OPT_LATENCY, cfg, users, servers, opts)
    with pytest.raises(AssertionError, match="solve path"):
        solve_association_sdr(build_qcqp(cfg, users, servers, alloc.resolutions)).b_star


def test_rounding_rejects_a_malformed_stack():
    cfg, users, servers = small_scenario(79, 4, 2)
    inst = build_qcqp(cfg, users, servers, np.full(len(users), cfg.s_min_px))
    sdr = solve_association_sdr(inst)
    x = sdr.solution.x
    for bad in (sdr.b_star, x[:, 1:, 1:], x[:1], x.reshape(-1)):
        with pytest.raises(ValueError, match="shape|square"):
            gaussian_randomize(inst, bad, 10, rng_seed=0)
    skewed = x.copy()
    skewed[0, 0, -1] += 0.1
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_randomize(inst, skewed, 10, rng_seed=0)
    for bad in (np.nan, np.inf):
        spoiled = x.copy()
        spoiled[-1, 0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gaussian_randomize(inst, spoiled, 10, rng_seed=0)


def test_brute_force_balances_identical_users():
    cfg = make_cfg(num_users=2)
    users = [make_user(), make_user()]
    servers = [ServerProfile(1e12), ServerProfile(1e12)]
    assoc, _ = exact_association(build_qcqp(cfg, users, servers, [2e6, 2e6]))
    assert assoc.loads.tolist() == [1, 1]


def test_brute_force_single_user_picks_fastest():
    cfg = make_cfg(num_users=1)
    servers = [ServerProfile(1e12), ServerProfile(4e12), ServerProfile(2e12)]
    assoc, _ = exact_association(build_qcqp(cfg, [make_user()], servers, [2e6]))
    assert assoc.server_indices[0] == 1


def test_brute_force_dominates_random_assignments(rng):
    cfg, users, servers = small_scenario(40, 5, 3)
    res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, res_px)
    _, best = exact_association(inst)
    for _ in range(50):
        assoc = random_one_hot(rng, len(users), 3)
        assert best <= association_objective(inst, assoc) + 1e-12


def test_brute_force_guard():
    cfg, users, servers = small_scenario(41, 10, 20)
    users = users * 10  # 100 users on 20 servers -> 2^20 * 20 * 101^2, about 2e11 DP terms
    cfg = dataclasses.replace(cfg, num_users=len(users))
    with pytest.raises(InstanceTooLargeError):
        exact_association(build_qcqp(cfg, users, servers, np.full(len(users), cfg.s_min_px)))


def test_exact_association_matches_enumeration(rng):
    for seed in range(100, 160):
        cfg, users, servers = small_scenario(seed, int(rng.integers(1, 9)), int(rng.integers(1, 5)))
        res_px = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
        inst = build_qcqp(cfg, users, servers, res_px)
        assoc, obj = exact_association(inst)
        _, best = brute_force_association(cfg, users, servers, res_px)
        assert obj == pytest.approx(best, rel=1e-12)
        assert obj == association_objective(inst, assoc)


def test_descent_is_never_above_its_start(rng):
    # One server included, and starts that leave servers empty, so moves out
    # of an empty server and instances with no move at all both occur.
    for seed in range(170, 230):
        cfg, users, servers = small_scenario(seed, int(rng.integers(1, 13)),
                                             int(rng.integers(1, 6)))
        k, n = len(users), len(servers)
        inst = build_qcqp(cfg, users, servers, rng.uniform(cfg.s_min_px, cfg.s_max_px, k))
        _, best = exact_association(inst)
        for start in (random_one_hot(rng, k, n),
                      Association(np.zeros(k, dtype=int), n),
                      Association(np.full(k, n - 1), n)):
            got = association_objective(inst, descend_association(inst, start))
            assert best - 1e-12 * best <= got <= association_objective(inst, start)


def test_descent_from_round_robin_is_near_the_exact_optimum():
    # Measured 1.0000, 1.0013 and 1.0003 times the optimum.
    ratios = []
    for seed in (7000, 7001, 7002):
        cfg, users, servers = small_scenario(seed, 20, 5)
        inst = build_qcqp(cfg, users, servers, np.full(len(users), cfg.s_min_px))
        got = descend_association(inst, round_robin_association(len(users), len(servers)))
        ratios.append(association_objective(inst, got) / exact_association(inst)[1])
    assert np.mean(ratios) <= 1.005, ratios
