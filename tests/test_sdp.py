import math

import numpy as np
import pytest

from mecopt.association import (_block_cost, _project_assignment, build_qcqp,
                                solve_association_sdr)
from mecopt.sdp import (AsymmetricMatrixError, SdpStatus, _clamp_negative, project_psd,
                        solve_sdp)
from helpers import (POLYTOPE, AffineStep, consensus_sdp, jacobi_eig, make_cfg, make_user,
                     polytope_violations, small_scenario)


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def test_eig_identity():
    w, v = jacobi_eig(np.eye(4))
    assert np.allclose(w, 1.0)
    assert np.allclose(v @ v.T, np.eye(4), atol=1e-12)


def test_eig_recovers_rotated_spectrum():
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    a = rot @ np.diag([3.0, 1.0]) @ rot.T
    w, _ = jacobi_eig(a)
    assert w == pytest.approx([1.0, 3.0], rel=1e-12)


def test_eig_reconstruction_residual(rng):
    a = _random_symmetric(rng, 30)
    w, v = jacobi_eig(a)
    assert np.linalg.norm((v * w) @ v.T - a) < 1e-8 * np.linalg.norm(a)


def test_eig_rejects_asymmetric(rng):
    a = rng.standard_normal((5, 5))
    with pytest.raises(AsymmetricMatrixError):
        project_psd(a)
    with pytest.raises(AsymmetricMatrixError):
        project_psd(rng.standard_normal((3, 4)))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            project_psd(np.array([[1.0, bad], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            project_psd(np.full((2, 2, 2), bad))
    with pytest.raises(ValueError):
        jacobi_eig(a)


def test_jacobi_agrees_with_lapack(rng):
    for n in (2, 7, 30):
        a = _random_symmetric(rng, n)
        w_j, v_j = jacobi_eig(a)
        w_l = np.linalg.eigvalsh(a)
        assert w_j == pytest.approx(w_l, rel=1e-10, abs=1e-10)
        assert np.linalg.norm((v_j * w_j) @ v_j.T - a) < 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(v_j @ v_j.T - np.eye(n)) < 1e-10


def _with_spectrum(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    a = (q * eigenvalues) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("negatives", [0, 1, 3, 11])
def test_cone_step_matches_full_eigen_clamp(rng, negatives):
    n = 12
    spectrum = np.concatenate([-rng.uniform(0.1, 2.0, negatives),
                               rng.uniform(0.1, 2.0, n - negatives)])
    a = _with_spectrum(rng, spectrum)
    w, v = np.linalg.eigh(a)
    want = (v * np.maximum(w, 0.0)) @ v.T
    got = _clamp_negative(a)
    assert np.abs(got - want).max() <= 1e-12
    assert np.array_equal(got, got.T)


def test_cone_step_on_a_stack_matches_each_block(rng):
    # Blocks with 0, 1, 3 and 11 negative eigenvalues in one batch: each is
    # projected as if alone, with the shorter blocks padded by zero terms.
    n = 12
    blocks = [_with_spectrum(rng, np.concatenate([-rng.uniform(0.1, 2.0, neg),
                                                  rng.uniform(0.1, 2.0, n - neg)]))
              for neg in (0, 1, 3, 11)]
    got = _clamp_negative(np.stack(blocks))
    for block, got_block in zip(blocks, got):
        assert np.abs(got_block - _clamp_negative(block)).max() <= 1e-12
    assert np.array_equal(got, got.swapaxes(1, 2))
    assert np.linalg.eigvalsh(got).min() >= -1e-12


def _partial_support_problem(rng, n, m, with_ineq):
    """Random symmetric constraints that all vanish outside one random pattern."""
    pattern = rng.random((n, n)) < 0.3
    pattern = pattern | pattern.T
    pattern[0, 0] = True
    eqs = [(np.where(pattern, _random_symmetric(rng, n), 0.0), float(rng.normal()))
           for _ in range(m)]
    ineq = np.where(pattern, _random_symmetric(rng, n), 0.0) if with_ineq else None
    return eqs, ineq, pattern


def _dense_projection(v, mats, rhs):
    a = np.stack([mat.ravel() for mat in mats])
    step = a.T @ (np.linalg.pinv(a @ a.T) @ (a @ v.ravel() - np.asarray(rhs)))
    return v - step.reshape(v.shape)


def test_affine_step_matches_dense_projection(rng):
    n, m = 9, 4
    active_seen = inactive_seen = 0
    for trial in range(40):
        eqs, y, pattern = _partial_support_problem(rng, n, m, with_ineq=trial % 4 != 0)
        mats = [mat for mat, _ in eqs]
        rhs = [b for _, b in eqs]
        v = _random_symmetric(rng, n)
        got = AffineStep(n, eqs, y).project(v)
        want = _dense_projection(v, mats, rhs)
        if y is not None and (y * want).sum() > 0.0:
            active_seen += 1
            want = _dense_projection(v, mats + [y], rhs + [0.0])
            assert (y * got).sum() == pytest.approx(0.0, abs=1e-10)
        else:
            inactive_seen += 1
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(v).max())
        assert np.array_equal(got[~pattern], v[~pattern])
    assert active_seen and inactive_seen


def test_affine_step_half_space_only(rng):
    n = 6
    y = np.zeros((n, n))
    y[1, 2] = y[2, 1] = 1.0
    y[0, 0] = -1.0
    step = AffineStep(n, [], y)
    v = _random_symmetric(rng, n)
    v[1, 2] = v[2, 1] = 5.0
    v[0, 0] = 1.0
    got = step.project(v)
    want = v - ((y * v).sum() / (y * y).sum()) * y
    assert np.abs(got - want).max() <= 1e-14
    v[1, 2] = v[2, 1] = -5.0
    assert np.array_equal(step.project(v), v)


def test_project_psd_fixed_point(rng):
    a = _random_symmetric(rng, 6)
    psd = a @ a.T + 1e-3 * np.eye(6)
    psd = 0.5 * (psd + psd.T)
    assert np.linalg.norm(project_psd(psd) - psd) < 1e-10


def test_project_psd_clamps_negative_directions():
    got = project_psd(np.diag([1.0, -2.0]))
    assert got == pytest.approx(np.diag([1.0, 0.0]), abs=1e-14)


def test_project_psd_is_closest_among_sampled_psd_points(rng):
    a = _random_symmetric(rng, 5)
    proj = project_psd(a)
    w = np.linalg.eigvalsh(proj)
    assert w[0] >= -1e-12
    base_dist = np.linalg.norm(proj - a)
    for _ in range(1000):
        q = rng.standard_normal((5, 5))
        candidate = project_psd(proj + 0.1 * (q + q.T))
        assert np.linalg.norm(candidate - a) >= base_dist - 1e-9


def test_solve_sdp_eigenvalue_problem():
    sol = solve_sdp(np.diag([1.0, 2.0]), AffineStep(2, [(np.eye(2), 1.0)]).project, tol=1e-8)
    assert sol.status is SdpStatus.CONVERGED
    assert sol.objective == pytest.approx(1.0, abs=1e-6)
    assert sol.x == pytest.approx(np.diag([1.0, 0.0]), abs=1e-6)


def test_solve_sdp_forced_single_assignment():
    cfg = make_cfg(num_users=1, num_servers=1)
    user, = [make_user()]
    from mecopt.model import ServerProfile
    server = ServerProfile(1e12)
    inst = build_qcqp(cfg, [user], [server], [2e6])
    res = solve_association_sdr(inst, tol=1e-8)
    want = inst.task_flops[0] / server.compute_flops
    assert res.lower_bound == pytest.approx(want, rel=1e-5)
    assert res.b_star == pytest.approx(np.ones((2, 2)), abs=1e-5)


def test_solution_invariants_at_convergence():
    cfg, users, servers = small_scenario(5, 4, 2)
    rng = np.random.default_rng(0)
    resolutions = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, resolutions)
    res = solve_association_sdr(inst, tol=1e-6)
    sol = res.solution
    assert sol.status is SdpStatus.CONVERGED
    x = sol.x  # server blocks, h last in each
    k = len(users)
    assert np.linalg.eigvalsh(x).min(axis=1).min() >= -1e-7 * np.linalg.norm(x)
    border = x[:, :k, k]
    assert np.abs(border.sum(axis=0) - 1.0).max() < 1e-6
    assert np.abs(x[:, k, k] - 1.0).max() < 1e-6
    mask = np.ones_like(x, dtype=bool)
    mask[:, k, k] = False
    assert x[mask].min() >= -1e-7
    assert border.sum() - np.trace(x[:, :k, :k], axis1=1, axis2=2).sum() <= 1e-6
    for g in inst.g_matrices:
        assert abs((g * res.b_star).sum() - 1.0) < 1e-6
    assert (inst.y_matrix * res.b_star).sum() <= 1e-6


def test_iteration_cap_reports_residuals():
    sol = solve_sdp(np.diag([1.0, 2.0]), AffineStep(2, [(np.eye(2), 1.0)]).project,
                    tol=1e-14, max_iter=10)
    assert sol.status is SdpStatus.ITERATION_CAP
    assert sol.iterations == 10
    assert math.isfinite(sol.primal_residual)
    assert math.isfinite(sol.dual_residual)


def test_negative_eigenvalue_holds_back_a_screened_stop():
    # The set is the one point diag(1, -eps), at distance eps from the cone.
    # From the second iteration both residuals sit at eps, below tol, but the
    # smallest eigenvalue -eps misses the -0.1 * tol bound, so the solve runs
    # to its cap.
    eps = 1e-5
    point = np.diag([1.0, -eps])
    sol = solve_sdp(np.eye(2), lambda v: point.copy(), tol=5 * eps, max_iter=50)
    assert sol.status is SdpStatus.ITERATION_CAP
    assert sol.dual_residual == 0.0
    assert sol.primal_residual == pytest.approx(eps, rel=1e-9)


def test_residuals_shrink_between_checkpoints():
    cfg, users, servers = small_scenario(7, 4, 2)
    rng = np.random.default_rng(1)
    resolutions = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, resolutions)
    res = solve_association_sdr(inst, tol=1e-30, max_iter=10000)
    hist = dict((it, max(p, d)) for it, p, d in res.solution.residual_history)
    # falls across the early checkpoints, then stays at the roundoff floor
    assert hist[25] > hist[100] > hist[250]
    assert max(r for it, r in hist.items() if it >= 1000) <= 1e-14


def test_problem_validation():
    trace_one = AffineStep(2, [(np.eye(2), 1.0)]).project
    with pytest.raises(AsymmetricMatrixError):
        solve_sdp(np.array([[0.0, 1.0], [0.0, 0.0]]), trace_one)
    with pytest.raises(AsymmetricMatrixError):
        solve_sdp(np.ones((2, 3)), trace_one)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="cost has a non-finite entry"):
            solve_sdp(np.array([[1.0, 0.0], [0.0, bad]]), trace_one)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve_sdp(np.eye(2), trace_one, tol=bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            solve_sdp(np.eye(2), trace_one, max_iter=bad)


def _cold_relaxation(seed, k, n, rng=None):
    """Cost of a k x n scenario's relaxation: the optlat one at s_min, or at
    resolutions drawn from rng."""
    cfg, users, servers = small_scenario(seed, k, n)
    res_px = (np.full(k, cfg.s_min_px) if rng is None
              else rng.uniform(cfg.s_min_px, cfg.s_max_px, k))
    inst = build_qcqp(cfg, users, servers, res_px)
    return _block_cost(inst)


def test_splitting_matches_consensus_on_block_relaxation():
    for seed, (k, n) in ((5006, (20, 5)), (3000, (30, 6))):
        cost = _cold_relaxation(seed, k, n, np.random.default_rng(seed))
        got = solve_sdp(cost, _project_assignment, tol=1e-7)
        want = consensus_sdp(cost, [POLYTOPE], tol=1e-7)
        assert got.status is want.status is SdpStatus.CONVERGED
        assert got.objective == pytest.approx(want.objective, rel=1e-5)


def test_splitting_takes_fewer_iterations_than_consensus():
    # Deterministic: both start at the same cold rho. Measured 499 against
    # 2150 over these four instances.
    got = want = 0
    for seed in range(3000, 3004):
        cost = _cold_relaxation(seed, 30, 6)
        got += solve_sdp(cost, _project_assignment, tol=3e-4, max_iter=2000).iterations
        want += consensus_sdp(cost, [POLYTOPE], tol=3e-4, max_iter=2000).iterations
    assert got < want


def test_cold_relaxations_converge_within_200_iterations():
    # Started at the rho the rule settles on, with the stopping test screened
    # every iteration. Starting at rho = 1 and testing every 25 iterations,
    # each took 350.
    for seed, (k, n) in ((5000, (20, 5)), (3000, (30, 6))):
        cost = _cold_relaxation(seed, k, n)
        sol = solve_sdp(cost, _project_assignment, tol=3e-4, max_iter=2000)
        assert sol.status is SdpStatus.CONVERGED
        assert sol.iterations < 200, (seed, sol.iterations)


def test_last_history_entry_is_the_stopping_check(monkeypatch):
    # The history holds every 25th iteration's residuals plus the check that
    # stopped the solve, converged at any iteration or capped. The smallest
    # eigenvalue is computed only where the two residuals both pass or at the
    # cap: once in each of these solves.
    eigvalsh_calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted_eigvalsh(a):
        eigvalsh_calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    cost = _cold_relaxation(7000, 10, 4)
    for tol, max_iter, status in ((3e-4, 2000, SdpStatus.CONVERGED),
                                  (1e-14, 60, SdpStatus.ITERATION_CAP)):
        eigvalsh_calls.clear()
        sol = solve_sdp(cost, _project_assignment, tol=tol, max_iter=max_iter)
        assert sol.status is status
        assert len(eigvalsh_calls) == 1
        assert sol.iterations % 25  # measured: converged at 95, capped at 60
        *earlier, (last_it, last_prim, last_dual) = sol.residual_history
        assert last_it == sol.iterations
        assert last_dual == sol.dual_residual
        assert last_prim <= sol.primal_residual
        assert [it for it, _, _ in earlier] == list(range(25, sol.iterations, 25))


def test_returned_iterate_lies_in_the_polytope():
    for seed, (k, n), tol in ((82, (20, 5), 3e-4), (83, (6, 3), 1e-8)):
        cost = _cold_relaxation(seed, k, n)
        for max_iter in (10, 2000):
            x = solve_sdp(cost, _project_assignment, tol=tol, max_iter=max_iter).x
            assert max(polytope_violations(x)) <= 1e-12
