import math

import numpy as np
import pytest

from mecopt.association import build_qcqp, solve_association_sdr
from mecopt.sdp import (AsymmetricMatrixError, SdpStatus, _clamp_negative, project_psd,
                        solve_sdp)
from helpers import AffineStep, jacobi_eig, make_cfg, make_user, small_scenario


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
    sol = solve_sdp(np.diag([1.0, 2.0]), [AffineStep(2, [(np.eye(2), 1.0)])], tol=1e-8)
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
    want = inst.scale * inst.task_flops[0] / server.compute_flops
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
    x = sol.x
    assert np.linalg.eigvalsh(x)[0] >= -1e-7 * np.linalg.norm(x)
    for j, g in enumerate(inst.g_matrices):
        assert abs((g * x).sum() - 1.0) < 1e-6
    assert abs(x[-1, -1] - 1.0) < 1e-6
    mask = np.ones_like(x, dtype=bool)
    mask[-1, -1] = False
    assert x[mask].min() >= -1e-7
    assert (inst.y_matrix * x).sum() <= 1e-6


def test_iteration_cap_reports_residuals():
    sol = solve_sdp(np.diag([1.0, 2.0]), [AffineStep(2, [(np.eye(2), 1.0)])],
                    tol=1e-14, max_iter=10)
    assert sol.status is SdpStatus.ITERATION_CAP
    assert sol.iterations == 10
    assert math.isfinite(sol.primal_residual)
    assert math.isfinite(sol.dual_residual)


def test_residuals_shrink_between_checkpoints():
    cfg, users, servers = small_scenario(7, 4, 2)
    rng = np.random.default_rng(1)
    resolutions = rng.uniform(cfg.s_min_px, cfg.s_max_px, len(users))
    inst = build_qcqp(cfg, users, servers, resolutions)
    res = solve_association_sdr(inst, tol=1e-30, max_iter=10000)
    hist = dict((it, max(p, d)) for it, p, d in res.solution.residual_history)
    assert hist[10000] <= hist[1000]


def test_problem_validation():
    trace_one = [AffineStep(2, [(np.eye(2), 1.0)])]
    with pytest.raises(AsymmetricMatrixError):
        solve_sdp(np.array([[0.0, 1.0], [0.0, 0.0]]), trace_one)
    with pytest.raises(AsymmetricMatrixError):
        solve_sdp(np.ones((2, 3)), trace_one)
    for initial in (np.eye(3), np.ones((2, 3))):
        with pytest.raises(ValueError, match="initial iterate shape"):
            solve_sdp(np.eye(2), trace_one, initial=initial)
