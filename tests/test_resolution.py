import dataclasses
import warnings

import numpy as np
import pytest

from mecopt.earnings import DEFAULT_PARAMS, EarnFamily, fit_params
from mecopt.model import Association, evaluate_allocation, total_objective
from mecopt.power import optimal_power
from mecopt.resolution import _closed_form, optimal_resolution
from helpers import joint_table, make_cfg, random_one_hot, resolution_objective, small_scenario

FAMILIES = list(EarnFamily)


def _mixed_scenario(seed, num_users, num_servers, **cfg_overrides):
    """small_scenario with the earning families assigned in turn, so every
    family is present from three users on."""
    cfg, users, servers = small_scenario(seed, num_users, num_servers, **cfg_overrides)
    users = [dataclasses.replace(u, earn_family=FAMILIES[k % 3]) for k, u in enumerate(users)]
    return cfg, users, servers


@pytest.mark.parametrize("seed", [52, 53, 54])
def test_no_single_user_move_lowers_the_objective(seed):
    # at omega = 1 these scenarios put users at both bounds and between them
    rng = np.random.default_rng(seed)
    cfg, users, servers = _mixed_scenario(seed, 5, 2)
    assoc = random_one_hot(rng, 5, 2)
    powers = rng.uniform(0.05, 0.2, 5)
    s_star = optimal_resolution(cfg, users, servers, assoc)
    f_star = total_objective(cfg, users, servers, powers, s_star, assoc)
    grid = np.linspace(cfg.s_min_px, cfg.s_max_px, 2001)
    for k in range(5):
        moved = s_star.copy()
        for s in grid:
            moved[k] = s
            assert total_objective(cfg, users, servers, powers, moved, assoc) \
                >= f_star - 1e-12 * abs(f_star), (k, s)
    interior = (s_star > cfg.s_min_px) & (s_star < cfg.s_max_px)
    assert interior.any(), "the check needs a user between the bounds"


@pytest.mark.parametrize("weights, bound", [(dict(eta_earn=1e-300), "s_min_px"),
                                            (dict(eta_lat=1e-300), "s_max_px")])
def test_vanishing_weights_drive_every_user_to_a_bound(weights, bound):
    cfg, users, servers = _mixed_scenario(55, 6, 2, **weights)
    assoc = Association([0, 1, 0, 1, 0, 0], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = optimal_resolution(cfg, users, servers, assoc)
    assert np.all(s == getattr(cfg, bound))


def test_per_user_solves_commute():
    # A user's resolution follows from its own data and its server's load, so
    # reordering the users reorders the resolutions and nothing else.
    cfg, users, servers = _mixed_scenario(51, 6, 2)
    assoc = Association([0, 1, 0, 1, 1, 0], 2)
    s = optimal_resolution(cfg, users, servers, assoc)
    perm = np.random.default_rng(51).permutation(6)
    moved = optimal_resolution(cfg, [users[k] for k in perm], servers,
                               Association(assoc.server_indices[perm], 2))
    assert moved == pytest.approx(s[perm], rel=1e-14)
    assert not np.array_equal(s, s[perm])


def test_mismatched_association_is_rejected():
    cfg, users, servers = small_scenario(56, 4, 2)
    for assoc in (Association([0, 1, 0], 2),
                  Association([0, 1, 0, 2], 3)):
        with pytest.raises(ValueError, match="association has shape"):
            optimal_resolution(cfg, users, servers, assoc)


# the AC05 desk set and three 40x8 scenarios, as (seed, users, servers, omega)
TABLE_CASES = [(seed, 20, 5, 2.75) for seed in range(5000, 5006)] \
    + [(seed, 40, 8, 1.0) for seed in range(7000, 7003)]


@pytest.mark.parametrize("seed, num_users, num_servers, omega", TABLE_CASES)
def test_joint_table_prices_every_association(seed, num_users, num_servers, omega):
    # picking each user's entry at its server and load, and adding back the
    # uplink transmission latency the table leaves out, gives total_objective
    # at the resolutions optimal_resolution returns
    cfg, users, servers = small_scenario(seed, num_users, num_servers, weight_omega=omega)
    res, table = joint_table(cfg, users, servers)
    powers = np.array([optimal_power(cfg, u).p_star for u in users])
    rng = np.random.default_rng(seed)
    for _ in range(50):
        assoc = random_one_hot(rng, num_users, num_servers)
        idx = assoc.server_indices
        picked = (np.arange(num_users), idx, assoc.loads[idx] - 1)
        s = optimal_resolution(cfg, users, servers, assoc)
        assert np.array_equal(s, res[picked])
        alloc = evaluate_allocation(cfg, users, servers, powers, s, assoc)
        value = table[picked].sum() \
            + cfg.eta_lat * cfg.weight_omega * alloc.latency_up_s.sum()
        assert value == pytest.approx(alloc.objective, rel=1e-12)


@pytest.mark.parametrize("seed, num_users, num_servers, omega", TABLE_CASES)
def test_joint_table_rows_are_nondecreasing_and_concave_in_price(seed, num_users,
                                                                 num_servers, omega):
    # a user's term is a minimum over resolutions of functions affine in its
    # server's price load / FLOPs with nonnegative slopes, so on the sorted
    # price grid each row never falls and its slopes never rise beyond roundoff
    cfg, users, servers = small_scenario(seed, num_users, num_servers, weight_omega=omega)
    _, table = joint_table(cfg, users, servers)
    flops = np.array([srv.compute_flops for srv in servers])
    price = (np.arange(1, num_users + 1)[None, :] / flops[:, None]).ravel()
    order = np.argsort(price)
    step = np.diff(price[order])
    assert np.all(step > 0), "the slopes need distinct prices"
    rise = np.diff(table.reshape(num_users, -1)[:, order], axis=1)
    assert np.all(rise >= 0)
    slopes = rise / step
    assert np.all(slopes[:, 1:] <= slopes[:, :-1] * (1 + 1e-6))


def _coefficients(count, slope=2e-7, earn_scale=1.0, x_offset=0.375):
    """Arrays of count copies of one user's coefficients."""
    return [np.full(count, float(v)) for v in (slope, earn_scale, x_offset)]


def test_vanishing_latency_cost_drives_to_max():
    cfg = make_cfg()
    s = _closed_form(cfg, FAMILIES, *_coefficients(3, slope=1e-300))
    assert np.all(s == cfg.s_max_px)


def test_zero_earn_scale_drives_to_min():
    cfg = make_cfg()
    s = _closed_form(cfg, FAMILIES, *_coefficients(3, earn_scale=0.0))
    assert np.all(s == cfg.s_min_px)


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_beats_grid(family, rng):
    cfg = make_cfg()
    families = [family] * 30
    slope = 10 ** rng.uniform(-9, -5.5, 30)
    earn_scale = rng.uniform(0.3, 3.0, 30)
    x_offset = rng.uniform(0.25, 0.5, 30)
    s_star = _closed_form(cfg, families, slope, earn_scale, x_offset)
    grid = np.linspace(cfg.s_min_px, cfg.s_max_px, 10_000)
    vals = resolution_objective(cfg, families, slope[:, None], earn_scale[:, None],
                                x_offset[:, None], grid)
    rows = np.arange(30)
    best = np.argmax(vals, axis=1)
    step_var = np.abs(vals[rows, np.minimum(best + 1, len(grid) - 1)] - vals[rows, best]) \
        + np.abs(vals[rows, best] - vals[rows, np.maximum(best - 1, 0)])
    at_star = resolution_objective(cfg, families, slope, earn_scale, x_offset, s_star)
    assert np.all(at_star >= vals[rows, best] - step_var - 1e-9)


def test_closed_form_is_exact_for_a_power_curve_fitted_to_linear_scores(monkeypatch):
    # the least-squares power curve through score = 3x sits at beta -> 1, where
    # a beta of exactly 1 would turn 1 / (beta - 1) into inf and the clamp
    # would pick s_min where the grid finds s_max
    xs = np.linspace(0.0, 1.0, 50)
    fit = fit_params([(float(x), 3.0 * float(x)) for x in xs], EarnFamily.POW)
    monkeypatch.setitem(DEFAULT_PARAMS, EarnFamily.POW, fit.params)
    rng = np.random.default_rng(106)
    cfg = make_cfg()
    families = [EarnFamily.POW] * 200
    slope, earn_scale, x_offset = np.array(
        [(10 ** rng.uniform(-9.5, -5.0), rng.uniform(0.2, 4.0), rng.uniform(0.25, 0.5))
         for _ in range(200)]).T
    s_star = _closed_form(cfg, families, slope, earn_scale, x_offset)
    grid = np.linspace(cfg.s_min_px, cfg.s_max_px, 2001)
    vals = resolution_objective(cfg, families, slope[:, None], earn_scale[:, None],
                                x_offset[:, None], grid)
    rows = np.arange(200)
    best = np.argmax(vals, axis=1)
    top = vals[rows, best]
    step_var = (top - vals[rows, np.maximum(best - 1, 0)]) \
        + (top - vals[rows, np.minimum(best + 1, len(grid) - 1)])
    at_star = resolution_objective(cfg, families, slope, earn_scale, x_offset, s_star)
    assert np.all(at_star >= top - step_var - 1e-9)
    assert {cfg.s_min_px, cfg.s_max_px} <= set(s_star)


def test_objective_concave_at_sampled_points(rng):
    cfg = make_cfg()
    h = 1e5  # wide stencil: curvature per pixel sits below float resolution
    coeffs = [c[:, None] for c in _coefficients(3)]
    s = rng.uniform(cfg.s_min_px + h, cfg.s_max_px - h, (1, 100))
    second = (resolution_objective(cfg, FAMILIES, *coeffs, s + h)
              - 2 * resolution_objective(cfg, FAMILIES, *coeffs, s)
              + resolution_objective(cfg, FAMILIES, *coeffs, s - h)) / h ** 2
    assert np.all(second < 0)


def test_comparative_statics():
    cfg = make_cfg()
    families = [EarnFamily.EXP] * 12
    slope, earn_scale, x_offset = _coefficients(12)
    sols = _closed_form(cfg, families, np.geomspace(1e-8, 1e-5, 12), earn_scale, x_offset)
    assert np.all(np.diff(sols) <= 1e-9)
    sols = _closed_form(cfg, families, slope, np.geomspace(0.1, 10.0, 12), x_offset)
    assert np.all(np.diff(sols) >= -1e-9)
