import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecopt.earnings import DEFAULT_PARAMS, EarnFamily, eval_earning, normalize_input
from mecopt.model import (_CONFIG_FLOATS, _USER_FLOATS, Association, ServerProfile,
                          SystemConfig, UserProfile, ZeroRateError, downlink_bits,
                          evaluate_allocation, snap_resolution, total_objective,
                          transmit_energy, uplink_rate)
from mecopt.optimizer import SolveOptions, solve_joint
from helpers import make_cfg, make_user, random_one_hot, small_scenario

# (B/K) * log2(1 + g p / (B sigma^2 / K)) at B=20 MHz, K=10, g=1e-10,
# p=0.1 W, sigma^2=10^-16.4 W/Hz, evaluated at 50 decimal digits
RATE_REFERENCE = 341373.91112761254699


def test_uplink_rate_at_snr_three():
    cfg = make_cfg(num_users=10, bandwidth_hz=20e6)
    user = make_user(channel_gain=1e-9)
    p = 3.0 * cfg.noise_power_w / user.channel_gain
    assert uplink_rate(cfg, user, p) == pytest.approx(4e6, rel=1e-12)


def test_uplink_rate_zero_power():
    assert uplink_rate(make_cfg(), make_user(), 0.0) == 0.0


def test_uplink_rate_negative_power_rejected():
    with pytest.raises(ValueError):
        uplink_rate(make_cfg(), make_user(), -0.1)


def test_uplink_rate_matches_high_precision_reference():
    cfg = make_cfg(num_users=10, bandwidth_hz=20e6)
    user = make_user(channel_gain=1e-10)
    assert uplink_rate(cfg, user, 0.1) == pytest.approx(RATE_REFERENCE, rel=1e-12)


def test_uplink_rate_increasing_and_concave():
    cfg = make_cfg(num_users=10)
    user = make_user(channel_gain=1e-10)
    ps = np.linspace(1e-3, 0.2, 100)
    rates = np.array([uplink_rate(cfg, user, float(p)) for p in ps])
    first = np.diff(rates)
    assert np.all(first > 0)
    assert np.all(np.diff(first) < 0)


def test_downlink_bits_cases():
    cfg = make_cfg()
    assert downlink_bits(cfg, make_user(compression_ratio=300.0), 1280 * 720) == 147456
    assert downlink_bits(cfg, make_user(compression_ratio=600.0), 7680 * 4320) == 2654208
    assert downlink_bits(cfg, make_user(), 0.0) == 0.0


def test_compute_latency_single_user_one_gigaflop():
    # lambda_u * D_u = 5e8 and lambda_d * D_d = 5e8 -> 1 GFLOP on 1 TFLOPS
    cfg = make_cfg(num_users=1, num_servers=1, lambda_up_flop_per_bit=5e3)
    user = make_user(uplink_bits=1e5, compression_ratio=480.0,
                     lambda_down_flop_per_bit=5e3)
    servers = [ServerProfile(1e12)]
    assoc = Association([0], 1)
    alloc = evaluate_allocation(cfg, [user], servers, [0.1], [1e6], assoc)
    assert alloc.latency_proc_s[0] == pytest.approx(1e-3, rel=1e-12)


def test_compute_latency_doubles_when_sharing():
    cfg = make_cfg(num_users=2, num_servers=2)
    users = [make_user(), make_user()]
    servers = [ServerProfile(2e12), ServerProfile(3e12)]
    alone = Association([0, 1], 2)
    shared = Association([0, 0], 2)
    powers, res = [0.1, 0.1], [2e6, 2e6]
    l_alone = evaluate_allocation(cfg, users, servers, powers, res, alone).latency_proc_s[0]
    l_shared = evaluate_allocation(cfg, users, servers, powers, res, shared).latency_proc_s[0]
    assert l_shared == pytest.approx(2 * l_alone, rel=1e-12)


def test_downlink_latency_linear_in_resolution():
    cfg = make_cfg(num_users=1, num_servers=1)
    user = make_user()
    servers = [ServerProfile(1e12)]
    assoc = Association([0], 1)
    s = 3e6
    l1 = evaluate_allocation(cfg, [user], servers, [0.1], [s], assoc).latency_down_s[0]
    l2 = evaluate_allocation(cfg, [user], servers, [0.1], [2 * s], assoc).latency_down_s[0]
    assert l2 == 2.0 * l1


def test_latency_matches_independent_formula_evaluation(rng):
    cfg = make_cfg(num_users=3, num_servers=2, lambda_up_flop_per_bit=7e3)
    users = [make_user(channel_gain=10 ** rng.uniform(-11, -9),
                       uplink_bits=rng.uniform(5e4, 2e5),
                       compression_ratio=rng.uniform(300, 600),
                       downlink_rate_bps=rng.uniform(10e6, 20e6),
                       lambda_down_flop_per_bit=rng.uniform(1e5, 9e5))
             for _ in range(3)]
    servers = [ServerProfile(rng.uniform(1e12, 5e12)) for _ in range(2)]
    assoc = Association([0, 1, 0], 2)
    powers = rng.uniform(0.01, 0.2, 3)
    res = rng.uniform(cfg.s_min_px, cfg.s_max_px, 3)
    counts = [2, 1]
    alloc = evaluate_allocation(cfg, users, servers, powers, res, assoc)
    for k in range(3):
        u = users[k]
        snr = u.channel_gain * powers[k] * cfg.num_users \
            / (cfg.bandwidth_hz * cfg.noise_density_w_per_hz)
        rate = (cfg.bandwidth_hz / cfg.num_users) * math.log2(1.0 + snr)
        d_down = 48.0 * res[k] / u.compression_ratio
        n = int(assoc.server_indices[k])
        want = (u.uplink_bits / rate,
                d_down / u.downlink_rate_bps,
                (7e3 * u.uplink_bits + u.lambda_down_flop_per_bit * d_down)
                * counts[n] / servers[n].compute_flops)
        got = (alloc.latency_up_s[k], alloc.latency_down_s[k], alloc.latency_proc_s[k])
        assert got == pytest.approx(want, rel=1e-12)


def test_latency_requires_positive_power():
    cfg = make_cfg(num_users=1, num_servers=1)
    assoc = Association([0], 1)
    with pytest.raises(ZeroRateError):
        evaluate_allocation(cfg, [make_user()], [ServerProfile(1e12)],
                            [0.0], [1e6], assoc)


def test_transmit_energy_one_second_case():
    cfg = make_cfg(num_users=10, bandwidth_hz=20e6)
    snr = 2 ** 0.5 - 1.0  # log2(1+snr) = 1/2 -> rate = 1 Mbit/s at B/K = 2 MHz
    user = make_user(uplink_bits=1e6, channel_gain=1.0)
    p = 0.1
    user = make_user(uplink_bits=1e6, channel_gain=snr * cfg.noise_power_w / p)
    assert transmit_energy(cfg, user, p) == pytest.approx(0.1, rel=1e-12)


def test_transmit_energy_strictly_increasing():
    cfg = make_cfg(num_users=10)
    user = make_user(channel_gain=1e-10)
    ps = np.linspace(1e-4, 0.2, 1000)
    energies = np.array([transmit_energy(cfg, user, float(p)) for p in ps])
    assert np.all(np.diff(energies) > 0)


def test_transmit_energy_zero_power_limit():
    cfg = make_cfg(num_users=10, bandwidth_hz=20e6)
    user = make_user(channel_gain=1e-10, uplink_bits=1e5)
    limit = user.uplink_bits * math.log(2.0) * cfg.noise_density_w_per_hz \
        / user.channel_gain
    assert transmit_energy(cfg, user, 1e-12) == pytest.approx(limit, rel=1e-9)
    with pytest.raises(ValueError):
        transmit_energy(cfg, user, 0.0)


def _tiny_instance(rng, eta_earn=1.0, omega=1.0):
    cfg = make_cfg(num_users=2, num_servers=2, eta_earn=eta_earn,
                   weight_omega=omega)
    users = [make_user(channel_gain=1e-9), make_user(channel_gain=2e-9)]
    servers = [ServerProfile(1e12), ServerProfile(2e12)]
    assoc = Association([0, 1], 2)
    powers = rng.uniform(0.05, 0.2, 2)
    res = rng.uniform(cfg.s_min_px, cfg.s_max_px, 2)
    return cfg, users, servers, powers, res, assoc


def test_utility_with_earnings_switched_off(rng):
    cfg, users, servers, powers, res, assoc = _tiny_instance(rng, eta_earn=1e-12)
    cfg = make_cfg(num_users=2, num_servers=2, eta_earn=1e-300)
    alloc = evaluate_allocation(cfg, users, servers, powers, res, assoc)
    lat = alloc.total_latency_s[0]
    assert alloc.per_user_utility[0] == pytest.approx(
        -cfg.eta_lat * cfg.weight_omega * lat, rel=1e-12)


def test_utility_with_latency_switched_off(rng):
    cfg, users, servers, powers, res, assoc = _tiny_instance(rng)
    cfg = make_cfg(num_users=2, num_servers=2, weight_omega=1e-300)
    got = evaluate_allocation(cfg, users, servers, powers, res, assoc).per_user_utility[0]
    earn = eval_earning(DEFAULT_PARAMS[users[0].earn_family], users[0].earn_scale,
                        normalize_input(cfg, res[0], users[0].downlink_rate_bps))
    assert got == pytest.approx(cfg.eta_earn * earn, rel=1e-12)


def test_utility_equals_earnings_minus_latency_terms(rng):
    cfg, users, servers, powers, res, assoc = _tiny_instance(rng, omega=2.5)
    alloc = evaluate_allocation(cfg, users, servers, powers, res, assoc)
    for k in range(2):
        lat = alloc.total_latency_s[k]
        earn = eval_earning(
            DEFAULT_PARAMS[users[k].earn_family], users[k].earn_scale,
            normalize_input(cfg, res[k], users[k].downlink_rate_bps))
        want = cfg.eta_earn * earn - cfg.eta_lat * cfg.weight_omega * lat
        assert alloc.per_user_utility[k] == pytest.approx(want, rel=1e-12)


def test_total_objective_single_user_and_additivity(rng):
    cfg = make_cfg(num_users=1, num_servers=1)
    user, server = make_user(), ServerProfile(1e12)
    assoc1 = Association([0], 1)
    f1 = total_objective(cfg, [user], [server], [0.1], [2e6], assoc1)
    assert f1 == pytest.approx(-evaluate_allocation(
        cfg, [user], [server], [0.1], [2e6], assoc1).per_user_utility[0], rel=1e-12)

    # duplicating the user onto its own identical server doubles the objective
    cfg2 = make_cfg(num_users=2, num_servers=2)
    assoc2 = Association([0, 1], 2)
    f2 = total_objective(cfg2, [user, user], [server, server],
                         [0.1, 0.1], [2e6, 2e6], assoc2)
    # per-user bandwidth share halves, so recompute the single-user value
    f1_shared = -evaluate_allocation(cfg2, [user, user], [server, server],
                                     [0.1, 0.1], [2e6, 2e6], assoc2).per_user_utility[0]
    assert f2 == pytest.approx(2 * f1_shared, rel=1e-12)


def test_total_objective_is_sum_of_utilities(rng):
    cfg, users, servers, powers, res, assoc = _tiny_instance(rng)
    total = total_objective(cfg, users, servers, powers, res, assoc)
    parts = evaluate_allocation(cfg, users, servers, powers, res, assoc).per_user_utility
    assert total == pytest.approx(-parts.sum(), rel=1e-12)


def test_server_indices_outside_the_servers_are_rejected():
    # numpy indexing would read -1 as the last server and cast 0.7 to 0
    for indices in ([0, -1], [0, 0.7], [0, 3], [[0, 1]]):
        with pytest.raises(ValueError, match="server indices"):
            Association(indices, 3)
    for n in (0, 2.5):
        with pytest.raises(ValueError, match="num_servers"):
            Association([0, 0], n)


def test_associations_compare_and_hash_by_value():
    a = Association([0, 1, 1], 2)
    same = Association(np.array([0, 1, 1], dtype=np.int32), 2)
    assert a == same and not a != same and hash(a) == hash(same)
    assert a != Association([0, 1, 1], 3)
    assert a != Association([1, 0, 1], 2)
    assert a != Association([0, 1], 2)
    assert a != [0, 1, 1]
    assert len({a, same, Association([1, 1, 0], 2)}) == 2


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 10 ** 6))
def test_one_hot_constructions_always_validate(k, n, seed):
    rng = np.random.default_rng(seed)
    assoc = random_one_hot(rng, k, n)
    a = assoc.assign
    assert a.shape == (k, n) and np.all((a == 0) | (a == 1)) and np.all(a.sum(axis=1) == 1)
    assert np.array_equal(np.argmax(a, axis=1), assoc.server_indices)
    assert np.array_equal(assoc.loads, a.sum(axis=0))
    assert assoc.server_indices.dtype == np.int64 and not assoc.server_indices.flags.writeable


def test_allocation_objective_consistent_with_utilities(rng):
    cfg, users, servers, powers, res, assoc = _tiny_instance(rng, omega=3.0)
    alloc = evaluate_allocation(cfg, users, servers, powers, res, assoc)
    assert alloc.objective == pytest.approx(-alloc.per_user_utility.sum(), rel=1e-9)
    assert alloc.total_latency_s.shape == (2,)
    assert np.all(alloc.total_latency_s > 0)


def test_allocation_rejects_out_of_bounds(rng):
    cfg, users, servers, powers, res, assoc = _tiny_instance(rng)
    with pytest.raises(ValueError):
        evaluate_allocation(cfg, users, servers, [0.5, 0.1], res, assoc)
    with pytest.raises(ValueError):
        evaluate_allocation(cfg, users, servers, powers,
                            [cfg.s_max_px * 2, res[1]], assoc)
    fast = [users[0], make_user(downlink_rate_bps=cfg.rate_norm_bps * 1.01)]
    with pytest.raises(ValueError):
        evaluate_allocation(cfg, fast, servers, powers, res, assoc)


def test_allocation_rejects_association_of_wrong_shape():
    cfg, users, servers = small_scenario(5, 4, 2)
    powers = np.full(4, 0.1)
    res = np.full(4, cfg.s_min_px)
    assoc = Association([0, 1, 0, 1], 2)
    evaluate_allocation(cfg, users, servers, powers, res, assoc)
    for indices, n in (([0, 1, 0, 1, 0], 2), ([0, 1], 2), ([0, 1, 0, 1], 3)):
        with pytest.raises(ValueError, match="association has shape"):
            evaluate_allocation(cfg, users, servers, powers, res,
                                Association(indices, n))
        with pytest.raises(ValueError, match="association has shape"):
            total_objective(cfg, users, servers, powers, res,
                            Association(indices, n))


def test_allocation_rejects_user_count_other_than_config():
    cfg, users, servers = small_scenario(5, 4, 2)
    users = users[:3]
    with pytest.raises(ValueError, match="3 users given for a config of 4"):
        evaluate_allocation(cfg, users, servers, np.full(3, 0.1),
                            np.full(3, cfg.s_min_px),
                            Association([0, 1, 0], 2))
    with pytest.raises(ValueError, match="3 users given for a config of 4"):
        solve_joint(cfg, users, servers, SolveOptions())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 10 ** 6))
def test_evaluator_matches_per_user_formula(k_total, n_total, seed):
    rng = np.random.default_rng(seed)
    cfg = make_cfg(num_users=k_total, num_servers=n_total,
                   weight_omega=float(rng.uniform(0.5, 5.0)),
                   eta_earn=float(rng.uniform(0.1, 3.0)),
                   eta_lat=float(rng.uniform(0.1, 3.0)))
    users = [make_user(channel_gain=10 ** rng.uniform(-12, -9),
                       uplink_bits=rng.uniform(5e4, 2e5),
                       compression_ratio=rng.uniform(300, 600),
                       downlink_rate_bps=rng.uniform(10e6, 20e6),
                       earn_scale=rng.uniform(0.5, 1.5),
                       earn_family=list(EarnFamily)[rng.integers(3)],
                       lambda_down_flop_per_bit=rng.uniform(1e3, 1e6))
             for _ in range(k_total)]
    servers = [ServerProfile(rng.uniform(1e12, 5e12)) for _ in range(n_total)]
    powers = rng.uniform(1e-4, 0.2, k_total)
    res = rng.uniform(cfg.s_min_px, cfg.s_max_px, k_total)
    assoc = random_one_hot(rng, k_total, n_total)
    alloc = evaluate_allocation(cfg, users, servers, powers, res, assoc)

    utilities = []
    for k, u in enumerate(users):
        share = cfg.bandwidth_hz / cfg.num_users
        rate = share * math.log1p(u.channel_gain * powers[k] / cfg.noise_power_w) \
            / math.log(2.0)
        d_down = 48.0 * res[k] / u.compression_ratio
        n = int(np.flatnonzero(assoc.assign[k])[0])
        load = int(assoc.assign[:, n].sum())
        task = cfg.lambda_up_flop_per_bit * u.uplink_bits \
            + u.lambda_down_flop_per_bit * d_down
        lat = (u.uplink_bits / rate, d_down / u.downlink_rate_bps,
               task * load / servers[n].compute_flops)
        earn = eval_earning(DEFAULT_PARAMS[u.earn_family], u.earn_scale,
                            normalize_input(cfg, res[k], u.downlink_rate_bps))
        utility = cfg.eta_earn * earn \
            - cfg.eta_lat * cfg.weight_omega * (lat[0] + lat[1] + lat[2])
        assert (alloc.latency_up_s[k], alloc.latency_down_s[k],
                alloc.latency_proc_s[k]) == lat
        assert alloc.per_user_earnings[k] == earn
        assert alloc.per_user_utility[k] == utility
        utilities.append(utility)
    if k_total < 8:
        assert alloc.objective == -sum(utilities)
    else:  # numpy sums eight or more terms in another order
        assert abs(alloc.objective + math.fsum(utilities)) \
            <= 1e-12 * math.fsum(abs(v) for v in utilities)
    assert total_objective(cfg, users, servers, powers, res, assoc) == alloc.objective


def test_snap_resolution_tiers():
    assert snap_resolution(921600) == ("720p", 921600)
    assert snap_resolution(1e6) == ("720p", 921600)
    assert snap_resolution(2e6) == ("1080p", 1920 * 1080)
    assert snap_resolution(3e7) == ("8k", 7680 * 4320)
    assert snap_resolution(6e6) == ("4k", 3840 * 2160)


def test_validated_floats_are_every_float_field():
    assert _CONFIG_FLOATS == tuple(f.name for f in dataclasses.fields(SystemConfig)
                                   if f.name not in ("num_users", "num_servers"))
    assert _USER_FLOATS == tuple(f.name for f in dataclasses.fields(UserProfile)
                                 if f.name != "earn_family")
    assert (len(_CONFIG_FLOATS), len(_USER_FLOATS)) == (10, 8)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", _CONFIG_FLOATS)
def test_every_config_float_must_be_finite_and_positive(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and strictly positive$"):
        SystemConfig(num_users=1, num_servers=1, **{name: bad})


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("name", _USER_FLOATS)
def test_every_user_float_must_be_positive(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be strictly positive$"):
        make_user(**{name: bad})


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(num_users=0, num_servers=1)
    with pytest.raises(ValueError):
        SystemConfig(num_users=1, num_servers=1, s_min_px=2e6, s_max_px=1e6)
    # the earnings input normalizes resolutions by res_norm_px, so a larger
    # s_max_px would fail every solve that reaches it
    with pytest.raises(ValueError, match=r"s_max_px 40000000\.0 .*res_norm_px 33177600"):
        SystemConfig(num_users=1, num_servers=1, s_max_px=4e7)
    SystemConfig(num_users=1, num_servers=1, s_max_px=4e7, res_norm_px=4e7)
    with pytest.raises(ValueError):
        make_user(channel_gain=-1.0)
