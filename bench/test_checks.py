"""Each correctness check passes real output and rejects a corrupted copy.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mecopt import harness, optimizer  # noqa: E402
from mecopt.harness import ResultRow, ScenarioSpec  # noqa: E402
from mecopt.optimizer import BaselineKind  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import Capture, solve_options  # noqa: E402


@pytest.fixture(scope="module")
def joint():
    cfg, users, servers = harness.generate_scenario(
        ScenarioSpec(seed=5, num_users=6, num_servers=3))
    alloc, trace = optimizer.solve_joint(cfg, users, servers, solve_options(5))
    return cfg, users, servers, alloc, trace


@pytest.fixture(scope="module")
def optlat():
    cfg, users, servers = harness.generate_scenario(
        ScenarioSpec(seed=6, num_users=6, num_servers=3))
    capture = Capture([(optimizer, "solve_association_sdr")])
    with capture.installed():
        alloc = optimizer.run_baseline(BaselineKind.OPT_LATENCY, cfg, users, servers,
                                       solve_options(6))
    return cfg, users, servers, alloc, capture.results[0].b_star


def _interior_user(cfg, alloc) -> int:
    s = np.asarray(alloc.resolutions)
    inside = np.flatnonzero((s > cfg.s_min_px * 1.05) & (s < cfg.s_max_px * 0.95))
    assert inside.size, "the fixture needs a user with an interior resolution"
    return int(inside[0])


def test_real_outputs_pass(joint, optlat):
    cfg, users, servers, alloc, trace = joint
    total = checks.check_allocation(cfg, users, servers, alloc)
    assert total == pytest.approx(float(alloc.per_user_utility.sum()), rel=1e-12)
    checks.check_descent(trace.objective_values)
    checks.check_resolutions_optimal(cfg, users, servers, alloc)
    assert checks.start_point_utility(cfg, users, servers) <= total
    cfg, users, servers, alloc, b_star = optlat
    checks.check_allocation(cfg, users, servers, alloc)
    checks.check_relaxation(cfg, users, servers, alloc, b_star)


def test_two_hot_association_is_rejected(joint):
    cfg, users, servers, alloc, _ = joint
    assign = np.array(alloc.association.assign)
    assign[0, :2] = 1
    bad = dataclasses.replace(alloc, association=SimpleNamespace(assign=assign))
    with pytest.raises(CheckFailed, match="one-hot"):
        checks.check_allocation(cfg, users, servers, bad)


def test_power_off_the_energy_root_is_rejected(joint):
    cfg, users, servers, alloc, _ = joint
    powers = np.array(alloc.powers)
    powers[1] *= 1 - 1e-6
    with pytest.raises(CheckFailed, match="energy root"):
        checks.check_allocation(cfg, users, servers, dataclasses.replace(alloc, powers=powers))


def test_power_above_cap_is_rejected(joint):
    cfg, users, servers, alloc, _ = joint
    powers = np.array(alloc.powers)
    powers[0] = users[0].power_cap_w * 1.01
    with pytest.raises(CheckFailed, match="cap"):
        checks.check_allocation(cfg, users, servers, dataclasses.replace(alloc, powers=powers))


def test_resolution_out_of_range_is_rejected(joint):
    cfg, users, servers, alloc, _ = joint
    s = np.array(alloc.resolutions)
    s[2] = cfg.s_max_px * 1.01
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_allocation(cfg, users, servers, dataclasses.replace(alloc, resolutions=s))


@pytest.mark.parametrize("field", ["latency_up_s", "latency_down_s", "latency_proc_s",
                                   "per_user_earnings", "per_user_utility"])
def test_wrong_per_user_term_is_rejected(joint, field):
    cfg, users, servers, alloc, _ = joint
    values = np.array(getattr(alloc, field))
    values[3] *= 1 + 1e-6
    with pytest.raises(CheckFailed, match="disagrees"):
        checks.check_allocation(cfg, users, servers,
                                dataclasses.replace(alloc, **{field: values}))


def test_wrong_objective_is_rejected(joint):
    cfg, users, servers, alloc, _ = joint
    bad = dataclasses.replace(alloc, objective=alloc.objective * (1 + 1e-6))
    with pytest.raises(CheckFailed, match="objective"):
        checks.check_allocation(cfg, users, servers, bad)


def test_rising_objective_trace_is_rejected(joint):
    values = list(joint[4].objective_values)
    with pytest.raises(CheckFailed, match="increases"):
        checks.check_descent(values + [values[-1] + 1e-6 * abs(values[-1])])


def test_resolution_off_its_optimum_is_rejected(joint):
    cfg, users, servers, alloc, _ = joint
    k = _interior_user(cfg, alloc)
    s = np.array(alloc.resolutions)
    s[k] *= 1.05
    with pytest.raises(CheckFailed, match="rises"):
        checks.check_resolutions_optimal(cfg, users, servers,
                                         dataclasses.replace(alloc, resolutions=s))


def test_optlat_above_s_min_is_rejected(optlat):
    cfg, users, servers, alloc, b_star = optlat
    s = np.array(alloc.resolutions)
    s[0] *= 1.5
    with pytest.raises(CheckFailed, match="s_min"):
        checks.check_relaxation(cfg, users, servers,
                                dataclasses.replace(alloc, resolutions=s), b_star)


def test_rounding_worse_than_the_diagonal_is_rejected(optlat):
    cfg, users, servers, alloc, b_star = optlat
    k, n = len(users), len(servers)
    # Every user on the slowest server is worse than any spread-out candidate.
    slowest = int(np.argmin([s.compute_flops for s in servers]))
    piled = np.zeros((k, n), dtype=np.int64)
    piled[:, slowest] = 1
    bad = dataclasses.replace(alloc, association=SimpleNamespace(assign=piled))
    with pytest.raises(CheckFailed, match="diagonal"):
        checks.check_relaxation(cfg, users, servers, bad, b_star)


def _row(method="proposed", seed=0, omega=1.0, utility=10.0, earnings=0.9, status="ok"):
    return ResultRow(method=method, seed=seed, omega=omega, s_min_px=921600.0, num_users=2,
                     mean_latency_s=0.1, mean_earnings_norm=earnings, mean_utility=utility,
                     iters=1, sdr_gap=0.0, wall_ms=0.0, status=status)


def _sweep(**changes):
    rows = [_row("proposed", utility=10.0), _row("optearn", earnings=1.0)]
    rows[0] = dataclasses.replace(rows[0], **changes)
    return rows


def test_good_sweep_rows_pass():
    checks.check_sweep_rows(_sweep(), 1, [1.0], ["proposed", "optearn"], {(0, 1.0): 19.0})


@pytest.mark.parametrize("rows, match", [
    (_sweep(status="error:ValueError"), "not ok"),
    (_sweep()[:1], "rows"),
    ([_row("proposed"), _row("optearn", earnings=1.0 + 1e-9)], "anchor"),
    (_sweep(mean_utility=9.0), "start point"),
])
def test_bad_sweep_rows_are_rejected(rows, match):
    with pytest.raises(CheckFailed, match=match):
        checks.check_sweep_rows(rows, 1, [1.0], ["proposed", "optearn"], {(0, 1.0): 19.0})


def test_row_not_matching_its_allocation_is_rejected(joint):
    alloc = joint[3]
    total = float(alloc.per_user_utility.sum())
    row = dataclasses.replace(_row(), num_users=len(alloc.resolutions),
                              mean_utility=total / len(alloc.resolutions))
    checks.check_row_matches(row, total)
    with pytest.raises(CheckFailed, match="disagrees"):
        checks.check_row_matches(row, total * (1 + 1e-6))
