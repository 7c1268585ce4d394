import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mecopt.harness import (_RANGE_FIELDS, CSV_HEADER, ResultRow, ScenarioSpec, SweepKind,
                            emit_results, generate_scenario, opt_earnings_total,
                            path_loss_gain, run_sweep)
from mecopt.optimizer import SolveOptions
from mecopt.power import feasibility_ratio
from helpers import README_CSV_HEADER, spearman

FAST_SWEEP = dict(rand_samples=200, sdp_tol=5e-4, sdp_max_iter=1500)


def test_path_loss_at_one_km():
    assert path_loss_gain(1.0) == pytest.approx(10 ** -12.81, rel=1e-12)


def test_scenario_is_deterministic():
    spec = ScenarioSpec(seed=5, num_users=8, num_servers=3)
    cfg1, users1, servers1 = generate_scenario(spec)
    cfg2, users2, servers2 = generate_scenario(spec)
    assert cfg1 == cfg2
    assert users1 == users2
    assert servers1 == servers2


def test_scenario_respects_ranges_and_feasibility():
    spec = ScenarioSpec(seed=8, num_users=10_000, num_servers=3)
    cfg, users, servers = generate_scenario(spec)
    gains = np.array([u.channel_gain for u in users])
    g_lo = path_loss_gain(spec.cell_radius_km)
    g_hi = path_loss_gain(spec.min_distance_km)
    assert np.all((gains >= g_lo) & (gains <= g_hi))
    for name, attr in [("uplink_bits", "uplink_bits"),
                       ("compression", "compression_ratio"),
                       ("downlink_rate_bps", "downlink_rate_bps"),
                       ("tau", "earn_scale"),
                       ("energy_budget_j", "energy_budget_j")]:
        lo, hi = getattr(spec, name)
        vals = np.array([getattr(u, attr) for u in users])
        assert np.all((vals >= lo) & (vals <= hi)), name
    # per-pixel complexity recovered from the stored per-bit value
    kappa = np.array([u.lambda_down_flop_per_bit * 48.0 / u.compression_ratio
                      for u in users])
    assert np.all((kappa >= spec.flop_per_px[0] - 1e-6)
                  & (kappa <= spec.flop_per_px[1] + 1e-6))
    assert all(feasibility_ratio(cfg, u) < 1.0 for u in users)


def test_server_compute_sampling_statistics():
    spec = ScenarioSpec(seed=9, num_users=1, num_servers=10_000)
    _, _, servers = generate_scenario(spec)
    f = np.array([s.compute_flops for s in servers])
    assert np.all((f >= 1e12) & (f <= 5e12))
    assert abs(f.mean() - 3e12) / 3e12 < 0.03


def test_scenario_overrides_and_validation():
    spec = ScenarioSpec(seed=1, num_users=3, num_servers=2,
                        config_overrides={"weight_omega": 3.5})
    cfg, _, _ = generate_scenario(spec)
    assert cfg.weight_omega == 3.5
    with pytest.raises(ValueError):
        generate_scenario(dataclasses.replace(
            spec, config_overrides={"not_a_field": 1.0}))
    with pytest.raises(ValueError):
        ScenarioSpec(min_distance_km=0.9, cell_radius_km=0.5)


@pytest.mark.parametrize("name, value", [
    ("seed", -1), ("seed", 1.5), ("num_users", 2.5), ("num_users", 0),
    ("num_servers", 2.0), ("num_servers", -1)])
def test_seed_and_counts_must_be_integers_in_range(name, value):
    low = 0 if name == "seed" else 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got {value}$"):
        ScenarioSpec(**{name: value})


def test_range_fields_are_every_sampling_range():
    assert _RANGE_FIELDS == tuple(f.name for f in dataclasses.fields(ScenarioSpec)
                                  if isinstance(f.default, tuple))
    assert len(_RANGE_FIELDS) == 7


@pytest.mark.parametrize("bad", [(2.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, math.nan)])
@pytest.mark.parametrize("name", _RANGE_FIELDS)
def test_every_range_must_be_ordered_and_positive(name, bad):
    with pytest.raises(ValueError, match=f"^range {name} must be ordered and positive$"):
        ScenarioSpec(**{name: bad})


def test_scenario_rejects_settings_above_the_earnings_normalizers():
    # Either would make every solve fail on an earnings input outside
    # [0, 1], so they are refused before run_sweep starts its first row.
    spec = ScenarioSpec(seed=1, num_users=3, num_servers=2)
    with pytest.raises(ValueError, match=r"s_max_px 40000000\.0 .*res_norm_px 33177600"):
        generate_scenario(dataclasses.replace(spec, config_overrides={"s_max_px": 4e7}))
    fast = dataclasses.replace(spec, downlink_rate_bps=(10e6, 30e6))
    with pytest.raises(ValueError, match=r"30000000\.0 .*rate_norm_bps 20000000\.0"):
        generate_scenario(fast)
    with pytest.raises(ValueError, match="rate_norm_bps"):
        run_sweep(SweepKind.OMEGA, fast, ["random"], [1.0], num_seeds=1)
    cfg, users, _ = generate_scenario(dataclasses.replace(
        fast, config_overrides={"rate_norm_bps": 30e6}))
    assert max(u.downlink_rate_bps for u in users) <= cfg.rate_norm_bps


def test_sweep_covers_every_combination_once():
    spec = ScenarioSpec(seed=3, num_users=4, num_servers=2)
    rows = run_sweep(SweepKind.OMEGA, spec, ["proposed", "random"],
                     [1.0, 2.0], num_seeds=2, **FAST_SWEEP)
    combos = {(r.method, r.omega, r.seed) for r in rows}
    assert len(rows) == len(combos) == 8
    assert all(r.status == "ok" for r in rows)
    assert all(r.mean_earnings_norm <= 1.0 + 1e-9 for r in rows)


def test_smin_sweep_forces_latency_up_for_optlat():
    spec = ScenarioSpec(seed=4, num_users=6, num_servers=2)
    grid = [921600.0, 8294400.0, 20736000.0]
    rows = run_sweep(SweepKind.SMIN, spec, ["optlat"], grid, num_seeds=3,
                     **FAST_SWEEP)
    means = [np.mean([r.mean_latency_s for r in rows if r.s_min_px == v])
             for v in grid]
    assert means[0] < means[1] < means[2]


def test_user_count_sweep_raises_latency():
    # contrast the endpoints; at tiny scale the resolution re-optimization
    # can locally mask the extra load between nearby user counts
    spec = ScenarioSpec(seed=6, num_users=4, num_servers=2)
    grid = [4.0, 16.0]
    rows = run_sweep(SweepKind.USERS, spec, ["proposed", "random"], grid,
                     num_seeds=6, **FAST_SWEEP)
    for method in ("proposed", "random"):
        means = [np.mean([r.mean_latency_s for r in rows
                          if r.num_users == int(v) and r.method == method])
                 for v in grid]
        assert means[0] < means[1], method


def test_omega_sweep_trends_down():
    spec = ScenarioSpec(seed=7, num_users=8, num_servers=3)
    grid = [0.5, 1.5, 3.0, 5.0]
    rows = run_sweep(SweepKind.OMEGA, spec, ["proposed"], grid, num_seeds=4,
                     **FAST_SWEEP)
    lat = [np.mean([r.mean_latency_s for r in rows if r.omega == v])
           for v in grid]
    assert spearman(grid, lat) <= -0.9


def test_emit_results_round_trip(tmp_path):
    nan = float("nan")
    rows = [
        ResultRow("random", 2, 1.0, 921600.0, 4, 0.123456789123, 0.5, 1.0,
                  0, 0.0, 12.5),
        ResultRow("proposed", 1, 1.0, 921600.0, 4, 1.0 / 3.0, 0.25, -2.0,
                  3, 1e-3, 80.0),
        ResultRow("random", 3, 2.5, 921600.0, 4, nan, nan, nan, 0, nan, 7.25,
                  "error:ValueError"),
    ]
    out = tmp_path / "rows.csv"
    emit_results(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER == README_CSV_HEADER
    assert README_CSV_HEADER in (Path(__file__).parents[1] / "README.md").read_text()
    assert lines[2:] == ["random,2,1,921600,4,0.123456789,0.5,1,0,0,0,ok",
                         "random,3,2.5,921600,4,nan,nan,nan,0,nan,0,error:ValueError"]
    assert lines[1].startswith("proposed,1,")  # sorted by method
    fields = lines[2].split(",")
    assert float(fields[5]) == pytest.approx(0.123456789123, rel=1e-9)
    assert fields[10] == "0"  # wall time placeholder by default
    emit_results(rows, out, include_timings=True)
    assert out.read_text().splitlines()[2].split(",")[10] == "12.5"


def test_emit_results_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_results([], tmp_path / "never.csv")


def test_sweep_csv_byte_determinism(tmp_path):
    spec = ScenarioSpec(seed=12, num_users=4, num_servers=2)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        rows = run_sweep(SweepKind.OMEGA, spec, ["proposed", "random"],
                         [1.0, 3.0], num_seeds=2, **FAST_SWEEP)
        emit_results(rows, out)
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("kind, grid, value", [
    (SweepKind.OMEGA, [1.0, -1.0], "-1.0"),
    (SweepKind.OMEGA, [float("nan")], "nan"),
    (SweepKind.OMEGA, [float("inf")], "inf"),
    (SweepKind.SMIN, [5e7], "50000000.0"),
    (SweepKind.USERS, [2, 0], "0"),
    (SweepKind.USERS, [2.5], "2.5"),
])
def test_bad_grid_values_are_rejected_before_any_solve(kind, grid, value, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a sweep point ran before the grid was checked")

    monkeypatch.setattr("mecopt.harness.generate_scenario", no_work)
    monkeypatch.setattr("mecopt.harness.run_baseline", no_work)
    with pytest.raises(ValueError, match=f"{kind.value} grid value {value}:"):
        run_sweep(kind, ScenarioSpec(seed=1, num_users=2, num_servers=2), ["random"],
                  grid, num_seeds=1)


@pytest.mark.parametrize("setting, value", [
    ("num_seeds", 0), ("rand_samples", -5), ("sdp_tol", math.nan), ("sdp_tol", 0.0),
    ("sdp_tol", math.inf), ("sdp_max_iter", 0), ("methods", []),
    ("methods", ["random", "random"])])
def test_bad_solver_settings_are_rejected_before_any_scenario(setting, value, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a scenario was drawn before the settings were checked")

    monkeypatch.setattr("mecopt.harness.generate_scenario", no_work)
    kwargs = {"methods": ["proposed", "random"], "grid": [1.0], setting: value}
    with pytest.raises(ValueError, match=f"^{setting} must be .*, got {re.escape(str(value))}$"):
        run_sweep(SweepKind.OMEGA, ScenarioSpec(seed=1, num_users=2, num_servers=2),
                  **kwargs)


def test_optearn_rows_are_the_earnings_anchor():
    spec = ScenarioSpec(seed=21000, num_users=10, num_servers=4)
    rows = run_sweep(SweepKind.OMEGA, spec, ["optearn"], [0.5, 1.0, 2.0, 3.0, 5.0],
                     num_seeds=10)
    assert len(rows) == 50
    assert all(r.mean_earnings_norm == 1.0 for r in rows)


def test_sweep_uses_the_solver_sdp_defaults():
    params = inspect.signature(run_sweep).parameters
    assert params["sdp_tol"].default == SolveOptions().sdp_tol
    assert params["sdp_max_iter"].default == SolveOptions().sdp_max_iter


def test_opt_earnings_total_positive():
    spec = ScenarioSpec(seed=2, num_users=5, num_servers=2)
    cfg, users, _ = generate_scenario(spec)
    assert opt_earnings_total(cfg, users) > 0
