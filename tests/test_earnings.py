import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecopt.earnings import (DEFAULT_PARAMS, CheckResult, DegenerateFitError,
                             EarnFamily, EarnParams, FitStatus, _d2h, _dh,
                             check_assumption1, eval_earning, fit_params,
                             normalize_input)
from helpers import make_cfg

# 89.95 * (1 - exp(-4.732)), evaluated at 50 decimal digits
EXP_AT_ONE = 89.157645225292546773


def test_log_family_zero_input_earns_nothing():
    assert eval_earning(DEFAULT_PARAMS[EarnFamily.LOG], 2.0, 0.0) == 0.0


def test_pow_family_at_full_input_returns_alpha():
    assert eval_earning(DEFAULT_PARAMS[EarnFamily.POW], 1.0, 1.0) == pytest.approx(4.268, rel=1e-15)


def test_exp_family_at_full_input_matches_high_precision_value():
    got = eval_earning(DEFAULT_PARAMS[EarnFamily.EXP], 1.0, 1.0)
    assert got == pytest.approx(EXP_AT_ONE, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-9, 1.0))
def test_earning_homogeneous_in_tau(tau, x):
    # doubling is exact in binary floats as long as tau*h stays normal
    for params in DEFAULT_PARAMS.values():
        assert eval_earning(params, 2.0 * tau, x) == 2.0 * eval_earning(params, tau, x)


def test_out_of_range_input_rejected():
    params = DEFAULT_PARAMS[EarnFamily.POW]
    with pytest.raises(ValueError):
        eval_earning(params, 1.0, 1.5)
    with pytest.raises(ValueError):
        eval_earning(params, 1.0, -0.1)


def test_normalize_input_anchors_and_midpoint():
    cfg = make_cfg()
    assert float(normalize_input(cfg, cfg.res_norm_px, cfg.rate_norm_bps)) == 1.0
    assert float(normalize_input(cfg, 0.0, 0.0)) == 0.0
    mid = normalize_input(cfg, cfg.res_norm_px / 2, cfg.rate_norm_bps / 2)
    assert float(mid) == pytest.approx(0.5, abs=1e-15)


def test_normalize_input_rejects_out_of_range():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        normalize_input(cfg, cfg.res_norm_px * 1.01, 1e6)
    with pytest.raises(ValueError):
        normalize_input(cfg, 1e6, cfg.rate_norm_bps * 1.01)


def test_derivative_matches_central_differences(rng):
    h = 1e-7
    for params in DEFAULT_PARAMS.values():
        for x in rng.uniform(0.05, 0.95, size=50):
            fd = (eval_earning(params, 1.0, x + h)
                  - eval_earning(params, 1.0, x - h)) / (2 * h)
            assert _dh(params, x) == pytest.approx(fd, rel=1e-6)
            fd2 = (_dh(params, x + h) - _dh(params, x - h)) / (2 * h)
            assert _d2h(params, x) == pytest.approx(fd2, rel=1e-6)


def test_derivative_limits_at_zero():
    log_p = DEFAULT_PARAMS[EarnFamily.LOG]
    exp_p = DEFAULT_PARAMS[EarnFamily.EXP]
    assert _dh(log_p, 0.0) == pytest.approx(log_p.alpha * log_p.beta, rel=1e-15)
    assert _dh(exp_p, 0.0) == pytest.approx(exp_p.alpha * exp_p.beta, rel=1e-15)


@pytest.mark.parametrize("family", list(EarnFamily))
def test_fit_recovers_default_constants(family):
    truth = DEFAULT_PARAMS[family]
    xs = np.linspace(0.0, 1.0, 50)
    samples = [(float(x), eval_earning(truth, 1.0, float(x))) for x in xs]
    result = fit_params(samples, family)
    assert result.params.alpha == pytest.approx(truth.alpha, rel=0.01)
    assert result.params.beta == pytest.approx(truth.beta, rel=0.01)
    assert result.status is FitStatus.CONVERGED
    assert result.sse < 1e-10


def test_fit_rejects_constant_scores():
    samples = [(x, 3.0) for x in np.linspace(0.1, 0.9, 10)]
    with pytest.raises(DegenerateFitError):
        fit_params(samples, EarnFamily.LOG)


def test_fit_rejects_tiny_sample_sets():
    with pytest.raises(ValueError):
        fit_params([(0.1, 1.0), (0.2, 2.0)], EarnFamily.POW)


def test_fit_flags_exhausted_iteration_budget():
    truth = DEFAULT_PARAMS[EarnFamily.EXP]
    xs = np.linspace(0.0, 1.0, 50)
    samples = [(float(x), eval_earning(truth, 1.0, float(x))) for x in xs]
    result = fit_params(samples, EarnFamily.EXP, max_iter=1)
    assert result.status is FitStatus.GRID_ONLY
    # still no worse than the seeding grid point
    assert result.sse < 1.0


def test_assumption_check_accepts_default_parameter_sets():
    for params in DEFAULT_PARAMS.values():
        assert check_assumption1(params) == CheckResult(True)


def test_assumption_check_flags_convex_power():
    result = check_assumption1(EarnParams(EarnFamily.POW, 2.0, 1.5))
    assert not result.ok
    assert result.defect == "concavity"
    assert result.x == pytest.approx(0.001)


def test_assumption_check_flags_flat_exponential():
    result = check_assumption1(EarnParams(EarnFamily.EXP, 2.0, 0.0))
    assert not result.ok
    assert result.defect == "monotonicity"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(EarnFamily)), st.floats(0.1, 50.0), st.floats(0.01, 30.0))
def test_accepted_params_are_monotone_concave_on_grid(family, alpha, beta):
    if family is EarnFamily.POW:
        beta = min(beta, 0.999)
    params = EarnParams(family, alpha, beta)
    result = check_assumption1(params)
    assert result.ok, result
    xs = np.linspace(1e-3, 1.0, 200)
    vals = [eval_earning(params, 1.0, float(x)) for x in xs]
    diffs = np.diff(vals)
    assert np.all(diffs > 0)
    assert np.all(np.diff(diffs) < 1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        EarnParams(EarnFamily.LOG, -1.0, 2.0)
    with pytest.raises(ValueError):
        EarnParams(EarnFamily.LOG, 1.0, -2.0)
