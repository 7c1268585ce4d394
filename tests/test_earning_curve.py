"""The shared earning-curve pieces: the elementwise input map, the per-user
family evaluator and the variable-projection fit."""

import math

import numpy as np
import pytest

from mecopt.earnings import (DEFAULT_PARAMS, EarnFamily, EarnParams, FitStatus, _beta_grid,
                             _h, _h_rows, eval_earning, fit_params, normalize_input)
from helpers import make_cfg


def test_elementwise_input_map_equals_the_scalar_call(rng):
    cfg = make_cfg()
    res = rng.uniform(0.0, cfg.res_norm_px, size=(6, 3))
    rate = rng.uniform(0.0, cfg.rate_norm_bps, size=(6, 1))
    res[0, 0], rate[0, 0] = cfg.res_norm_px, cfg.rate_norm_bps
    x = normalize_input(cfg, res, rate)
    assert x.shape == (6, 3)
    assert x[0, 0] == 1.0
    for (k, j), value in np.ndenumerate(x):
        assert value == normalize_input(cfg, res[k, j], rate[k, 0])


@pytest.mark.parametrize("res, rate, message", [
    ([1e6, -1.0, -2.0], 1e6, r"^resolution -1\.0 outside \[0, 33177600\]$"),
    ([1e6, 4e7, math.nan], 1e6, r"^resolution 40000000\.0 outside"),
    ([1e6, math.nan], [1e6, 3e7], r"^resolution nan outside"),
    ([1e6, 2e6], [1e6, 3e7], r"^rate 30000000\.0 outside \[0, 20000000\.0\]$"),
], ids=["negative", "above", "nan", "rate"])
def test_input_map_names_the_first_bad_entry(res, rate, message):
    with pytest.raises(ValueError, match=message):
        normalize_input(make_cfg(), np.array(res), np.array(rate))


def test_family_evaluator_matches_eval_earning_row_by_row(rng):
    families = [EarnFamily.EXP, EarnFamily.POW, EarnFamily.LOG, EarnFamily.POW,
                EarnFamily.EXP]
    x = rng.uniform(0.0, 1.0, size=(len(families), 4))
    x[1, 0] = 0.0
    h = _h_rows(families, x)
    assert h.shape == x.shape
    for (k, j), value in np.ndenumerate(h):
        assert value == eval_earning(DEFAULT_PARAMS[families[k]], 1.0, x[k, j])


def _noisy_samples(family, seed):
    """50 points of the default curve with 5% multiplicative Gaussian noise."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, 50)
    ys = _h(DEFAULT_PARAMS[family], xs) * (1.0 + 0.05 * rng.standard_normal(xs.size))
    return xs, ys


def _best_grid_sse(family, xs, ys):
    best = math.inf
    for beta in _beta_grid(family):
        try:
            f = _h(EarnParams(family, 1.0, beta), xs)
        except ValueError:  # a beta that breaks Assumption 1
            continue
        alpha = (f @ ys) / (f @ f)
        if alpha > 0:
            best = min(best, float((alpha * f - ys) @ (alpha * f - ys)))
    return best


@pytest.mark.parametrize("family", list(EarnFamily))
def test_noisy_fits_converge_below_the_best_grid_point(family):
    for seed in range(20):
        xs, ys = _noisy_samples(family, seed)
        result = fit_params(list(zip(xs, ys)), family)
        assert result.status is FitStatus.CONVERGED, seed
        assert result.sse <= _best_grid_sse(family, xs, ys), seed
        r = _h(result.params, xs) - ys
        assert result.sse == float(r @ r)
