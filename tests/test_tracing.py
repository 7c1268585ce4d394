"""The benchmark's tracer against the current API.

bench/tracing.py wraps functions at the module attributes the program calls
through; renaming or dropping one of them breaks ``bench/run.py --trace 1``,
so this test installs the tracer around a small solve.
"""

import importlib.util
from pathlib import Path

import numpy as np

from mecopt import optimizer
from mecopt.association import build_qcqp
from mecopt.optimizer import BaselineKind, SolveOptions
from helpers import small_scenario

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_wraps_a_small_solve():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for places in tracing.TARGETS.values():
        for obj, attr in places:
            assert hasattr(obj, attr), f"{obj.__name__}.{attr}"

    cfg, users, servers = small_scenario(90, 3, 2, weight_omega=2.0)
    inst = build_qcqp(cfg, users, servers, np.full(len(users), cfg.s_min_px))
    m = inst.a_dim
    dense = (m * m + len(users) * m + (2 + len(users)) * (m + 1) ** 2) * 8
    assert tracing._nbytes(inst) == dense + (len(users) + len(servers)) * 8

    opts = SolveOptions(rng_seed=4, rand_samples_l=50)
    tracer = tracing.Tracer()
    with tracer.installed():
        optimizer.solve_joint(cfg, users, servers, opts)
        optimizer.run_baseline(BaselineKind.OPT_LATENCY, cfg, users, servers, opts)
    metrics = tracer.metrics(1.0, 1.0)
    assert metrics["sdp.solves"] >= 1
    assert metrics["association.relaxations_solved"] >= 2
    assert metrics["optimizer.run_baseline_s"] > 0
    assert metrics["association.rounding_samples"] > 0
