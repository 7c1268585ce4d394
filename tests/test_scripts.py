import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_help_runs(script):
    # --help imports everything a script takes from mecopt, so a renamed
    # name fails here rather than in a later full run
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("change_median, beyond", [
    (12.0, False), (13.0, False), (13.5, True), (7.0, False), (6.5, True)])
def test_bench_pairs_compares_the_median_gap_with_the_parent_spread(
        bench_pairs, change_median, beyond):
    # the parent's median is 10 and its quartiles 8.5 and 11.5, a spread of 3
    parent = [7.0, 8.0, 10.0, 13.0, 9.0, 11.0, 12.0]
    assert bench_pairs.beyond_spread(parent, change_median) is beyond


# median 10, quartiles 9.9625 and 10.0375: a spread well inside a 0.25 bound
TIGHT = [9.8, 10.0, 10.2, 9.9, 10.1, 10.0, 9.95, 10.05, 10.0, 10.0]
# median 10, quartiles 8.25 and 11.75: a spread of 0.35 of the median
WIDE = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]


@pytest.mark.parametrize("parent, change, way, bound, expected", [
    (TIGHT, [1.3 * v for v in TIGHT], "lower", 0.25, "worse beyond bound"),
    (TIGHT, [1.2 * v for v in TIGHT], "lower", 0.25, "ok"),
    (TIGHT, TIGHT, "lower", 0.25, "ok"),
    (TIGHT, [0.8 * v for v in TIGHT], "lower", 0.25, "gain"),
    (TIGHT, [0.8 * v for v in TIGHT[:8]] + [1.01 * v for v in TIGHT[8:]], "lower", 0.25,
     "ok"),
    (TIGHT, [0.8 * v for v in TIGHT[:9]] + [1.01 * v for v in TIGHT[9:]], "lower", 0.25,
     "gain"),
    (WIDE, WIDE, "lower", 0.25, "unresolved"),
    (WIDE, [0.9 * v for v in WIDE], "lower", 0.25, "unresolved"),
    (WIDE, [4.0] * 10, "lower", 0.25, "gain"),
    (WIDE, [13.0] * 10, "lower", 0.25, "worse beyond bound"),
    (TIGHT, [0.94 * v for v in TIGHT], "higher", 0.05, "worse beyond bound"),
    (TIGHT, [0.96 * v for v in TIGHT], "higher", 0.05, "ok"),
    (TIGHT, [1.1 * v for v in TIGHT], "higher", 0.05, "gain"),
    (TIGHT, [v + 0.1 for v in TIGHT], "higher", 0.001, "unresolved"),
], ids=["worse", "worse-within-bound", "same", "gain", "8-of-10", "9-of-10",
        "wide", "wide-better", "wide-beats-all", "wide-worse", "higher-worse",
        "higher-within-bound", "higher-gain", "higher-wide"])
def test_bench_pairs_verdict(bench_pairs, parent, change, way, bound, expected):
    assert bench_pairs.verdict(parent, change, way, bound) == expected
