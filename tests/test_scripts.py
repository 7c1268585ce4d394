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


@pytest.mark.parametrize("change_median, beyond", [
    (12.0, False), (13.0, False), (13.5, True), (7.0, False), (6.5, True)])
def test_bench_pairs_compares_the_median_gap_with_the_parent_spread(change_median, beyond):
    # the parent's median is 10 and its quartiles 8.5 and 11.5, a spread of 3
    parent = [7.0, 8.0, 10.0, 13.0, 9.0, 11.0, 12.0]
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    assert bench_pairs.beyond_spread(parent, change_median) is beyond
