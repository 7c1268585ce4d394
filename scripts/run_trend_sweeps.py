#!/usr/bin/env python3
"""Reproduce the desk-scale experiment sweeps and write their CSVs.

Runs the trade-off weight sweep, the minimum-resolution sweep and the
user-count sweep for all four methods at 20 users / 5 servers / 20 seeds,
writing omega.csv, smin.csv and users.csv into --outdir (1680 rows at the
defaults). The defaults took 15 s on one core with one BLAS thread.
"""

import argparse
import os
import pathlib

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from mecopt.cli import DEFAULT_GRIDS  # noqa: E402
from mecopt.harness import (METHODS, ScenarioSpec, SweepKind, emit_results,  # noqa: E402
                            run_sweep)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--users", type=int, default=20)
    parser.add_argument("--servers", type=int, default=5)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = ScenarioSpec(seed=args.seed, num_users=args.users,
                        num_servers=args.servers)
    for kind, name in [(SweepKind.OMEGA, "omega.csv"),
                       (SweepKind.SMIN, "smin.csv"),
                       (SweepKind.USERS, "users.csv")]:
        rows = run_sweep(kind, spec, list(METHODS), DEFAULT_GRIDS[kind],
                         num_seeds=args.seeds)
        emit_results(rows, outdir / name)
        print(f"wrote {outdir / name} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
