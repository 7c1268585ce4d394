"""Command-line entry points.

Subcommands: ``run`` solves one scenario and prints the allocation, ``sweep``
writes experiment CSVs, ``oracle-compare`` scores the relaxation pipeline
against the exact association DP (up to about 40x8), and ``fit-earnings`` fits
an earning family to a sample file (one ``x,score`` pair per line).

Configuration precedence: built-in defaults < config file (flat ``key = value``
lines of ScenarioSpec and SystemConfig fields) < command-line flags; the
MECOPT_SEED environment variable, a nonnegative integer, overrides the seed
from anywhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import harness
from .association import build_qcqp, exact_association, gaussian_randomize, solve_association_sdr
from .earnings import EarnFamily, FitResult, fit_params
from .harness import (ScenarioSpec, SweepKind, check_grid, emit_results, generate_scenario,
                      run_sweep)
from .model import SystemConfig, snap_resolution
from .optimizer import SolveOptions

DEFAULT_GRIDS = {
    SweepKind.OMEGA: [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
    SweepKind.SMIN: [921600.0, 2073600.0, 3686400.0, 8294400.0,
                     14745600.0, 20736000.0, 30720000.0],
    SweepKind.USERS: [10.0, 15.0, 20.0, 25.0],
}


def _data_lines(path: str) -> Iterator[Tuple[int, str]]:
    """(line number, text) of each line of path, comments and blanks dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def _number(kind: type, text: str, where: str):
    """kind(text) for kind int or float, or a ValueError naming where."""
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: expected {expected}, got {text.strip()!r}") from None


def parse_config_file(path: str) -> Dict[str, object]:
    """Parse flat key = value lines into ScenarioSpec construction kwargs;
    a SystemConfig field name goes into config_overrides."""
    spec_types = {f.name: f.type for f in dataclasses.fields(ScenarioSpec)}
    cfg_fields = {f.name for f in dataclasses.fields(SystemConfig)}
    out: Dict[str, object] = {}
    overrides: Dict[str, float] = {}
    for lineno, line in _data_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        where = f"{path}:{lineno}: {key}"
        if key in harness._RANGE_FIELDS:
            parts = [_number(float, v, where) for v in value.split(",")]
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: range {key} needs 'lo, hi'")
            out[key] = (parts[0], parts[1])
        elif spec_types.get(key) in ("int", "float"):
            out[key] = _number(int if spec_types[key] == "int" else float, value, where)
        elif key in cfg_fields:
            overrides[key] = _number(float, value, where)
        else:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    if overrides:
        out["config_overrides"] = overrides
    return out


def build_spec(args: argparse.Namespace) -> ScenarioSpec:
    kwargs: Dict[str, object] = {}
    if getattr(args, "config", None):
        kwargs.update(parse_config_file(args.config))
    for name in ("seed", "users", "servers"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[{"users": "num_users", "servers": "num_servers"}.get(name, name)] = value
    env_seed = os.environ.get("MECOPT_SEED")
    if env_seed is not None:
        kwargs["seed"] = int(env_seed)
    return ScenarioSpec(**kwargs)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = args.spec
    cfg, users, servers = generate_scenario(spec)
    if args.omega is not None:
        cfg = dataclasses.replace(cfg, weight_omega=args.omega)
    opts = SolveOptions(rng_seed=spec.seed, rand_samples_l=args.samples)
    alloc, iters, _ = harness._solve_method(args.method, cfg, users, servers, opts)

    norm = harness.opt_earnings_total(cfg, users)
    print(f"scenario seed={spec.seed} users={cfg.num_users} "
          f"servers={len(servers)} omega={cfg.weight_omega:g} "
          f"eta_earn={cfg.eta_earn:g} eta_lat={cfg.eta_lat:g} method={args.method}")
    print(f"{'user':>4} {'server':>6} {'power_w':>10} {'res_px':>12} "
          f"{'tier':>6} {'lat_s':>10} {'earn':>10} {'utility':>10}")
    idx = alloc.association.server_indices
    for k in range(cfg.num_users):
        tier, _ = snap_resolution(float(alloc.resolutions[k]))
        print(f"{k:>4} {int(idx[k]):>6} {alloc.powers[k]:>10.4g} "
              f"{alloc.resolutions[k]:>12.6g} {tier:>6} "
              f"{alloc.total_latency_s[k]:>10.4g} "
              f"{alloc.per_user_earnings[k]:>10.4g} "
              f"{alloc.per_user_utility[k]:>10.4g}")
    print(f"objective={alloc.objective:.9g} mean_latency_s="
          f"{float(alloc.total_latency_s.mean()):.9g} "
          f"earnings_norm={float(alloc.per_user_earnings.sum() / norm):.9g} "
          f"iters={iters}")
    return 0


def float_list(text: str) -> List[float]:
    return [float(v) for v in text.split(",")]


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = args.spec
    kind = SweepKind(args.kind)
    grid = args.grid or DEFAULT_GRIDS[kind]
    rows = run_sweep(kind, spec, args.methods.split(","), grid, num_seeds=args.seeds,
                     rand_samples=args.samples, sdp_tol=args.sdp_tol)
    emit_results(rows, args.out, include_timings=args.timings)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_oracle_compare(args: argparse.Namespace) -> int:
    spec = args.spec
    rng = np.random.default_rng(spec.seed)
    within = 0
    bound_ok = 0
    worst_ratio = 1.0
    sdp_iterations = 0
    for i in range(args.instances):
        scen = dataclasses.replace(
            spec,
            seed=spec.seed + 1 + i,
            num_users=int(rng.integers(2, args.max_users + 1)),
            num_servers=int(rng.integers(2, args.max_servers + 1)),
        )
        cfg, users, servers = generate_scenario(scen)
        resolutions = rng.uniform(cfg.s_min_px, cfg.s_max_px, size=cfg.num_users)
        inst = build_qcqp(cfg, users, servers, resolutions)
        sdr = solve_association_sdr(inst)
        report = gaussian_randomize(inst, sdr.solution.x, args.samples, scen.seed)
        _, best = exact_association(inst)
        ratio = report.best_objective / best
        worst_ratio = max(worst_ratio, ratio)
        bound_ok += sdr.lower_bound <= best + 1e-6
        within += ratio <= 1.05
        sdp_iterations += sdr.solution.iterations
        print(f"instance {i:3d}: K={cfg.num_users} N={len(servers)} "
              f"bound={sdr.lower_bound:.6g} rounded={report.best_objective:.6g} "
              f"exact={best:.6g} ratio={ratio:.4f} "
              f"sdp_iters={sdr.solution.iterations}")
    print(f"summary: bound<=exact on {bound_ok}/{args.instances}, "
          f"rounded within 5% on {within}/{args.instances}, "
          f"worst ratio {worst_ratio:.4f}, sdp iterations {sdp_iterations}")
    return 0 if bound_ok == args.instances else 1


def _fit_samples_file(path: str, family: EarnFamily) -> FitResult:
    """Fit family to path's 'x,score' lines; OSError or ValueError if the
    file cannot be read or fitted."""
    samples = []
    for lineno, line in _data_lines(path):
        try:
            x, score = map(float, line.split(","))
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'x,score', got {line!r}") from None
        samples.append((x, score))
    return fit_params(samples, family)


def _cmd_fit_earnings(args: argparse.Namespace) -> int:
    result = args.fit
    print(f"family={args.family} alpha={result.params.alpha!r} "
          f"beta={result.params.beta!r} sse={result.sse:.6g} "
          f"status={result.status.value}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="base scenario seed")
    parser.add_argument("--users", type=int, help="number of users")
    parser.add_argument("--servers", type=int, help="number of edge servers")
    parser.add_argument("--samples", type=int, default=SolveOptions.rand_samples_l,
                        help="rounding sample count")


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=os.environ.get("MECOPT_LOG", "WARNING"))
    parser = argparse.ArgumentParser(prog="mecopt")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one scenario and print the allocation")
    _add_common(p_run)
    p_run.add_argument("--method", default="proposed", choices=harness.METHODS)
    p_run.add_argument("--omega", type=float, help="latency weight override")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an experiment sweep to CSV")
    _add_common(p_sweep)
    p_sweep.add_argument("--kind", required=True,
                         choices=[k.value for k in SweepKind])
    p_sweep.add_argument("--methods", default=",".join(harness.METHODS))
    p_sweep.add_argument("--seeds", type=int, default=20)
    p_sweep.add_argument("--grid", type=float_list, help="comma-separated sweep values")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--sdp-tol", type=float, default=SolveOptions.sdp_tol)
    p_sweep.add_argument("--timings", action="store_true",
                         help="write measured wall times (breaks byte determinism)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle-compare", help="relaxation vs the exact association DP")
    _add_common(p_oracle)
    p_oracle.add_argument("--max-users", type=int, default=6)
    p_oracle.add_argument("--max-servers", type=int, default=3)
    p_oracle.add_argument("--instances", type=int, default=100)
    p_oracle.set_defaults(func=_cmd_oracle_compare)

    p_fit = sub.add_parser("fit-earnings", help="fit an earning family to samples")
    p_fit.add_argument("--family", required=True,
                       choices=[f.value for f in EarnFamily])
    p_fit.add_argument("--samples", required=True,
                       help="text file with one 'x,score' pair per line")
    p_fit.set_defaults(func=_cmd_fit_earnings)

    args = parser.parse_args(argv)
    solving = {"run": p_run, "sweep": p_sweep, "oracle-compare": p_oracle}.get(args.command)
    if solving is not None:
        if args.samples < 0:
            solving.error("--samples must be nonnegative")
        for flag, low in (("seed", 0), ("users", 1), ("servers", 1)):
            if getattr(args, flag) is not None and getattr(args, flag) < low:
                solving.error(f"--{flag} must be at least {low}")
        try:
            env_seed = int(os.environ.get("MECOPT_SEED", 0))
        except ValueError:
            solving.error(f"MECOPT_SEED must be an integer, got {os.environ['MECOPT_SEED']!r}")
        if env_seed < 0:
            solving.error(f"MECOPT_SEED must be at least 0, got {env_seed}")
        try:
            args.spec = build_spec(args)
            if args.config:
                harness._spec_config(args.spec)
        except (OSError, ValueError) as exc:
            solving.error(f"--config {args.config}: {exc}")
    if args.command == "run" and args.omega is not None \
            and not (math.isfinite(args.omega) and args.omega > 0):
        p_run.error("--omega must be finite and positive")
    if args.command == "sweep" and args.seeds < 1:
        p_sweep.error("--seeds must be at least 1")
    if args.command == "sweep" and not (math.isfinite(args.sdp_tol) and args.sdp_tol > 0):
        p_sweep.error("--sdp-tol must be finite and positive")
    if args.command == "sweep":
        methods = args.methods.split(",")
        if not set(methods) <= set(harness.METHODS) or len(set(methods)) < len(methods):
            p_sweep.error(f"--methods entries must be distinct and among "
                          f"{','.join(harness.METHODS)}")
        kind = SweepKind(args.kind)
        try:
            check_grid(kind, args.spec, args.grid or DEFAULT_GRIDS[kind])
        except ValueError as exc:
            p_sweep.error(f"--grid: {exc}")
    if args.command == "oracle-compare" and min(args.max_users, args.max_servers) < 2:
        p_oracle.error("--max-users and --max-servers must be at least 2")
    if args.command == "oracle-compare" and args.instances < 1:
        p_oracle.error("--instances must be at least 1")
    if args.command == "fit-earnings":
        try:
            args.fit = _fit_samples_file(args.samples, EarnFamily(args.family))
        except (OSError, ValueError) as exc:
            p_fit.error(f"--samples {args.samples}: {exc}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
