"""Benchmark entry point: one workload per process, or all of them.

    python3 bench/run.py --workload joint_desk --seed 3 --seconds 30 --trace 0
    python3 bench/run.py            # every workload, each in its own process

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from solving the same inputs once untraced and once traced. The exit
code is non-zero if any correctness check fails.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The problems are small and dense; BLAS threads only add noise. This must
# happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def _import_mecopt() -> None:
    src = ROOT / "src"
    if not (src / "mecopt" / "__init__.py").is_file():
        sys.exit(f"bench: no mecopt sources at {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _setup_sample(workload: str, seed: int, ops: int) -> float:
    """Set-up time of a fresh interpreter: imports plus the workload's inputs."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--ops", str(ops)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1])


def _traced_run(wl, seed: int, inputs: list):
    """Solve every input twice, untraced and traced, alternating which goes first.

    Alternating the order per operation keeps the process's slow drift and
    its warm-up out of the overhead, which is the difference of the two sums.
    """
    from tracing import Tracer
    from workloads import Outcome

    tracer = Tracer()
    with tracer.installed():
        traced_inputs = wl.make_inputs(seed, len(inputs))
    plain, traced, plain_s, traced_s = [], [], 0.0, 0.0
    for i, (item, traced_item) in enumerate(zip(inputs, traced_inputs)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            t = time.perf_counter()
            if with_trace:
                with tracer.installed():
                    traced.append(wl.solve([traced_item]))
                traced_s += time.perf_counter() - t
            else:
                plain.append(wl.solve([item]))
                plain_s += time.perf_counter() - t
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans_{wl.name}_seed{seed}.json")
    return Outcome.joined(plain), plain_s, traced_inputs, Outcome.joined(traced), traced_s, tracer


def run_one(args) -> int:
    _import_mecopt()
    import workloads
    from checks import CheckFailed

    wl = workloads.WORKLOADS[args.workload]
    ops = args.ops or wl.operations(args.seconds / (2 if args.trace else 1))
    inputs = wl.make_inputs(args.seed, ops)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(repr(setup_s))
        return 0
    # Traced runs report no set-up time, so they spend none on more samples.
    setups = [setup_s] + [_setup_sample(wl.name, args.seed, ops)
                          for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]

    if args.trace:
        from tracing import unit_of
        outcome, wall_s, traced_inputs, traced, traced_wall_s, tracer = \
            _traced_run(wl, args.seed, inputs)
        passes = [(inputs, outcome), (traced_inputs, traced)]
    else:
        t = time.perf_counter()
        outcome = wl.solve(inputs)
        wall_s = time.perf_counter() - t
        peak_rss_mb = _peak_rss_mb()
        passes = [(inputs, outcome)]

    verdicts = []
    try:
        for pass_inputs, pass_outcome in passes:
            verdicts.append(wl.check(pass_inputs, pass_outcome, args.seed, OUT_DIR))
        first = verdicts[0]
        if first.start <= 0:
            raise CheckFailed("start-point utility is not positive; the ratio is undefined")
        if any(v.utility != first.utility for v in verdicts[1:]):
            raise CheckFailed("the traced pass changed the answers")
    except CheckFailed as exc:
        print(f"bench: {wl.name} seed {args.seed}: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(1, sum(v.attempted for v in verdicts)),
                          "failed": sum(v.failed for v in verdicts), "metrics": {}}))
        return 1
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)

    print(json.dumps({"workload": wl.name, "seed": args.seed, "operations": ops,
                      "op_s": outcome.op_s, "setup_samples_s": setups,
                      "utility_sum": repr(first.utility), "start_sum": repr(first.start),
                      **first.note}))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in tracer.metrics(traced_wall_s, wall_s).items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "utility_ratio": {"value": first.utility / first.start, "unit": "ratio"},
        }
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so that peak RSS belongs to one."""
    status, results = 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        results[name] = result
        for metric, m in result.get("metrics", {}).items():
            print(f"{name:12s} {metric:38s} {m['value']:.6g} {m['unit']}")
        print(f"{name:12s} attempted {result.get('attempted')} failed {result.get('failed')}"
              f" correct {result['correct']}")
        status = status or proc.returncode or (0 if result["correct"] else 1)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r.get("attempted", 0) for r in results.values()),
        "failed": sum(r.get("failed", 0) for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r.get("metrics", {}).items()},
    }))
    return status


WORKLOAD_NAMES = ("joint_desk", "relax_large", "sweep_omega")


def main(argv=None) -> int:
    default_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
