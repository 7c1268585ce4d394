#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload relax_large --seed 601

Pair i runs ``python3 <checkout>/bench/run.py --workload W --seed S+i
--trace 0`` once in each checkout, the parent first when i is even and the
change first when it is odd. Each run is a fresh process that writes only
under its own checkout's ``bench/out/``; this script edits nothing.

It prints one line per pair (exit codes, and whether ``utility_sum`` and,
where the workload writes a CSV, ``csv_sha256`` match), then one line per
end-to-end metric: each side's median, the parent's quartiles and their
spread, in how many pairs the change read better (ties count for neither
side), and the median and quartiles of the per-pair change/parent ratio.
A metric whose change median reads worse than the parent's is marked
``WORSE``, followed by ``beyond spread`` if the two medians lie farther apart
than the parent's interquartile spread and ``within spread`` if not. Which
way is better comes from the parent's BENCHMARK.json.
The exit code is 1 if any run exited non-zero, failed a check or counted a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

RUN_TIMEOUT_S = 600


def run_bench(checkout: Path, workload: str, seed: int) -> Tuple[int, Optional[dict], dict]:
    """One bench run: its exit code, its result line and its details line."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    try:
        details = json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError):
        details = {}
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result, details


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def beyond_spread(parent: List[float], change_median: float) -> bool:
    """Whether change_median lies farther from the median of the parent's
    values than their interquartile spread."""
    q1, q3 = quartiles(parent)
    return abs(change_median - statistics.median(parent)) > q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / "bench" / "run.py").is_file():
            parser.error(f"{side} {path} has no bench/run.py")
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    values: Dict[str, Dict[str, List[float]]] = {"parent": {}, "change": {}}
    wins = {name: 0 for name in better}
    ratios: Dict[str, List[float]] = {name: [] for name in better}
    status = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_bench(sides[side], args.workload, seed) for side in order}
        for code, result, _ in runs.values():
            if code or not (result and result.get("correct") and not result.get("failed")):
                status = 1
        metrics = {side: (runs[side][1] or {}).get("metrics", {}) for side in sides}
        for side in sides:
            for name, m in metrics[side].items():
                values[side].setdefault(name, []).append(m["value"])
        for name, way in better.items():
            if name in metrics["parent"] and name in metrics["change"]:
                p, c = metrics["parent"][name]["value"], metrics["change"][name]["value"]
                wins[name] += (c < p) if way == "lower" else (c > p)
                if p:
                    ratios[name].append(c / p)
        same = {key: ("n/a" if key not in runs["parent"][2]
                      else runs["parent"][2][key] == runs["change"][2].get(key))
                for key in ("utility_sum", "csv_sha256")}
        print(f"pair {i + 1} seed {seed} first {order[0]}: exit parent "
              f"{runs['parent'][0]} change {runs['change'][0]}; utility_sum same "
              f"{same['utility_sum']}; csv_sha256 same {same['csv_sha256']}", flush=True)

    print(f"{args.workload}: {args.pairs} pairs, medians parent -> change "
          f"[parent q1-q3, spread], change better in, change/parent ratio "
          f"median [q1-q3]")
    for name, way in better.items():
        p, c = values["parent"].get(name), values["change"].get(name)
        if not p or not c:
            print(f"  {name}: no values")
            continue
        q1, q3 = quartiles(p)
        mp, mc = statistics.median(p), statistics.median(c)
        worse = mc > mp if way == "lower" else mc < mp
        spread = "beyond" if beyond_spread(p, mc) else "within"
        r = ratios[name] or [float("nan")]
        r1, r3 = quartiles(r)
        print(f"  {name} ({way} is better): {mp:.6g} -> {mc:.6g} "
              f"[{q1:.6g}-{q3:.6g}, {q3 - q1:.3g}], {wins[name]}/{args.pairs}, "
              f"ratio {statistics.median(r):.4g} [{r1:.4g}-{r3:.4g}]"
              f"{f'  WORSE, {spread} spread' if worse else ''}")
    return status


if __name__ == "__main__":
    sys.exit(main())
