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

Last, one verdict per metric, against the metric's relative ``bound`` in the
parent's BENCHMARK.json (see ``verdict``): ``worse beyond bound``,
``unresolved``, ``gain`` or ``ok``.

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


def _better(a: float, b: float, way: str) -> bool:
    return a < b if way == "lower" else a > b


def verdict(parent: List[float], change: List[float], way: str, bound: float) -> str:
    """The verdict on one end-to-end metric from paired runs: parent[i] and
    change[i] come from pair i, way is "lower" or "higher" and bound is
    relative to the parent's median.

    ``worse beyond bound`` if the change's median is worse than the
    parent's by more than bound times the parent's median; else
    ``unresolved`` if the parent's interquartile spread exceeds that same
    share of its median, unless every change run beats every parent run;
    else ``gain`` if the change wins at least 9 of 10 pairs and its median
    is better by more than the parent's spread; else ``ok``.
    """
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    worse_by = mc - mp if way == "lower" else mp - mc
    if worse_by > bound * abs(mp):
        return "worse beyond bound"
    if q3 - q1 > bound * abs(mp) \
            and not all(_better(c, p, way) for c in change for p in parent):
        return "unresolved"
    wins = sum(_better(c, p, way) for p, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and -worse_by > q3 - q1:
        return "gain"
    return "ok"


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
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: Dict[str, Dict[str, List[float]]] = {"parent": {}, "change": {}}
    paired: Dict[str, Tuple[List[float], List[float]]] = {name: ([], []) for name in better}
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
        for name in better:
            if name in metrics["parent"] and name in metrics["change"]:
                paired[name][0].append(metrics["parent"][name]["value"])
                paired[name][1].append(metrics["change"][name]["value"])
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
        pairs = list(zip(*paired[name]))
        wins = sum(_better(pc, pp, way) for pp, pc in pairs)
        r = [pc / pp for pp, pc in pairs if pp] or [float("nan")]
        r1, r3 = quartiles(r)
        print(f"  {name} ({way} is better): {mp:.6g} -> {mc:.6g} "
              f"[{q1:.6g}-{q3:.6g}, {q3 - q1:.3g}], {wins}/{args.pairs}, "
              f"ratio {statistics.median(r):.4g} [{r1:.4g}-{r3:.4g}]"
              f"{f'  WORSE, {spread} spread' if worse else ''}")
    print("verdicts (relative bounds from the parent's BENCHMARK.json):")
    for name, way in better.items():
        p, c = paired[name]
        print(f"  {name} (bound {bounds[name]:g}): "
              f"{verdict(p, c, way, bounds[name]) if p else 'no values'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
