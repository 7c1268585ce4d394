"""Spans around the public functions of each mecopt module.

Nothing inside ``src/`` changes: each function is wrapped at the module
attribute its callers look it up through (``optimizer.build_qcqp``,
``association.solve_sdp``, ``numpy.linalg.eigh`` and so on), so the calls the
program makes pass through the wrapper. A span records its name, start, end
and parent; spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from mecopt import association, harness, optimizer

# span name -> the (module, attribute) pairs its callers go through
TARGETS: Dict[str, Tuple[Tuple[object, str], ...]] = {
    "harness.generate_scenario": ((harness, "generate_scenario"),),
    "harness.run_sweep": ((harness, "run_sweep"),),
    "optimizer.solve_joint": ((optimizer, "solve_joint"), (harness, "solve_joint")),
    "optimizer.run_baseline": ((optimizer, "run_baseline"), (harness, "run_baseline")),
    "association.build_qcqp": ((optimizer, "build_qcqp"),),
    "association.solve_association_sdr": ((optimizer, "solve_association_sdr"),),
    "association.gaussian_randomize": ((optimizer, "gaussian_randomize"),),
    "sdp.solve_sdp": ((association, "solve_sdp"),),
    "numpy.eigh": ((np.linalg, "eigh"),),
    "numpy.eigvalsh": ((np.linalg, "eigvalsh"),),
    "resolution.optimal_resolution": ((optimizer, "optimal_resolution"),),
    "power.optimal_power": ((optimizer, "optimal_power"),),
    "model.total_objective": ((optimizer, "total_objective"),),
    "model.evaluate_allocation": ((optimizer, "evaluate_allocation"),),
}

EIGH = ("numpy.eigh", "numpy.eigvalsh")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio") or metric.endswith("_gap"):
        return "ratio"
    if metric.endswith("ms_per_iter"):
        return "ms"
    return "count"


@contextmanager
def patched(replacements: List[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Set module attributes for the duration of the block, then restore them."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, fn in replacements:
            setattr(obj, attr, fn)
        yield
    finally:
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)


def _nbytes(inst) -> int:
    """Bytes of a QcqpInstance's arrays, computed from their shapes."""
    arrays = [inst.p_matrix, inst.q_matrix, inst.p1, inst.y_matrix,
              inst.task_flops, inst.server_flops, *inst.g_matrices]
    return sum(int(np.prod(a.shape)) * a.itemsize for a in arrays)


def _facts(name: str, out) -> Optional[dict]:
    """The counts a span keeps from its function's return value."""
    if name == "sdp.solve_sdp":
        return {"iterations": out.iterations, "capped": out.status.value == "iteration_cap"}
    if name == "association.build_qcqp":
        return {"bytes": _nbytes(out)}
    if name == "association.gaussian_randomize":
        return {"samples": out.num_samples, "gap": out.gap}
    if name == "optimizer.solve_joint":
        trace = out[1]
        return {"outer": len(trace.objective_values) - 1,
                "accepted": list(trace.association_accepted)}
    return None


class Tracer:
    """In-memory span recorder; ``installed()`` wraps every target."""

    def __init__(self) -> None:
        # one span is [name, start, end, parent index or -1, facts or None]
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[4] = _facts(name, out)
            return out

        return traced

    def installed(self):
        replacements = []
        for name, places in TARGETS.items():
            wrapper = self._wrap(name, getattr(*places[0]))
            replacements += [(obj, attr, wrapper) for obj, attr in places]
        return patched(replacements)

    @staticmethod
    def span_cost_s(calls: int = 20000) -> float:
        """Time one wrapper adds to a call, measured on a function doing nothing."""
        def nothing():
            return None
        wrapped = Tracer()._wrap("calibration", nothing)
        times = []
        for fn in (nothing, wrapped):
            t = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t)
        return max(0.0, (times[1] - times[0]) / calls)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "facts"],
                       "spans": self.spans}, fh)

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
        """Per-layer totals, self times and counts, and the tracing overhead.

        The overhead is given twice: as the wall time of the traced solves
        minus that of the untraced ones, which carries the machine's drift,
        and as the span count times the measured cost of one wrapper.
        """
        spans = self.spans
        total: Dict[str, float] = defaultdict(float)
        child: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        sdp_eigh_s, sdp_eigh_calls = 0.0, 0
        for name, start, end, parent, _ in spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[spans[parent][0]] += dur
                if name in EIGH and spans[parent][0] == "sdp.solve_sdp":
                    sdp_eigh_s += dur
                    sdp_eigh_calls += 1

        def facts(name: str, key: str) -> list:
            return [s[4][key] for s in spans if s[0] == name]

        def self_s(name: str) -> float:
            return total[name] - child[name]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        requested = calls["association.build_qcqp"]
        solved = calls["association.solve_association_sdr"]
        outer = sum(facts("optimizer.solve_joint", "outer"))
        iterations = sum(facts("sdp.solve_sdp", "iterations"))
        gaps = facts("association.gaussian_randomize", "gap")
        sdp_s = total["sdp.solve_sdp"]
        top = [s for s in spans if s[3] < 0 and s[0] != "harness.generate_scenario"]
        return {
            "harness.generate_scenario_s": total["harness.generate_scenario"],
            "harness.run_sweep_s": total["harness.run_sweep"],
            "harness.run_sweep_self_s": self_s("harness.run_sweep"),
            "optimizer.solve_joint_s": total["optimizer.solve_joint"],
            "optimizer.solve_joint_self_s": self_s("optimizer.solve_joint"),
            "optimizer.run_baseline_s": total["optimizer.run_baseline"],
            "optimizer.run_baseline_self_s": self_s("optimizer.run_baseline"),
            "optimizer.outer_iters": outer,
            "optimizer.accept_ratio": ratio(sum(map(sum, facts("optimizer.solve_joint", "accepted"))),
                                            outer),
            "association.relaxations_requested": requested,
            "association.relaxations_solved": solved,
            "association.reuse_ratio": 1.0 - ratio(solved, requested) if requested else 0.0,
            "association.build_qcqp_s": total["association.build_qcqp"],
            "association.qcqp_mb": max(facts("association.build_qcqp", "bytes"), default=0) / 2**20,
            "association.sdr_s": total["association.solve_association_sdr"],
            "association.sdr_self_s": self_s("association.solve_association_sdr"),
            "association.randomize_s": total["association.gaussian_randomize"],
            "association.randomize_self_s": self_s("association.gaussian_randomize"),
            "association.rounding_samples": sum(facts("association.gaussian_randomize", "samples")),
            "association.rounding_gap": ratio(sum(gaps), len(gaps)),
            "sdp.solve_s": sdp_s,
            "sdp.solves": calls["sdp.solve_sdp"],
            "sdp.iterations": iterations,
            "sdp.ms_per_iter": ratio(1e3 * sdp_s, iterations),
            "sdp.capped": sum(facts("sdp.solve_sdp", "capped")),
            "sdp.eigh_s": sdp_eigh_s,
            "sdp.eigh_calls": sdp_eigh_calls,
            "sdp.other_s": sdp_s - sdp_eigh_s,
            "resolution.optimal_resolution_s": total["resolution.optimal_resolution"],
            "resolution.calls": calls["resolution.optimal_resolution"],
            "power.optimal_power_s": total["power.optimal_power"],
            "power.calls": calls["power.optimal_power"],
            "model.total_objective_s": total["model.total_objective"],
            "model.total_objective_calls": calls["model.total_objective"],
            "model.evaluate_allocation_s": total["model.evaluate_allocation"],
            "trace.wall_s": traced_wall_s,
            "trace.untraced_wall_s": untraced_wall_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
            "trace.overhead_est_s": len(spans) * self.span_cost_s(),
            "trace.spanned_s": sum(s[2] - s[1] for s in top),
            "trace.spans": len(spans),
        }
