"""Scenario generation, experiment sweeps and CSV emission.

Scenarios draw users uniformly over an annulus around the base station with
3GPP-style path loss, sample every per-user parameter from configurable
ranges, and resample users whose energy budget cannot be met at any positive
power. Sweeps run each method over a grid of one swept quantity across many
seeded scenarios and emit deterministic CSV rows.
"""

from __future__ import annotations

import dataclasses
import logging
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .earnings import EarnFamily
from .model import (_CONFIG_FLOATS, STEREO_BITS_PER_PIXEL, ServerProfile, SystemConfig,
                    UserProfile, user_earnings)
from .optimizer import BaselineKind, SdrCache, SolveOptions, run_baseline, solve_joint
from .power import feasibility_ratio

__all__ = [
    "ScenarioSpec",
    "SweepKind",
    "ResultRow",
    "CSV_HEADER",
    "generate_scenario",
    "check_grid",
    "run_sweep",
    "emit_results",
    "opt_earnings_total",
    "METHODS",
]

log = logging.getLogger("mecopt")

METHODS = ("proposed",) + tuple(k.value for k in BaselineKind)

_FAMILY_ORDER = tuple(EarnFamily)
_RESAMPLE_CAP = 100


@dataclass(frozen=True)
class ScenarioSpec:
    """Sampling ranges and counts for one random scenario family."""

    seed: int = 0
    num_users: int = 20
    num_servers: int = 5
    cell_radius_km: float = 0.5
    min_distance_km: float = 0.05
    compute_flops: Tuple[float, float] = (1e12, 5e12)
    compression: Tuple[float, float] = (300.0, 600.0)
    downlink_rate_bps: Tuple[float, float] = (10e6, 20e6)
    flop_per_px: Tuple[float, float] = (1e3, 100e3)
    tau: Tuple[float, float] = (0.5, 1.5)
    uplink_bits: Tuple[float, float] = (50e3, 200e3)
    energy_budget_j: Tuple[float, float] = (0.05, 0.2)
    power_cap_w: float = 0.2
    config_overrides: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, low in (("seed", 0), ("num_users", 1), ("num_servers", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not 0 < self.min_distance_km < self.cell_radius_km:
            raise ValueError("distances must satisfy 0 < min < radius")
        for name in _RANGE_FIELDS:
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"range {name} must be ordered and positive")
        if not self.power_cap_w > 0:
            raise ValueError("power_cap_w must be positive")


# The (lo, hi) sampling ranges, in declaration order.
_RANGE_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioSpec)
                     if f.type == "Tuple[float, float]")


def path_loss_gain(distance_km: float) -> float:
    """Linear channel gain from the 128.1 + 37.6 log10(d) path-loss law."""
    pl_db = 128.1 + 37.6 * np.log10(distance_km)
    return float(10.0 ** (-pl_db / 10.0))


def _draw_user(rng: np.random.Generator, spec: ScenarioSpec) -> UserProfile:
    # Area-uniform radius over the annulus [min_distance, cell_radius].
    r2 = rng.uniform(spec.min_distance_km ** 2, spec.cell_radius_km ** 2)
    gain = path_loss_gain(float(np.sqrt(r2)))
    uplink = rng.uniform(*spec.uplink_bits)
    compression = rng.uniform(*spec.compression)
    rate = rng.uniform(*spec.downlink_rate_bps)
    kappa = rng.uniform(*spec.flop_per_px)
    tau = rng.uniform(*spec.tau)
    energy = rng.uniform(*spec.energy_budget_j)
    family = _FAMILY_ORDER[int(rng.integers(0, len(_FAMILY_ORDER)))]
    return UserProfile(
        channel_gain=gain,
        uplink_bits=uplink,
        compression_ratio=compression,
        downlink_rate_bps=rate,
        earn_scale=tau,
        earn_family=family,
        energy_budget_j=energy,
        power_cap_w=spec.power_cap_w,
        # per-pixel complexity kappa stored per bit so that flops per frame
        # equal kappa times the pixel count, up to rounding
        lambda_down_flop_per_bit=kappa * compression / STEREO_BITS_PER_PIXEL,
    )


def generate_scenario(spec: ScenarioSpec,
                      ) -> Tuple[SystemConfig, List[UserProfile], List[ServerProfile]]:
    """Draw one scenario; energy-infeasible users are redrawn then dropped."""
    rng = np.random.default_rng(spec.seed)
    servers = [ServerProfile(compute_flops=float(f))
               for f in rng.uniform(*spec.compute_flops, size=spec.num_servers)]

    probe_cfg = _spec_config(spec)
    users: List[UserProfile] = []
    dropped = 0
    resampled = 0
    for _ in range(spec.num_users):
        accepted = None
        for attempt in range(_RESAMPLE_CAP + 1):
            user = _draw_user(rng, spec)
            if feasibility_ratio(probe_cfg, user) < 1.0:
                accepted = user
                resampled += attempt
                break
        if accepted is None:
            dropped += 1
        else:
            users.append(accepted)
    if dropped or resampled:
        log.info("scenario seed=%d: %d users dropped as energy-infeasible, "
                 "%d resample draws", spec.seed, dropped, resampled)
    if not users:
        raise ValueError("every sampled user was energy-infeasible")

    cfg = dataclasses.replace(probe_cfg, num_users=len(users))
    return cfg, users, servers


def _spec_config(spec: ScenarioSpec) -> SystemConfig:
    """The SystemConfig of spec's counts and config_overrides; ValueError if
    an override is not a number for a float field of SystemConfig, or if
    spec's downlink rates can exceed the config's earnings normalizer."""
    unknown = set(spec.config_overrides) - set(_CONFIG_FLOATS)
    if unknown:
        raise ValueError(f"config_overrides keys {sorted(unknown)} are not "
                         f"SystemConfig float fields")
    for key, value in spec.config_overrides.items():
        if not isinstance(value, numbers.Real):
            raise ValueError(f"config override {key} must be a number, got {value!r}")
    cfg = SystemConfig(num_users=spec.num_users, **spec.config_overrides)
    if spec.downlink_rate_bps[1] > cfg.rate_norm_bps:
        raise ValueError(f"downlink rate {spec.downlink_rate_bps[1]} exceeds the earnings "
                         f"normalizer rate_norm_bps {cfg.rate_norm_bps}")
    return cfg


class SweepKind(Enum):
    OMEGA = "omega"
    SMIN = "smin"
    USERS = "users"


# The field each kind varies: a ScenarioSpec's for USERS, a SystemConfig's otherwise.
_SWEPT_FIELD = {SweepKind.OMEGA: "weight_omega", SweepKind.SMIN: "s_min_px",
                SweepKind.USERS: "num_users"}


def _swept(kind: SweepKind, target, value: float):
    value = int(value) if kind is SweepKind.USERS else float(value)
    return dataclasses.replace(target, **{_SWEPT_FIELD[kind]: value})


@dataclass
class ResultRow:
    method: str
    seed: int
    omega: float
    s_min_px: float
    num_users: int
    mean_latency_s: float
    mean_earnings_norm: float
    mean_utility: float
    iters: int
    sdr_gap: float
    wall_ms: float
    status: str = "ok"


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(ResultRow))


def opt_earnings_total(cfg: SystemConfig, users: Sequence[UserProfile]) -> float:
    """Scenario-wide earnings at maximum resolution; the normalization anchor."""
    return float(user_earnings(cfg, users, np.full(len(users), cfg.s_max_px)).sum())


def _solve_method(method: str, cfg: SystemConfig, users, servers,
                  opts: SolveOptions,
                  sdr_cache: Optional[SdrCache] = None) -> Tuple:
    """One method's allocation, its outer iteration count (0 for methods
    that solve no relaxation) and its association pass's rounding gap."""
    if method == "proposed":
        alloc, trace = solve_joint(cfg, users, servers, opts, sdr_cache=sdr_cache)
        return alloc, len(trace.objective_values) - 1, trace.rounding.gap
    kind = BaselineKind(method)
    alloc = run_baseline(kind, cfg, users, servers, opts, sdr_cache=sdr_cache)
    return alloc, (1 if kind is BaselineKind.OPT_LATENCY else 0), 0.0


def check_grid(kind: SweepKind, spec: ScenarioSpec, grid: Sequence[float]) -> None:
    """Raise ValueError naming the first grid value that makes no valid sweep
    point: a user count must be a whole number that ScenarioSpec accepts, an
    omega or s_min a value that spec's SystemConfig accepts."""
    cfg = _spec_config(spec)
    for value in grid:
        try:
            if kind is SweepKind.USERS and not float(value).is_integer():
                raise ValueError("a user count must be a whole number")
            _swept(kind, spec if kind is SweepKind.USERS else cfg, value)
        except ValueError as exc:
            raise ValueError(f"{kind.value} grid value {value!r}: {exc}") from None


def run_sweep(kind: SweepKind, spec: ScenarioSpec, methods: Sequence[str],
              grid: Sequence[float], num_seeds: int = 20,
              rand_samples: int = SolveOptions.rand_samples_l,
              sdp_tol: float = SolveOptions.sdp_tol,
              sdp_max_iter: int = SolveOptions.sdp_max_iter) -> List[ResultRow]:
    """Run every (grid point, seed, method) combination into result rows.

    Deterministic for a fixed spec: scenario seeds are spec.seed + i and all
    solver randomness derives from them. Per-point failures are recorded in
    the row's status and the sweep continues; an empty or repeated method,
    a grid value that makes no valid point (check_grid) or a solver setting
    out of range raises ValueError before any scenario is drawn.
    """
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"methods must be non-empty and distinct, got {list(methods)}")
    bad = set(methods) - set(METHODS)
    if bad:
        raise ValueError(f"unknown methods: {sorted(bad)}")
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be at least 1, got {num_seeds}")
    if rand_samples < 0:
        raise ValueError(f"rand_samples must be nonnegative, got {rand_samples}")
    if not 0 < sdp_tol < np.inf:
        raise ValueError(f"sdp_tol must be finite and positive, got {sdp_tol}")
    if sdp_max_iter < 1:
        raise ValueError(f"sdp_max_iter must be at least 1, got {sdp_max_iter}")
    check_grid(kind, spec, grid)

    rows: List[ResultRow] = []
    for i in range(num_seeds):
        scen_seed = spec.seed + i
        seeded = dataclasses.replace(spec, seed=scen_seed)
        base: Optional[Tuple] = None
        if kind is not SweepKind.USERS:
            base = generate_scenario(seeded)
        sdr_cache: SdrCache = {}
        for value in grid:
            if kind is SweepKind.USERS:
                cfg, users, servers = generate_scenario(_swept(kind, seeded, value))
            else:
                cfg, users, servers = base
                cfg = _swept(kind, cfg, value)
            norm = opt_earnings_total(cfg, users)
            for method in methods:
                opts = SolveOptions(rng_seed=scen_seed, rand_samples_l=rand_samples,
                                    sdp_tol=sdp_tol, sdp_max_iter=sdp_max_iter)
                start = time.perf_counter()
                try:
                    alloc, iters, gap = _solve_method(
                        method, cfg, users, servers, opts, sdr_cache)
                    latency = float(alloc.total_latency_s.mean())
                    earnings = float(alloc.per_user_earnings.sum() / norm)
                    utility = float(alloc.per_user_utility.mean())
                    status = "ok"
                except Exception as exc:  # per-point failure, keep sweeping
                    log.warning("sweep point failed (%s, seed=%d, value=%g): %s",
                                method, scen_seed, value, exc)
                    latency = earnings = utility = gap = float("nan")
                    iters, status = 0, f"error:{type(exc).__name__}"
                rows.append(ResultRow(
                    method=method, seed=scen_seed, omega=cfg.weight_omega,
                    s_min_px=cfg.s_min_px, num_users=cfg.num_users,
                    mean_latency_s=latency, mean_earnings_norm=earnings,
                    mean_utility=utility, iters=iters, sdr_gap=gap,
                    wall_ms=(time.perf_counter() - start) * 1e3, status=status))
    return rows


# One formatter per CSV column: 9 significant digits for the float fields.
_COLUMN_FORMATS = tuple("{:.9g}".format if f.type == "float" else str
                        for f in dataclasses.fields(ResultRow))


def emit_results(rows: Sequence[ResultRow], path, include_timings: bool = False) -> None:
    """Write rows as CSV, sorted by (method, sweep value, seed).

    wall_ms is written as 0 unless include_timings is set, keeping default
    output byte-identical across reruns of the same seed.
    """
    if not rows:
        raise ValueError("no rows to emit")
    ordered = sorted(rows, key=lambda r: (r.method, r.omega, r.s_min_px,
                                          r.num_users, r.seed))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in ordered:
            if not include_timings:
                r = dataclasses.replace(r, wall_ms=0.0)
            fh.write(",".join(fmt(value) for fmt, value
                              in zip(_COLUMN_FORMATS, dataclasses.astuple(r))) + "\n")
