"""Small dense semidefinite programs.

Solves min Tr(C X) over symmetric X in the intersection of the PSD cone with
a few convex sets that each have an exact Frobenius projection, via
consensus operator splitting (O'Donoghue et al., JOTA 2016): one variable
copy per set, each updated by its projection, tied together by an averaging
step that carries the cost and a scaled dual update.

The caller passes the sets (``ConstraintSet``: a projection plus the
equality, sign and half-space residuals the stopping test reads); the cone is
always added last. The association relaxation passes one set, its assignment
polytope, so it runs with two copies. An iteration costs one symmetric
eigendecomposition, in the cone step, after which only the negative
eigenpairs are subtracted since near a solution few eigenvalues are
negative, plus elementwise work.

Problem sizes here are two- to three-digit dimensions; everything is plain
dense numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

__all__ = [
    "AsymmetricMatrixError",
    "ConstraintSet",
    "SdpSolution",
    "SdpStatus",
    "project_psd",
    "solve_sdp",
]

_SYM_TOL = 1e-9


class AsymmetricMatrixError(ValueError):
    pass


def _check_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AsymmetricMatrixError(f"{name} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if float(np.abs(a - a.T).max(initial=0.0)) > _SYM_TOL * scale:
        raise AsymmetricMatrixError(f"{name} is not symmetric within {_SYM_TOL}")
    return 0.5 * (a + a.T)


def _clamp_negative(v: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to the symmetric part of v, or v itself when that
    part is PSD already.

    With sym = V diag(w) V' and w_1..w_k the negative eigenvalues, the
    projection is sym - V_k diag(w_k) V_k', so only the k negative eigenpairs
    are multiplied out. The subtracted term is symmetrized exactly, so the
    result is exactly symmetric.
    """
    sym = 0.5 * (v + v.T)
    ew, ev = np.linalg.eigh(sym)
    k = int(np.searchsorted(ew, 0.0))  # eigenvalues ascend
    if k == 0:
        return v
    neg = (ev[:, :k] * ew[:k]) @ ev[:, :k].T
    neg += neg.T  # numpy buffers the overlapping transposed operand
    neg *= 0.5
    return sym - neg


def project_psd(a: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix to a symmetric input."""
    return _clamp_negative(_check_symmetric(a))


class ConstraintSet(Protocol):
    """A convex set solve_sdp splits over, given by its exact projection.

    violations(x) returns three residuals of x against the set: the largest
    relative equality residual, the most negative entry among those the set
    keeps nonnegative (as a positive number, 0 when none is negative) and the
    excess over its half-space. A set without one of these reports 0 for it.
    """

    def project(self, v: np.ndarray) -> np.ndarray: ...

    def violations(self, x: np.ndarray) -> Tuple[float, float, float]: ...


class SdpStatus(Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap"


@dataclass
class SdpSolution:
    """Solver output. primal_residual aggregates normalized feasibility error
    (equalities, signs, half-spaces, cone) together with the consensus gap;
    dual_residual tracks the averaged-iterate movement."""

    x: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: SdpStatus
    residual_history: List[Tuple[int, float, float]] = field(default_factory=list, repr=False)


_CHECK_EVERY = 25
_RHO_EVERY = 50
_RHO_RATIO = 5.0
_RHO_FACTOR = 1.5
_MAX_RHO_CHANGES = 80


def solve_sdp(cost: np.ndarray, sets: Sequence[ConstraintSet], tol: float = 1e-6,
              max_iter: int = 20000, rho: float = 1.0,
              initial: Optional[np.ndarray] = None) -> SdpSolution:
    """Minimize Tr(cost X) over the PSD matrices in the intersection of sets.

    cost must be square and symmetric. Each iteration projects one copy onto
    each set and one onto the cone, which takes one eigendecomposition and
    subtracts the negative eigenpairs. The averaged iterate then carries the
    cost, and the scaled duals move by each copy's distance from it.

    Convergence demands, on the averaged iterate and over every set: relative
    equality residuals below tol, sign residuals at most 0.1 * tol, half-space
    excess at most tol, smallest eigenvalue above -0.1 * tol * ||X||, and
    both consensus residuals below tol. Hitting max_iter returns
    ITERATION_CAP with the residuals attached so the caller can judge
    acceptability.
    """
    cost = _check_symmetric(cost, "cost")
    n = cost.shape[0]
    c_scale = float(np.linalg.norm(cost))
    cost_n = cost / c_scale if c_scale > 0 else cost
    ns = len(sets) + 1  # the cone's copy is the last

    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != (n, n):
            raise ValueError(f"initial iterate shape {initial.shape} != ({n}, {n})")
        z = 0.5 * (initial + initial.T)
    else:
        z = np.zeros((n, n))
    duals = [np.zeros((n, n)) for _ in range(ns)]
    copies = [np.zeros((n, n)) for _ in range(ns)]
    buf = np.empty((n, n))
    cost_step = cost_n / (ns * rho)

    history: List[Tuple[int, float, float]] = []
    rho_changes = 0
    status = SdpStatus.ITERATION_CAP
    prim_n = dual_n = math.inf
    feas = math.inf
    it = 0

    for it in range(1, max_iter + 1):
        for i, step in enumerate(sets):
            copies[i] = step.project(z - duals[i])
        copies[-1] = _clamp_negative(z - duals[-1])

        z_new = copies[0] + duals[0]
        for i in range(1, ns):
            z_new += np.add(copies[i], duals[i], out=buf)
        z_new /= ns
        z_new -= cost_step
        z_new += z_new.T
        z_new *= 0.5
        for i in range(ns):
            duals[i] += np.subtract(copies[i], z_new, out=buf)

        if it % _CHECK_EVERY == 0 or it == max_iter:
            den = max(1.0, float(np.linalg.norm(z_new)))
            prim = max(float(np.linalg.norm(c - z_new)) for c in copies)
            dual = rho * math.sqrt(ns) * float(np.linalg.norm(z_new - z))
            prim_n, dual_n = prim / den, dual / den
            eq_v, sign_v, ineq_v = map(
                max, zip((0.0, 0.0, 0.0), *(step.violations(z_new) for step in sets)))
            eig_lo = float(np.linalg.eigvalsh(z_new)[0])
            den_x = max(float(np.linalg.norm(z_new)), 1e-12)
            eig_v = max(0.0, -eig_lo)
            history.append((it, prim_n, dual_n))
            feas = max(eq_v, sign_v, ineq_v, eig_v / den_x)
            if (prim_n < tol and dual_n < tol and eq_v < tol
                    and sign_v <= 0.1 * tol and ineq_v <= tol
                    and eig_v <= 0.1 * tol * den_x):
                z = z_new
                status = SdpStatus.CONVERGED
                break
            if (it % _RHO_EVERY == 0 and rho_changes < _MAX_RHO_CHANGES
                    and it < max_iter // 2):
                if prim > _RHO_RATIO * dual:
                    rho *= _RHO_FACTOR
                    rho_changes += 1
                    for d in duals:
                        d /= _RHO_FACTOR
                elif dual > _RHO_RATIO * prim:
                    rho /= _RHO_FACTOR
                    rho_changes += 1
                    for d in duals:
                        d *= _RHO_FACTOR
                cost_step = cost_n / (ns * rho)
        z = z_new

    objective = float((cost * z).sum())
    primal_residual = max(prim_n if math.isfinite(prim_n) else 0.0, feas if math.isfinite(feas) else 0.0)
    return SdpSolution(
        x=z,
        objective=objective,
        primal_residual=primal_residual,
        dual_residual=dual_n if math.isfinite(dual_n) else 0.0,
        iterations=it,
        status=status,
        residual_history=history,
    )
