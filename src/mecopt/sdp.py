"""Small dense semidefinite programs.

Solves min Tr(C X) over symmetric X in the intersection of the PSD cone with
a few convex sets that each have an exact Frobenius projection, via
consensus operator splitting (O'Donoghue et al., JOTA 2016): one variable
copy per set, each updated by its projection, tied together by an averaging
step that carries the cost and a scaled dual update.

A problem names its sets through ``constraint_sets()``; the cone is always
added last. ``SdpProblem`` is the generic form: trace equalities
Tr(A_i X) = b_i, elementwise nonnegativity on a mask and at most one trace
inequality Tr(Y X) <= 0, split into two sets:

- affine step: the equalities and the half-space only involve the entries
  where some A_i or Y is nonzero (their support), so the projection reads
  those entries, applies a cached least-squares step to the constraint
  operator restricted to them, and leaves every other entry as it was;
- mask step: clamping the masked entries at zero.

A problem whose non-cone constraints form one set with a closed-form
projection (the association relaxation's assignment polytope) supplies that
set instead and runs with two copies. Either way an iteration costs one
symmetric eigendecomposition, in the cone step, after which only the
negative eigenpairs are subtracted since near a solution few eigenvalues are
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
    "SdpProblem",
    "SdpSolution",
    "SdpStatus",
    "SplitProblem",
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

    violations(x) returns the largest relative equality residual and the
    excess over the trace inequality at x; nonnegativity is checked on the
    problem's nonneg_mask instead, so a set of sign constraints reports zeros.
    """

    def project(self, v: np.ndarray) -> np.ndarray: ...

    def violations(self, x: np.ndarray) -> Tuple[float, float]: ...


class SplitProblem(Protocol):
    """What solve_sdp reads from a problem: its dimension, a symmetric cost,
    the mask its sign residual is checked on (or None), and the constraint
    sets whose intersection with the PSD cone is the feasible set."""

    dim: int
    cost: np.ndarray
    nonneg_mask: Optional[np.ndarray]

    def constraint_sets(self) -> List[ConstraintSet]: ...


@dataclass(frozen=True)
class SdpProblem:
    """One SDP instance of the shape described in the module docstring.

    nonneg_mask marks the entries forced to be nonnegative (None for no sign
    constraints); trace_ineq is the Y of Tr(Y X) <= 0, or None.
    """

    dim: int
    cost: np.ndarray
    eq_constraints: Sequence[Tuple[np.ndarray, float]]
    nonneg_mask: Optional[np.ndarray] = None
    trace_ineq: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = self.dim
        cost = _check_symmetric(self.cost, "cost")
        if cost.shape != (n, n):
            raise ValueError(f"cost shape {cost.shape} != ({n}, {n})")
        eqs = []
        for i, (mat, rhs) in enumerate(self.eq_constraints):
            mat = _check_symmetric(mat, f"equality constraint {i}")
            if mat.shape != (n, n):
                raise ValueError(f"constraint {i} shape {mat.shape} != ({n}, {n})")
            eqs.append((mat, float(rhs)))
        mask = self.nonneg_mask
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (n, n):
                raise ValueError(f"mask shape {mask.shape} != ({n}, {n})")
            if not np.array_equal(mask, mask.T):
                raise ValueError("nonneg mask must be symmetric")
        ineq = self.trace_ineq
        if ineq is not None:
            ineq = _check_symmetric(ineq, "trace inequality")
            if ineq.shape != (n, n):
                raise ValueError(f"trace inequality shape {ineq.shape} != ({n}, {n})")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "eq_constraints", tuple(eqs))
        object.__setattr__(self, "nonneg_mask", mask)
        object.__setattr__(self, "trace_ineq", ineq)

    def constraint_sets(self) -> List[ConstraintSet]:
        """The affine step (equalities and half-space), then the mask step."""
        sets: List[ConstraintSet] = []
        if self.eq_constraints or self.trace_ineq is not None:
            sets.append(_AffineStep(self))
        if self.nonneg_mask is not None:
            sets.append(_MaskStep(self.nonneg_mask))
        return sets


class SdpStatus(Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap"


@dataclass
class SdpSolution:
    """Solver output. primal_residual aggregates normalized feasibility error
    (equalities, sign mask, trace inequality, cone) together with the
    consensus gap; dual_residual tracks the averaged-iterate movement."""

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


class _AffineStep:
    """Exact projection onto the equalities Tr(A_i X) = b_i and the half-space
    Tr(Y X) <= 0, which share one consensus copy.

    All A_i and Y vanish off their support (the flat indices where any of
    them is nonzero), so the projection v - A'(AA')^+(Av - b) changes only
    those entries, and A is stored restricted to them as an
    (m x |support|) array. If the equality projection lands outside the
    half-space, the inequality is active and the step is redone with Y
    appended to the equalities. Both Gram pseudo-inverses are cached.
    """

    def __init__(self, prob: SdpProblem) -> None:
        n = prob.dim
        mats = [mat for mat, _ in prob.eq_constraints]
        ineq = prob.trace_ineq
        touched = np.zeros((n, n), dtype=bool)
        for mat in mats + ([] if ineq is None else [ineq]):
            touched |= mat != 0.0
        sup = self.support = np.flatnonzero(touched)
        self.a_mat = np.array([mat.ravel()[sup] for mat in mats]).reshape(len(mats), sup.size)
        self.b_vec = np.array([rhs for _, rhs in prob.eq_constraints], dtype=float)
        self.b_ref = np.maximum(1.0, np.abs(self.b_vec))
        self.gram_inv = np.linalg.pinv(self.a_mat @ self.a_mat.T)
        self.y = None if ineq is None else ineq.ravel()[sup]
        if self.y is not None:
            self.aug_mat = np.vstack([self.a_mat, self.y[None, :]])
            self.aug_b = np.append(self.b_vec, 0.0)
            self.aug_gram_inv = np.linalg.pinv(self.aug_mat @ self.aug_mat.T)

    def project(self, v: np.ndarray) -> np.ndarray:
        vs = v.ravel()[self.support]
        a_mat = self.a_mat
        ws = vs - a_mat.T @ (self.gram_inv @ (a_mat @ vs - self.b_vec))
        if self.y is not None and float(self.y @ ws) > 0.0:
            a_mat = self.aug_mat
            ws = vs - a_mat.T @ (self.aug_gram_inv @ (a_mat @ vs - self.aug_b))
        w = v.copy()
        w.reshape(-1)[self.support] = ws
        return w

    def violations(self, x: np.ndarray) -> Tuple[float, float]:
        """Largest relative equality residual and the trace inequality's excess."""
        xs = x.ravel()[self.support]
        eq_v = float(np.max(np.abs(self.a_mat @ xs - self.b_vec) / self.b_ref, initial=0.0))
        ineq_v = max(0.0, float(self.y @ xs)) if self.y is not None else 0.0
        return eq_v, ineq_v


class _MaskStep:
    """Exact projection onto X >= 0 on the mask: clamp the masked entries."""

    def __init__(self, mask: np.ndarray) -> None:
        self.free = np.flatnonzero(~mask)

    def project(self, v: np.ndarray) -> np.ndarray:
        w = np.maximum(v, 0.0)
        w.reshape(-1)[self.free] = v.reshape(-1)[self.free]
        return w

    def violations(self, x: np.ndarray) -> Tuple[float, float]:
        return 0.0, 0.0


def solve_sdp(prob: SplitProblem, tol: float = 1e-6, max_iter: int = 20000,
              rho: float = 1.0, initial: Optional[np.ndarray] = None) -> SdpSolution:
    """Run the splitting iteration until feasibility and consensus reach tol.

    prob is an SdpProblem or any other SplitProblem. Each iteration projects
    one copy onto each of its constraint sets and one onto the cone, which
    takes one eigendecomposition and subtracts the negative eigenpairs. The
    averaged iterate then carries the cost, and the scaled duals move by
    each copy's distance from it.

    Convergence demands, on the averaged iterate: equality residuals below
    tol * max(1, |b|), mask entries above -0.1 * tol, trace inequality below
    tol, smallest eigenvalue above -0.1 * tol * ||X||, and both consensus
    residuals below tol. Hitting max_iter returns ITERATION_CAP with the
    residuals attached so the caller can judge acceptability.
    """
    n = prob.dim
    cost = prob.cost
    c_scale = float(np.linalg.norm(cost))
    cost_n = cost / c_scale if c_scale > 0 else cost
    mask = prob.nonneg_mask
    sets = prob.constraint_sets()
    ns = len(sets) + 1  # the cone's copy is the last

    if initial is not None:
        z = 0.5 * (np.asarray(initial, dtype=float) + np.asarray(initial, dtype=float).T)
        if z.shape != (n, n):
            raise ValueError(f"initial iterate shape {z.shape} != ({n}, {n})")
        z = z.copy()
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
            eq_v = ineq_v = 0.0
            for step in sets:
                set_eq, set_ineq = step.violations(z_new)
                eq_v, ineq_v = max(eq_v, set_eq), max(ineq_v, set_ineq)
            mask_v = max(0.0, -float(z_new[mask].min())) if mask is not None and mask.any() else 0.0
            eig_lo = float(np.linalg.eigvalsh(z_new)[0])
            den_x = max(float(np.linalg.norm(z_new)), 1e-12)
            eig_v = max(0.0, -eig_lo)
            history.append((it, prim_n, dual_n))
            feas = max(eq_v, mask_v, ineq_v, eig_v / den_x)
            if (prim_n < tol and dual_n < tol and eq_v < tol
                    and mask_v <= 0.1 * tol and ineq_v <= tol
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
