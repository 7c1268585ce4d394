"""Small semidefinite programs over one matrix or a stack of blocks.

Solves min Tr(C X) over symmetric X in the intersection of the PSD cone with
one convex set that has an exact Frobenius projection, by two-operator ADMM
(Douglas-Rachford splitting; Boyd et al., Found. Trends Mach. Learn. 2011,
sections 3 and 5): x minimizes the cost over the set, y is x projected onto
the cone, and a scaled dual u accumulates their gap. X is one (d, d) matrix
or a (B, d, d) stack of blocks that are each PSD, the form a chordal pattern
decomposes into (Fukuda et al., SIAM J. Optim. 2001); the set couples them.

The caller passes the set (``ConstraintSet``: a projection plus the
equality, sign and half-space residuals the stopping test reads). The
association relaxation passes its assignment polytope. An iteration costs
one batched eigendecomposition, after which only the negative eigenpairs are
subtracted, plus elementwise work. A solve warm-started from an earlier
``SdpSolution`` restores its whole splitting state (iterate, scaled dual and
step parameter), so a neighbouring problem does not rebuild the dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Protocol, Tuple

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
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise AsymmetricMatrixError(f"{name} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if float(np.abs(a - a.swapaxes(-1, -2)).max(initial=0.0)) > _SYM_TOL * scale:
        raise AsymmetricMatrixError(f"{name} is not symmetric within {_SYM_TOL}")
    return 0.5 * (a + a.swapaxes(-1, -2))


def _clamp_negative(v: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to the symmetric part of v (each block's, for a
    stack), or v itself when that part is PSD already.

    With sym = V diag(w) V' and w_1..w_k the negative eigenvalues, the
    projection is sym - V_k diag(w_k) V_k', so only k eigenpairs are
    multiplied out (k the most any block has; a block with fewer adds
    zeros). The subtracted term is symmetrized, so the result is exactly
    symmetric.
    """
    sym = 0.5 * (v + v.swapaxes(-1, -2))
    ew, ev = np.linalg.eigh(sym)
    k = int((ew < 0.0).sum(axis=-1).max())
    if k == 0:
        return v
    neg = (ev[..., :k] * np.minimum(ew[..., None, :k], 0.0)) @ ev[..., :k].swapaxes(-1, -2)
    neg += neg.swapaxes(-1, -2)  # numpy buffers the overlapping transposed operand
    neg *= 0.5
    return sym - neg


def project_psd(a: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix to a symmetric input,
    or to each block of a symmetric (B, d, d) stack."""
    return _clamp_negative(_check_symmetric(a))


class ConstraintSet(Protocol):
    """The convex set solve_sdp splits against the cone, given by its exact projection.

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
    """Solver output. x is the set's iterate. primal_residual aggregates its
    normalized feasibility error (equalities, signs, half-spaces, cone)
    with its distance from the cone's iterate; dual_residual tracks the cone
    iterate's movement. rho and u are the step parameter and the scaled dual
    the solver stopped with; passed back as solve_sdp's initial, the
    solution resumes the splitting from x, u and rho."""

    x: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: SdpStatus
    rho: float
    u: np.ndarray
    residual_history: List[Tuple[int, float, float]] = field(default_factory=list, repr=False)


_CHECK_EVERY = 25
_RHO_EVERY = 50
_RHO_RATIO = 5.0
_RHO_FACTOR = 1.5
_RHO_COLD = 0.1  # where the rule settles from 10x4 to 100x20


def solve_sdp(cost: np.ndarray, constraints: ConstraintSet, tol: float = 1e-6,
              max_iter: int = 20000, initial: Optional[SdpSolution] = None,
              ) -> SdpSolution:
    """Minimize Tr(cost X) over the PSD matrices in the set constraints.

    cost must be square and symmetric, or a stack of such blocks. Each
    iteration sets x to the projection of y - u - cost/rho onto the set, y
    to the projection of x + u onto the cone (one batched
    eigendecomposition, then the negative eigenpairs are subtracted) and
    adds x - y to u. A cold start has y = u = 0 and rho = 0.1, where the
    rule below settles on the association relaxations; a warm start
    from initial, an earlier solution whose x has cost's shape, restarts
    from y = sym(initial.x), u = initial.u and rho = initial.rho. rho adapts
    to balance the two residuals, at most once per 50 of this solve's
    iterations during the first half of max_iter; u is rescaled with it.

    The returned x lies in the set up to its projection's roundoff.
    Convergence demands, on x: relative equality residuals below tol, sign
    residuals at most 0.1 * tol, half-space excess at most tol, smallest
    eigenvalue above -0.1 * tol * ||x||, primal residual ||x - y|| and dual
    residual rho * sqrt(2) * ||y - y_prev|| below tol, both relative to
    max(1, ||x||). The two residuals are screened every iteration; the rest
    of the test runs once both pass, and on every 25th iteration, whose
    residuals residual_history records with those of the stopping check.
    Hitting max_iter returns ITERATION_CAP with the residuals attached so
    the caller can judge acceptability.
    """
    cost = _check_symmetric(cost, "cost")
    c_scale = float(np.linalg.norm(cost))
    cost_n = cost / c_scale if c_scale > 0 else cost

    if initial is None:
        y, u, rho = np.zeros(cost.shape), np.zeros(cost.shape), _RHO_COLD
    else:
        if initial.x.shape != cost.shape:
            raise ValueError(f"initial iterate shape {initial.x.shape} != {cost.shape}")
        y = 0.5 * (initial.x + initial.x.swapaxes(-1, -2))
        u, rho = initial.u.copy(), initial.rho  # u is updated in place
    x = y
    cost_step = cost_n / rho

    history: List[Tuple[int, float, float]] = []
    status = SdpStatus.ITERATION_CAP
    prim_n = dual_n = math.inf
    feas = math.inf
    it = 0

    for it in range(1, max_iter + 1):
        y_prev = y
        v = y - u
        v -= cost_step
        x = constraints.project(v)
        y = _clamp_negative(x + u)
        u += x
        u -= y

        x_norm = float(np.linalg.norm(x))
        den, den_x = max(1.0, x_norm), max(x_norm, 1e-12)
        prim = float(np.linalg.norm(x - y))
        dual = rho * math.sqrt(2.0) * float(np.linalg.norm(y - y_prev))
        prim_n, dual_n = prim / den, dual / den
        screened = prim_n < tol and dual_n < tol
        checkpoint = it % _CHECK_EVERY == 0 or it == max_iter
        if not (screened or checkpoint):
            continue
        eq_v, sign_v, ineq_v = constraints.violations(x)
        eig_v = max(0.0, -float(np.linalg.eigvalsh(x).min()))
        feas = max(eq_v, sign_v, ineq_v, eig_v / den_x)
        converged = (screened and eq_v < tol and sign_v <= 0.1 * tol
                     and ineq_v <= tol and eig_v <= 0.1 * tol * den_x)
        if checkpoint or converged:
            history.append((it, prim_n, dual_n))
        if converged:
            status = SdpStatus.CONVERGED
            break
        if it % _RHO_EVERY == 0 and it < max_iter // 2:
            if prim > _RHO_RATIO * dual:
                rho *= _RHO_FACTOR
                u /= _RHO_FACTOR
            elif dual > _RHO_RATIO * prim:
                rho /= _RHO_FACTOR
                u *= _RHO_FACTOR
            cost_step = cost_n / rho

    primal_residual = max(prim_n if math.isfinite(prim_n) else 0.0, feas if math.isfinite(feas) else 0.0)
    return SdpSolution(
        x=x,
        objective=float((cost * x).sum()),
        primal_residual=primal_residual,
        dual_residual=dual_n if math.isfinite(dual_n) else 0.0,
        iterations=it,
        status=status,
        rho=rho,
        u=u,
        residual_history=history,
    )
