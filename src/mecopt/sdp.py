"""Small semidefinite programs over one matrix or a stack of blocks.

Solves min Tr(C X) over symmetric X in the intersection of the PSD cone with
one convex set that has an exact Frobenius projection, by two-operator ADMM
(Douglas-Rachford splitting; Boyd et al., Found. Trends Mach. Learn. 2011,
sections 3 and 5): x minimizes the cost over the set, y is x projected onto
the cone, and a scaled dual u accumulates their gap. X is one (d, d) matrix
or a (B, d, d) stack of blocks that are each PSD, the form a chordal pattern
decomposes into (Fukuda et al., SIAM J. Optim. 2001); the set couples them.

The caller passes the set as its projection, a plain function; x is always
that function's output, so the stopping test checks only the two splitting
residuals and the cone. The association relaxation passes its assignment
polytope. An iteration costs one batched eigendecomposition, after which
only the negative eigenpairs are subtracted, plus elementwise work.

Symmetry is established once, at the public entry points: project_psd and
solve_sdp check their input and take its symmetric part. Everything after
that is exactly symmetric by construction (solve_sdp's projection must keep
it so), so the cone step trusts its input and does not symmetrize it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Tuple

import numpy as np

__all__ = [
    "AsymmetricMatrixError",
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
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if float(np.abs(a - a.swapaxes(-1, -2)).max(initial=0.0)) > _SYM_TOL * scale:
        raise AsymmetricMatrixError(f"{name} is not symmetric within {_SYM_TOL}")
    return 0.5 * (a + a.swapaxes(-1, -2))


def _clamp_negative(v: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to v (to each block, for a stack), or v itself
    when it is PSD already. v must be exactly symmetric: eigh reads one
    triangle only, and nothing here symmetrizes it again.

    With v = V diag(w) V' and w_1..w_k the negative eigenvalues, the
    projection is v - V_k diag(w_k) V_k', so only k eigenpairs are
    multiplied out (k the most any block has; a block with fewer adds
    zeros). The subtracted term is symmetrized, so the result is exactly
    symmetric.
    """
    ew, ev = np.linalg.eigh(v)
    k = int((ew < 0.0).sum(axis=-1).max())
    if k == 0:
        return v
    neg = (ev[..., :k] * np.minimum(ew[..., None, :k], 0.0)) @ ev[..., :k].swapaxes(-1, -2)
    neg += neg.swapaxes(-1, -2)  # numpy buffers the overlapping transposed operand
    neg *= 0.5
    return v - neg


def project_psd(a: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix to a symmetric input,
    or to each block of a symmetric (B, d, d) stack. The input is checked
    and symmetrized here, once, before the cone step."""
    return _clamp_negative(_check_symmetric(a))


class SdpStatus(Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap"


@dataclass
class SdpSolution:
    """Solver output. x is the set's iterate, the projection's output.
    primal_residual is the larger of its distance from the cone's iterate,
    relative to max(1, ||x||), and its most negative eigenvalue, relative
    to ||x||; dual_residual tracks the cone iterate's movement. rho is the
    step parameter the solver stopped with."""

    x: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: SdpStatus
    rho: float
    residual_history: List[Tuple[int, float, float]] = field(default_factory=list, repr=False)


_CHECK_EVERY = 25
_RHO_EVERY = 50
_RHO_RATIO = 5.0
_RHO_FACTOR = 1.5
_RHO_COLD = 0.1  # where the rule settles from 10x4 to 100x20


def solve_sdp(cost: np.ndarray, project: Callable[[np.ndarray], np.ndarray],
              tol: float = 1e-6, max_iter: int = 20000) -> SdpSolution:
    """Minimize Tr(cost X) over the PSD matrices in the set that project
    maps onto: project(v) must return the set's nearest point to v, exactly
    symmetric for a symmetric v, since the cone step trusts that.

    cost must be square and symmetric, or a stack of such blocks. Each
    iteration sets x to project(y - u - cost/rho), y to the projection of
    x + u onto the cone (one batched eigendecomposition, then the negative
    eigenpairs are subtracted) and adds x - y to u. It starts from
    y = u = 0 and rho = 0.1, where the rule below settles on the
    association relaxations. rho adapts to balance the two residuals, at
    most once per 50 iterations during the first half of max_iter; u is
    rescaled with it.

    The returned x is project's output, so it lies in the set up to the
    projection's roundoff, and the stopping test checks only what can fail:
    primal residual ||x - y|| and dual residual rho * sqrt(2) * ||y - y_prev||
    below tol, both relative to max(1, ||x||), and x's smallest eigenvalue
    above -0.1 * tol * ||x||. The two residuals are screened every
    iteration; the eigenvalue is computed once both pass, and at max_iter.
    residual_history records the residuals of every 25th iteration and of
    the stopping check. Hitting max_iter returns ITERATION_CAP with the
    residuals attached so the caller can judge acceptability. A tol that is
    not finite and positive, or a max_iter below 1, raises ValueError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    cost = _check_symmetric(cost, "cost")
    c_scale = float(np.linalg.norm(cost))
    cost_n = cost / c_scale if c_scale > 0 else cost

    y, u, rho = np.zeros(cost.shape), np.zeros(cost.shape), _RHO_COLD
    cost_step = cost_n / rho

    history: List[Tuple[int, float, float]] = []
    status = SdpStatus.ITERATION_CAP

    for it in range(1, max_iter + 1):
        y_prev = y
        v = y - u
        v -= cost_step
        x = project(v)
        y = _clamp_negative(x + u)
        u += x
        u -= y

        x_norm = float(np.linalg.norm(x))
        den, den_x = max(1.0, x_norm), max(x_norm, 1e-12)
        prim = float(np.linalg.norm(x - y))
        dual = rho * math.sqrt(2.0) * float(np.linalg.norm(y - y_prev))
        prim_n, dual_n = prim / den, dual / den
        screened = prim_n < tol and dual_n < tol
        converged = False
        if screened or it == max_iter:
            eig_v = max(0.0, -float(np.linalg.eigvalsh(x).min()))
            converged = screened and eig_v <= 0.1 * tol * den_x
        if converged or it % _CHECK_EVERY == 0 or it == max_iter:
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

    return SdpSolution(
        x=x,
        objective=float((cost * x).sum()),
        primal_residual=max(prim_n, eig_v / den_x),
        dual_residual=dual_n,
        iterations=it,
        status=status,
        rho=rho,
        residual_history=history,
    )
