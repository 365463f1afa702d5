"""Matrix-free Krylov solvers: plain CG and preconditioned CGS.

Both solvers see the system only through an apply callback and account for
every operator application they consume.  The dense column-by-column
materialization of such a callback lives here too, so that the operator,
preconditioner and diagnostics layers share one loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "LinearOperatorHandle",
    "KrylovReport",
    "KrylovBreakdown",
    "cg",
    "cgs",
    "materialize_columns",
]


class KrylovBreakdown(RuntimeError):
    """Raised when a short recurrence hits a structural breakdown."""


@dataclass(frozen=True)
class LinearOperatorHandle:
    """A square operator given by its action on a vector."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class KrylovReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    matvecs: int


def materialize_columns(apply, n):
    """Dense n-by-n matrix of a linear map, one basis vector at a time."""
    out = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        out[:, j] = apply(e)
        e[j] = 0.0
    return out


def cg(op, b, tol=1e-8, maxit=500):
    """Conjugate gradients for a symmetric positive definite operator.

    Convergence is declared when the recurrence residual satisfies
    ||b - op x|| <= tol * ||b|| in the Euclidean norm.  A search direction
    with p^T A p <= 0 means the operator is not SPD; that aborts with
    KrylovBreakdown rather than returning garbage.

    Returns (x, KrylovReport).  One operator apply per iteration; the zero
    right-hand side short-circuits to the zero solution.
    """
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, KrylovReport(0, 0.0, True, 0)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    matvecs = 0
    rel = 1.0
    converged = False
    iterations = 0
    for _ in range(maxit):
        Ap = op.apply(p)
        matvecs += 1
        iterations += 1
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise KrylovBreakdown(
                f"cg: p^T A p = {pAp:.3e} at iteration {iterations}; operator is not SPD"
            )
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        rel = np.sqrt(rs_new) / bnorm
        if rel <= tol:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, KrylovReport(iterations, float(rel), converged, matvecs)


def cgs(op, precond, b, tol=1e-8, maxit=500):
    """Conjugate gradients squared with left preconditioning.

    Suitable for the nonsymmetric systems produced by the scaled reduction.
    The preconditioner enters only through `precond.apply`; convergence is
    judged on the TRUE unpreconditioned relative residual, maintained by the
    recurrences and confirmed explicitly (one extra apply) before success is
    reported.

    Breakdown of the rho inner product triggers a single restart from the
    current iterate; a second breakdown raises KrylovBreakdown.  The
    divergence guard returns converged=False once the residual has stayed
    above 1e4 * ||b|| for 20 consecutive iterations; a single crossing is
    tolerated because the squared residual polynomial routinely spikes by
    about the square of the largest preconditioned eigenvalue before
    settling, and such runs still converge.

    Returns (x, KrylovReport).  Two operator applies per iteration, plus one
    for the final confirmation, all counted in the report.
    """
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, KrylovReport(0, 0.0, True, 0)
    r = b.copy()
    rtilde = r.copy()
    rho_prev = 0.0
    restarted = False
    matvecs = 0
    iterations = 0
    rel = 1.0
    converged = False
    u = p = q = None
    tiny = np.finfo(float).tiny
    above_guard = 0
    while iterations < maxit:
        rho = float(rtilde @ r)
        if abs(rho) < tiny * max(1.0, bnorm * bnorm):
            if restarted:
                raise KrylovBreakdown(
                    f"cgs: rho breakdown recurred at iteration {iterations}"
                )
            r = b - op.apply(x)
            matvecs += 1
            rtilde = r.copy()
            rho_prev = 0.0
            u = p = q = None
            restarted = True
            continue
        if u is None:
            u = r.copy()
            p = u.copy()
        else:
            beta = rho / rho_prev
            u = r + beta * q
            p = u + beta * (q + beta * p)
        phat = precond.apply(p)
        vhat = op.apply(phat)
        matvecs += 1
        sigma = float(rtilde @ vhat)
        if sigma == 0.0:
            if restarted:
                raise KrylovBreakdown(
                    f"cgs: sigma breakdown recurred at iteration {iterations}"
                )
            r = b - op.apply(x)
            matvecs += 1
            rtilde = r.copy()
            rho_prev = 0.0
            u = p = q = None
            restarted = True
            continue
        alpha = rho / sigma
        q = u - alpha * vhat
        uhat = precond.apply(u + q)
        x = x + alpha * uhat
        Auhat = op.apply(uhat)
        matvecs += 1
        r = r - alpha * Auhat
        rho_prev = rho
        iterations += 1
        rel = np.linalg.norm(r) / bnorm
        if rel <= tol:
            # recurrence says done; confirm on the explicitly computed residual
            r_true = b - op.apply(x)
            matvecs += 1
            rel = np.linalg.norm(r_true) / bnorm
            if rel <= tol:
                converged = True
                break
            r = r_true
        if rel > 1e4:
            above_guard += 1
            if above_guard >= 20 or not np.isfinite(rel):
                break
        else:
            above_guard = 0
    return x, KrylovReport(iterations, float(rel), converged, matvecs)
