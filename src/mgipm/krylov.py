"""Matrix-free Krylov solvers: plain CG and preconditioned CGS.

Both solvers see the system only through an apply callback.  They leave
the counting of its calls to the operators behind it: each forward
operator's matvec_counter counts every apply it makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KrylovReport",
    "KrylovBreakdown",
    "cg",
    "cgs",
]


class KrylovBreakdown(RuntimeError):
    """Raised when a short recurrence hits a structural breakdown."""


@dataclass(frozen=True)
class KrylovReport:
    iterations: int
    final_relative_residual: float
    converged: bool


def cg(apply, b, tol=1e-8, maxit=500):
    """Conjugate gradients for a symmetric positive definite operator.

    apply(v) returns A v.  Convergence is declared when the recurrence
    residual satisfies ||b - A x|| <= tol * ||b|| in the Euclidean norm.  A
    search direction with p^T A p <= 0 means the operator is not SPD; that
    aborts with KrylovBreakdown rather than returning garbage.  A
    non-finite residual stops the run at once with converged=False.

    Returns (x, KrylovReport).  One apply per iteration; the zero
    right-hand side short-circuits to the zero solution.
    """
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, KrylovReport(0, 0.0, True)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    rel = 1.0
    converged = False
    iterations = 0
    for _ in range(maxit):
        Ap = apply(p)
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
        if not np.isfinite(rel):
            break
        # p = r + (rs_new/rs) p, in place and rounded the same way
        p *= rs_new / rs
        p += r
        rs = rs_new
    return x, KrylovReport(iterations, float(rel), converged)


def cgs(apply, precond, b, tol=1e-8, maxit=500):
    """Conjugate gradients squared with left preconditioning.

    Suitable for the nonsymmetric systems produced by the scaled reduction.
    apply(v) returns A v and precond(v) the preconditioned vector;
    convergence is judged on the TRUE unpreconditioned relative residual,
    maintained by the recurrences and confirmed explicitly (one extra
    apply) before success is reported.

    Breakdown of the rho inner product triggers a single restart from the
    current iterate; a second breakdown raises KrylovBreakdown.  When the
    explicit residual refutes the recurrence's claim of convergence, CGS
    also restarts from the current iterate with that residual, since the
    old directions no longer describe it.  The divergence guard returns
    converged=False at the first non-finite residual, or once the residual
    has stayed above 1e4 * ||b|| for 20 consecutive iterations; a single
    crossing is tolerated because the squared residual polynomial routinely
    spikes by about the square of the largest preconditioned eigenvalue
    before settling, and such runs still converge.

    An unconverged run returns the iterate with the smallest residual seen
    (the zero start included), together with its explicitly computed
    residual.

    Returns (x, KrylovReport).  Two applies per iteration, plus one per
    explicit residual (each confirmation, restart and unconverged exit).
    """
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, KrylovReport(0, 0.0, True)
    r = b.copy()
    restarted = False
    iterations = 0
    rel = 1.0
    converged = False
    u = p = q = None
    tiny = np.finfo(float).tiny
    above_guard = 0
    x_best, rel_best = x, rel
    while iterations < maxit:
        if u is None:
            # a fresh start (or restart) takes its shadow residual from r
            rtilde = r.copy()
        rho = float(rtilde @ r)
        if abs(rho) < tiny * max(1.0, bnorm * bnorm):
            if restarted:
                raise KrylovBreakdown(
                    f"cgs: rho breakdown recurred at iteration {iterations}"
                )
            r = b - apply(x)
            u = p = q = None
            restarted = True
            continue
        if u is None:
            u = r.copy()
            p = u.copy()
        else:
            # u = r + beta q, p = u + beta (q + beta p): in place, same rounding
            beta = rho / rho_prev
            np.multiply(q, beta, out=u)
            u += r
            p *= beta
            p += q
            p *= beta
            p += u
        vhat = apply(precond(p))
        sigma = float(rtilde @ vhat)
        if sigma == 0.0:
            if restarted:
                raise KrylovBreakdown(
                    f"cgs: sigma breakdown recurred at iteration {iterations}"
                )
            r = b - apply(x)
            u = p = q = None
            restarted = True
            continue
        alpha = rho / sigma
        # q's buffer is reused once allocated; x is rebound as x_best may share it
        q = np.subtract(u, alpha * vhat, out=q)
        del vhat
        uhat = precond(u + q)
        x = x + alpha * uhat
        r -= alpha * apply(uhat)
        del uhat
        rho_prev = rho
        iterations += 1
        rel = np.linalg.norm(r) / bnorm
        if rel <= tol:
            # recurrence says done; confirm on the explicitly computed residual
            r_true = b - apply(x)
            rel = np.linalg.norm(r_true) / bnorm
            if rel <= tol:
                converged = True
                break
            r = r_true
            u = p = q = None
        if rel < rel_best:
            x_best, rel_best = x, rel
        if not np.isfinite(rel):
            break
        if rel > 1e4:
            above_guard += 1
            if above_guard >= 20:
                break
        else:
            above_guard = 0
    if not converged:
        x = x_best
        rel = np.linalg.norm(b - apply(x)) / bnorm
    return x, KrylovReport(iterations, float(rel), converged)
