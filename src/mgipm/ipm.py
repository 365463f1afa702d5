"""Mehrotra predictor-corrector interior point method for box constraints.

The outer problem is min (1/2)|K u - f|_W^2 + (beta/2)|u|_W^2 subject to
lo <= u <= hi nodewise, with W the lumped quadrature weight.  Each outer
iteration eliminates the bound multipliers from the perturbed KKT system,
leaving one reduced equation (beta W + K^T W K + D_m) du = r whose diagonal
rescaling is the system G du' = r' handled by the precond module.  The
predictor and corrector share that matrix, so the preconditioner is built
once per outer iteration and only the right-hand side changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from mgipm.grid import GridHierarchy, NodalField, discrete_w2inf, unwrap
from mgipm.krylov import cg, cgs
from mgipm.precond import (
    COARSEST_SOLVERS,
    build_preconditioner,
    g_apply,
    make_scaled_system,
    mg_apply,
)

__all__ = [
    "ControlProblem",
    "IpmOptions",
    "IpmState",
    "IpmResult",
    "OuterIterationRecord",
    "kkt_residuals",
    "compute_mu",
    "reduce_to_scaled",
    "recover_full_step",
    "step_lengths",
    "solve",
]


@dataclass
class ControlProblem:
    """Discrete box-constrained data-fitting problem on a grid hierarchy.

    operators holds one forward operator per hierarchy level, coarsest
    first; only the finest enters the objective, the rest feed the
    preconditioner.  f, lo, hi all live on the finest level and lo < hi
    must hold strictly at every node, with room for solve's midpoint start
    lo + (hi - lo)/2 to round strictly between them.
    """

    hierarchy: GridHierarchy
    operators: list
    f: NodalField
    beta: float
    lo: NodalField
    hi: NodalField

    def __post_init__(self):
        finest = self.hierarchy.n_levels - 1
        if len(self.operators) != self.hierarchy.n_levels:
            raise ValueError(
                f"need one operator per level: {len(self.operators)}"
                f" vs {self.hierarchy.n_levels}"
            )
        for name in ("f", "lo", "hi"):
            fld = getattr(self, name)
            if fld.level_index != finest:
                raise ValueError(f"{name} must live on the finest level")
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        lo = np.asarray(self.lo.values, dtype=float)
        hi = np.asarray(self.hi.values, dtype=float)
        # lo < mid < hi also gives lo < hi
        with np.errstate(all="ignore"):
            mid = lo + 0.5 * (hi - lo)
        if not (np.all(lo < mid) and np.all(mid < hi)):
            raise ValueError(
                "bounds must satisfy lo < hi at every node, with the midpoint"
                " lo + (hi - lo)/2 strictly between them"
            )


@dataclass
class IpmState:
    """Primal-dual iterate: u between the bounds, multipliers positive."""

    u: NodalField
    v1: NodalField
    v2: NodalField
    mu: float
    iteration: int


# Mehrotra's centering parameter (mu_aff / mu)^3 is clipped to this range
_SIGMA_MIN = 1e-8
_SIGMA_MAX = 1.0


@dataclass
class IpmOptions:
    """Solver knobs; the defaults are the conventions used throughout."""

    mu_tol: float = 1e-10
    resid_tol: float = 1e-8
    max_outer: int = 40
    step_fraction: float = 0.99995
    krylov_tol: float = 1e-8
    krylov_maxit: int = 500
    coarsest_solver: str = "auto"

    def __post_init__(self):
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        if self.krylov_maxit < 1:
            raise ValueError(f"krylov_maxit must be >= 1, got {self.krylov_maxit}")
        for name in ("mu_tol", "resid_tol", "krylov_tol"):
            value = getattr(self, name)
            if not (isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.coarsest_solver not in COARSEST_SOLVERS:
            raise ValueError(f"unknown coarsest solver {self.coarsest_solver!r}")


@dataclass(frozen=True)
class OuterIterationRecord:
    iteration: int
    mu: float
    predictor_iters: int
    corrector_iters: int
    fine_matvecs_cumulative: int
    lambda_w2inf: float


@dataclass(frozen=True)
class IpmResult:
    u: NodalField
    v1: NodalField
    v2: NodalField
    records: tuple
    converged: bool
    mu0: float
    mu_final: float


def _values(state, *fields):
    """Values of u, v1, v2 and of further fields, all on the level of state.u."""
    level_index = state.u.level_index
    return [unwrap(f, level_index) for f in (state.u, state.v1, state.v2, *fields)]


def _check_feasible(u, v1, v2, lo, hi):
    if not np.all(u > lo):
        raise ValueError("iterate violates the lower bound")
    if not np.all(u < hi):
        raise ValueError("iterate violates the upper bound")
    if not (np.all(v1 > 0.0) and np.all(v2 > 0.0)):
        raise ValueError("multipliers must stay strictly positive")


def compute_mu(state, lo, hi):
    """Mehrotra duality measure ((u-lo).v1 + (hi-u).v2) / (2 N)."""
    u, v1, v2, lov, hiv = _values(state, lo, hi)
    return float((u - lov) @ v1 + (hiv - u) @ v2) / (2.0 * u.size)


def kkt_residuals(prob, state, ktwf=None):
    """Pure KKT residuals (mu = 0) of a strictly feasible iterate.

    Returns (r_u, r_v1, r_v2, norms) with Euclidean norms per block.
    r_u = K^T W f - A u - v2 + v1 is the dual feasibility defect, the
    other two blocks measure complementarity against zero.  ktwf, if
    given, is the precomputed K^T W f.
    """
    u, v1, v2, lo, hi = _values(state, prob.lo, prob.hi)
    _check_feasible(u, v1, v2, lo, hi)
    finest = prob.hierarchy.n_levels - 1
    op = prob.operators[finest]
    w = prob.hierarchy.finest.weights
    if ktwf is None:
        ktwf = op.apply_transpose(w * unwrap(prob.f, finest))
    # the two terms of A u are subtracted one at a time: summing them first
    # rounds differently and changes the iterates
    r_u = ktwf - prob.beta * w * u - op.apply_transpose(w * op.apply(u)) - v2 + v1
    r_v1 = -v1 * (u - lo)
    r_v2 = -v2 * (hi - u)
    norms = (
        float(np.linalg.norm(r_u)),
        float(np.linalg.norm(r_v1)),
        float(np.linalg.norm(r_v2)),
    )
    return r_u, r_v1, r_v2, norms


def reduce_to_scaled(prob, state, r_u, r_v1, r_v2):
    """Eliminate the multiplier blocks and rescale; returns (lam, rhs).

    With the complementarity diagonal m = v1/(u-lo) + v2/(hi-u), lam is
    its weighted shift m/w + beta on the finest level, and rhs is
    D_{1/p} W^{-1} (r_u + r_v1/(u-lo) - r_v2/(hi-u)) with p = sqrt(lam),
    so that G du' = rhs and du = D_{1/p} du'.
    """
    u, v1, v2, lo, hi = _values(state, prob.lo, prob.hi)
    _check_feasible(u, v1, v2, lo, hi)
    g1 = u - lo
    g2 = hi - u
    w = prob.hierarchy.finest.weights
    lam_vals = (v1 / g1 + v2 / g2) / w + prob.beta
    rhs = _scaled_rhs(r_u, r_v1, r_v2, g1, g2, w, np.sqrt(lam_vals))
    return NodalField(prob.hierarchy.n_levels - 1, lam_vals), rhs


def _scaled_rhs(r_u, r_v1, r_v2, g1, g2, w, p):
    """D_{1/p} W^{-1} (r_u + r_v1/g1 - r_v2/g2): the rhs of reduce_to_scaled."""
    r = np.asarray(r_u, dtype=float) + np.asarray(r_v1, dtype=float) / g1
    r -= np.asarray(r_v2, dtype=float) / g2
    r /= w
    r /= p
    return r


def recover_full_step(state, du, r_v1, r_v2, lo, hi):
    """Back-substitute du into the eliminated multiplier rows.

    dv1 = (r_v1 - v1 du)/(u - lo) and dv2 = (r_v2 + v2 du)/(hi - u);
    returns the full direction triple (du, dv1, dv2).
    """
    u, v1, v2, lov, hiv = _values(state, lo, hi)
    du = np.asarray(du, dtype=float)
    dv1 = (np.asarray(r_v1, dtype=float) - v1 * du) / (u - lov)
    dv2 = (np.asarray(r_v2, dtype=float) + v2 * du) / (hiv - u)
    return du, dv1, dv2


def step_lengths(state, du, dv1, dv2, lo, hi, tau):
    """Fraction-to-boundary step sizes, primal and dual separately.

    The largest feasible step is found by exact nodewise ratio tests; if
    it exceeds one the full step is taken undamped, otherwise it is
    scaled by tau.  The dual length is joint over both multipliers.
    """
    u, v1, v2, lov, hiv = _values(state, lo, hi)
    du, dv1, dv2 = (np.asarray(d, dtype=float) for d in (du, dv1, dv2))
    ap = min(_max_step(u, du, du < 0.0, lov), _max_step(u, du, du > 0.0, hiv))
    ad = min(_max_step(v1, dv1, dv1 < 0.0), _max_step(v2, dv2, dv2 < 0.0))
    alpha_p = 1.0 if ap > 1.0 else tau * ap
    alpha_d = 1.0 if ad > 1.0 else tau * ad
    return alpha_p, alpha_d


def _max_step(x, dx, toward, bound=None):
    """Largest alpha with x + alpha dx not past bound (0 if None) at the
    nodes where toward holds, i.e. where dx moves x toward the bound; inf
    if there are none.

    The nodes are selected before anything is subtracted, so no temporary
    is longer than the selection.
    """
    gap = x[toward]
    if bound is None:
        np.negative(gap, out=gap)
    else:
        np.subtract(bound[toward], gap, out=gap)
    gap /= dx[toward]
    return gap.min(initial=np.inf)


def _inner_solver(prob, lam, opts):
    """(inner, p): rhs -> (du, report), the scaled inner solve for the
    finest-level lam, unscaled; and p = sqrt(lam) of its finest system.

    One level runs CG on the symmetric G; more levels run CGS with the
    multigrid cycle, whose preconditioner is built here once per call.
    """
    hier = prob.hierarchy
    # the lambdas look g_apply and mg_apply up per call, so a wrapper
    # installed on them is seen
    if hier.n_levels == 1:
        sys = make_scaled_system(prob.operators[-1], lam.values, prob.beta)

        def inner(rhs):
            y, rep = cg(lambda v: g_apply(sys, v), rhs,
                        tol=opts.krylov_tol, maxit=opts.krylov_maxit)
            return y / sys.p, rep

        return inner, sys.p
    mg = build_preconditioner(hier, prob.operators, lam, prob.beta,
                              coarsest_solver=opts.coarsest_solver)
    sys = mg.systems[-1]

    def inner(rhs):
        y, rep = cgs(lambda v: g_apply(sys, v), lambda v: mg_apply(mg, v), rhs,
                     tol=opts.krylov_tol, maxit=opts.krylov_maxit)
        return y / sys.p, rep

    return inner, sys.p


def solve(prob, opts=None):
    """Run the predictor-corrector loop to convergence.

    With a single-level hierarchy the reduced systems are solved by CG on
    the symmetric G; with two or more levels by CGS preconditioned
    with the multigrid cycle, rebuilt once per outer iteration for the
    current lambda.  Terminates when mu <= mu_tol * mu0 and every KKT
    block has dropped below resid_tol relative to its initial norm.
    """
    if opts is None:
        opts = IpmOptions()
    finest = prob.hierarchy.n_levels - 1
    level = prob.hierarchy.finest
    n = level.n_dof
    op = prob.operators[finest]
    lo = unwrap(prob.lo, finest)
    hi = unwrap(prob.hi, finest)

    matvec0 = op.matvec_counter
    ktwf = op.apply_transpose(level.weights * unwrap(prob.f, finest))

    state = IpmState(NodalField(finest, lo + 0.5 * (hi - lo)),
                     NodalField(finest, np.ones(n)), NodalField(finest, np.ones(n)),
                     0.0, 0)
    mu0 = mu = state.mu = compute_mu(state, lo, hi)
    r_u, r_v1, r_v2, norms = kkt_residuals(prob, state, ktwf)
    norms0 = [max(nrm, 1e-300) for nrm in norms]

    records = []
    converged = False
    # every n-vector is dropped after its last use, not at its next binding
    for it in range(1, opts.max_outer + 1):
        lam, rhs = reduce_to_scaled(prob, state, r_u, r_v1, r_v2)
        inner, p = _inner_solver(prob, lam, opts)
        del lam
        lam_w2 = discrete_w2inf(level, 1.0 / p)

        # predictor: pure Newton step toward mu = 0
        du_a, rep_pred = _checked(inner, rhs, it, "predictor")
        _, dv1_a, dv2_a = recover_full_step(state, du_a, r_v1, r_v2, lo, hi)
        del r_v1, r_v2
        ap, ad = step_lengths(state, du_a, dv1_a, dv2_a, lo, hi, 1.0)
        u, v1, v2 = state.u.values, state.v1.values, state.v2.values
        g1 = u - lo
        g2 = hi - u
        mu_aff = float(
            (g1 + ap * du_a) @ (v1 + ad * dv1_a)
            + (g2 - ap * du_a) @ (v2 + ad * dv2_a)
        ) / (2.0 * n)
        sigma = min(_SIGMA_MAX, max(_SIGMA_MIN, (mu_aff / mu) ** 3))

        # corrector: same matrix, centered rhs minus the affine cross terms
        r_v1c = sigma * mu - v1 * g1 - du_a * dv1_a
        r_v2c = sigma * mu - v2 * g2 + du_a * dv2_a
        del du_a, dv1_a, dv2_a
        rhs = _scaled_rhs(r_u, r_v1c, r_v2c, g1, g2, level.weights, p)
        del r_u, g1, g2
        du, rep_corr = _checked(inner, rhs, it, "corrector")
        del rhs, inner  # frees the coarse factorization before the next build
        _, dv1, dv2 = recover_full_step(state, du, r_v1c, r_v2c, lo, hi)
        alpha_p, alpha_d = step_lengths(state, du, dv1, dv2, lo, hi, opts.step_fraction)

        state = IpmState(NodalField(finest, u + alpha_p * du),
                         NodalField(finest, v1 + alpha_d * dv1),
                         NodalField(finest, v2 + alpha_d * dv2),
                         0.0, it)
        del u, v1, v2, du, dv1, dv2, r_v1c, r_v2c
        mu = state.mu = compute_mu(state, lo, hi)
        try:
            r_u, r_v1, r_v2, norms = kkt_residuals(prob, state, ktwf)
        except ValueError as exc:
            # the step lengths keep the exact update strictly feasible; only
            # its rounding lands on a bound, once a gap falls below the
            # spacing of floats there (8.9e-16 at 5) as mu is driven down
            raise RuntimeError(
                f"outer iteration {it}: {exc} after rounding the step (mu {mu:.2e})"
            ) from exc
        records.append(OuterIterationRecord(
            iteration=it,
            mu=mu,
            predictor_iters=rep_pred.iterations,
            corrector_iters=rep_corr.iterations,
            fine_matvecs_cumulative=op.matvec_counter - matvec0,
            lambda_w2inf=lam_w2,
        ))

        rel = max(nrm / nrm0 for nrm, nrm0 in zip(norms, norms0))
        if mu <= opts.mu_tol * mu0 and rel <= opts.resid_tol:
            converged = True
            break

    return IpmResult(
        u=state.u,
        v1=state.v1,
        v2=state.v2,
        records=tuple(records),
        converged=converged,
        mu0=mu0,
        mu_final=mu,
    )


# a direction is still a usable Newton step well above the Krylov target;
# only residuals past this are treated as an inner-solver failure
_USABLE_RESIDUAL = 1e-4


def _checked(inner, rhs, it, tag):
    du, rep = inner(rhs)
    if not rep.converged and not (
        np.isfinite(rep.final_relative_residual)
        and rep.final_relative_residual <= _USABLE_RESIDUAL
    ):
        raise RuntimeError(
            f"inner {tag} solve failed at outer iteration {it}"
            f" (relative residual {rep.final_relative_residual:.2e})"
        )
    return du, rep
