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

import numpy as np

from mgipm.grid import GridHierarchy, NodalField, discrete_w2inf, unwrap
from mgipm.krylov import LinearOperatorHandle, cg, cgs
from mgipm.precond import (
    build_preconditioner,
    g_apply,
    make_scaled_system,
    mg_apply,
    symmetrized_g_handle,
)

__all__ = [
    "ControlProblem",
    "IpmOptions",
    "IpmState",
    "IpmResult",
    "OuterIterationRecord",
    "ReducedSystem",
    "hessian_apply",
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
    must hold strictly at every node.
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
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        lo = np.asarray(self.lo.values, dtype=float)
        hi = np.asarray(self.hi.values, dtype=float)
        if not np.all(lo < hi):
            raise ValueError("bounds must satisfy lo < hi at every node")


@dataclass
class IpmState:
    """Primal-dual iterate: u between the bounds, multipliers positive."""

    u: NodalField
    v1: NodalField
    v2: NodalField
    mu: float
    iteration: int


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
    coarsest_tol: float = 1e-10
    sigma_min: float = 1e-8
    sigma_max: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")


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


@dataclass(frozen=True)
class ReducedSystem:
    """Inputs of the scaled inner solve for one outer iteration."""

    m: np.ndarray
    lam: NodalField
    p: np.ndarray
    rhs: np.ndarray


def _values(state, *fields):
    """Values of u, v1, v2 and of further fields, all on the level of state.u."""
    level_index = state.u.level_index
    return [unwrap(f, level_index)[0] for f in (state.u, state.v1, state.v2, *fields)]


def _check_feasible(u, v1, v2, lo, hi):
    if not (np.all(u > lo) and np.all(u < hi)):
        raise ValueError("iterate violates the bounds")
    if not (np.all(v1 > 0.0) and np.all(v2 > 0.0)):
        raise ValueError("multipliers must stay strictly positive")


def hessian_apply(prob, u):
    """A u = beta W u + K^T W K u, two operator applications."""
    finest = prob.hierarchy.n_levels - 1
    op = prob.operators[finest]
    w = prob.hierarchy.finest.weights
    vals, wrap = unwrap(u, finest)
    out = prob.beta * w * vals + op.apply_transpose(w * op.apply(vals))
    return NodalField(finest, out) if wrap else out


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
        ktwf = op.apply_transpose(w * unwrap(prob.f, finest)[0])
    # the two terms of A u are subtracted one at a time: summing them first,
    # as hessian_apply does, rounds differently and changes the iterates
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
    """Eliminate the multiplier blocks and rescale.

    m = v1/(u-lo) + v2/(hi-u) collects the complementarity diagonal,
    lambda = m/w + beta its weighted shift, and the returned rhs is
    D_{1/p} W^{-1} (r_u + r_v1/(u-lo) - r_v2/(hi-u)) with p = sqrt(lambda),
    so that G du' = rhs and du = D_{1/p} du'.
    """
    u, v1, v2, lo, hi = _values(state, prob.lo, prob.hi)
    _check_feasible(u, v1, v2, lo, hi)
    g1 = u - lo
    g2 = hi - u
    w = prob.hierarchy.finest.weights
    m = v1 / g1 + v2 / g2
    lam_vals = m / w + prob.beta
    p = np.sqrt(lam_vals)
    r = np.asarray(r_u, dtype=float) + np.asarray(r_v1, dtype=float) / g1
    r = r - np.asarray(r_v2, dtype=float) / g2
    rhs = (r / w) / p
    return ReducedSystem(m, NodalField(prob.hierarchy.n_levels - 1, lam_vals), p, rhs)


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
    ap = _max_primal_step(u, lov, hiv, np.asarray(du, dtype=float))
    ad = _max_dual_step(v1, v2, np.asarray(dv1, dtype=float), np.asarray(dv2, dtype=float))
    alpha_p = 1.0 if ap > 1.0 else tau * ap
    alpha_d = 1.0 if ad > 1.0 else tau * ad
    return alpha_p, alpha_d


def _max_primal_step(u, lo, hi, du):
    amax = np.inf
    neg = du < 0.0
    if np.any(neg):
        amax = min(amax, np.min((u[neg] - lo[neg]) / -du[neg]))
    pos = du > 0.0
    if np.any(pos):
        amax = min(amax, np.min((hi[pos] - u[pos]) / du[pos]))
    return amax


def _max_dual_step(v1, v2, dv1, dv2):
    amax = np.inf
    for v, dv in ((v1, dv1), (v2, dv2)):
        neg = dv < 0.0
        if np.any(neg):
            amax = min(amax, np.min(v[neg] / -dv[neg]))
    return amax


def _inner_solver(prob, red, opts):
    """rhs -> (du, report): the scaled inner solve for red's lambda, unscaled.

    One level runs CG on the symmetrized G; more levels run CGS with the
    multigrid cycle, whose preconditioner is built here once per call.
    """
    hier = prob.hierarchy
    finest = hier.n_levels - 1
    level = hier.finest
    p = red.p
    if hier.n_levels == 1:
        sys = make_scaled_system(
            finest, level, prob.operators[finest], red.lam, prob.beta
        )
        handle = symmetrized_g_handle(sys)
        sqw = np.sqrt(level.weights)

        def inner(rhs):
            y, rep = cg(handle, sqw * rhs, tol=opts.krylov_tol, maxit=opts.krylov_maxit)
            return (y / sqw) / p, rep

        return inner
    mg = build_preconditioner(
        hier, prob.operators, red.lam, prob.beta,
        coarsest_solver=opts.coarsest_solver,
        coarsest_tol=opts.coarsest_tol,
    )
    sys = mg.systems[-1]
    gh = LinearOperatorHandle(level.n_dof, lambda v: g_apply(sys, v))
    ph = LinearOperatorHandle(level.n_dof, lambda v: mg_apply(mg, v))

    def inner(rhs):
        y, rep = cgs(gh, ph, rhs, tol=opts.krylov_tol, maxit=opts.krylov_maxit)
        return y / p, rep

    return inner


def solve(prob, opts=None):
    """Run the predictor-corrector loop to convergence.

    With a single-level hierarchy the reduced systems are solved by CG on
    the symmetrized form; with two or more levels by CGS preconditioned
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
    lo = unwrap(prob.lo, finest)[0]
    hi = unwrap(prob.hi, finest)[0]

    matvec0 = op.matvec_counter
    ktwf = op.apply_transpose(level.weights * unwrap(prob.f, finest)[0])

    state = IpmState(NodalField(finest, lo + 0.5 * (hi - lo)),
                     NodalField(finest, np.ones(n)), NodalField(finest, np.ones(n)),
                     0.0, 0)
    mu0 = mu = state.mu = compute_mu(state, lo, hi)
    r_u, r_v1, r_v2, norms = kkt_residuals(prob, state, ktwf)
    norms0 = [max(nrm, 1e-300) for nrm in norms]

    records = []
    converged = False
    for it in range(1, opts.max_outer + 1):
        u, v1, v2 = state.u.values, state.v1.values, state.v2.values
        g1 = u - lo
        g2 = hi - u
        red = reduce_to_scaled(prob, state, r_u, r_v1, r_v2)
        lam_w2 = discrete_w2inf(level, 1.0 / red.p)
        inner = _inner_solver(prob, red, opts)

        # predictor: pure Newton step toward mu = 0
        du_a, rep_pred = _checked(inner, red.rhs, it, "predictor")
        _, dv1_a, dv2_a = recover_full_step(state, du_a, r_v1, r_v2, lo, hi)
        ap, ad = step_lengths(state, du_a, dv1_a, dv2_a, lo, hi, 1.0)
        mu_aff = float(
            (g1 + ap * du_a) @ (v1 + ad * dv1_a)
            + (g2 - ap * du_a) @ (v2 + ad * dv2_a)
        ) / (2.0 * n)
        sigma = min(opts.sigma_max, max(opts.sigma_min, (mu_aff / mu) ** 3))

        # corrector: same matrix, centered rhs minus the affine cross terms
        r_v1c = sigma * mu - v1 * g1 - du_a * dv1_a
        r_v2c = sigma * mu - v2 * g2 + du_a * dv2_a
        rhs_c = reduce_to_scaled(prob, state, r_u, r_v1c, r_v2c).rhs
        du, rep_corr = _checked(inner, rhs_c, it, "corrector")
        _, dv1, dv2 = recover_full_step(state, du, r_v1c, r_v2c, lo, hi)
        alpha_p, alpha_d = step_lengths(state, du, dv1, dv2, lo, hi, opts.step_fraction)

        state = IpmState(NodalField(finest, u + alpha_p * du),
                         NodalField(finest, v1 + alpha_d * dv1),
                         NodalField(finest, v2 + alpha_d * dv2),
                         0.0, it)
        mu = state.mu = compute_mu(state, lo, hi)
        r_u, r_v1, r_v2, norms = kkt_residuals(prob, state, ktwf)
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
