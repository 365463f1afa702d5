"""Two-grid and W-cycle preconditioners for the scaled inner systems.

The inner system of each interior-point iteration is, after diagonal
scaling, G = I + D_{1/p} K^T K D_{1/p} with p = sqrt(lambda).  On the
uniform grids of this package the lumped weight is one number per level,
so the weighted adjoint of K is its transpose and G is symmetric and >= I
in the plain Euclidean product.  The preconditioner replaces G^{-1} by an
exact coarsest-level inverse propagated up through the hierarchy: the
smooth component of a residual is solved coarsely, the rough remainder is
left untouched (G acts nearly as the identity there), and intermediate
levels sharpen the map with one Newton step 2M - M G M, applied
procedurally as two recursive corrections.

How the coarsest level is inverted depends only on the structure of
K^T K, so it belongs to the operator: under "auto" the preconditioner
takes the coarsest operator's scaled_inverse(p), exact to roundoff (see
mgipm.operators); under "cg" it runs unpreconditioned CG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from mgipm.grid import GridHierarchy, NodalField, coarsen_lambda, l2_project, prolong
from mgipm.krylov import cg

__all__ = [
    "ScaledSystem",
    "MgPreconditioner",
    "g_apply",
    "build_preconditioner",
    "mg_apply",
]

COARSEST_SOLVERS = ("auto", "cg")


@dataclass
class ScaledSystem:
    """One level's scaled inner system G = I + D_{1/p} K^T K D_{1/p}."""

    operator: object
    p: np.ndarray


def make_scaled_system(operator, lam_values, beta):
    vals = np.asarray(lam_values, dtype=float)
    if np.any(vals < beta * (1.0 - 1e-12)) or np.any(vals <= 0.0):
        raise ValueError(
            f"lambda must stay >= beta={beta} (min found {vals.min():.3e})"
        )
    return ScaledSystem(operator, np.sqrt(vals))


def g_apply(sys, u):
    """Apply G to a vector or an n x k block; 2 operator applies per column."""
    op = sys.operator
    p = sys.p if u.ndim == 1 else sys.p[:, None]
    # u + K^T K (u/p) / p, accumulated in the fresh K^T output
    out = op.apply_transpose(op.apply(u / p))
    out /= p
    out += u
    return out


@dataclass
class MgPreconditioner:
    """Scaled systems per level plus the coarsest-level inverse r -> G_0^{-1} r."""

    hierarchy: GridHierarchy
    systems: list
    coarse_inverse: object = field(repr=False)

    @property
    def n_levels(self):
        return len(self.systems)

    def coarse_solve(self, r):
        return self.coarse_inverse(r)


def build_preconditioner(hierarchy, operators, lam, beta, coarsest_solver="auto"):
    """Assemble the preconditioner for a given finest-level lambda.

    operators lists one forward operator per hierarchy level, coarsest
    first.  lam lives on the finest level and is moved down by discarding
    fine-node values; every level must keep lambda >= beta > 0.

    The coarse inverse is fixed here.  Under "auto" it is the coarsest
    operator's scaled_inverse(p), exact to roundoff.  Under "cg" each
    coarse solve runs unpreconditioned CG to a relative residual of 1e-10
    instead.

    Raises ValueError for a wrong operator count, fewer than two levels,
    an unknown coarsest_solver, lambda off the finest level, or lambda
    below beta.  Under "auto", scaled_inverse raises RuntimeError when
    its Woodbury core or band has no finite Cholesky factor (lambda near
    0 leaves the core indefinite to roundoff, or 1/p^2 overflows).
    """
    if len(operators) != hierarchy.n_levels:
        raise ValueError(
            f"need one operator per level: {len(operators)} vs {hierarchy.n_levels}"
        )
    if hierarchy.n_levels < 2:
        raise ValueError("preconditioner needs at least two levels")
    if coarsest_solver not in COARSEST_SOLVERS:
        raise ValueError(f"unknown coarsest solver {coarsest_solver!r}")
    finest = hierarchy.n_levels - 1
    if lam.level_index != finest:
        raise ValueError("lambda must live on the finest level")

    lams = [lam]
    for _ in range(finest):
        lams.append(coarsen_lambda(hierarchy, lams[-1]))
    lams.reverse()
    systems = [
        make_scaled_system(op, lm.values, beta) for op, lm in zip(operators, lams)
    ]

    sys0 = systems[0]
    if coarsest_solver == "auto":
        inverse = sys0.operator.scaled_inverse(sys0.p)
    else:
        inverse = partial(_coarse_cg, sys0)
    return MgPreconditioner(hierarchy, systems, inverse)


def _coarse_cg(sys, r):
    """r -> G^{-1} r by unpreconditioned CG to a relative residual of 1e-10."""
    # cg and g_apply are looked up per call, so a wrapper installed on them
    # is seen
    z, report = cg(lambda v: g_apply(sys, v), r, tol=1e-10, maxit=5000)
    if not report.converged:
        raise RuntimeError(
            f"coarsest-level CG stalled at {report.final_relative_residual:.2e}"
        )
    return z


def mg_apply(mg, r):
    """W-cycle application of the multilevel approximate inverse.

    On two levels this is the two-grid map S r = r - J Pi r + J G_0^{-1} Pi r:
    the rough part of r plus the interpolated exact coarse solve.  The
    coarsest level solves exactly; every intermediate level improves
    the interpolated coarse map M with one Newton step 2M - M G M,
    realized as a second recursive correction of the residual
    r1 = r - G u; the finest level applies the map once and never
    evaluates its own G (no finest-level operator applications).
    """
    return _cycle(mg, r, mg.n_levels - 1)


def _cycle(mg, r_vals, i):
    """The W-cycle from level i, computed in place; r_vals is left as it is.

    Level i returns u = r - J Pi r + J cycle(Pi r) and, on an intermediate
    level, then u + r1 - J Pi r1 + J cycle(Pi r1) with r1 = r - G u.  Each
    sum is taken left to right in a fresh array (r1 in g_apply's output,
    each correction in its first prolongation's), so the results carry the
    bits of those out-of-place formulas.
    """
    if i == 0:
        return mg.coarse_solve(r_vals)
    u = _correction(mg, r_vals, r_vals, i)
    if i < mg.n_levels - 1:
        r1 = g_apply(mg.systems[i], u)
        np.subtract(r_vals, r1, out=r1)
        u += r1
        u = _correction(mg, u, r1, i)
    return u


def _correction(mg, base, r, i):
    """base - J Pi r + J cycle(Pi r), summed left to right in the fresh J Pi r."""
    hier = mg.hierarchy
    pr = l2_project(hier, NodalField(i, r))
    coarse = NodalField(i - 1, _cycle(mg, pr.values, i - 1))
    out = prolong(hier, pr).values
    del pr  # half a block fewer while J cycle(Pi r) is formed
    np.subtract(base, out, out=out)
    out += prolong(hier, coarse).values
    return out
