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

The coarsest inverse follows the operator's structure.  Where K^T K has
a factor F (K^T K = F F^T, the operator's normal_rank r is not None),
G = I + B B^T with B = D_{1/p} F is inverted by the Woodbury identity
through the operator's normal_project (F^T y), normal_expand (F z) and
normal_gram (F^T diag(w) F): the set-up Cholesky-factors the r x r core
I_r + normal_gram(1/p^2) = I_r + B^T B, and a solve is
r - normal_expand(core^{-1} normal_project(r/p))/p.  Only the core is
stored, and F is never formed.  Where K = -L^{-1} M with sparse L and M
(the operator's stiffness_band is not None), G = I + Z^T Z with
Z = L^{-1} M D_{1/p}, and the Woodbury identity gives
G^{-1} = I - D_{1/p} M H^{-1} M D_{1/p} with the banded
H = stiffness_band(1/p^2) = L^2 + M D_{1/p}^2 M (half-bandwidth
2 n_cells): the set-up factors H in band storage in place (LAPACK
pbtrf), and a solve is r - M pbtrs(H, M (r/p))/p, its products with the
level's CSR mass_matrix M made by grid.csr_apply.  H squares the
condition number of L, so above BAND_UNREFINED_MAX_DOF nodes the pbtrs
result takes one step of iterative refinement, with H's residual formed
by the operator's stiffness_residual.  Both are exact to roundoff at
every size (a relative G residual of at most 2e-13 measured).  Only an
operator with neither structure (the dense test operators) has its
coarsest G assembled from its normal_matrix (K^T K, materialized once
per operator, since it does not depend on lambda) and LU-factored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg as sla

from mgipm.grid import (
    GridHierarchy,
    NodalField,
    coarsen_lambda,
    csr_apply,
    l2_project,
    prolong,
)
from mgipm.krylov import cg

__all__ = [
    "ScaledSystem",
    "MgPreconditioner",
    "g_apply",
    "build_preconditioner",
    "mg_apply",
]

COARSEST_SOLVERS = ("auto", "cg")

# Largest coarse level whose band solve skips its refinement step (see
# _exact_inverse).  The step makes a solve 2.2 to 2.5 times as long: 12 ->
# 30 us on 16 x 16 cells (225 dof; 14 -> 35 us before csr_apply), which
# made a 2D 32/2 solve 27% slower overall.  Unrefined, the G residual on
# 16 x 16 cells stays at most 2e-13 (refined: 1e-13 where G is stiffest);
# it grows with cond(A)^2, to 6e-13 on 32 x 32 cells, 3e-12 on 64 x 64 and
# 1e-11 late in a two-level solve on 128 x 128 cells (64 x 64 coarse), on
# which the CGS around it can stall at krylov_maxit.
BAND_UNREFINED_MAX_DOF = 225


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

    The coarse inverse is fixed here.  Under "auto" it is exact to
    roundoff and follows the coarsest operator's structure, as the module
    docstring describes: the Woodbury core when its normal_rank is not
    None, else the band when its stiffness_band is not None, else a dense
    LU.  Under "cg" each coarse solve runs unpreconditioned CG to a
    relative residual of 1e-10 instead.

    Raises ValueError for a wrong operator count, fewer than two levels,
    an unknown coarsest_solver, lambda off the finest level, or lambda
    below beta.  Raises RuntimeError when the Woodbury core or the band
    has no finite Cholesky factor (lambda near 0 leaves the core
    indefinite to roundoff, or 1/p^2 overflows).
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
        inverse = _exact_inverse(sys0)
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


def _exact_inverse(sys):
    """r -> G^{-1} r for one level, exact to roundoff (see the module docstring)."""
    # the solves call LAPACK directly: cho_solve and lu_solve add a
    # finiteness scan and shape checks worth about 8 us a call, and a
    # non-finite r ends as a non-finite result, which the Krylov solvers
    # stop on
    op = sys.operator
    p = sys.p
    if op.normal_rank is not None:
        core = op.normal_gram(1.0 / (p * p))
        if not core.size:
            return np.copy  # K^T K = 0, so G = I (and LAPACK takes no 0 x 0)
        core[np.diag_indices_from(core)] += 1.0
        try:
            core, lower = sla.cho_factor(core, overwrite_a=True)
        except ValueError as exc:  # LinAlgError included
            raise RuntimeError(f"coarse Woodbury core has no Cholesky factor: {exc}") from exc
        potrs, = sla.get_lapack_funcs(("potrs",), (core,))

        def solve(r):
            q = p if r.ndim == 1 else p[:, None]
            z = potrs(core, op.normal_project(r / q), lower=lower)[0]
            return r - op.normal_expand(z) / q

        return solve
    if op.stiffness_band is not None:
        w = 1.0 / (p * p)
        band = op.stiffness_band(w)
        pbtrf, pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
        band, info = pbtrf(band, lower=1, overwrite_ab=1)
        if info or not np.isfinite(band[0]).all():
            raise RuntimeError(
                f"coarse band core has no finite Cholesky factor (pbtrf info {info})")
        mass = op.level.mass_matrix
        refine = p.size > BAND_UNREFINED_MAX_DOF

        def solve(r):
            q = p if r.ndim == 1 else p[:, None]
            b = csr_apply(mass, r / q)
            z = pbtrs(band, b, lower=1, overwrite_b=not refine)[0]
            if refine:
                # b - H z = c - L^2 z with c = b - M D^2 M z
                d2mz = csr_apply(mass, z) * (w if r.ndim == 1 else w[:, None])
                c = b - csr_apply(mass, d2mz)
                z += pbtrs(band, op.stiffness_residual(c, z), lower=1, overwrite_b=1)[0]
            return r - csr_apply(mass, z) / q

        return solve
    # no structure: one Fortran-ordered array, scaled and LU-factored in place
    n = p.size
    dinv = 1.0 / p
    G = np.multiply(op.normal_matrix, dinv[:, None], order="F")
    G *= dinv[None, :]
    G[np.arange(n), np.arange(n)] += 1.0
    lu, piv = sla.lu_factor(G, overwrite_a=True)
    getrs, = sla.get_lapack_funcs(("getrs",), (lu,))
    return lambda r: getrs(lu, piv, r)[0]


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
    if i == 0:
        return mg.coarse_solve(r_vals)
    hier = mg.hierarchy
    rf = NodalField(i, r_vals)
    pr = l2_project(hier, rf)
    coarse = NodalField(i - 1, _cycle(mg, pr.values, i - 1))
    u = r_vals - prolong(hier, pr).values + prolong(hier, coarse).values
    if i < mg.n_levels - 1:
        r1 = r_vals - g_apply(mg.systems[i], u)
        pr1 = l2_project(hier, NodalField(i, r1))
        coarse1 = NodalField(i - 1, _cycle(mg, pr1.values, i - 1))
        u = u + r1 - prolong(hier, pr1).values + prolong(hier, coarse1).values
    return u
