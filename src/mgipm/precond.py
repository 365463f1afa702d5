"""Two-grid and W-cycle preconditioners for the scaled inner systems.

The inner system of each interior-point iteration is, after diagonal
scaling, G = I + D_{1/p} K^{*h} K D_{1/p} with p = sqrt(lambda) and K^{*h}
the weighted adjoint of the forward operator.  G is self-adjoint and >= I
in the lumped inner product.  The preconditioner replaces G^{-1} by an
exact coarsest-level inverse propagated up through the hierarchy: the
smooth component of a residual is solved coarsely, the rough remainder is
left untouched (G acts nearly as the identity there), and intermediate
levels sharpen the map with one Newton step 2M - M G M, applied
procedurally as two recursive corrections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from mgipm.grid import (
    GridHierarchy,
    GridLevel,
    NodalField,
    coarsen_lambda,
    inner_h,
    l2_project,
    norm_h,
    prolong,
    unwrap,
)
from mgipm.krylov import LinearOperatorHandle, cg, materialize_columns

__all__ = [
    "ScaledSystem",
    "MgPreconditioner",
    "g_apply",
    "symmetrized_g_handle",
    "build_preconditioner",
    "two_grid_apply",
    "mg_apply",
    "spectral_radius_estimate",
    "materialize_g",
]

DENSE_COARSE_LIMIT = 2048


@dataclass
class ScaledSystem:
    """One level's scaled inner system G = I + D_{1/p} K^{*h} K D_{1/p}."""

    level_index: int
    level: GridLevel
    operator: object
    lam: NodalField
    p: np.ndarray
    beta: float


def make_scaled_system(level_index, level, operator, lam, beta):
    vals = np.asarray(lam.values, dtype=float)
    if np.any(vals < beta * (1.0 - 1e-12)) or np.any(vals <= 0.0):
        raise ValueError(
            f"lambda must stay >= beta={beta} (min found {vals.min():.3e})"
        )
    return ScaledSystem(level_index, level, operator, lam, np.sqrt(vals), beta)


def g_apply(sys, u):
    """Apply G once; costs exactly two forward-operator applications."""
    vals, wrap = unwrap(u, sys.level_index)
    w = sys.level.weights
    t = sys.operator.apply(vals / sys.p)
    t = sys.operator.apply_transpose(w * t) / w
    out = vals + t / sys.p
    return NodalField(sys.level_index, out) if wrap else out


def symmetrized_g_handle(sys):
    """G conjugated by W^{1/2}: Euclidean-symmetric, SPD, suitable for CG."""
    sqw = np.sqrt(sys.level.weights)

    def apply(v):
        return sqw * g_apply(sys, v / sqw)

    return LinearOperatorHandle(sys.level.n_dof, apply)


def materialize_g(sys):
    """Dense matrix of G, column by column.  Small levels only."""
    return materialize_columns(lambda e: g_apply(sys, e), sys.level.n_dof)


@dataclass
class MgPreconditioner:
    """Scaled systems per level plus a prepared coarsest-level inverse."""

    hierarchy: GridHierarchy
    systems: list
    coarsest_solver: str
    coarsest_tol: float
    _coarse_lu: object = field(default=None, repr=False)
    coarse_cg_iterations: int = 0

    @property
    def n_levels(self):
        return len(self.systems)

    def coarse_solve(self, r):
        if self._coarse_lu is not None:
            return sla.lu_solve(self._coarse_lu, r)
        sys0 = self.systems[0]
        sqw = np.sqrt(sys0.level.weights)
        handle = symmetrized_g_handle(sys0)
        z, report = cg(handle, sqw * r, tol=self.coarsest_tol, maxit=5000)
        if not report.converged:
            raise RuntimeError(
                f"coarsest-level CG stalled at {report.final_relative_residual:.2e}"
            )
        self.coarse_cg_iterations += report.iterations
        return z / sqw


def build_preconditioner(
    hierarchy,
    operators,
    lam,
    beta,
    coarsest_solver="auto",
    coarsest_tol=1e-10,
):
    """Assemble the preconditioner for a given finest-level lambda.

    operators lists one forward operator per hierarchy level, coarsest
    first.  lam lives on the finest level and is moved down by discarding
    fine-node values; every level must keep lambda >= beta > 0.  The
    coarsest G is inverted densely (LU of its materialization) up to 2048
    dof, by unpreconditioned CG at coarsest_tol above that; "dense" or
    "cg" force the choice.  The coarsest K^{*h}K does not depend on
    lambda and is materialized once per operator (its normal_matrix).
    """
    if len(operators) != hierarchy.n_levels:
        raise ValueError(
            f"need one operator per level: {len(operators)} vs {hierarchy.n_levels}"
        )
    if hierarchy.n_levels < 2:
        raise ValueError("preconditioner needs at least two levels")
    finest = hierarchy.n_levels - 1
    if lam.level_index != finest:
        raise ValueError("lambda must live on the finest level")

    lams = [lam]
    for _ in range(finest):
        lams.append(coarsen_lambda(hierarchy, lams[-1]))
    lams.reverse()
    systems = [
        make_scaled_system(i, hierarchy.levels[i], operators[i], lams[i], beta)
        for i in range(hierarchy.n_levels)
    ]

    n0 = hierarchy.levels[0].n_dof
    if coarsest_solver == "auto":
        coarsest_solver = "dense" if n0 <= DENSE_COARSE_LIMIT else "cg"
    if coarsest_solver not in ("dense", "cg"):
        raise ValueError(f"unknown coarsest solver {coarsest_solver!r}")

    lu = None
    if coarsest_solver == "dense":
        sys0 = systems[0]
        dinv = 1.0 / sys0.p
        G0 = dinv[:, None] * sys0.operator.normal_matrix * dinv[None, :]
        G0[np.arange(n0), np.arange(n0)] += 1.0
        lu = sla.lu_factor(G0)

    return MgPreconditioner(hierarchy, systems, coarsest_solver, coarsest_tol, lu)


def two_grid_apply(mg, r):
    """S r = rough part of r plus the interpolated exact coarse solve."""
    if mg.n_levels != 2:
        raise ValueError("two_grid_apply needs a two-level preconditioner")
    vals, wrap = unwrap(r, 1)
    out = _cycle(mg, vals, 1)
    return NodalField(1, out) if wrap else out


def mg_apply(mg, r):
    """W-cycle application of the multilevel approximate inverse.

    The coarsest level solves exactly; every intermediate level improves
    the interpolated coarse map M with one Newton step 2M - M G M,
    realized as a second recursive correction of the residual
    r1 = r - G u; the finest level applies the map once and never
    evaluates its own G (no finest-level operator applications).
    """
    finest = mg.n_levels - 1
    vals, wrap = unwrap(r, finest)
    out = _cycle(mg, vals, finest)
    return NodalField(finest, out) if wrap else out


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


def spectral_radius_estimate(mg, sys, n_iters=40, seed=0):
    """Power-iteration estimate of rho(I - S G) on the finest level.

    Meant for the dense-comparison regime (n_dof <= 1000).  The iteration
    deflates the mean component, which otherwise drifts under roundoff,
    and averages the last two growth factors to damp alternating modes.
    """
    n = sys.level.n_dof
    if n > 1000:
        raise ValueError(f"spectral estimate is for n_dof <= 1000, got {n}")
    rng = np.random.default_rng(seed)
    level = sys.level
    z = NodalField(sys.level_index, rng.standard_normal(n))

    def deflate(f):
        ones = NodalField(sys.level_index, np.ones(n))
        c = inner_h(level, f, ones) / inner_h(level, ones, ones)
        return NodalField(sys.level_index, f.values - c)

    z = deflate(z)
    z = NodalField(sys.level_index, z.values / norm_h(level, z))
    ratios = []
    for _ in range(n_iters):
        t = mg_apply(mg, g_apply(sys, z))
        nxt = NodalField(sys.level_index, z.values - t.values)
        nxt = deflate(nxt)
        nrm = norm_h(level, nxt)
        if nrm == 0.0:
            return 0.0
        ratios.append(nrm)
        z = NodalField(sys.level_index, nxt.values / nrm)
    if len(ratios) >= 2:
        return float(np.sqrt(ratios[-1] * ratios[-2]))
    return float(ratios[-1])
