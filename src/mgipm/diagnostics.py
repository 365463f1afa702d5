"""Dense spectral diagnostics for the two-grid preconditioner.

Everything here materializes small operators as full matrices and studies
the generalized spectrum of (G_h, N_h), where N_h is the two-grid
approximation of G_h.  The headline quantity is the spectral distance
surrogate d_h = max |ln Re(alpha)| over that spectrum, which contracts at
a fourth-order rate per grid doubling once the profile driving lambda is
resolved; the table builder below reports it together with the observed
rates and a check that the spectrum stayed (numerically) real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from mgipm.grid import NodalField, build_hierarchy, l2_project, node_coordinates, prolong
from mgipm.krylov import materialize_columns
from mgipm.precond import make_scaled_system, materialize_g

__all__ = [
    "SpectralReport",
    "materialize",
    "eigenvalues",
    "two_grid_cell",
    "spectral_distance_table",
    "lemma_a2_check",
]

DENSE_LIMIT = 2048


@dataclass(frozen=True)
class SpectralReport:
    """One (h, beta) cell of the spectral distance table."""

    h: float
    beta: float
    d_h: float
    rate_vs_previous: float
    max_imag_ratio: float


def materialize(op, n):
    """Dense n-by-n matrix of a linear map, one basis vector at a time.

    op may be a callable on vectors or any object with an .apply method.
    Guarded to n <= 2048; this is strictly a diagnostic path.
    """
    if n > DENSE_LIMIT:
        raise ValueError(f"materialize limited to {DENSE_LIMIT} dof, got {n}")
    return materialize_columns(op.apply if hasattr(op, "apply") else op, n)


def eigenvalues(a):
    """Full spectrum of a dense matrix (balanced Hessenberg QR)."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    if a.shape[0] > DENSE_LIMIT:
        raise ValueError(f"eigenvalues limited to {DENSE_LIMIT} dof")
    return sla.eigvals(a)


def two_grid_cell(op_builder, lambda_rule, n_cells, beta):
    """Assemble the dense pair (G, N) for one fine resolution.

    op_builder(level, level_index) supplies the forward operator per
    level; lambda_rule maps node coordinates to the beta-independent part
    of the diagonal profile, so the cell uses lambda = rule(x) + beta on
    both grids (coarse nodes sample the same rule, which coincides with
    discarding fine values).  Returns (hierarchy, G, N).
    """
    hier = build_hierarchy("periodic-interval", n_cells // 2, 2)
    fine, coarse = hier.levels[1], hier.levels[0]
    ops = [op_builder(coarse, 0), op_builder(fine, 1)]
    lam_f = NodalField(1, np.asarray(lambda_rule(node_coordinates(fine)), dtype=float) + beta)
    lam_c = NodalField(0, np.asarray(lambda_rule(node_coordinates(coarse)), dtype=float) + beta)
    sys_f = make_scaled_system(1, fine, ops[1], lam_f, beta)
    sys_c = make_scaled_system(0, coarse, ops[0], lam_c, beta)
    g = materialize_g(sys_f)
    g2 = materialize_g(sys_c)
    nf, nc = fine.n_dof, coarse.n_dof
    j = prolong(hier, NodalField(0, np.eye(nc))).values
    pi = l2_project(hier, NodalField(1, np.eye(nf))).values
    n_mat = (np.eye(nf) - j @ pi) + j @ g2 @ pi
    return hier, g, n_mat


def _cell_spectrum(g, n_mat):
    alpha = eigenvalues(sla.solve(n_mat, g))
    re = alpha.real
    if np.any(re <= 0.0):
        raise ValueError("generalized spectrum left the right half line")
    d = float(np.max(np.abs(np.log(re))))
    imag_ratio = float(np.max(np.abs(alpha.imag) / np.abs(alpha)))
    return alpha, d, imag_ratio


def spectral_distance_table(op_builder, lambda_rule,
                            h_list=(1 / 80, 1 / 160, 1 / 320, 1 / 640),
                            beta_list=(1.0, 0.1, 0.01)):
    """d_h over a grid of resolutions and regularization weights.

    Rows are grouped by beta, finest last within each group; the rate
    entry of a row is d_{2h}/d_h against the preceding row of the same
    group (nan on the first).  max_imag_ratio records how far the
    computed spectrum strays from the real line; it is reported, never
    truncated away.
    """
    reports = []
    for beta in beta_list:
        prev = None
        for h in h_list:
            n_cells = round(1.0 / h)
            _, g, n_mat = two_grid_cell(op_builder, lambda_rule, n_cells, beta)
            _, d, imag_ratio = _cell_spectrum(g, n_mat)
            if prev is None:
                rate = float("nan")
            elif d == 0.0:
                # degenerate cells (an exact preconditioner) have no rate
                rate = float("nan") if prev == 0.0 else float("inf")
            else:
                rate = prev / d
            reports.append(SpectralReport(h, beta, d, rate, imag_ratio))
            prev = d
    return reports


def lemma_a2_check(g, n_mat):
    """Spectral radius of the preconditioned error versus its bound.

    For S = N^{-1}, the iteration matrix I - S G has spectral radius
    max |1 - alpha| over the generalized spectrum, which the spectral
    distance controls through rho <= ((e^d - 1)/d) * d = e^d - 1.
    Returns (lhs, rhs) and raises if the inequality fails beyond a 1e-6
    slack.
    """
    alpha, d, _ = _cell_spectrum(g, n_mat)
    lhs = float(np.max(np.abs(1.0 - alpha)))
    rhs = float(np.expm1(d))
    if lhs > rhs * (1.0 + 1e-6):
        raise ValueError(
            f"spectral-radius bound violated: {lhs:.6e} > {rhs:.6e}"
        )
    return lhs, rhs
