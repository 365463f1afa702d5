"""Spectral diagnostics for the two-grid preconditioner.

The quantity studied is the spectrum of S_h G_h, where S_h is the solver's
own two-grid map (precond.mg_apply on two levels) and G_h the scaled inner
system.  Its eigenvalues form the generalized spectrum of (G_h, N_h) with
N_h = S_h^{-1}.  No n x n matrix is formed: with G = I + B_1 B_1^T and
range(S - I) inside J range(B_0) (B_i the scaled normal factors of the two
levels, J the prolongation), S G - I maps into V = span[B_1, J B_0], so the
spectrum is that of the k x k compression of S G to V plus n - k unit
eigenvalues.  An operator gives its factor only as the map z -> F z
(normal_expand), so F is that map applied to the identity.  The headline
quantity is the spectral distance surrogate
d_h = max |ln Re(alpha)| over that spectrum, which contracts at a
fourth-order rate per grid doubling once the profile driving lambda is
resolved; the table builder below reports it together with the observed
rates and a check that the spectrum stayed (numerically) real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from mgipm import precond
from mgipm.grid import NodalField, build_hierarchy, node_coordinates, prolong
from mgipm.precond import build_preconditioner, mg_apply

__all__ = [
    "SpectralReport",
    "eigenvalues",
    "two_grid_cell",
    "spectral_distance_table",
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


def eigenvalues(a):
    """Full spectrum of a dense matrix (balanced Hessenberg QR)."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    if a.shape[0] > DENSE_LIMIT:
        raise ValueError(f"eigenvalues limited to {DENSE_LIMIT} dof")
    return sla.eigvals(a)


def two_grid_cell(op_builder, lambda_rule, n_cells, beta):
    """Compression C of S G to the subspace where it differs from I.

    op_builder(level, level_index) supplies the forward operator per
    level, each with a factor F_i of K^T K = F_i F_i^T (normal_rank r_i,
    not None); lambda_rule maps node coordinates to the beta-independent
    part of the diagonal profile, so the fine grid uses
    lambda = rule(x) + beta and the preconditioner moves it to the coarse
    grid by discarding fine values (the coarse samples of the rule, bit
    for bit).  S is the solver's two-grid map.

    With F_i = normal_expand(I_{r_i}) and B_i = F_i / p_i,
    G - I = B_1 B_1^T and S - I = J (G_0^{-1} - I) Pi has its range in
    J range(B_0), so S G - I maps into V = span[B_1, J B_0].  Q is an
    orthonormal basis of a space holding V (reduced QR,
    k = min(n, r_1 + r_0) columns); S G leaves it invariant
    and C = I + Q^T (S (G Q) - Q) is k x k.  The spectrum of S G is that of
    C plus n - k unit eigenvalues.  Costs 2k fine operator applies in one
    block call of g_apply on Q (one apply counted per column).
    Returns (hierarchy, C).  Raises ValueError for an odd cell count, an
    operator without a normal_rank, or k > DENSE_LIMIT (before any QR or
    apply).
    """
    if n_cells % 2:
        raise ValueError(f"two-grid cell needs an even cell count, got {n_cells}")
    hier = build_hierarchy("periodic-interval", n_cells // 2, 2)
    ops = [op_builder(level, i) for i, level in enumerate(hier.levels)]
    if any(op.normal_rank is None for op in ops):
        raise ValueError("two-grid cell needs operators with a normal_rank")
    k = min(hier.finest.n_dof, sum(op.normal_rank for op in ops))
    if k > DENSE_LIMIT:
        raise ValueError(f"two-grid cell at 1/h = {n_cells} compresses to k = {k}"
                         f" dof; eigenvalues limited to {DENSE_LIMIT}")
    rule = np.asarray(lambda_rule(node_coordinates(hier.finest)), dtype=float)
    mg = build_preconditioner(hier, ops, NodalField(1, rule + beta), beta)
    b0, b1 = (op.normal_expand(np.eye(op.normal_rank)) for op in ops)
    b0 /= mg.systems[0].p[:, None]
    b1 /= mg.systems[1].p[:, None]
    jb0 = prolong(hier, NodalField(0, b0)).values
    q = np.linalg.qr(np.hstack([b1, jb0]))[0]
    # looked up on precond per call, so a wrapper installed there is seen
    gq = precond.g_apply(mg.systems[1], q)
    c = q.T @ (mg_apply(mg, gq) - q)
    c[np.diag_indices_from(c)] += 1.0
    return hier, c


def _cell_spectrum(c):
    # the n - k unit eigenvalues left out of C add 0 to every maximum,
    # which also covers k = 0
    alpha = eigenvalues(c)
    re = alpha.real
    if np.any(re <= 0.0):
        # roundoff, not a bad argument: a solver failure
        raise RuntimeError(
            f"generalized spectrum left the right half line (min Re {re.min():.3e})"
        )
    d = float(np.max(np.abs(np.log(re)), initial=0.0))
    imag_ratio = float(np.max(np.abs(alpha.imag) / np.abs(alpha), initial=0.0))
    return alpha, d, imag_ratio


def _cell_count(h):
    # a non-positive or non-finite h (or 1/h) maps to 0 and fails the test
    inv = 1.0 / h if h > 0.0 else 0.0
    n = round(inv) if np.isfinite(inv) else 0
    if not (n >= 8 and n % 2 == 0 and abs(inv - n) <= 1e-9 * n):
        raise ValueError(f"h_list entry {h!r}: 1/h must be an even integer of at least 8")
    return n


def spectral_distance_table(op_builder, lambda_rule,
                            h_list=(1 / 80, 1 / 160, 1 / 320, 1 / 640),
                            beta_list=(1.0, 0.1, 0.01)):
    """d_h over a grid of resolutions and regularization weights.

    Rows are grouped by beta, finest last within each group; the rate
    entry of a row is d_{2h}/d_h against the preceding row of the same
    group (nan on the first).  max_imag_ratio records how far the
    computed spectrum strays from the real line; it is reported, never
    truncated away.  Before the first cell it raises ValueError unless
    every 1/h is an even integer of at least 8 (to 1e-9 relative) and
    every beta is positive and finite.
    """
    cells = [_cell_count(h) for h in h_list]
    for beta in beta_list:
        if not (np.isfinite(beta) and beta > 0.0):
            raise ValueError(f"beta_list entry {beta!r} must be positive and finite")
    reports = []
    for beta in beta_list:
        prev = None
        for h, n_cells in zip(h_list, cells):
            _, c = two_grid_cell(op_builder, lambda_rule, n_cells, beta)
            _, d, imag_ratio = _cell_spectrum(c)
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

