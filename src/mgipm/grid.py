"""Nested uniform grids, lumped weights and intergrid transfer.

Two geometries are supported:

* ``periodic-interval``: piecewise-linear periodic functions on [0,1), one
  degree of freedom per cell, nodes x_i = i*h.
* ``dirichlet-square``: piecewise-linear functions on the unit square that
  vanish on the boundary, discretized on the three-line triangulation
  (every square cell split along its bottom-left to top-right diagonal).
  Degrees of freedom are the (n-1)^2 interior nodes; 2D nodal vectors are
  ordered with the x index slow and the y index fast (C order of the
  (n-1, n-1) array).

Each level carries its lumped quadrature weight, the one number h
(interval) or h^2 (square) at every node.  Transfers follow the geometry's
structure, and only the square builds sparse matrices.  On the interval
the interpolation is a two-point stencil, and the L2 projection is one
rfft, a two-term combination of modes with weights cached per level, and
one irfft: its circulant mass matrices and the restriction appear only
through their Fourier symbols.  Every FFT on the interval, the parabolic
operator's included, goes through rfft and irfft.  On the square the
consistent mass matrix (rescaled by h^{-2}, so its entries are mesh-size
free) and the restriction J^T are one seven-point stencil with different
weights, on a node and its six edge neighbours E, W, N, S, NE and SW;
_three_line builds both from one table of offsets.  The level's
mass_matrix is the one copy of that mass: the projection and the elliptic
operator both use it.  The interpolation J and R = 2^{-2} J^T are cached
as CSR on the fine level, and the projection restricts the mass-weighted
field with R and solves with the factorized coarse mass matrix.  Every
product with these CSR matrices, the operators' and the coarse solve's
included, goes through csr_apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.fft._pocketfft import pypocketfft as _pocketfft
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import splu

__all__ = [
    "GridLevel",
    "GridHierarchy",
    "NodalField",
    "unwrap",
    "build_hierarchy",
    "node_coordinates",
    "prolong",
    "l2_project",
    "coarsen_lambda",
    "discrete_w2inf",
    "csr_apply",
    "rfft",
    "irfft",
]

KIND_PERIODIC = "periodic-interval"
KIND_DIRICHLET = "dirichlet-square"


@dataclass
class NodalField:
    """Values attached to the nodes of one hierarchy level."""

    level_index: int
    values: np.ndarray


def unwrap(u, level_index):
    """Float values of a NodalField or plain array.

    A field must live on level_index; plain arrays are taken as they are.
    """
    if isinstance(u, NodalField):
        if u.level_index != level_index:
            raise ValueError(
                f"field on level {u.level_index}, expected level {level_index}"
            )
        u = u.values
    return np.asarray(u, dtype=float)


@dataclass(frozen=True)
class GridLevel:
    """One uniform refinement level, fixed by its kind and cell count.

    h = 1/n_cells; n_dof is n_cells for the periodic interval and
    (n_cells-1)^2 for the Dirichlet square; weights is the lumped
    quadrature weight of every node, the one float h resp. h^2, which
    broadcasts against nodal arrays.
    """

    kind: str
    n_cells: int

    @property
    def h(self):
        return 1.0 / self.n_cells

    @property
    def n_dof(self):
        return self.n_cells if self.kind == KIND_PERIODIC else (self.n_cells - 1) ** 2

    @property
    def weights(self):
        h = self.h
        return h if self.kind == KIND_PERIODIC else h * h

    @cached_property
    def mass_matrix(self):
        """Rescaled consistent mass matrix (h^{-2} times the assembled one)
        of a square level.  The interval has none: its projection uses the
        mass symbol (see _projection_weights)."""
        if self.kind == KIND_PERIODIC:
            raise ValueError("the periodic interval has no assembled mass matrix")
        m = self.n_cells - 1
        return _three_line(m, m, *_MASS_WEIGHTS, 1)

    @cached_property
    def _mass_lu(self):
        return splu(self.mass_matrix.tocsc())

    @cached_property
    def _transfers(self):
        """(J, R): the interpolation onto this square level from the one
        with half its cells, and the restriction R = 2^{-2} J^T, as CSR.

        J^T is the three-line stencil with weights 1 and 1/2 at stride 2:
        a coarse node gathers its coincident fine node and the six fine
        edge midpoints around it.
        """
        jt = _three_line(self.n_cells // 2 - 1, self.n_cells - 1, 1.0, 0.5, 2)
        return jt.T.tocsr(), (0.25 * jt).tocsr()

    @cached_property
    def _projection_weights(self):
        """(alpha, beta): the Fourier weights of l2_project from this
        periodic level to the one with n_c = n_cells / 2 cells.

        R = J^T / 2 smooths by [1/4, 1/2, 1/4] and keeps the even nodes, so
        coarse mode k gathers fine modes k and k + n_c, and M_c^{-1}
        divides by the coarse mass symbol.  With the P1 mass symbol
        m(theta) = (2 + cos theta)/3, m_f(k) = m(2 pi k / n_f) and
        m_c(k) = m(2 pi k / n_c), for k = 0..n_c//2:
        alpha_k = (1 + cos(pi k / n_c)) m_f(k) / (4 m_c(k)) and
        beta_k = (1 - cos(pi k / n_c)) m_f(k + n_c) / (4 m_c(k)).
        """
        nc = self.n_cells // 2
        # theta = pi k / n_c is the fine angle of mode k; the 3s of the
        # three mass symbols cancel
        cos = np.cos((np.pi / nc) * np.arange(nc // 2 + 1))
        m_c = 4.0 * (1.0 + 2.0 * cos * cos)  # 4 (2 + cos 2 theta)
        alpha = (1.0 + cos) * (2.0 + cos) / m_c
        beta = (1.0 - cos) * (2.0 - cos) / m_c  # m(theta + pi) = (2 - cos theta)/3
        return alpha, beta


@dataclass(frozen=True)
class GridHierarchy:
    """Levels ordered coarsest (index 0) to finest, cell counts doubling."""

    levels: tuple

    @property
    def n_levels(self):
        return len(self.levels)

    @property
    def finest(self):
        return self.levels[-1]


def build_hierarchy(kind, n0_cells, n_levels):
    """Build n_levels nested grids starting from n0_cells on the coarsest.

    The coarsest grid must have at least 4 cells; on the square it must also
    be a power of two so every level nests cleanly.
    """
    if kind not in (KIND_PERIODIC, KIND_DIRICHLET):
        raise ValueError(f"unknown grid kind {kind!r}")
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    if n0_cells < 4:
        raise ValueError(f"coarsest grid needs at least 4 cells, got {n0_cells}")
    if kind == KIND_DIRICHLET and n0_cells & (n0_cells - 1):
        raise ValueError(f"square grid needs a power-of-two cell count, got {n0_cells}")
    return GridHierarchy(
        tuple(GridLevel(kind, n0_cells * 2**i) for i in range(n_levels))
    )


def node_coordinates(level):
    """Coordinates of the degrees of freedom, in dof order.

    Periodic interval: the array x_i = i*h.  Square: a pair (x, y) of flat
    arrays over the interior nodes, x index slow.
    """
    if level.kind == KIND_PERIODIC:
        return level.h * np.arange(level.n_cells)
    t = level.h * np.arange(1, level.n_cells)
    x, y = np.meshgrid(t, t, indexing="ij")
    return x.ravel(), y.ravel()


def prolong(hierarchy, u):
    """Interpolate a field one level finer.

    Coincident nodes copy their value; each new node (an edge midpoint, in 2D
    including the midpoints of the cell diagonals) averages its two edge
    endpoints.  Square-boundary endpoints contribute zero.  The values may
    be an n_dof x k block, whose columns are transferred independently.

    On the interval this is the stencil out[2i] = u_i and
    out[2i+1] = (u_i + u_{i+1 mod n})/2, written into the output with no
    other temporary; halving is exact, so it has the bits of the sparse
    J u.  On the square it is the sparse J u, by csr_apply.
    """
    i = u.level_index
    if i >= hierarchy.n_levels - 1:
        raise ValueError(f"cannot prolong from the finest level (index {i})")
    if hierarchy.levels[i].kind != KIND_PERIODIC:
        interpolation = hierarchy.levels[i + 1]._transfers[0]
        return NodalField(i + 1, csr_apply(interpolation, u.values))
    v = u.values
    out = np.empty((2 * v.shape[0],) + v.shape[1:])
    out[0::2] = v
    mid = out[1::2]
    np.add(v[:-1], v[1:], out=mid[:-1])
    np.add(v[-1:], v[:1], out=mid[-1:])
    mid *= 0.5
    return NodalField(i + 1, out)


def l2_project(hierarchy, u):
    """L2-orthogonal projection onto the next coarser space.

    Pi u = M_c^{-1} R (M_f u), exact to roundoff.  The values may be an
    n_dof x k block, whose columns are projected independently.

    On the interval every factor is circulant or a decimation, so
    Pi u = irfft(alpha_k u_k + beta_k conj(u_{n_c - k}), n_c) for
    k <= n_c/2, with u_k the rfft modes of u (see
    GridLevel._projection_weights).  On the square R M_f u, with
    R = 2^{-2} J^T, is formed by csr_apply and solved with the factorized
    coarse mass matrix.
    """
    i = u.level_index
    if i < 1:
        raise ValueError("cannot project from the coarsest level")
    fine = hierarchy.levels[i]
    coarse = hierarchy.levels[i - 1]
    if fine.kind == KIND_PERIODIC:
        nc = coarse.n_cells
        alpha, beta = fine._projection_weights
        if u.values.ndim == 2:
            alpha, beta = alpha[:, None], beta[:, None]
        modes = rfft(u.values)
        # modes n_c - k for k = 0..n_c//2, the aliases of modes n_c + k
        v = np.conjugate(modes[nc - nc // 2: nc + 1][::-1])
        v *= beta
        v += alpha * modes[: nc // 2 + 1]
        return NodalField(i - 1, irfft(v, nc))
    rhs = csr_apply(fine._transfers[1], csr_apply(fine.mass_matrix, u.values))
    return NodalField(i - 1, coarse._mass_lu.solve(rhs))


def csr_apply(a, x):
    """a @ x for a float64 CSR matrix a and an n-vector or n x k block x.

    It calls the kernel that scipy.sparse's own product ends in (csr_matvec,
    or csr_matvecs on the C-ordered block) on a fresh zero output, as
    _matmul_vector and _matmul_multivector do, so the result has the bits
    of a @ x; it skips the per-call dispatch, which on the square's small
    levels costs about as much as the product.  An n x 1 block is a vector
    to scipy, and so to this.  Raises ValueError when x has not n rows (the
    kernels would read past it).
    """
    m, n = a.shape
    if x.shape[0] != n:
        raise ValueError(f"csr_apply: {m} x {n} matrix, {x.shape[0]} rows in x")
    if x.ndim == 1:
        out = np.zeros(m)
        _sparsetools.csr_matvec(m, n, a.indptr, a.indices, a.data, x, out)
        return out
    if x.shape[1] == 1:
        return csr_apply(a, x.ravel()).reshape(m, 1)
    out = np.zeros((m, x.shape[1]))
    _sparsetools.csr_matvecs(m, n, x.shape[1], a.indptr, a.indices, a.data,
                             x.ravel(), out.ravel())
    return out


def rfft(x, axis=0):
    """scipy.fft.rfft(x, axis=axis) for a float64 array x.

    It calls the pocketfft kernel that scipy.fft.rfft ends in (r2c with the
    default norm, on one worker), so the result has its bits; it skips the
    per-call argument handling, about 3 us of a 6-19 us transform at
    lengths 1024 to 4096.
    """
    return _pocketfft.r2c(x, (axis,), True, 0, None, 1)


def irfft(v, n, axis=0):
    """scipy.fft.irfft(v, n, axis=axis) for a complex128 array v with
    n//2 + 1 entries along axis, by the kernel scipy ends in (c2r, scaled
    by 1/n, on one worker), as rfft does.  v is left as it is.  Raises
    ValueError for any other length along axis, which scipy would crop or
    pad.
    """
    if v.shape[axis] != n // 2 + 1:
        raise ValueError(
            f"irfft: {v.shape[axis]} modes along axis {axis}, expected {n // 2 + 1}"
        )
    return _pocketfft.c2r(v, (axis,), n, False, 2, None, 1)


def coarsen_lambda(hierarchy, lam):
    """Move a nodal coefficient one level coarser by discarding the values
    at nodes that are not coarse nodes."""
    i = lam.level_index
    if i < 1:
        raise ValueError("cannot coarsen from the coarsest level")
    fine = hierarchy.levels[i]
    if fine.kind == KIND_PERIODIC:
        vals = lam.values[0::2].copy()
    else:
        m = fine.n_cells - 1
        grid = lam.values.reshape(m, m)
        vals = grid[1::2, 1::2].copy().ravel()
    return NodalField(i - 1, vals)


def discrete_w2inf(level, g):
    """Surrogate for the W^{2,inf} quotient seminorm of nodal values.

    Takes the larger of max|g'| and max|g''| estimated by divided
    differences per coordinate direction: centered first differences,
    one-sided at the ends of each grid line, and second differences at
    the interior nodes (the ends would repeat their neighbours' values).
    Every grid line has at least 3 nodes.  Constants give exactly zero.
    """
    vals = np.asarray(g, dtype=float)
    if level.kind != KIND_PERIODIC:
        m = level.n_cells - 1
        vals = vals.reshape(m, m)
    h = level.h
    best = 0.0
    for axis in range(vals.ndim):
        y = np.moveaxis(vals, axis, 0)
        first = max(
            np.abs(0.5 * (y[2:] - y[:-2])).max(),
            np.abs(y[1] - y[0]).max(),
            np.abs(y[-1] - y[-2]).max(),
        )
        second = np.abs(y[2:] - 2.0 * y[1:-1] + y[:-2]).max()
        best = max(best, first / h, second / (h * h))
    return best


# ---------------------------------------------------------------------------
# the square's stencils

# the six neighbours (dx, dy) a node of the three-line triangulation shares
# an edge with, x index first: E, W, N, S, then NE and SW across the cell
# diagonals.  The first four are the five-point stiffness stencil's.
_THREE_LINE_NEIGHBOURS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
# centre and neighbour weights of the rescaled mass stencil
_MASS_WEIGHTS = (0.5, 1.0 / 12.0)


def _three_line(m_out, m_in, centre, off, stride):
    """CSR matrix of a three-line stencil from an m_in x m_in grid of
    interior nodes to an m_out x m_out one (both x index slow).

    Output node (i, j) sits on input node (stride (i+1) - 1, stride (j+1) - 1)
    and takes centre times its value plus off times each of its six
    neighbours on the grid.  Stride 1 gives the rescaled mass matrix,
    stride 2 the restriction J^T from a fine grid to the coarse one.
    """
    i, j = np.meshgrid(np.arange(m_out), np.arange(m_out), indexing="ij")
    row = (i * m_out + j).ravel()
    x0 = (stride * (i + 1) - 1).ravel()
    y0 = (stride * (j + 1) - 1).ravel()
    rows, cols, vals = [], [], []
    for (dx, dy), w in (((0, 0), centre), *((o, off) for o in _THREE_LINE_NEIGHBOURS)):
        x, y = x0 + dx, y0 + dy
        ok = (x >= 0) & (x < m_in) & (y >= 0) & (y < m_in)
        rows.append(row[ok])
        cols.append((x * m_in + y)[ok])
        vals.append(np.full(rows[-1].size, w))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m_out * m_out, m_in * m_in),
    ).tocsr()
