"""Nested uniform grids, lumped inner products, and intergrid transfer.

Two geometries are supported:

* ``periodic-interval``: piecewise-linear periodic functions on [0,1), one
  degree of freedom per cell, nodes x_i = i*h.
* ``dirichlet-square``: piecewise-linear functions on the unit square that
  vanish on the boundary, discretized on the three-line triangulation
  (every square cell split along its bottom-left to top-right diagonal).
  Degrees of freedom are the (n-1)^2 interior nodes; 2D nodal vectors are
  ordered with the x index slow and the y index fast (C order of the
  (n-1, n-1) array).

All weighted inner products here use the diagonal (lumped) weight vector; the
consistent mass matrices are kept alongside for L2 projection and for the
operators that need them.  Matrices are rescaled by h^{-d} so that their
entries are mesh-size free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = [
    "GridLevel",
    "GridHierarchy",
    "NodalField",
    "unwrap",
    "build_hierarchy",
    "node_coordinates",
    "inner_h",
    "norm_h",
    "prolong",
    "restrict",
    "mass_apply",
    "l2_project",
    "rough_project",
    "coarsen_lambda",
    "discrete_w2inf",
]

KIND_PERIODIC = "periodic-interval"
KIND_DIRICHLET = "dirichlet-square"


@dataclass
class NodalField:
    """Values attached to the nodes of one hierarchy level."""

    level_index: int
    values: np.ndarray


def unwrap(u, level_index):
    """Float values of a NodalField or plain array, and whether it was a field.

    A field must live on level_index; plain arrays are taken as they are.
    """
    if isinstance(u, NodalField):
        if u.level_index != level_index:
            raise ValueError(
                f"field on level {u.level_index}, expected level {level_index}"
            )
        return np.asarray(u.values, dtype=float), True
    return np.asarray(u, dtype=float), False


@dataclass(frozen=True)
class GridLevel:
    """One uniform refinement level.

    n_dof is n_cells for the periodic interval and (n_cells-1)^2 for the
    Dirichlet square; weights holds the lumped quadrature weight of every
    node (h resp. h^2 on these uniform meshes).
    """

    kind: str
    n_cells: int
    h: float
    n_dof: int
    weights: np.ndarray

    @property
    def dim(self):
        return 1 if self.kind == KIND_PERIODIC else 2

    @property
    def interior_shape(self):
        if self.kind == KIND_PERIODIC:
            return (self.n_cells,)
        m = self.n_cells - 1
        return (m, m)

    @cached_property
    def mass_matrix(self):
        """Rescaled consistent mass matrix (h^{-d} times the assembled one)."""
        if self.kind == KIND_PERIODIC:
            return _mass_periodic(self.n_cells)
        return _mass_dirichlet(self.n_cells)

    @cached_property
    def _mass_lu(self):
        return splu(self.mass_matrix.tocsc())


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

    @cached_property
    def _prolongations(self):
        # sparse interpolation J from level i to level i+1
        out = []
        for lv in self.levels[:-1]:
            if lv.kind == KIND_PERIODIC:
                out.append(_prolong_matrix_periodic(lv.n_cells))
            else:
                out.append(_prolong_matrix_dirichlet(lv.n_cells))
        return tuple(out)


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
    levels = []
    for i in range(n_levels):
        n = n0_cells * 2**i
        h = 1.0 / n
        if kind == KIND_PERIODIC:
            n_dof = n
            weights = np.full(n_dof, h)
        else:
            n_dof = (n - 1) ** 2
            weights = np.full(n_dof, h * h)
        levels.append(GridLevel(kind, n, h, n_dof, weights))
    return GridHierarchy(tuple(levels))


def node_coordinates(level):
    """Coordinates of the degrees of freedom, in dof order.

    Periodic interval: the array x_i = i*h.  Square: a pair (x, y) of flat
    arrays over the interior nodes, x index slow.
    """
    if level.kind == KIND_PERIODIC:
        return level.h * np.arange(level.n_cells)
    m = level.n_cells - 1
    t = level.h * np.arange(1, level.n_cells)
    x, y = np.meshgrid(t, t, indexing="ij")
    return x.ravel(), y.ravel()


def inner_h(level, u, v):
    """Lumped inner product sum(w * u * v) of two fields on the same level."""
    if u.level_index != v.level_index:
        raise ValueError(f"level mismatch: {u.level_index} vs {v.level_index}")
    return float(np.sum(level.weights * u.values * v.values))


def norm_h(level, u):
    """Weighted norm |u|_h = sqrt(<u,u>_h)."""
    return float(np.sqrt(np.sum(level.weights * u.values * u.values)))


def prolong(hierarchy, u):
    """Interpolate a field one level finer.

    Coincident nodes copy their value; each new node (an edge midpoint, in 2D
    including the midpoints of the cell diagonals) averages its two edge
    endpoints.  Square-boundary endpoints contribute zero.
    """
    i = u.level_index
    if i >= hierarchy.n_levels - 1:
        raise ValueError(f"cannot prolong from the finest level (index {i})")
    J = hierarchy._prolongations[i]
    return NodalField(i + 1, J @ u.values)


def restrict(hierarchy, r):
    """Adjoint transfer one level coarser, scaled by 2^{-d}."""
    i = r.level_index
    if i < 1:
        raise ValueError("cannot restrict from the coarsest level")
    J = hierarchy._prolongations[i - 1]
    scale = 0.5 ** hierarchy.levels[i].dim
    return NodalField(i - 1, scale * (J.T @ r.values))


def mass_apply(level, u):
    """Apply the rescaled consistent mass matrix to nodal values."""
    return level.mass_matrix @ np.asarray(u)


def l2_project(hierarchy, u):
    """L2-orthogonal projection onto the next coarser space.

    Computes M_c^{-1} R (M_f u) with the precomputed exact factorization of
    the coarse mass matrix, so the projection is exact to roundoff.
    """
    i = u.level_index
    if i < 1:
        raise ValueError("cannot project from the coarsest level")
    fine = hierarchy.levels[i]
    coarse = hierarchy.levels[i - 1]
    rhs = restrict(hierarchy, NodalField(i, mass_apply(fine, u.values)))
    return NodalField(i - 1, coarse._mass_lu.solve(rhs.values))


def rough_project(hierarchy, u):
    """Complement of the coarse projection: u - J (Pi u).

    The result has no L2 component in the coarse space; applying the
    operation twice reproduces it.
    """
    coarse = l2_project(hierarchy, u)
    back = prolong(hierarchy, coarse)
    return NodalField(u.level_index, u.values - back.values)


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


def _line_terms(y, h):
    # max |centered first difference| / h and |second difference| / h^2 along
    # one grid line; endpoints fall back to one-sided (first) and shifted
    # (second) stencils
    m = y.shape[0]
    if m < 3:
        d1 = np.abs(np.diff(y))
        return (d1.max() / h if d1.size else 0.0), 0.0
    first = np.empty_like(y)
    first[1:-1] = 0.5 * (y[2:] - y[:-2])
    first[0] = y[1] - y[0]
    first[-1] = y[-1] - y[-2]
    second = np.empty_like(y)
    second[1:-1] = y[2:] - 2.0 * y[1:-1] + y[:-2]
    second[0] = second[1]
    second[-1] = second[-2]
    return np.abs(first).max() / h, np.abs(second).max() / (h * h)


def discrete_w2inf(level, g):
    """Surrogate for the W^{2,inf} quotient seminorm of nodal values.

    Takes the larger of max|g'| and max|g''| estimated by divided
    differences per coordinate direction (one-sided at the ends of each
    grid line).  Constants give exactly zero.
    """
    vals = np.asarray(g, dtype=float)
    h = level.h
    best = 0.0
    if level.kind == KIND_PERIODIC:
        t1, t2 = _line_terms(vals, h)
        best = max(t1, t2)
    else:
        m = level.n_cells - 1
        grid = vals.reshape(m, m)
        for line in grid:  # x lines (vary y)
            t1, t2 = _line_terms(line, h)
            best = max(best, t1, t2)
        for line in grid.T:  # y lines (vary x)
            t1, t2 = _line_terms(line, h)
            best = max(best, t1, t2)
    return best


# ---------------------------------------------------------------------------
# matrix builders

def _mass_periodic(n):
    # rescaled circulant rows [1/6, 2/3, 1/6]
    main = np.full(n, 2.0 / 3.0)
    off = np.full(n - 1, 1.0 / 6.0)
    M = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    M[0, n - 1] = 1.0 / 6.0
    M[n - 1, 0] = 1.0 / 6.0
    return M.tocsr()


def _mass_dirichlet(n):
    # rescaled stencil of the three-line triangulation: 1/2 on the diagonal,
    # 1/12 on the six coupled neighbors (E, W, N, S, NE, SW)
    m = n - 1
    ix, iy = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    idx = (ix * m + iy).ravel()
    rows = [idx]
    cols = [idx]
    vals = [np.full(idx.size, 0.5)]
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
        jx = ix + dx
        jy = iy + dy
        ok = ((jx >= 0) & (jx < m) & (jy >= 0) & (jy < m)).ravel()
        rows.append(idx[ok])
        cols.append((jx * m + jy).ravel()[ok])
        vals.append(np.full(ok.sum(), 1.0 / 12.0))
    M = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * m, m * m),
    )
    return M.tocsr()


def _prolong_matrix_periodic(n):
    # coarse n cells -> fine 2n cells; even fine nodes coincide, odd fine
    # nodes average their two neighbors with wraparound
    rows = []
    cols = []
    vals = []
    i = np.arange(n)
    rows.append(2 * i)
    cols.append(i)
    vals.append(np.ones(n))
    rows.append(2 * i + 1)
    cols.append(i)
    vals.append(np.full(n, 0.5))
    rows.append(2 * i + 1)
    cols.append((i + 1) % n)
    vals.append(np.full(n, 0.5))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * n, n),
    ).tocsr()


def _prolong_matrix_dirichlet(n):
    # coarse n cells -> fine 2n cells on the square; fine interior node
    # (a, b) (1-based) copies the coincident coarse node when a and b are
    # both even, averages along a mesh edge otherwise; the odd-odd case sits
    # on a cell diagonal and averages its two diagonal endpoints
    nf = 2 * n - 1
    nc = n - 1
    a, b = np.meshgrid(np.arange(1, 2 * n), np.arange(1, 2 * n), indexing="ij")
    a = a.ravel()
    b = b.ravel()
    fine_row = (a - 1) * nf + (b - 1)
    rows = []
    cols = []
    vals = []

    def add(mask, ic, jc, w):
        ok = mask & (ic >= 1) & (ic <= nc) & (jc >= 1) & (jc <= nc)
        rows.append(fine_row[ok])
        cols.append((ic[ok] - 1) * nc + (jc[ok] - 1))
        vals.append(np.full(ok.sum(), w))

    ae = a % 2 == 0
    be = b % 2 == 0
    add(ae & be, a // 2, b // 2, 1.0)
    add(~ae & be, (a - 1) // 2, b // 2, 0.5)
    add(~ae & be, (a + 1) // 2, b // 2, 0.5)
    add(ae & ~be, a // 2, (b - 1) // 2, 0.5)
    add(ae & ~be, a // 2, (b + 1) // 2, 0.5)
    add(~ae & ~be, (a - 1) // 2, (b - 1) // 2, 0.5)
    add(~ae & ~be, (a + 1) // 2, (b + 1) // 2, 0.5)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nf * nf, nc * nc),
    ).tocsr()
