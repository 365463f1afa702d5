"""Forward operators K_h: matrix-free maps with transpose and apply counting.

Two families are provided.  The parabolic operator advances periodic initial
data through an advection-diffusion-reaction equation by Crank-Nicolson
steps and returns the state at the final time; the elliptic operator applies
the discrete solution map u -> y of the Dirichlet Poisson problem on the
unit square.  Both expose a transpose in the plain nodal pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mgipm.grid import (
    KIND_DIRICHLET,
    KIND_PERIODIC,
    NodalField,
    mass_apply,
    node_coordinates,
    prolong,
    unwrap,
)
from mgipm.krylov import LinearOperatorHandle, cg, materialize_columns

__all__ = [
    "ForwardOperator",
    "DenseOperator",
    "ZeroOperator",
    "ParabolicConfig",
    "EllipticConfig",
    "parabolic_build",
    "elliptic_build",
    "adjoint_h_apply",
    "convergence_probe",
]


class ForwardOperator:
    """Base class: counts every apply, accepts fields or raw value arrays."""

    def __init__(self, level_index, level):
        self.level_index = level_index
        self.level = level
        self.matvec_counter = 0

    def apply(self, u):
        self.matvec_counter += 1
        vals, wrap = unwrap(u, self.level_index)
        out = self._apply(vals)
        return NodalField(self.level_index, out) if wrap else out

    def apply_transpose(self, u):
        self.matvec_counter += 1
        vals, wrap = unwrap(u, self.level_index)
        out = self._apply_transpose(vals)
        return NodalField(self.level_index, out) if wrap else out

    @cached_property
    def normal_matrix(self):
        """Dense K^{*h} K, materialized once with 2 n_dof applies; small levels only.

        The matrix is shared by every later caller, so it is read-only.
        """
        h = materialize_columns(
            lambda e: adjoint_h_apply(self, self.apply(e)), self.level.n_dof
        )
        h.flags.writeable = False
        return h


class DenseOperator(ForwardOperator):
    """Forward operator backed by an explicit matrix; handy for small cases."""

    def __init__(self, level_index, level, matrix):
        super().__init__(level_index, level)
        self.matrix = np.asarray(matrix, dtype=float)

    def _apply(self, u):
        return self.matrix @ u

    def _apply_transpose(self, u):
        return self.matrix.T @ u


class ZeroOperator(ForwardOperator):
    """K = 0; the control problem degenerates to a weighted projection."""

    def _apply(self, u):
        return np.zeros_like(u)

    _apply_transpose = _apply


@dataclass(frozen=True)
class ParabolicConfig:
    """Coefficients of u_t - a u_xx + b u_x + c u = 0 on the periodic interval.

    The time step targets k = c1*h; the step count N_t = ceil(T/(c1*h)) is
    then used with k = T/N_t so the final time is hit exactly (the two agree
    whenever T/(c1*h) is an integer).  method selects the evaluation path:
    "spectral" diagonalizes the circulant step matrices by FFT, "stepping"
    runs the factored Crank-Nicolson recursion step by step.  Both evaluate
    the same matrix power.
    """

    a: float = 4e-3
    b: float = 0.4
    c: float = 0.0
    T: float = 0.8
    c1: float = 1.0
    method: str = "spectral"

    def validate(self):
        if not self.a > 0:
            raise ValueError(f"diffusion coefficient must be positive, got {self.a}")
        if self.b < 0 or self.c < 0:
            raise ValueError("advection and reaction coefficients must be >= 0")
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got {self.T}")
        if not self.c1 > 0:
            raise ValueError(f"time-step ratio must be positive, got {self.c1}")
        if self.method not in ("spectral", "stepping"):
            raise ValueError(f"unknown parabolic method {self.method!r}")


class ParabolicOperator(ForwardOperator):
    """K = E^{N_t} with E the Crank-Nicolson step (M + k/2 S)^{-1}(M - k/2 S)."""

    def __init__(self, level_index, level, config):
        super().__init__(level_index, level)
        self.config = config
        n = level.n_cells
        h = level.h
        self.n_steps = max(1, ceil(config.T / (config.c1 * h)))
        self.dt = config.T / self.n_steps
        a, b, c = config.a, config.b, config.c
        # circulant first rows of the consistent mass and transport matrices
        m_row = np.zeros(n)
        m_row[0] = 2.0 * h / 3.0
        m_row[1] = h / 6.0
        m_row[-1] = h / 6.0
        s_row = np.zeros(n)
        s_row[0] = 2.0 * a / h + 2.0 * c * h / 3.0
        s_row[1] = -a / h - b / 2.0 + c * h / 6.0
        s_row[-1] = -a / h + b / 2.0 + c * h / 6.0
        self._m_row = m_row
        self._s_row = s_row

    @cached_property
    def _symbol(self):
        # eigenvalues of a circulant with first row r are sum_m r[m] w^{mk},
        # i.e. the conjugate FFT of the row
        m_hat = np.conj(np.fft.fft(self._m_row))
        s_hat = np.conj(np.fft.fft(self._s_row))
        step = (m_hat - 0.5 * self.dt * s_hat) / (m_hat + 0.5 * self.dt * s_hat)
        return step**self.n_steps

    @cached_property
    def _step_factors(self):
        n = self.level.n_cells
        plus = _circulant_tridiag(self._m_row + 0.5 * self.dt * self._s_row, n)
        minus = _circulant_tridiag(self._m_row - 0.5 * self.dt * self._s_row, n)
        return splu(plus.tocsc()), splu(plus.T.tocsc()), minus.tocsr()

    def _apply(self, u):
        if self.config.method == "spectral":
            return np.fft.ifft(self._symbol * np.fft.fft(u)).real
        lu_plus, _, minus = self._step_factors
        y = u
        for _ in range(self.n_steps):
            y = lu_plus.solve(minus @ y)
        return y

    def _apply_transpose(self, u):
        if self.config.method == "spectral":
            return np.fft.ifft(np.conj(self._symbol) * np.fft.fft(u)).real
        _, lu_plus_t, minus = self._step_factors
        y = u
        for _ in range(self.n_steps):
            y = minus.T @ lu_plus_t.solve(y)
        return y


def _circulant_tridiag(row, n):
    A = sp.lil_matrix((n, n))
    A.setdiag(np.full(n, row[0]))
    A.setdiag(np.full(n - 1, row[1]), 1)
    A.setdiag(np.full(n - 1, row[-1]), -1)
    A[0, n - 1] = row[-1]
    A[n - 1, 0] = row[1]
    return A


def parabolic_build(level, config=None, level_index=0):
    """Build the time-reversal forward operator on a periodic level.

    level_index records where the level sits in its hierarchy so that
    wrapped fields can be checked; it defaults to 0 for standalone use.
    """
    config = config or ParabolicConfig()
    config.validate()
    if level.kind != KIND_PERIODIC:
        raise ValueError("parabolic operator requires a periodic-interval level")
    return ParabolicOperator(level_index, level, config)


@dataclass(frozen=True)
class EllipticConfig:
    """Options for the inner Dirichlet solve of the 2D solution map.

    inner_solver "auto" factorizes the stiffness matrix up to
    factor_max_cells cells per side and falls back to CG above that;
    "direct-factorization" and "cg" force the choice.
    """

    inner_solver: str = "auto"
    inner_tol: float = 1e-12
    factor_max_cells: int = 512

    def validate(self):
        if self.inner_solver not in ("auto", "direct-factorization", "cg"):
            raise ValueError(f"unknown inner solver {self.inner_solver!r}")
        if self.inner_solver != "direct-factorization" and self.inner_tol > 1e-12:
            raise ValueError(
                f"cg inner tolerance must be <= 1e-12, got {self.inner_tol}"
            )


class EllipticOperator(ForwardOperator):
    """K u = y solving the five-point system A y = -M u (so K = -A^{-1} M)."""

    def __init__(self, level_index, level, config):
        super().__init__(level_index, level)
        self.config = config
        n = level.n_cells
        self.stiffness = _stiffness_dirichlet(n)
        # full (unrescaled) consistent mass = h^2 times the stored one
        self.mass_full = (level.h**2) * level.mass_matrix
        if config.inner_solver == "cg":
            self._use_lu = False
        elif config.inner_solver == "direct-factorization":
            self._use_lu = True
        else:
            self._use_lu = n <= config.factor_max_cells

    @cached_property
    def _stiff_lu(self):
        return splu(self.stiffness.tocsc())

    def _solve_stiffness(self, rhs):
        if self._use_lu:
            return self._stiff_lu.solve(rhs)
        handle = LinearOperatorHandle(rhs.size, lambda v: self.stiffness @ v)
        y, report = cg(
            handle, rhs, tol=self.config.inner_tol, maxit=20 * self.level.n_cells
        )
        if not report.converged:
            raise RuntimeError(
                f"inner Poisson CG stalled at {report.final_relative_residual:.2e}"
            )
        return y

    def _apply(self, u):
        return -self._solve_stiffness(self.mass_full @ u)

    def _apply_transpose(self, u):
        # A is symmetric, so K^T = -M A^{-1}
        return -(self.mass_full @ self._solve_stiffness(u))


def _stiffness_dirichlet(n):
    # five-point stencil {4, -1}; on the three-line triangulation the
    # diagonal neighbors carry no stiffness coupling
    m = n - 1
    ix, iy = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    idx = (ix * m + iy).ravel()
    rows = [idx]
    cols = [idx]
    vals = [np.full(idx.size, 4.0)]
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        jx = ix + dx
        jy = iy + dy
        ok = ((jx >= 0) & (jx < m) & (jy >= 0) & (jy < m)).ravel()
        rows.append(idx[ok])
        cols.append((jx * m + jy).ravel()[ok])
        vals.append(np.full(ok.sum(), -1.0))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * m, m * m),
    ).tocsr()


def elliptic_build(level, config=None, level_index=0):
    """Build the Poisson solution map on a Dirichlet square level."""
    config = config or EllipticConfig()
    config.validate()
    if level.kind != KIND_DIRICHLET:
        raise ValueError("elliptic operator requires a dirichlet-square level")
    return EllipticOperator(level_index, level, config)


def adjoint_h_apply(op, u):
    """Adjoint of K in the weighted pairing: W^{-1} K^T (W u)."""
    vals, wrap = unwrap(u, op.level_index)
    w = op.level.weights
    out = op.apply_transpose(w * vals) / w
    return NodalField(op.level_index, out) if wrap else out


def convergence_probe(hierarchy, build, u_smooth):
    """Self-convergence errors of K_h against the finest level.

    build(level) constructs the operator per level; u_smooth is evaluated at
    the nodes to produce the input interpolant.  Each coarse result is
    interpolated up to the finest grid and compared with the finest result
    in the exact L2 norm.  Returns one error per non-finest level, coarsest
    first.
    """
    results = []
    for i, level in enumerate(hierarchy.levels):
        op = build(level)
        coords = node_coordinates(level)
        u0 = u_smooth(coords) if level.kind == KIND_PERIODIC else u_smooth(*coords)
        results.append(NodalField(i, op.apply(np.asarray(u0, dtype=float))))
    finest = hierarchy.n_levels - 1
    ref = results[-1].values
    fine_level = hierarchy.finest
    errors = []
    for fld in results[:-1]:
        while fld.level_index < finest:
            fld = prolong(hierarchy, fld)
        diff = fld.values - ref
        l2 = np.sqrt(
            fine_level.h ** fine_level.dim
            * float(diff @ mass_apply(fine_level, diff))
        )
        errors.append(l2)
    return errors
