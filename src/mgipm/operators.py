"""Forward operators K_h: matrix-free maps with transpose and apply counting.

Two families are provided.  The parabolic operator advances periodic initial
data through an advection-diffusion-reaction equation by Crank-Nicolson
steps, evaluated exactly by FFT, and returns the state at the final time;
the elliptic operator applies the discrete solution map u -> y of the
Dirichlet Poisson problem on the unit square.  Both expose a transpose in
the plain nodal pairing; the lumped weight is one number per level, so that
transpose is also the adjoint in the weighted pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil, isfinite

import numpy as np

from mgipm.grid import KIND_DIRICHLET, KIND_PERIODIC

__all__ = [
    "ForwardOperator",
    "ZeroOperator",
    "ParabolicConfig",
    "EllipticConfig",
    "parabolic_build",
    "elliptic_build",
]


class ForwardOperator:
    """Base class: counts every apply, one per column of the input."""

    # an operator whose K^T K has exact low-rank structure overrides this
    # with an n_dof x r matrix F, K^T K = F F^T (see ParabolicOperator)
    normal_factor = None

    def __init__(self, level_index, level):
        self.level_index = level_index
        self.level = level
        self.matvec_counter = 0

    def apply(self, u):
        """K u for a vector or an n x k block (dof along axis 0); one apply
        counted per column."""
        return self._counted(self._apply, u)

    def apply_transpose(self, u):
        """K^T u, taking what apply takes; one apply counted per column."""
        return self._counted(self._apply_transpose, u)

    def _counted(self, fn, u):
        u = np.asarray(u, dtype=float)
        self.matvec_counter += u.shape[1] if u.ndim == 2 else 1
        return fn(u)

    @cached_property
    def normal_matrix(self):
        """Dense K^T K, materialized once with 2 n_dof applies; small levels only.

        The matrix is shared by every later caller, so it is read-only.
        """
        # column by column on purpose: one n x n block apply gives the same
        # bits, but its K e and transform temporaries are n x n too, which
        # raises the solve's peak allocation to several times this matrix
        n = self.level.n_dof
        h = np.empty((n, n))
        e = np.zeros(n)
        for j in range(n):
            e[j] = 1.0
            h[:, j] = self.apply_transpose(self.apply(e))
            e[j] = 0.0
        h.flags.writeable = False
        return h


class ZeroOperator(ForwardOperator):
    """K = 0; the control problem degenerates to a weighted projection."""

    @cached_property
    def normal_factor(self):
        """K^T K = 0 exactly: the empty n_dof x 0 factor.  Read-only."""
        f = np.zeros((self.level.n_dof, 0))
        f.flags.writeable = False
        return f

    def _apply(self, u):
        return np.zeros_like(u)

    _apply_transpose = _apply


@dataclass(frozen=True)
class ParabolicConfig:
    """Coefficients of u_t - a u_xx - b u_x + c u = 0 on the periodic interval.

    The time step targets k = c1*h; the step count N_t = ceil(T/(c1*h)) is
    then used with k = T/N_t so the final time is hit exactly (the two agree
    whenever T/(c1*h) is an integer).  Out-of-range values raise
    ValueError at construction.
    """

    a: float = 4e-3
    b: float = 0.4
    c: float = 0.0
    T: float = 0.8
    c1: float = 1.0

    def __post_init__(self):
        if not all(map(isfinite, (self.a, self.b, self.c, self.T, self.c1))):
            raise ValueError("parabolic coefficients must be finite")
        if not self.a > 0:
            raise ValueError(f"diffusion coefficient must be positive, got {self.a}")
        if self.b < 0 or self.c < 0:
            raise ValueError("advection and reaction coefficients must be >= 0")
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got {self.T}")
        if not self.c1 > 0:
            raise ValueError(f"time-step ratio must be positive, got {self.c1}")


class ParabolicOperator(ForwardOperator):
    """K = E^{N_t} with E the Crank-Nicolson step (M + k/2 S)^{-1}(M - k/2 S)."""

    def __init__(self, level_index, level, config):
        super().__init__(level_index, level)
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
        # i.e. the conjugate FFT of the row; K is real, so this holds only
        # the modes k = 0..n//2 (mode n-k is the conjugate of mode k)
        m_hat = np.conj(np.fft.rfft(self._m_row))
        s_hat = np.conj(np.fft.rfft(self._s_row))
        step = (m_hat - 0.5 * self.dt * s_hat) / (m_hat + 0.5 * self.dt * s_hat)
        return step**self.n_steps

    @cached_property
    def normal_factor(self):
        """n x r matrix F with K^T K = F F^T to roundoff; no operator applies.

        K^T K is the circulant with eigenvalues |symbol|^2.  Its real Fourier
        expansion has a constant column, a cos/sin pair per frequency
        0 < k < n/2 and, for even n, a Nyquist column.  Modes at or below
        eps * max|symbol|^2 are dropped, which changes K^T K by at most that
        much.  Read-only.
        """
        n = self.level.n_dof
        lam = np.abs(self._symbol) ** 2
        keep = np.flatnonzero(lam > np.finfo(float).eps * lam.max())
        paired = (keep > 0) & (2 * keep < n)
        scale = np.sqrt(np.where(paired, 2.0, 1.0) * lam[keep] / n)
        # integer phases keep the angles exact before the one rounding
        angle = (2.0 * np.pi / n) * (np.outer(np.arange(n), keep) % n)
        f = np.hstack([np.cos(angle) * scale, np.sin(angle[:, paired]) * scale[paired]])
        f.flags.writeable = False
        return f

    def _apply(self, u):
        return self._filter(self._symbol, u)

    def _apply_transpose(self, u):
        return self._filter(np.conj(self._symbol), u)

    def _filter(self, symbol, u):
        symbol = symbol if u.ndim == 1 else symbol[:, None]
        return np.fft.irfft(symbol * np.fft.rfft(u, axis=0), self.level.n_dof, axis=0)


def parabolic_build(level, config=None, level_index=0):
    """Build the time-reversal forward operator on a periodic level.

    level_index records where the level sits in its hierarchy; it
    defaults to 0 for standalone use.
    """
    config = config or ParabolicConfig()
    if level.kind != KIND_PERIODIC:
        raise ValueError("parabolic operator requires a periodic-interval level")
    return ParabolicOperator(level_index, level, config)


@dataclass(frozen=True)
class EllipticConfig:
    """Options of the 2D solution map: there are none.

    The stiffness solve is exact (see EllipticOperator), so nothing is
    left to tune.  The class stays so that callers build both operator
    families alike.
    """


class EllipticOperator(ForwardOperator):
    """K u = y solving the five-point system A y = -M u (so K = -A^{-1} M).

    On the m = n - 1 interior lines A = T (x) I + I (x) T with
    T = tridiag(-1, 2, -1); the diagonal neighbors of the three-line
    triangulation carry no stiffness coupling.  The orthonormal sine matrix
    S_jk = sqrt(2/n) sin(pi j k / n) diagonalizes T, so on the m x m array of
    nodal values A^{-1} X = S ((S X S) / Lambda) S with
    Lambda_jk = t_j + t_k, t_k = 2 - 2 cos(pi k / n).
    """

    def __init__(self, level_index, level):
        super().__init__(level_index, level)
        n = level.n_cells
        k = np.arange(1, n)
        # integer phases reduced mod 2n keep the angles exact before rounding
        self._sine = np.sqrt(2.0 / n) * np.sin(np.pi / n * (np.outer(k, k) % (2 * n)))
        t = 2.0 - 2.0 * np.cos(np.pi / n * k)
        self._eig = t[:, None] + t[None, :]
        # full (unrescaled) consistent mass = h^2 times the stored one
        self.mass_full = (level.h**2) * level.mass_matrix

    def _solve_stiffness(self, rhs):
        # the columns of an n x k block become k stacked m x m grids
        s = self._sine
        x = rhs.reshape(s.shape) if rhs.ndim == 1 else rhs.T.reshape(-1, *s.shape)
        y = s @ ((s @ x @ s) / self._eig) @ s
        return y.reshape(rhs.shape[::-1]).T

    def _apply(self, u):
        return -self._solve_stiffness(self.mass_full @ u)

    def _apply_transpose(self, u):
        # A is symmetric, so K^T = -M A^{-1}
        return -(self.mass_full @ self._solve_stiffness(u))


def elliptic_build(level, config=None, level_index=0):
    """Build the Poisson solution map on a Dirichlet square level.

    config is an EllipticConfig, which holds no options; level_index is as
    in parabolic_build.
    """
    if level.kind != KIND_DIRICHLET:
        raise ValueError("elliptic operator requires a dirichlet-square level")
    return EllipticOperator(level_index, level)

