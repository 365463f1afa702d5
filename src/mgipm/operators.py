"""Forward operators K_h: matrix-free maps with transpose and apply counting.

Two families are provided.  The parabolic operator advances periodic initial
data through an advection-diffusion-reaction equation by Crank-Nicolson
steps, evaluated exactly by FFT, and returns the state at the final time;
the elliptic operator applies the discrete solution map u -> y of the
Dirichlet Poisson problem on the unit square.  Both expose a transpose in
the plain nodal pairing; the lumped weight is one number per level, so that
transpose is also the adjoint in the weighted pairing.

The parabolic symbol decays like exp(-a (2 pi k)^2 T), so only the modes
|k| <= kmax with |symbol| > eps max|symbol| are kept (kmax = 16 at the
default coefficients on every grid from n = 80 up).  Dropping the rest
moves K u by at most eps max|symbol| |u|.  A narrow band is applied as a
partial DFT (a four-step split of the DFT, pruned to the band): with
n = B L and u viewed as B x L, one real GEMM with a B x 2(kmax+1) cos/sin
table gives every kept mode's B-point sum down each column, and one
twiddle sum per mode over the columns gives its coefficient.  The way
back scales by the symbol, multiplies the modes by the back-twiddles and
takes one GEMM with the table.  No mode aliases, so any divisor B works;
L is the largest divisor up to sqrt(n).  A wide band, or an n whose split
tables would be large (n prime, or twice a prime), keeps the plain
length-n round trip with the symbol cut at kmax.

The same two halves, restricted to the modes of K^T K above roundoff,
give F^T y and F z for the real Fourier factor F of K^T K = F F^T, and
F^T diag(w) F has a closed form in the rfft of w.  These three members
(normal_project, normal_expand, normal_gram) and the rank r are all an
operator says of F, and nothing forms the n x r factor.

The elliptic K = -L^{-1} M, L the five-point Laplacian and M the level's
mass_matrix, has K^T K = M L^{-2} M and no low-rank factor, but L and M
are stencils on the grid's table of three-line neighbours (M on all six,
L on E, W, N and S): stiffness_band(w) gives the lower LAPACK band of
L^2 + M diag(w) M (half-bandwidth 2 n_cells), summed from stencil
products, and stiffness_residual(c, z) = c - L^2 z.

Each operator inverts its own scaled inner system G = I + D K^T K D,
D = diag(1/p): scaled_inverse(p) factors once and returns r -> G^{-1} r,
exact to roundoff, for an n-vector or an n x k block.  The parabolic and
elliptic inverses apply the Woodbury identity to F and to the band (a
relative G residual of at most 2e-13 measured at every size), K = 0 gives
G = I, and an operator with no structure LU-factors its dense G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil, isfinite, isqrt, log2

import numpy as np
import scipy.linalg as sla

from mgipm.grid import (
    _MASS_WEIGHTS,
    _THREE_LINE_NEIGHBOURS,
    KIND_DIRICHLET,
    KIND_PERIODIC,
    csr_apply,
    irfft,
    rfft,
)

__all__ = [
    "ForwardOperator",
    "ZeroOperator",
    "ParabolicConfig",
    "EllipticConfig",
    "parabolic_build",
    "elliptic_build",
]

_EPS = np.finfo(float).eps


class ForwardOperator:
    """Base class: counts every apply, one per column of the input.

    The preconditioner uses apply, apply_transpose and scaled_inverse.
    The diagnostics also read the factor of K^T K = F F^T: an operator
    with an exact factor of rank r sets normal_rank to r and gives
    normal_expand(z) = F z for an r-vector or r x k block, counting no
    applies (see ParabolicOperator and ZeroOperator).  normal_rank None
    means there is no such factor.
    """

    normal_rank = None

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
        """Dense K^T K, materialized once with 2 n_dof applies; the coarse
        inverse of an operator with no structure, on small levels only.

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

    def scaled_inverse(self, p):
        """r -> G^{-1} r for G = I + D_{1/p} K^T K D_{1/p}, exact to
        roundoff, on an n-vector or an n x k block.

        Here, for an operator with no structure: G assembled from
        normal_matrix and LU-factored once.  The subclasses override it
        with their structure (see the module docstring).
        """
        # every solve calls LAPACK directly: cho_solve and lu_solve add a
        # finiteness scan and shape checks worth about 8 us a call, and a
        # non-finite r ends as a non-finite result, which the Krylov
        # solvers stop on.  Here one Fortran-ordered array is scaled and
        # LU-factored in place
        n = p.size
        dinv = 1.0 / p
        G = np.multiply(self.normal_matrix, dinv[:, None], order="F")
        G *= dinv[None, :]
        G[np.arange(n), np.arange(n)] += 1.0
        lu, piv = sla.lu_factor(G, overwrite_a=True)
        getrs, = sla.get_lapack_funcs(("getrs",), (lu,))
        return lambda r: getrs(lu, piv, r)[0]


class ZeroOperator(ForwardOperator):
    """K = 0; the control problem degenerates to a weighted projection.

    K^T K = 0 has the exact factor of rank 0, and G = I.
    """

    normal_rank = 0

    def normal_expand(self, z):
        return np.zeros((self.level.n_dof,) + z.shape[1:])

    def scaled_inverse(self, p):
        return np.copy

    def _apply(self, u):
        return np.zeros_like(u)

    _apply_transpose = _apply


@dataclass(frozen=True)
class ParabolicConfig:
    """Coefficients of u_t - a u_xx - b u_x + c u = 0 on the periodic interval.

    The time step targets k = c1*h; the step count N_t = ceil(T/(c1*h)) is
    then used with k = T/N_t so the final time is hit exactly (the two agree
    whenever T/(c1*h) is an integer).  Out-of-range values raise
    ValueError at construction, a T/(c1*h) that is not finite raises it
    when the operator is built, and coefficients so large that the time
    step overflows raise it when the operator's modes are first computed.
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
        target = config.c1 * h
        if not (target and isfinite(config.T / target)):
            raise ValueError(f"time-step ratio c1={config.c1!r} leaves T/(c1*h) not"
                             f" finite for T={config.T!r} and h={h!r}")
        self.config = config
        self.n_steps = max(1, ceil(config.T / target))
        self.dt = config.T / self.n_steps
        a, b, c = config.a, config.b, config.c
        # circulant first rows of the consistent mass and transport matrices
        first_rows = np.zeros((2, n))
        first_rows[0, 0] = 2.0 * h / 3.0
        first_rows[0, 1] = h / 6.0
        first_rows[0, -1] = h / 6.0
        first_rows[1, 0] = 2.0 * a / h + 2.0 * c * h / 3.0
        first_rows[1, 1] = -a / h - b / 2.0 + c * h / 6.0
        first_rows[1, -1] = -a / h + b / 2.0 + c * h / 6.0
        self._first_rows = first_rows

    @property
    def normal_rank(self):
        """Rank r of the factor F of K^T K = F F^T (see _normal_modes)."""
        keep, paired, _, _ = self._normal_modes
        return keep.size + int(np.count_nonzero(paired))

    @cached_property
    def _normal_modes(self):
        """(keep, paired, scale, amp): the columns of the factor F.

        K^T K is the circulant with eigenvalues |symbol|^2, and F is its
        real Fourier expansion: a cosine column for each mode k in keep,
        those with |symbol_k|^2 > eps max|symbol|^2 (dropping the rest
        changes K^T K by at most that much), then a sine column for each k
        that paired marks (0 < k < n/2; the constant and, for even n, the
        Nyquist mode have none).  Column scale is sqrt(c_k |symbol_k|^2 / n),
        with c_k = 2 for a pair and 1 otherwise, and amp = n scale / c_k is
        the coefficient of mode k in the rfft convention that puts that
        column back together.
        """
        n = self.level.n_dof
        lam = np.abs(self._band[0]) ** 2
        keep = np.flatnonzero(lam > _EPS * lam.max())
        paired = (keep > 0) & (2 * keep < n)
        c = np.where(paired, 2.0, 1.0)
        scale = np.sqrt(c * lam[keep] / n)
        return keep, paired, scale, scale * (n / c)

    def normal_project(self, y):
        """F^T y from the kept modes of y: scale Re y_k, then -scale Im y_k
        on the pairs."""
        keep, paired, scale, _ = self._normal_modes
        if y.ndim == 2:
            scale = scale[:, None]
        modes = self._forward(y)[keep]
        sine = modes[paired].imag
        sine *= -scale[paired]
        modes = modes.real * scale
        return np.concatenate([modes, sine])

    def normal_expand(self, z):
        """F z as the real signal of modes amp (z_cos - i z_sin)."""
        keep, paired, _, amp = self._normal_modes
        n = self.level.n_dof
        # _back takes the shape _forward gives
        split = self._band[1] is not None and z.ndim == 1
        rows = self._band[0].size if split else n // 2 + 1
        if z.ndim == 2:
            amp = amp[:, None]
        v = np.zeros((rows,) + z.shape[1:], dtype=complex)
        v.real[keep] = z[: keep.size] * amp
        v.imag[keep[paired]] = z[keep.size:] * -amp[paired]
        return self._back(v, n)

    def normal_gram(self, w):
        """F^T diag(w) F in closed form from one rfft of w.

        Column a of F is Re(phi_a s_a e^{2 pi i k_a j / n}), phi_a = 1 on a
        cosine and -i on a sine column, s_a its scale.  With
        w_hat(m) = sum_j w_j e^{-2 pi i j m / n}, entry (a, b) is
        (1/2) s_a s_b Re[phi_a phi_b conj w_hat(k_a + k_b)
        + phi_a conj(phi_b) conj w_hat(k_a - k_b)].
        """
        keep, paired, scale, _ = self._normal_modes
        n = self.level.n_dof
        k = np.concatenate([keep, keep[paired]])
        s = np.concatenate([scale, scale[paired]])
        phi = np.where(np.arange(k.size) < keep.size, 1.0, -1.0j)
        w_hat = rfft(w)

        def conj_w_hat(m):
            # w is real: w_hat(-m) = w_hat(n - m) = conj w_hat(m)
            m = m % n
            upper = 2 * m > n
            out = w_hat[np.where(upper, n - m, m)]
            return np.where(upper, out, np.conj(out))

        gram = np.outer(phi, phi) * conj_w_hat(k[:, None] + k)
        gram += np.outer(phi, np.conj(phi)) * conj_w_hat(k[:, None] - k)
        return 0.5 * np.outer(s, s) * gram.real

    def scaled_inverse(self, p):
        """r -> G^{-1} r with G = I + B B^T, B = D F, by the Woodbury identity:
        r - normal_expand(core^{-1} normal_project(r/p))/p.  Only the
        Cholesky factor of the r x r core I_r + normal_gram(1/p^2) is stored.

        Raises RuntimeError when the core has no Cholesky factor (lambda
        near 0 leaves it indefinite to roundoff, or 1/p^2 overflows).
        """
        core = self.normal_gram(1.0 / (p * p))
        if not core.size:
            # every mode underflowed (a large c): K^T K = 0, so G = I (and
            # LAPACK takes no 0 x 0)
            return np.copy
        core[np.diag_indices_from(core)] += 1.0
        try:
            core, lower = sla.cho_factor(core, overwrite_a=True)
        except ValueError as exc:  # LinAlgError included
            raise RuntimeError(f"coarse Woodbury core has no Cholesky factor: {exc}") from exc
        potrs, = sla.get_lapack_funcs(("potrs",), (core,))

        def solve(r):
            q = p if r.ndim == 1 else p[:, None]
            z = potrs(core, self.normal_project(r / q), lower=lower)[0]
            return r - self.normal_expand(z) / q

        return solve

    @cached_property
    def _band(self):
        """(symbol, split): the kept modes of the symbol, and the split plan.

        symbol[k] is the eigenvalue of K on mode k for k <= kmax, the last
        mode with |symbol| > eps max|symbol|.  split is None where the apply
        is the plain length-n round trip.  Otherwise it is (table, twiddle,
        back, weight) for n = B L, L the largest divisor of n up to sqrt(n):
        table[b, 2k] = cos(2 pi k b / B) and table[b, 2k + 1] =
        -sin(2 pi k b / B), twiddle[l, k] = exp(-2 pi i k l / n), back its
        conjugate, and weight[k] the real output's weight of mode k: 1/n for
        k = 0, which has no conjugate partner, and 2/n for the others (a
        split keeps kmax + 1 <= sqrt(n), so the Nyquist mode is never among
        them).
        """
        n = self.level.n_dof
        # eigenvalues of a circulant with first row r are sum_m r[m] w^{mk},
        # i.e. the conjugate FFT of the row; K is real, so the modes
        # k = 0..n//2 hold it all (mode n-k is the conjugate of mode k)
        m_hat, s_hat = np.conj(rfft(self._first_rows, axis=1))
        # coefficients near the float range overflow the transport modes
        with np.errstate(over="ignore", invalid="ignore"):
            half = 0.5 * self.dt * s_hat
            step = (m_hat - half) / (m_hat + half)
        # |symbol| = |step|^n_steps, so mode k is kept when
        # n_steps log(|step_k| / max|step|) > log eps; only those are raised
        mag = np.abs(step)
        if not np.isfinite(mag).all():
            c = self.config
            raise ValueError(f"parabolic coefficients a={c.a!r}, b={c.b!r}, c={c.c!r}"
                             f" overflow the time step on h={self.level.h!r}")
        # past n_steps of about 6e17, eps^(1/n_steps) rounds to 1; the cut
        # then stays just below the maximum, so the modes at it are kept
        cut = min(mag.max() * _EPS ** (1.0 / self.n_steps), np.nextafter(mag.max(), 0.0))
        # a band that keeps the last mode needs no search (c1 = 2 keeps all)
        kmax = mag.size - 1 if mag[-1] > cut else int(np.flatnonzero(mag > cut)[-1])
        symbol = step[: kmax + 1] ** self.n_steps
        stride = next(d for d in range(isqrt(n), 0, -1) if n % d == 0)
        points = n // stride
        # the split costs 8 (kmax + 1) n flops in two GEMMs and the round
        # trip about 5 n log2 n in two FFTs, which run at a several times
        # lower rate.  With one BLAS thread at n = 1024 to 65536 the two
        # broke even between kmax + 1 = 4 log2 n and 6 log2 n.  The tables
        # hold 2 (kmax + 1)(B + L) numbers; past 4 n (n prime, or twice a
        # prime) the split is not used either
        if kmax + 1 > 4.0 * log2(n) or (kmax + 1) * (points + stride) > 2 * n:
            return symbol, None
        k = np.arange(kmax + 1)
        # integer phases keep the angles exact before the one rounding
        angle = (2.0 * np.pi / points) * (np.outer(np.arange(points), k) % points)
        table = np.stack([np.cos(angle), -np.sin(angle)], axis=-1).reshape(points, -1)
        angle = (2.0 * np.pi / n) * (np.outer(np.arange(stride), k) % n)
        twiddle = np.cos(angle) - 1j * np.sin(angle)
        weight = np.where(k == 0, 1.0, 2.0) / n
        return symbol, (table, twiddle, np.conj(twiddle), weight)

    def _apply(self, u):
        return self._filter(self._band[0], u)

    def _apply_transpose(self, u):
        return self._filter(np.conj(self._band[0]), u)

    def _filter(self, symbol, u):
        if self._band[1] is None:
            # the modes past kmax are cut.  symbol goes first: numpy rounds
            # a complex product by operand order, and this order gives a
            # full band the bits of irfft(s * rfft(u))
            v = self._forward(u)
            head = v[: symbol.shape[0]]
            np.multiply(symbol if u.ndim == 1 else symbol[:, None], head, out=head)
            return self._back(v, u.shape[0])
        if u.ndim == 2:
            # one column at a time: a block's columns get the bits of single
            # applies, and no solve applies narrow-band blocks
            y = np.empty_like(u)
            for j in range(u.shape[1]):
                y[:, j] = self._filter(symbol, u[:, j])
            return y
        coef = self._forward(u)
        coef *= symbol
        return self._back(coef, u.shape[0])

    def _forward(self, u):
        """Forward half of the apply: the modes of u along axis 0, in the
        rfft convention (sum_j u_j e^{-2 pi i j k / n}).

        Rows 0..kmax are the kept modes.  A split vector gets those rows
        only; the plain path and every block get all n//2 + 1 rows.
        """
        split = self._band[1]
        if split is None or u.ndim == 2:
            return rfft(u)
        table, twiddle, _, _ = split
        # entry (b, l) of x is u[b L + l].  Column l's B-point sums for the
        # kept modes come out of one GEMM as L x (kmax + 1) complex numbers;
        # times twiddle and summed over l they are the modes of u
        x = u.reshape(table.shape[0], -1)
        r = (x.T @ table).view(complex)
        r *= twiddle
        return r.sum(axis=0)

    def _back(self, v, n):
        """Back half: the real length-n signal whose rfft modes are the
        rows of v up to kmax, and zero above.  Takes what _forward returns
        for the same shape, and overwrites it."""
        split = self._band[1]
        if split is None or v.ndim == 2:
            v[self._band[0].shape[0]:] = 0.0
            return irfft(v, n)
        table, _, back, weight = split
        v *= weight
        # mode k times the back-twiddles; one GEMM with the table sums the
        # real parts.  OpenBLAS takes a C-ordered copy of the buffer's
        # transpose about 5 us faster at n = 16384 than the transposed view
        r = back * v
        w = np.ascontiguousarray(r.view(float).T)
        del r  # freed before the output is allocated: the peak is w and y
        return (table @ w).reshape(n)


def parabolic_build(level, config=None, level_index=0):
    """Build the time-reversal forward operator on a periodic level.

    level_index records where the level sits in its hierarchy; it
    defaults to 0 for standalone use.
    """
    config = config or ParabolicConfig()
    if level.kind != KIND_PERIODIC:
        raise ValueError("parabolic operator requires a periodic-interval level")
    return ParabolicOperator(level_index, level, config)


# Largest coarse level whose band solve skips its refinement step (see
# EllipticOperator.scaled_inverse).  The step makes a solve 2.2 to 2.5
# times as long: 12 -> 30 us on 16 x 16 cells (225 dof; 14 -> 35 us before
# csr_apply), which made a 2D 32/2 solve 27% slower overall.  Unrefined,
# the G residual on 16 x 16 cells stays at most 2e-13 (refined: 1e-13
# where G is stiffest); it grows with cond(A)^2, to 6e-13 on 32 x 32
# cells, 3e-12 on 64 x 64 and 1e-11 late in a two-level solve on
# 128 x 128 cells (64 x 64 coarse), on which the CGS around it can stall
# at krylov_maxit.
BAND_UNREFINED_MAX_DOF = 225


@dataclass(frozen=True)
class EllipticConfig:
    """Options of the 2D solution map: there are none.

    The stiffness solve is exact (see EllipticOperator), so nothing is
    left to tune.  The class stays so that callers build both operator
    families alike.
    """


class EllipticOperator(ForwardOperator):
    """K u = y solving the five-point system L y = -M u (so K = -L^{-1} M).

    M is the level's mass_matrix and L = n^2 A, both the assembled matrices
    over h^2.  On the m = n - 1 interior lines A = T (x) I + I (x) T with
    T = tridiag(-1, 2, -1); the diagonal neighbors of the three-line
    triangulation carry no stiffness coupling.  The orthonormal sine matrix
    S_jk = sqrt(2/n) sin(pi j k / n) diagonalizes T, so on the m x m array of
    nodal values L^{-1} X = S ((S X S) / (n^2 Lambda)) S with
    Lambda_jk = t_j + t_k, t_k = 2 - 2 cos(pi k / n).  The operator stores
    -n^2 Lambda, so one division carries the sign of K.

    L and M are sparse, so K^T K = M L^{-2} M has no low-rank factor, but
    L^2 + M diag(w) M is banded: stiffness_band(w) gives its lower band,
    which scaled_inverse factors.
    """

    def __init__(self, level_index, level):
        super().__init__(level_index, level)
        n = level.n_cells
        k = np.arange(1, n)
        # integer phases reduced mod 2n keep the angles exact before rounding
        self._sine = np.sqrt(2.0 / n) * np.sin(np.pi / n * (np.outer(k, k) % (2 * n)))
        t = 2.0 - 2.0 * np.cos(np.pi / n * k)
        self._neg_eig = -(n * n) * (t[:, None] + t[None, :])

    def _in_sine_basis(self, x, scale):
        """S scale(S X S) S on the m x m grid of an n-vector x, or on the k
        stacked grids of an n x k block's columns; returned in x's shape."""
        s = self._sine
        g = x.reshape(s.shape) if x.ndim == 1 else x.T.reshape(-1, *s.shape)
        y = s @ scale(s @ g @ s) @ s
        return y.reshape(x.shape[::-1]).T

    def _negated_stiffness_solve(self, rhs):
        """-L^{-1} rhs; negation is exact, so these are the bits of -(L^{-1} rhs)."""
        return self._in_sine_basis(rhs, lambda y: y / self._neg_eig)

    def _apply(self, u):
        return self._negated_stiffness_solve(csr_apply(self.level.mass_matrix, u))

    def stiffness_residual(self, c, z):
        """c - L^2 z for two n-vectors or n x k blocks, with L^2 the diagonal
        n^4 Lambda^2 in the sine basis; it refines the band solves of
        scaled_inverse."""
        return c - self._in_sine_basis(z, lambda y: self._neg_eig**2 * y)

    def _apply_transpose(self, u):
        # L is symmetric, so K^T = -M L^{-1}
        return csr_apply(self.level.mass_matrix, self._negated_stiffness_solve(u))

    def stiffness_band(self, w):
        """Lower LAPACK band of H = L^2 + M diag(w) M for an n-vector w.

        Row d of the (2 n_cells + 1) x n_dof result holds H[j + d, j] at
        column j (zero where j + d >= n_dof): the mass couples nodes
        m + 1 = n_cells apart in the node order, so H has half-bandwidth
        2 n_cells.  The array is Fortran-ordered, as LAPACK's pbtrf takes
        it.  H is linear in (w, 1), and _band_terms holds that map as
        stencil terms; no operator is applied.
        """
        m = self.level.n_cells - 1
        band = np.zeros((m, m, 2 * m + 3))
        # w and ones on the m x m grid padded by one zero node all round, so
        # a term whose middle node falls outside the grid reads 0
        src = np.zeros((2, m + 2, m + 2))
        src[0, 1:-1, 1:-1] = w.reshape(m, m)
        src[1, 1:-1, 1:-1] = 1.0
        for d, target, middle, coef in self._band_terms:
            band[target + (d,)] += coef * src[middle]
        return band.reshape(m * m, -1).T

    @cached_property
    def _band_terms(self):
        """The map (w, 1) -> lower band of H, as (d, target, middle, coef).

        With M and L the stencils c and a, H[i, j] = sum_k c(i - k) w_k
        c(k - j) + a(i - k) a(k - j).  One term is one pair of stencil
        offsets s = k - j and t = i - k with delta = s + t in the lower
        band (d = delta_x m + delta_y >= 0): at every node j whose i lies on
        the grid (the target slices), it adds coef = c(s) c(t) times w at k
        (or a(s) a(t) times 1; the middle slices of the padded source).
        """
        m = self.level.n_cells - 1
        n2 = float(self.level.n_cells**2)
        # the level's mass stencil; L couples the first four neighbours only
        centre, off = _MASS_WEIGHTS
        mass = {(0, 0): centre, **dict.fromkeys(_THREE_LINE_NEIGHBOURS, off)}
        stiffness = {(0, 0): 4.0 * n2, **dict.fromkeys(_THREE_LINE_NEIGHBOURS[:4], -n2)}
        terms = []
        for source, stencil in enumerate((mass, stiffness)):
            for (sx, sy), cs in stencil.items():
                for (tx, ty), ct in stencil.items():
                    dx, dy = sx + tx, sy + ty
                    if dx < 0 or (dx == 0 and dy < 0):
                        continue  # the upper band, which pbtrf does not read
                    x0, y0 = max(0, -dx), max(0, -dy)
                    x1, y1 = m - max(0, dx), m - max(0, dy)
                    target = (slice(x0, x1), slice(y0, y1))
                    middle = (source, slice(x0 + sx + 1, x1 + sx + 1),
                              slice(y0 + sy + 1, y1 + sy + 1))
                    terms.append((dx * m + dy, target, middle, cs * ct))
        return terms

    def scaled_inverse(self, p):
        """r -> G^{-1} r with G = I + Z^T Z, Z = L^{-1} M D, by the Woodbury
        identity: r - M H^{-1} M (r/p)/p with the band H = L^2 + M D^2 M =
        stiffness_band(1/p^2), factored once in place (LAPACK pbtrf).  H
        squares the condition number of L, so above BAND_UNREFINED_MAX_DOF
        nodes each solve takes one step of iterative refinement.

        Raises RuntimeError when the band has no finite Cholesky factor.
        """
        w = 1.0 / (p * p)
        band = self.stiffness_band(w)
        pbtrf, pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
        band, info = pbtrf(band, lower=1, overwrite_ab=1)
        if info or not np.isfinite(band[0]).all():
            raise RuntimeError(
                f"coarse band core has no finite Cholesky factor (pbtrf info {info})")
        mass = self.level.mass_matrix
        refine = p.size > BAND_UNREFINED_MAX_DOF

        def solve(r):
            q = p if r.ndim == 1 else p[:, None]
            b = csr_apply(mass, r / q)
            z = pbtrs(band, b, lower=1, overwrite_b=not refine)[0]
            if refine:
                # b - H z = c - L^2 z with c = b - M D^2 M z
                d2mz = csr_apply(mass, z) * (w if r.ndim == 1 else w[:, None])
                c = b - csr_apply(mass, d2mz)
                z += pbtrs(band, self.stiffness_residual(c, z), lower=1, overwrite_b=1)[0]
            return r - csr_apply(mass, z) / q

        return solve


def elliptic_build(level, config=None, level_index=0):
    """Build the Poisson solution map on a Dirichlet square level.

    config is an EllipticConfig, which holds no options; level_index is as
    in parabolic_build.
    """
    if level.kind != KIND_DIRICHLET:
        raise ValueError("elliptic operator requires a dirichlet-square level")
    return EllipticOperator(level_index, level)

