"""Shared fixtures and independent oracles for the test suite.

Everything in this file is deliberately assembled the slow way: mass and
stiffness matrices by explicit element loops, transfer matrices from node
geometry, eigenvalues from the characteristic polynomial or from power
iteration, step lengths by bisection, and the tiny QP by enumerating
activity patterns.  None of it shares code with the package internals, so
agreement between the two is meaningful.  The exceptions are marked: a
dense forward operator for desk problems and the self-convergence probe of
the forward maps, which drive the package's public interface, and the
parabolic symbol and the spectral-radius bound check, which repeat the
package's arithmetic.
"""

import os
import tracemalloc
from math import ceil

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

from mgipm.cli import two_bump_target
from mgipm.diagnostics import _cell_spectrum
from mgipm.grid import (
    KIND_PERIODIC,
    GridHierarchy,
    GridLevel,
    NodalField,
    build_hierarchy,
    l2_project,
    node_coordinates,
    prolong,
)
from mgipm.ipm import ControlProblem, IpmOptions
from mgipm.operators import ForwardOperator, ParabolicConfig, elliptic_build, parabolic_build


# ---------------------------------------------------------------------------
# what the run's outcomes depend on

def pytest_report_header(config):
    """The BLAS thread settings, the CPUs this process may use and the
    numpy and scipy versions.  2D multilevel runs converge or fail with
    the BLAS thread count, so each log records what it ran on."""
    threads = " ".join(f"{key}={os.environ.get(key, 'unset')}" for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return [f"threads: {threads}, cpu affinity {len(os.sched_getaffinity(0))}",
            f"numpy {np.__version__}, scipy {scipy.__version__}"]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q drops the header, so a quiet log gets the same lines at its end
    if config.get_verbosity() < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# element-assembled matrices (unscaled, i.e. true L2 entries)

def mass_matrix_periodic(n):
    """1D periodic P1 mass matrix on n cells, element by element."""
    h = 1.0 / n
    me = (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    M = np.zeros((n, n))
    for e in range(n):
        idx = (e, (e + 1) % n)
        for a in range(2):
            for b in range(2):
                M[idx[a], idx[b]] += me[a, b]
    return M


def _triangles(n):
    # vertex triples of the three-line triangulation of the unit square,
    # full (n+1)^2 grid, diagonal from (i,j) to (i+1,j+1)
    tris = []
    for i in range(n):
        for j in range(n):
            v00 = (i, j)
            v10 = (i + 1, j)
            v01 = (i, j + 1)
            v11 = (i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v01, v11))
    return tris


def _interior_ids(n):
    # interior vertices in the package ordering: x index slow, y fast
    ids = []
    for ix in range(1, n):
        for iy in range(1, n):
            ids.append(ix * (n + 1) + iy)
    return np.array(ids)


def mass_matrix_dirichlet(n):
    """Interior block of the 2D P1 mass matrix, triangle-by-triangle."""
    h = 1.0 / n
    area = h * h / 2.0
    me = (area / 12.0) * np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
    )
    size = (n + 1) ** 2
    rows, cols, vals = [], [], []
    for tri in _triangles(n):
        vids = [ix * (n + 1) + iy for ix, iy in tri]
        for a in range(3):
            for b in range(3):
                rows.append(vids[a])
                cols.append(vids[b])
                vals.append(me[a, b])
    M = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    ids = _interior_ids(n)
    return M[ids][:, ids]


def stiffness_matrix_dirichlet(n):
    """Interior block of the 2D P1 stiffness matrix, generic element formula."""
    h = 1.0 / n
    size = (n + 1) ** 2
    rows, cols, vals = [], [], []
    for tri in _triangles(n):
        pts = np.array([(ix * h, iy * h) for ix, iy in tri])
        x, y = pts[:, 0], pts[:, 1]
        b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
        c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
        area = 0.5 * abs(
            (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
        )
        se = (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
        vids = [ix * (n + 1) + iy for ix, iy in tri]
        for a in range(3):
            for bb in range(3):
                rows.append(vids[a])
                cols.append(vids[bb])
                vals.append(se[a, bb])
    S = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    ids = _interior_ids(n)
    return S[ids][:, ids]


# ---------------------------------------------------------------------------
# transfer matrices from node geometry

def prolong_matrix_periodic(nc):
    """Interpolation from nc to 2nc periodic cells: copy or average."""
    J = np.zeros((2 * nc, nc))
    for k in range(2 * nc):
        if k % 2 == 0:
            J[k, k // 2] = 1.0
        else:
            J[k, (k - 1) // 2 % nc] += 0.5
            J[k, ((k + 1) // 2) % nc] += 0.5
    return J


def prolong_matrix_dirichlet(nc):
    """Interpolation between interior grids of nc and 2nc square cells.

    Fine nodes with both indices even sit on coarse nodes; odd/even nodes
    sit on axis edges; odd/odd nodes sit on the slope-one diagonals, so
    they average the two diagonal endpoints.  Out-of-range coarse indices
    carry the zero boundary value.  Sparse, entry by entry, so that large
    grids stay cheap.
    """
    mf = 2 * nc - 1
    mc = nc - 1
    J = sp.dok_matrix((mf * mf, mc * mc))

    def coarse(ixc, iyc, row, wgt):
        if 1 <= ixc <= mc and 1 <= iyc <= mc:
            J[row, (ixc - 1) * mc + (iyc - 1)] += wgt

    for fx in range(1, mf + 1):
        for fy in range(1, mf + 1):
            row = (fx - 1) * mf + (fy - 1)
            ex, ey = fx % 2 == 0, fy % 2 == 0
            if ex and ey:
                coarse(fx // 2, fy // 2, row, 1.0)
            elif not ex and ey:
                coarse((fx - 1) // 2, fy // 2, row, 0.5)
                coarse((fx + 1) // 2, fy // 2, row, 0.5)
            elif ex and not ey:
                coarse(fx // 2, (fy - 1) // 2, row, 0.5)
                coarse(fx // 2, (fy + 1) // 2, row, 0.5)
            else:
                coarse((fx - 1) // 2, (fy - 1) // 2, row, 0.5)
                coarse((fx + 1) // 2, (fy + 1) // 2, row, 0.5)
    return J.tocsr()


# ---------------------------------------------------------------------------
# small eigenvalue oracles

def char_poly_coeffs(A):
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = []
    Mk = np.zeros_like(A)
    ck = 1.0
    for k in range(1, n + 1):
        Mk = A @ (Mk + ck * np.eye(n))
        ck = -np.trace(Mk) / k
        coeffs.append(ck)
    return np.array(coeffs)


def durand_kerner(coeffs, iters=500):
    """All roots of a monic polynomial by simultaneous iteration."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.size

    def poly(z):
        out = np.ones_like(z)
        for c in coeffs:
            out = out * z + c
        return out

    z = (0.4 + 0.9j) ** np.arange(1, n + 1)
    for _ in range(iters):
        nxt = z.copy()
        for i in range(n):
            denom = np.prod(nxt[i] - np.delete(nxt, i))
            nxt[i] = nxt[i] - poly(nxt[i : i + 1])[0] / denom
        if np.max(np.abs(nxt - z)) < 1e-14 * max(1.0, np.max(np.abs(nxt))):
            z = nxt
            break
        z = nxt
    return z


def power_dominant(A, iters=5000, seed=7):
    """Rayleigh-quotient estimate of the dominant eigenvalue."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = A @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        lam = float(v @ (A @ v))
    return lam


# ---------------------------------------------------------------------------
# step-length and QP oracles

def bisection_max_step(feasible, cap=1e12, iters=200):
    """Largest alpha with feasible(alpha) true, found by expand-then-bisect.

    feasible must be monotone (true on [0, amax), false after); returns
    np.inf when the cap itself is feasible.
    """
    hi = 1.0
    while feasible(hi):
        hi *= 2.0
        if hi > cap:
            return np.inf
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def enumerate_box_qp(K, w, beta, f, lo, hi):
    """Global solution of min 0.5|Ku-f|^2_W + beta/2 |u|^2_W, lo <= u <= hi.

    Tries all 3^n activity patterns (lower bound, free, upper bound),
    solves the equality-constrained problem of each, and keeps the pattern
    whose solution is feasible with correctly signed gradients.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    W = np.diag(w)
    A = beta * W + K.T @ W @ K
    b = K.T @ (w * f)

    best = None
    for code in range(3 ** n):
        pattern = []
        c = code
        for _ in range(n):
            pattern.append(c % 3)
            c //= 3
        u = np.empty(n)
        fixed = np.zeros(n, dtype=bool)
        for i, tag in enumerate(pattern):
            if tag == 0:
                u[i] = lo[i]
                fixed[i] = True
            elif tag == 2:
                u[i] = hi[i]
                fixed[i] = True
        free = ~fixed
        if free.any():
            rhs = b[free] - A[np.ix_(free, fixed)] @ u[fixed]
            u[free] = np.linalg.solve(A[np.ix_(free, free)], rhs)
        g = A @ u - b
        tol = 1e-10
        ok = np.all(u >= lo - tol) and np.all(u <= hi + tol)
        for i, tag in enumerate(pattern):
            if tag == 1:
                ok = ok and abs(g[i]) <= 1e-8
            elif tag == 0:
                ok = ok and g[i] >= -1e-8
            else:
                ok = ok and g[i] <= 1e-8
        if not ok:
            continue
        val = 0.5 * u @ (A @ u) - b @ u
        if best is None or val < best[0] - 1e-14:
            best = (val, u.copy())
    assert best is not None, "no activity pattern passed the sign checks"
    return best[1]


# ---------------------------------------------------------------------------
# forward-operator test double and order-of-accuracy oracle (these two use
# the package's fields, transfers and square mass matrices)

class DenseOperator(ForwardOperator):
    """Forward operator backed by an explicit matrix; handy for small cases."""

    def __init__(self, level_index, level, matrix):
        super().__init__(level_index, level)
        self.matrix = np.asarray(matrix, dtype=float)

    def _apply(self, u):
        return self.matrix @ u

    def _apply_transpose(self, u):
        return self.matrix.T @ u


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
        if fine_level.kind == KIND_PERIODIC:
            # element by element: the P1 function with end values a, b has
            # squared L2 norm h (a^2 + a b + b^2)/3 on its cell
            nxt = np.roll(diff, -1)
            sq = fine_level.h * float(np.sum(diff * diff + diff * nxt + nxt * nxt)) / 3.0
        else:
            sq = fine_level.h ** 2 * float(diff @ (fine_level.mass_matrix @ diff))
        errors.append(np.sqrt(sq))
    return errors


# ---------------------------------------------------------------------------
# spectral oracles of the two forward operators and the two-grid map
# (these three repeat the package's arithmetic on its definitions, so that
# a test need not read an operator's own tables)

def crank_nicolson_symbol(level, config):
    """Eigenvalues s[k], k = 0..n//2, of the parabolic operator on a level.

    K = E^N with E = (M + dt/2 S)^{-1}(M - dt/2 S), N = ceil(T/(c1 h)) and
    dt = T/N.  M and S are circulant, with the first rows of the P1 mass
    and transport matrices of u_t - a u_xx - b u_x + c u; their
    eigenvalues are the conjugate DFTs of those rows.  Every mode is
    computed, including the ones the operator drops.
    """
    n, h = level.n_cells, level.h
    a, b, c = config.a, config.b, config.c
    n_steps = max(1, ceil(config.T / (config.c1 * h)))
    dt = config.T / n_steps
    rows = np.zeros((2, n))
    rows[0, 0] = 2.0 * h / 3.0
    rows[0, 1] = h / 6.0
    rows[0, -1] = h / 6.0
    rows[1, 0] = 2.0 * a / h + 2.0 * c * h / 3.0
    rows[1, 1] = -a / h - b / 2.0 + c * h / 6.0
    rows[1, -1] = -a / h + b / 2.0 + c * h / 6.0
    mass, transport = np.conj(np.fft.rfft(rows, axis=1))
    half = 0.5 * dt * transport
    return ((mass - half) / (mass + half)) ** n_steps


def sine_diagonalization(n, dtype=float):
    """(S, Lam) with A = (S (x) S) diag(Lam.ravel()) (S (x) S) on n cells.

    A is the five-point stiffness T (x) I + I (x) T of the elliptic
    operator on the m = n - 1 interior lines, S_jk = sqrt(2/n)
    sin(pi j k / n) is orthonormal and symmetric, and Lam_jk = t_j + t_k
    with t_k = 2 - 2 cos(pi k / n), all evaluated in dtype.
    """
    one = np.ones((), dtype)
    pi = np.arccos(-one)  # pi to the precision of dtype
    k = np.arange(1, n).astype(dtype)
    # integer phases reduced mod 2n keep the angles exact before rounding
    s = np.sqrt(2 * one / n) * np.sin(pi / n * (np.outer(k, k) % (2 * n)))
    t = 2 - 2 * np.cos(pi / n * k)
    return s, t[:, None] + t[None, :]


def lemma_a2_check(sg):
    """Spectral radius of the preconditioned error versus its bound.

    The iteration matrix I - S G has spectral radius max |1 - alpha| over
    the spectrum of S G, which the spectral distance controls through
    rho <= ((e^d - 1)/d) * d = e^d - 1.  sg is S G itself or its
    compression C from two_grid_cell; the unit eigenvalues C leaves out
    change neither side.  Returns (lhs, rhs) and raises if the inequality
    fails beyond a 1e-6 slack.
    """
    alpha, d, _ = _cell_spectrum(sg)
    lhs = float(np.max(np.abs(1.0 - alpha), initial=0.0))
    rhs = float(np.expm1(d))
    if lhs > rhs * (1.0 + 1e-6):
        raise ValueError(
            f"spectral-radius bound violated: {lhs:.6e} > {rhs:.6e}"
        )
    return lhs, rhs


# ---------------------------------------------------------------------------
# working-set measurement

def peak_vectors(fn, n):
    """Peak memory that fn() allocates, in float64 vectors of length n.

    Counted by tracemalloc from the call on, so arrays that exist before
    the call do not count.
    """
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not outer:
            tracemalloc.stop()
    return peak / (8.0 * n)


# ---------------------------------------------------------------------------
# the `mgipm run` problems with their set-up done, for whole solves

def _warm(hier, ops):
    # the operator tables and the transfer matrices, built as the first
    # apply and transfer build them; the coarse inverse is left to the solve
    for i, (lv, op) in enumerate(zip(hier.levels, ops)):
        op.apply(np.zeros(lv.n_dof))
        if i > 0:
            l2_project(hier, NodalField(i, np.zeros(lv.n_dof)))
            prolong(hier, NodalField(i - 1, np.zeros(hier.levels[i - 1].n_dof)))


def warm_parabolic_problem(n, levels):
    """The parabolic `mgipm run` problem with the operator symbols and the
    transfer matrices built up front; the coarse normal factor is left to
    the solve, whose first preconditioner builds it."""
    hier = build_hierarchy("periodic-interval", n >> (levels - 1), levels)
    ops = [parabolic_build(lv, ParabolicConfig(), level_index=i)
           for i, lv in enumerate(hier.levels)]
    _warm(hier, ops)
    fin = levels - 1
    f = ops[-1].apply(two_bump_target(node_coordinates(hier.finest)))
    return ControlProblem(hier, ops, NodalField(fin, f), 1e-3,
                          NodalField(fin, np.zeros(n)), NodalField(fin, np.ones(n)))


def warm_elliptic_problem(n, levels):
    """(problem, options) of the elliptic `mgipm run` on n cells, warmed as
    warm_parabolic_problem is; the coarse band is left to the solve."""
    hier = build_hierarchy("dirichlet-square", n >> (levels - 1), levels)
    ops = [elliptic_build(lv, level_index=i) for i, lv in enumerate(hier.levels)]
    _warm(hier, ops)
    fin = levels - 1
    x, y = node_coordinates(hier.finest)
    f = ops[-1].apply(1.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    size = hier.finest.n_dof
    prob = ControlProblem(hier, ops, NodalField(fin, f), 1e-6,
                          NodalField(fin, np.full(size, -1.0)),
                          NodalField(fin, np.ones(size)))
    return prob, IpmOptions(mu_tol=1e-15)


# ---------------------------------------------------------------------------
# tiny handmade grids

def toy_hierarchy(n=3):
    """A single fabricated periodic level with n dofs, for desk problems."""
    level = GridLevel("periodic-interval", n)
    return GridHierarchy((level,))


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
