"""Forward maps: heat-type propagator, elliptic solve, adjoints.

The propagator is checked against closed-form Fourier decay, the elliptic
map against a separable eigenfunction and the assembled dense -A^{-1} M,
and the adjoints against dense transposes.
"""

import re

import numpy as np
import pytest
import scipy.fft
from numpy.testing import assert_array_equal

from conftest import (
    convergence_probe,
    crank_nicolson_symbol,
    mass_matrix_dirichlet,
    mass_matrix_periodic,
    peak_vectors,
    sine_diagonalization,
    stiffness_matrix_dirichlet,
)
from mgipm.grid import build_hierarchy, node_coordinates
from mgipm.operators import (
    EllipticConfig,
    ParabolicConfig,
    ZeroOperator,
    elliptic_build,
    parabolic_build,
)


@pytest.fixture
def line_1024():
    return build_hierarchy("periodic-interval", 1024, 1).finest


@pytest.mark.parametrize("build, kind, reason", [
    (parabolic_build, "dirichlet-square",
     "parabolic operator requires a periodic-interval level"),
    (elliptic_build, "periodic-interval",
     "elliptic operator requires a dirichlet-square level"),
], ids=["parabolic", "elliptic"])
def test_builder_rejects_the_other_grid_kind(build, kind, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        build(build_hierarchy(kind, 8, 1).finest)


class TestParabolicBuild:
    def test_constants_ride_through_without_reaction(self, line_1024):
        op = parabolic_build(line_1024, ParabolicConfig(a=4e-3, b=0.4, c=0.0, T=0.8))
        out = op.apply(np.full(1024, 2.0))
        assert np.max(np.abs(out - 2.0)) <= 1e-12

    def test_pure_diffusion_damps_fourier_mode(self, line_1024):
        cfg = ParabolicConfig(a=4e-3, b=0.0, c=0.0, T=0.8)
        op = parabolic_build(line_1024, cfg)
        x = node_coordinates(line_1024)
        u0 = np.sin(2 * np.pi * x)
        expected = np.exp(-4 * np.pi**2 * cfg.a * cfg.T) * u0
        assert np.max(np.abs(op.apply(u0) - expected)) <= 1e-3

    def test_transport_shifts_phase(self, line_1024):
        # with b != 0 the damped mode also travels; the flux form
        # u_t = (a u_x + b u)_x moves profiles toward smaller x
        cfg = ParabolicConfig(a=4e-3, b=0.4, c=0.0, T=0.8)
        op = parabolic_build(line_1024, cfg)
        x = node_coordinates(line_1024)
        u0 = np.sin(2 * np.pi * x)
        decay = np.exp(-4 * np.pi**2 * cfg.a * cfg.T)
        expected = decay * np.sin(2 * np.pi * (x + cfg.b * cfg.T))
        assert np.max(np.abs(op.apply(u0) - expected)) <= 5e-3

    @pytest.mark.parametrize("n", [8, 9, 63, 64])
    def test_spectral_apply_matches_dense_crank_nicolson(self, n):
        # E^{N_t} with E = (M + k/2 S)^{-1}(M - k/2 S), M and S assembled
        # element by element from the weak form of u_t - a u_xx - b u_x + c u
        cfg = ParabolicConfig(a=4e-3, b=0.4, c=0.3, T=0.8)
        level = build_hierarchy("periodic-interval", n, 1).finest
        op = parabolic_build(level, cfg)
        h = 1.0 / n
        stiff = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        # int phi_b' phi_a over one cell
        adv = np.array([[-0.5, 0.5], [-0.5, 0.5]])
        mass = (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        S = np.zeros((n, n))
        for e in range(n):
            idx = np.array([e, (e + 1) % n])
            S[np.ix_(idx, idx)] += cfg.a * stiff - cfg.b * adv + cfg.c * mass
        M = mass_matrix_periodic(n)
        n_steps = int(np.ceil(cfg.T / h))
        k = cfg.T / n_steps
        K = np.linalg.matrix_power(np.linalg.solve(M + 0.5 * k * S, M - 0.5 * k * S), n_steps)
        got = op.apply(np.eye(n))
        assert np.linalg.norm(got - K) <= 1e-12 * np.linalg.norm(K)

    def test_transpose_pairing(self, rng):
        level = build_hierarchy("periodic-interval", 256, 1).finest
        op = parabolic_build(level, ParabolicConfig())
        for _ in range(10):
            u = rng.standard_normal(256)
            v = rng.standard_normal(256)
            lhs = float(op.apply(u) @ v)
            rhs = float(u @ op.apply_transpose(v))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ParabolicConfig(a=-1.0)
        with pytest.raises(ValueError):
            ParabolicConfig(T=0.0)
        with pytest.raises(ValueError):
            ParabolicConfig(b=-0.1)
        with pytest.raises(ValueError):
            ParabolicConfig(c=-0.1)
        with pytest.raises(ValueError):
            ParabolicConfig(c1=0.0)
        with pytest.raises(ValueError):
            ParabolicConfig(b=float("nan"))
        with pytest.raises(ValueError):
            ParabolicConfig(T=float("inf"))

    @pytest.mark.parametrize("n, c1", [(64, 1e-17), (1000, 1e-15), (1000, 1e-30),
                                       (64, 1e-14)])
    def test_tiny_time_step_is_refused(self, n, c1):
        # each step's modulus is rounded to a relative eps and the symbol is
        # its n_steps-th power, so from T/(c1 h) = 1/eps steps on no digit of
        # the symbol is right (5.12e18 steps at 64/1e-17, 5.1e15 at 64/1e-14);
        # the operator built on 64/1e-17 converged a run without a word
        level = build_hierarchy("periodic-interval", n, 1).finest
        with pytest.raises(ValueError, match=re.escape(
                f"time-step ratio c1={c1!r} leaves T/(c1*h) at or past 1/eps steps"
                f" for T=0.8 and h={level.h!r}")):
            parabolic_build(level, ParabolicConfig(c1=c1))

    def test_smallest_time_step_keeps_the_top_mode(self):
        # 2.56e15 steps, just below 1/eps: eps^(1/n_steps) is 1 - 1.4e-14,
        # so the band cut stays below the largest step modulus and the
        # constant mode (step exactly 1 without reaction) is kept
        level = build_hierarchy("periodic-interval", 64, 1).finest
        op = parabolic_build(level, ParabolicConfig(c1=2e-14))
        assert op.normal_rank >= 1
        u = np.full(64, 0.75)
        assert np.allclose(op.apply(u), u, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n, config", [
        (64, ParabolicConfig(a=1e308)), (64, ParabolicConfig(c=1e308)),
        (64, ParabolicConfig(a=1e306)), (4, ParabolicConfig(a=1e308, c1=2.0)),
    ], ids=["a=1e308", "c=1e308", "a=1e306", "a=1e308-n=4"])
    def test_overflowing_coefficients_raise_value_error(self, n, config):
        # the transport modes overflow and the step modulus is NaN, which
        # the build refuses before any apply.  Nothing on the way warns
        level = build_hierarchy("periodic-interval", n, 1).finest
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            with pytest.raises(ValueError, match=re.escape(
                    f"a={config.a!r}, b=0.4, c={config.c!r} overflow")):
                parabolic_build(level, config)

    def test_large_coefficient_on_a_coarse_grid_still_applies(self):
        # a = 1e306 overflows from n = 64 up; at n = 16 the modes stay finite
        level = build_hierarchy("periodic-interval", 16, 1).finest
        op = parabolic_build(level, ParabolicConfig(a=1e306))
        assert np.all(np.isfinite(op.apply(np.ones(16))))


@pytest.fixture(scope="module")
def square_64():
    level = build_hierarchy("dirichlet-square", 64, 1).finest
    return level, elliptic_build(level)


def expanded_factor(op):
    """F = normal_expand(I_r): the factor of K^T K = F F^T, column by column."""
    return op.normal_expand(np.eye(op.normal_rank))


class TestNormalFactor:
    # 8 cells keep every mode, so the Nyquist column (even n) is in the factor
    @pytest.mark.parametrize("n", [8, 9, 64, 63])
    def test_reproduces_the_materialized_normal_matrix(self, n):
        level = build_hierarchy("periodic-interval", n, 1).finest
        op = parabolic_build(level, ParabolicConfig())
        F = expanded_factor(op)
        assert op.matvec_counter == 0
        if n < 10:
            assert F.shape == (n, n)
        H = op.normal_matrix
        assert np.max(np.abs(F @ F.T - H)) <= 1e-14 * np.max(np.abs(H))

    def test_is_low_rank_on_a_fine_coarsest_level(self, line_1024):
        op = parabolic_build(line_1024, ParabolicConfig())
        assert op.normal_rank <= 64
        assert expanded_factor(op).shape == (1024, op.normal_rank)

    def test_absent_where_there_is_no_circulant_structure(self, square_64):
        _, op = square_64
        assert op.normal_rank is None

    def test_zero_operator_has_an_exact_empty_factor(self):
        level = build_hierarchy("periodic-interval", 16, 1).finest
        op = ZeroOperator(0, level)
        assert op.normal_rank == 0
        F = expanded_factor(op)
        assert F.shape == (16, 0)
        assert_array_equal(F @ F.T, op.normal_matrix)


class TestNormalMembers:
    """F^T y, F z and F^T diag(w) F agree with one factor F that is K^T K.

    F := normal_expand(I_r) is checked against normal_matrix, the K^T K
    materialized from applies; then normal_project is its transpose and
    normal_gram its weighted Gram matrix.  The members take one rfft or
    irfft at every size; the split flag only checks which plan the apply
    has (1024 and 1030 = 103 x 10 split, 64, 1021 prime and a = 1e-5 with
    457 columns take the round trip).  A full band's factor has the
    Nyquist column (16 cells at c1 = 2).
    """

    @pytest.mark.parametrize(
        "n, config, split",
        [
            (64, ParabolicConfig(), False),
            (1024, ParabolicConfig(), True),
            (1030, ParabolicConfig(), True),
            (1021, ParabolicConfig(), False),
            (16, ParabolicConfig(c1=2.0), False),
            (1000, ParabolicConfig(a=1e-5), False),
        ],
    )
    def test_match_the_explicit_factor(self, n, config, split, rng):
        level = build_hierarchy("periodic-interval", n, 1).finest
        op = parabolic_build(level, config)
        assert (op._split is not None) == split
        F = expanded_factor(op)
        r = op.normal_rank
        if config.c1 == 2.0:
            # every mode is kept, the Nyquist mode with one column
            assert r == n
        assert op.matvec_counter == 0

        def gap(got, ref):
            assert got.shape == ref.shape
            return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

        assert gap(op.normal_project(np.eye(n)).T, F) <= 1e-13
        for cols in ((), (3,)):
            y = rng.standard_normal((n, *cols))
            assert gap(op.normal_project(y), F.T @ y) <= 1e-13
            z = rng.standard_normal((r, *cols))
            assert gap(op.normal_expand(z), F @ z) <= 1e-13
        # an uneven weight, as 1/p^2 is: both parts of w_hat matter
        w = 1.0 + rng.random(n) + np.sin(2 * np.pi * np.arange(n) / n)
        assert gap(op.normal_gram(w), F.T @ (w[:, None] * F)) <= 1e-13
        assert op.matvec_counter == 0
        H = op.normal_matrix
        assert gap(F @ F.T, H) <= 1e-14

    # 1024 and 1030 split the apply, 64 and 1021 do not; the members
    # read the modes of one transform either way
    @pytest.mark.parametrize("n", [64, 1021, 1024, 1030])
    def test_have_the_bits_of_the_rfft_formula(self, n, rng):
        level = build_hierarchy("periodic-interval", n, 1).finest
        op = parabolic_build(level, ParabolicConfig())
        keep, paired, scale, amp = op._normal_modes
        for cols in ((), (3,)):
            y = rng.standard_normal((n, *cols))
            z = rng.standard_normal((op.normal_rank, *cols))
            s, a = (scale, amp) if not cols else (scale[:, None], amp[:, None])
            modes = scipy.fft.rfft(y, axis=0)[keep]
            assert_array_equal(op.normal_project(y), np.concatenate(
                [modes.real * s, modes[paired].imag * -s[paired]]))
            v = np.zeros((n // 2 + 1, *cols), dtype=complex)
            v.real[keep] = z[: keep.size] * a
            v.imag[keep[paired]] = z[keep.size:] * -a[paired]
            assert_array_equal(op.normal_expand(z), scipy.fft.irfft(v, n, axis=0))

    def test_zero_operator_works_at_rank_zero(self):
        level = build_hierarchy("periodic-interval", 16, 1).finest
        op = ZeroOperator(0, level)
        assert_array_equal(op.normal_expand(np.zeros(0)), np.zeros(16))
        assert_array_equal(op.normal_expand(np.zeros((0, 2))), np.zeros((16, 2)))


class TestNormalMatrix:
    def test_normal_matrix_peak_is_one_matrix(self):
        # the elliptic coarse K^T K of the 2D two-level runs (225 dof) is
        # built column by column: its peak is the matrix itself plus a few
        # vectors, where one n x n block apply peaks near 4 matrices
        level = build_hierarchy("dirichlet-square", 16, 1).finest
        op = elliptic_build(level)
        n = level.n_dof
        assert n == 225
        level.mass_matrix  # the level's cached mass, built by its first use
        assert peak_vectors(lambda: op.normal_matrix, n * n) <= 1.25
        assert op.matvec_counter == 2 * n


class TestEllipticBuild:
    def test_separable_eigenfunction(self, square_64):
        level, op = square_64
        x, y = node_coordinates(level)
        u = np.sin(np.pi * x) * np.sin(np.pi * y)
        expected = -u / (2 * np.pi**2)
        err = op.apply(u) - expected
        rel = np.sqrt(np.sum(level.weights * err * err))
        rel /= np.sqrt(np.sum(level.weights * expected * expected))
        assert rel <= 2e-3

    def test_zero_maps_to_zero(self, square_64):
        level, op = square_64
        assert not op.apply(np.zeros(level.n_dof)).any()

    def test_transpose_pairing(self, square_64, rng):
        level, op = square_64
        n = level.n_dof
        for _ in range(10):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            lhs = float(op.apply(u) @ v)
            rhs = float(u @ op.apply_transpose(v))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_negative_definite_in_mass_pairing(self, rng):
        # <K u, u>_M < 0 for u != 0: the map inverts a negative Laplacian
        level = build_hierarchy("dirichlet-square", 16, 1).finest
        op = elliptic_build(level)
        for _ in range(5):
            u = rng.standard_normal(level.n_dof)
            val = float((level.mass_matrix @ op.apply(u)) @ u)
            assert val < 0

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_dense_oracle(self, n):
        # K = -A^{-1} M with A and M assembled element by element
        level = build_hierarchy("dirichlet-square", n, 1).finest
        op = elliptic_build(level, EllipticConfig())
        A = stiffness_matrix_dirichlet(n).toarray()
        K = -np.linalg.solve(A, mass_matrix_dirichlet(n).toarray())
        for apply, expected in ((op.apply, K), (op.apply_transpose, K.T)):
            got = apply(np.eye(level.n_dof))
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


    @pytest.mark.parametrize("n", [4, 16, 64, 128])
    def test_has_the_bits_of_the_sine_formula(self, n, rng):
        # the operator stores -n^2 Lambda, so that one division carries the
        # sign of K; negation and the power-of-two factors are exact, so
        # apply and transpose keep the bits of -S((S X S)/Lambda)S with the
        # assembled mass h^2 M, on vectors and on n x k blocks column by column
        level = build_hierarchy("dirichlet-square", n, 1).finest
        op = elliptic_build(level)
        s, lam = sine_diagonalization(n)
        mass = level.h**2 * level.mass_matrix
        m = n - 1

        def minus_inverse(x):
            return -(s @ ((s @ x.reshape(m, m) @ s) / lam) @ s).ravel()

        for cols in ((), (3,)):
            u = rng.standard_normal((level.n_dof, *cols))
            columns = [u] if not cols else list(u.T)
            apply = [minus_inverse(mass @ c) for c in columns]
            transpose = [mass @ minus_inverse(c) for c in columns]
            if cols:
                apply, transpose = np.column_stack(apply), np.column_stack(transpose)
            else:
                apply, transpose = apply[0], transpose[0]
            assert_array_equal(op.apply(u), apply)
            assert_array_equal(op.apply_transpose(u), transpose)


class TestStiffnessBand:
    """The lower band of H = L^2 + M diag(w) M (the coarse Woodbury core)
    and the residual c - L^2 z that refines its solves.

    L = A / h^2 is assembled densely from the sine diagonalization of the
    five-point A, and M, the level's mass, element by element and rescaled
    by 1/h^2; w is scaled by 1/h^4, so that both terms of H are of order
    1/h^4.
    """

    @staticmethod
    def laplacian(n):
        s, lam = sine_diagonalization(n)
        ss = np.kron(s, s)
        return ss @ ((n * n) * lam.ravel()[:, None] * ss)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_the_dense_matrix(self, n, rng):
        level = build_hierarchy("dirichlet-square", n, 1).finest
        op = elliptic_build(level)
        L = self.laplacian(n)
        M = mass_matrix_dirichlet(n).toarray() / level.h**2
        size = level.n_dof
        w = (1.0 + rng.random(size)) / level.h**4
        H = L @ L + M @ (w[:, None] * M)
        band = op.stiffness_band(w)
        kd = 2 * n
        assert band.shape == (kd + 1, size)
        assert band.flags.f_contiguous
        assert op.matvec_counter == 0
        # H has half-bandwidth 2n: nothing of it lies outside the band
        i, j = np.indices(H.shape)
        assert np.max(np.abs(H[i - j > kd]), initial=0.0) <= 1e-13 * np.max(np.abs(H))
        ref = np.zeros_like(band)
        for d in range(kd + 1):
            ref[d, : size - d] = np.diagonal(H, -d)
        assert np.max(np.abs(band - ref)) <= 1e-13 * np.max(np.abs(H))

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_residual_is_c_minus_a_squared_z(self, n, rng):
        level = build_hierarchy("dirichlet-square", n, 1).finest
        op = elliptic_build(level)
        L = self.laplacian(n)
        size = level.n_dof
        for shape in ((size,), (size, 3)):
            c, z = rng.standard_normal((2, *shape))
            ref = c - L @ (L @ z)
            out = op.stiffness_residual(c, z)
            assert out.shape == shape
            assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)
        assert op.matvec_counter == 0


class TestAdjointH:
    def test_pairing_in_weighted_inner_product(self, rng):
        level = build_hierarchy("dirichlet-square", 32, 1).finest
        op = elliptic_build(level)
        n = level.n_dof
        for _ in range(10):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            lhs = float(np.sum(level.weights * op.apply(u) * v))
            rhs = float(np.sum(level.weights * u * op.apply_transpose(v)))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


class TestBandApply:
    """The band-limited apply against the full-length transform.

    The oracle is irfft(s rfft(u)) at length n with the full symbol s of
    crank_nicolson_symbol (the Crank-Nicolson test above checks the
    operator against the dense matrices).  Dropping the modes with
    |s| <= eps max|s| moves the result by at most eps max|s| |u|, and
    max|s| is 1 to roundoff here (c = 0 keeps the constant mode), so
    4 eps |u| leaves room for the rounding of the sums.
    """

    @staticmethod
    def points(op):
        # B of the split n = B L, or n where the apply is the plain transform
        split = op._split
        return op.level.n_dof if split is None else split[0].shape[0]

    # (n, config, B): 10 and 14 keep every mode; 1030 = 103 x 10 and
    # 16384 = 128 x 128 split the default band (kmax = 16); a = 1e-5 keeps
    # modes up to 310 at n = 1000 and 337 at n = 16384, past the GEMMs'
    # crossover; 1021 is prime and 1018 = 2 x 509, so no split has small
    # tables; c1 = 2 keeps every mode
    @pytest.mark.parametrize(
        "n, config, points",
        [
            (10, ParabolicConfig(), 10),
            (14, ParabolicConfig(), 14),
            (1030, ParabolicConfig(), 103),
            (16384, ParabolicConfig(), 128),
            (1000, ParabolicConfig(a=1e-5), 1000),
            (16384, ParabolicConfig(a=1e-5), 16384),
            (1030, ParabolicConfig(c1=2.0), 1030),
            (1021, ParabolicConfig(), 1021),
            (1018, ParabolicConfig(), 1018),
        ],
    )
    def test_matches_the_full_length_transform(self, n, config, points, rng):
        level = build_hierarchy("periodic-interval", n, 1).finest
        op = parabolic_build(level, config)
        assert self.points(op) == points
        s = crank_nicolson_symbol(level, config)
        u = rng.standard_normal((n, 3))
        eps = np.finfo(float).eps
        for apply, symbol in ((op.apply, s), (op.apply_transpose, np.conj(s))):
            full = np.fft.irfft(symbol[:, None] * np.fft.rfft(u, axis=0), n, axis=0)
            block = apply(u)
            for j in range(u.shape[1]):
                bound = 4.0 * eps * np.linalg.norm(u[:, j])
                assert np.linalg.norm(block[:, j] - full[:, j]) <= bound
                assert np.linalg.norm(apply(u[:, j]) - full[:, j]) <= bound

    def test_full_band_is_the_plain_transform(self, rng):
        # with every mode kept the apply is the length-n transform: the
        # same bits as the full-length formula, for the vectors and the
        # blocks of the spectral table
        n = 640
        config = ParabolicConfig(c1=2.0)
        level = build_hierarchy("periodic-interval", n, 1).finest
        op = parabolic_build(level, config)
        s = crank_nicolson_symbol(level, config)
        u = rng.standard_normal(n)
        assert_array_equal(op.apply(u), np.fft.irfft(s * np.fft.rfft(u), n))
        block = rng.standard_normal((n, 4))
        full = np.fft.irfft(s[:, None] * np.fft.rfft(block, axis=0), n, axis=0)
        assert_array_equal(op.apply(block), full)

    def test_narrow_band_apply_peak(self, rng):
        # a warmed split apply holds an L x 2(kmax + 1) buffer (0.27 n here)
        # besides its output: 1.28 n-vectors measured at n = 16384, where
        # the B-point FFT round trip took 2.04
        n = 16384
        op = parabolic_build(build_hierarchy("periodic-interval", n, 1).finest,
                             ParabolicConfig())
        u = rng.standard_normal(n)
        for apply in (op.apply, op.apply_transpose):
            apply(u)
            assert peak_vectors(lambda: apply(u), n) <= 1.4


class TestMatvecCounter:
    def test_each_application_counts_once(self):
        level = build_hierarchy("periodic-interval", 64, 1).finest
        op = parabolic_build(level, ParabolicConfig())
        assert op.matvec_counter == 0
        u = np.ones(64)
        op.apply(u)
        assert op.matvec_counter == 1
        op.apply_transpose(u)
        assert op.matvec_counter == 2
        op.apply(u)
        op.apply(u)
        assert op.matvec_counter == 4

    def test_zero_operator_counts_too(self):
        level = build_hierarchy("periodic-interval", 8, 1).finest
        op = ZeroOperator(0, level)
        out = op.apply(np.arange(8.0))
        assert not out.any()
        assert op.matvec_counter == 1

    # 1030 and 4096 split into 103 x 10 and 64 x 64 (see TestBandApply)
    @pytest.mark.parametrize("n", [8, 9, 63, 64, 1030, 4096])
    def test_block_apply_matches_a_column_loop(self, n, rng):
        # an n x k block is one transform along axis 0, bit for bit the
        # columns applied one by one, and counts one apply per column
        level = build_hierarchy("periodic-interval", n, 1).finest
        op = parabolic_build(level, ParabolicConfig(c=0.3))
        k = 5
        block = rng.standard_normal((n, k))
        for f in (op.apply, op.apply_transpose):
            loop = np.column_stack([f(block[:, j]) for j in range(k)])
            before = op.matvec_counter
            out = f(block)
            assert op.matvec_counter == before + k
            assert_array_equal(out, loop)

    @pytest.mark.parametrize("n, k", [(8, 1), (8, 2), (16, 5)])
    def test_elliptic_block_apply_matches_a_column_loop(self, n, k, rng):
        # the stiffness solve stacks the k columns as m x m grids, bit for
        # bit the columns solved one by one; n x 1 stays n x 1
        level = build_hierarchy("dirichlet-square", n, 1).finest
        op = elliptic_build(level)
        block = rng.standard_normal((level.n_dof, k))
        for f in (op.apply, op.apply_transpose):
            loop = np.column_stack([f(block[:, j]) for j in range(k)])
            before = op.matvec_counter
            out = f(block)
            assert op.matvec_counter == before + k
            assert out.shape == block.shape
            assert_array_equal(out, loop)


class TestConvergenceProbe:
    def test_identical_coarse_and_fine_data_give_zero_error(self):
        hier = build_hierarchy("periodic-interval", 32, 3)
        errors = convergence_probe(hier, lambda level: ZeroOperator(0, level), lambda x: 0.0 * x + 1.0)
        assert all(e <= 1e-14 for e in errors)

    # the probe measures each level against the finest one, so for a
    # second-order map the adjacent error ratio is (4^m - 1)/(4^(m-1) - 1)
    # at distance m from the reference; keeping m >= 2 holds it near 4,
    # while the pair next to the reference would drift to 15/3 = 5

    def test_parabolic_second_order(self):
        from mgipm.cli import two_bump_target

        hier = build_hierarchy("periodic-interval", 64, 6)
        build = lambda level: parabolic_build(level, ParabolicConfig())
        errors = convergence_probe(hier, build, two_bump_target)
        for coarse, fine in zip(errors[:-1], errors[1:-1]):
            assert 3.2 <= coarse / fine <= 4.8

    def test_elliptic_second_order(self):
        hier = build_hierarchy("dirichlet-square", 8, 6)
        build = lambda level: elliptic_build(level)
        errors = convergence_probe(
            hier, build, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        )
        for coarse, fine in zip(errors[:-1], errors[1:-1]):
            assert 3.2 <= coarse / fine <= 4.8
