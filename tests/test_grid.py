"""Grid hierarchy, transfer operators, lumped weights and mass matrices."""

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse.linalg import spsolve

from conftest import (
    mass_matrix_dirichlet,
    mass_matrix_periodic,
    peak_vectors,
    prolong_matrix_dirichlet,
    prolong_matrix_periodic,
)
from mgipm.grid import (
    GridLevel,
    NodalField,
    build_hierarchy,
    coarsen_lambda,
    csr_apply,
    discrete_w2inf,
    irfft,
    l2_project,
    node_coordinates,
    prolong,
    rfft,
)


class TestBuildHierarchy:
    def test_single_periodic_level(self):
        hier = build_hierarchy("periodic-interval", 4, 1)
        assert hier.n_levels == 1
        level = hier.finest
        assert level.h == 0.25
        assert level.n_dof == 4
        assert level.weights == 0.25

    def test_single_square_level(self):
        level = build_hierarchy("dirichlet-square", 4, 1).finest
        assert level.n_dof == 9
        assert level.weights == 1.0 / 16.0

    def test_halving_rule(self):
        hier = build_hierarchy("periodic-interval", 4, 3)
        assert [lv.h for lv in hier.levels] == [0.25, 0.125, 0.0625]
        for coarse, fine in zip(hier.levels, hier.levels[1:]):
            assert fine.h == coarse.h / 2

    def test_rejects_tiny_coarsest(self):
        with pytest.raises(ValueError):
            build_hierarchy("periodic-interval", 3, 2)

    def test_rejects_non_power_of_two_square(self):
        with pytest.raises(ValueError):
            build_hierarchy("dirichlet-square", 6, 2)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            build_hierarchy("hexagonal", 8, 1)

    def test_coarse_nodes_coincide_with_fine_nodes(self):
        # nesting: every coarse node must reappear exactly on the next level
        for kind, n0 in (("periodic-interval", 8), ("dirichlet-square", 8)):
            hier = build_hierarchy(kind, n0, 2)
            if kind == "periodic-interval":
                xc = node_coordinates(hier.levels[0])
                xf = node_coordinates(hier.levels[1])
                fine_set = {round(v, 12) for v in xf}
                assert all(round(v, 12) in fine_set for v in xc)
            else:
                xc, yc = node_coordinates(hier.levels[0])
                xf, yf = node_coordinates(hier.levels[1])
                fine_set = {(round(a, 12), round(b, 12)) for a, b in zip(xf, yf)}
                assert all(
                    (round(a, 12), round(b, 12)) in fine_set
                    for a, b in zip(xc, yc)
                )


class TestWeights:
    @pytest.mark.parametrize("kind, n, n_dof, w", [
        ("periodic-interval", 12, 12, 1.0 / 12),
        ("dirichlet-square", 8, 49, 1.0 / 64),
    ], ids=["periodic", "square"])
    def test_level_derives_uniform_read_only_weights(self, kind, n, n_dof, w):
        level = GridLevel(kind, n)
        assert level.h == 1.0 / n
        assert level.n_dof == n_dof
        assert type(level.weights) is float
        assert level.weights == w
        assert level.weights == (level.h if n_dof == n else level.h * level.h)
        with pytest.raises(AttributeError):
            level.weights = 1.0
        assert level.weights == w
        assert level == build_hierarchy(kind, n, 1).finest

    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_periodic_weights_sum_to_one(self, n):
        level = build_hierarchy("periodic-interval", n, 1).finest
        assert level.n_dof * level.weights == 1.0

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_square_weights_match_triangle_areas(self, n):
        # w(P) = (1/3) * sum of areas of triangles touching P; accumulate
        # the areas directly and compare each node with the one weight
        level = build_hierarchy("dirichlet-square", n, 1).finest
        h = level.h
        area = h * h / 2.0
        acc = np.zeros((n + 1, n + 1))
        for i in range(n):
            for j in range(n):
                for tri in (
                    ((i, j), (i + 1, j), (i + 1, j + 1)),
                    ((i, j), (i, j + 1), (i + 1, j + 1)),
                ):
                    for ix, iy in tri:
                        acc[ix, iy] += area / 3.0
        expected = acc[1:n, 1:n].ravel()
        assert_allclose(expected, level.weights, rtol=1e-14)


class TestProlong:
    def test_hand_interpolated_unit_vector(self):
        hier = build_hierarchy("periodic-interval", 4, 2)
        out = prolong(hier, NodalField(0, np.array([1.0, 0, 0, 0])))
        assert_allclose(out.values, [1, 0.5, 0, 0, 0, 0, 0, 0.5], rtol=0)

    def test_constants_interpolate_to_constants(self):
        hier = build_hierarchy("dirichlet-square", 8, 2)
        c = NodalField(0, np.full(49, 3.25))
        out = prolong(hier, c)
        # boundary stays zero, so only nodes supported by interior coarse
        # nodes reach the constant; interior-of-interior nodes must
        interior = out.values.reshape(15, 15)[2:-2, 2:-2]
        assert_allclose(interior, 3.25, rtol=1e-15)

    def test_periodic_constant_exact(self):
        hier = build_hierarchy("periodic-interval", 8, 2)
        out = prolong(hier, NodalField(0, np.full(8, -1.5)))
        assert_allclose(out.values, -1.5, rtol=0)

    def test_coarse_hat_spreads_half_to_edge_midpoints(self):
        hier = build_hierarchy("periodic-interval", 8, 2)
        hat = np.zeros(8)
        hat[3] = 1.0
        out = prolong(hier, NodalField(0, hat)).values
        assert out[6] == 1.0
        assert out[5] == 0.5 and out[7] == 0.5
        assert np.count_nonzero(out) == 3

    def test_matches_geometric_matrix_1d(self, rng):
        # the stencil has the bits of J u: halving is exact, so
        # (a + b)/2 == a/2 + b/2; odd and even counts, vectors and blocks
        for n0 in (4, 5, 16, 1024):
            hier = build_hierarchy("periodic-interval", n0, 2)
            J = prolong_matrix_periodic(n0)
            for u in (rng.standard_normal(n0), rng.standard_normal((n0, 3))):
                out = prolong(hier, NodalField(0, u)).values
                assert out.shape == (2 * n0, *u.shape[1:])
                assert_array_equal(out, J @ u)

    @pytest.mark.parametrize("cols", [(), (3,)])
    def test_periodic_prolong_allocates_its_output_only(self, cols, rng):
        # the stencil writes into its output: no temporary of the coarse
        # length or longer (a rolled copy of u would add 0.5).  numpy's
        # strided block loops keep fixed buffers of about 128 kB, 4% here
        n0 = 65536
        hier = build_hierarchy("periodic-interval", n0, 2)
        u = NodalField(0, rng.standard_normal((n0, *cols)))
        prolong(hier, u)
        size = 2 * n0 * int(np.prod(cols))
        assert peak_vectors(lambda: prolong(hier, u), size) <= 1.05

    def test_matches_geometric_matrix_2d(self, rng):
        # J's entries are 1 and 1/2 with at most two per row, so J u has
        # the same bits in any summation order; vectors and blocks
        for n0 in (4, 8, 16, 64):
            hier = build_hierarchy("dirichlet-square", n0, 2)
            J = prolong_matrix_dirichlet(n0)
            nc = hier.levels[0].n_dof
            for u in (rng.standard_normal(nc), rng.standard_normal((nc, 3))):
                out = prolong(hier, NodalField(0, u)).values
                assert out.shape == (hier.levels[1].n_dof, *u.shape[1:])
                assert_array_equal(out, J @ u)

    def test_finest_level_rejected(self):
        hier = build_hierarchy("periodic-interval", 4, 2)
        with pytest.raises(ValueError):
            prolong(hier, NodalField(1, np.zeros(8)))

    @pytest.mark.parametrize("kind,n0", [("periodic-interval", 16), ("dirichlet-square", 8)])
    def test_block_equals_column_by_column(self, kind, n0, rng):
        hier = build_hierarchy(kind, n0, 2)
        block = rng.standard_normal((hier.levels[0].n_dof, 5))
        out = prolong(hier, NodalField(0, block)).values
        cols = [prolong(hier, NodalField(0, c)).values for c in block.T]
        assert_array_equal(out, np.column_stack(cols))


class TestRestrict:
    """The restriction J^T, which only the L2 projection carries.

    With the element-assembled (unscaled) mass matrices, M_c Pi = J^T M_f
    on both geometries; the interval has no restriction of its own.
    """

    def test_zero_maps_to_zero(self):
        hier = build_hierarchy("dirichlet-square", 8, 2)
        out = l2_project(hier, NodalField(1, np.zeros(225)))
        assert not out.values.any()

    @pytest.mark.parametrize("kind,n0", [("periodic-interval", 16), ("dirichlet-square", 8)])
    def test_transpose_pairing_with_prolong(self, kind, n0, rng):
        # <J u, M_f v> = <u, M_c Pi v>, the restriction's defining relation
        # carried by the projection
        hier = build_hierarchy(kind, n0, 2)
        if kind == "periodic-interval":
            M_c, M_f = mass_matrix_periodic(n0), mass_matrix_periodic(2 * n0)
        else:
            M_c, M_f = mass_matrix_dirichlet(n0), mass_matrix_dirichlet(2 * n0)
        nc = hier.levels[0].n_dof
        nf = hier.levels[1].n_dof
        for _ in range(5):
            u = rng.standard_normal(nc)
            v = rng.standard_normal(nf)
            ju = prolong(hier, NodalField(0, u)).values
            mv = M_f @ v
            rhs = float(u @ (M_c @ l2_project(hier, NodalField(1, v)).values))
            # the unscaled matrices make both sides O(h^d): measure the
            # gap against the Cauchy-Schwarz scale of the pairing
            scale = np.linalg.norm(ju) * np.linalg.norm(mv)
            assert abs(float(ju @ mv) - rhs) <= 1e-13 * scale


class TestMassApply:
    def test_periodic_level_has_none(self):
        # the interval's projection uses the mass symbol, not a matrix
        level = build_hierarchy("periodic-interval", 8, 1).finest
        with pytest.raises(ValueError, match="no assembled mass matrix"):
            level.mass_matrix

    def test_zero(self):
        level = build_hierarchy("dirichlet-square", 8, 1).finest
        assert not (level.mass_matrix @ np.zeros(49)).any()

    def test_symmetry(self, rng):
        level = build_hierarchy("dirichlet-square", 8, 1).finest
        u = rng.standard_normal(49)
        v = rng.standard_normal(49)
        lhs = float((level.mass_matrix @ u) @ v)
        rhs = float(u @ (level.mass_matrix @ v))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    def test_matches_element_assembly_2d(self, rng):
        for n in (4, 8, 16, 64):
            level = build_hierarchy("dirichlet-square", n, 1).finest
            M = mass_matrix_dirichlet(n) / level.h ** 2
            for u in (rng.standard_normal(level.n_dof),
                      rng.standard_normal((level.n_dof, 3))):
                assert_allclose(level.mass_matrix @ u, M @ u, rtol=1e-13, atol=1e-14)


class TestCsrApply:
    """csr_apply calls scipy's private CSR kernels; its results must keep the
    bits of a @ x, so a scipy that changes those kernels fails here."""

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    @pytest.mark.parametrize("name", ["mass_matrix", "J", "R"])
    def test_bits_of_scipy_product(self, n, name, rng):
        # at n = 4, J interpolates from the 1-node grid of 2 cells
        level = GridLevel("dirichlet-square", n)
        a = {
            "mass_matrix": lambda: level.mass_matrix,
            "J": lambda: level._transfers[0],
            "R": lambda: level._transfers[1],
        }[name]()
        cols = a.shape[1]
        block = rng.standard_normal((cols, 3))
        wide = rng.standard_normal((cols, 7))
        inputs = {
            "vector": rng.standard_normal(cols),
            "C block": block,
            "F block": np.asfortranarray(block),
            "n x 1 block": wide[:, 3:4],
            "strided vector": wide[:, 2],
            "strided block": wide[:, ::2],
            "int vector": np.arange(cols) - cols // 2,
            "int block": np.arange(3 * cols).reshape(cols, 3) - cols,
        }
        for label, x in inputs.items():
            before = x.copy(order="K")
            out = csr_apply(a, x)
            want = a @ x
            assert out.dtype == want.dtype and out.shape == want.shape, label
            assert out.tobytes() == want.tobytes(), label
            assert x.tobytes() == before.tobytes(), label

    @pytest.mark.parametrize("shape", [(48,), (50, 3)])
    def test_wrong_row_count_is_rejected(self, shape):
        # the kernels do not check lengths; a short x would be read past its end
        mass = GridLevel("dirichlet-square", 8).mass_matrix
        with pytest.raises(ValueError, match="49 x 49 matrix"):
            csr_apply(mass, np.zeros(shape))


class TestRealFft:
    """rfft and irfft call pocketfft's kernels as scipy.fft does; their
    results must keep the bits of scipy.fft.rfft and irfft, so a scipy that
    changes its wrapper's arguments fails here."""

    @staticmethod
    def _inputs(n, rng):
        block = rng.standard_normal((n, 3))
        wide = rng.standard_normal((n, 7))
        return {
            "vector": rng.standard_normal(n),
            "C block": block,
            "F block": np.asfortranarray(block),
            "strided vector": wide[:, 2],
            "strided block": wide[:, ::2],
            "reversed vector": wide[::-1, 0],
        }

    @staticmethod
    def _same(out, want, label):
        assert out.dtype == want.dtype and out.shape == want.shape, label
        assert out.tobytes() == want.tobytes(), label

    @pytest.mark.parametrize("n", [4, 7, 8, 63, 64, 1024, 4098])
    def test_rfft_bits_of_scipy(self, n, rng):
        for label, x in self._inputs(n, rng).items():
            before = x.copy(order="K")
            self._same(rfft(x), scipy.fft.rfft(x, axis=0), label)
            assert x.tobytes() == before.tobytes(), label

    @pytest.mark.parametrize("n", [4, 7, 8, 63, 64, 1024, 4098])
    def test_irfft_bits_of_scipy(self, n, rng):
        for label, x in self._inputs(n, rng).items():
            v = scipy.fft.rfft(x, axis=0)
            # a mode sum that no real signal of length n has, so that the
            # imaginary parts the kernel drops are not zero
            v += 0.5j * rng.standard_normal(v.shape)
            for key, modes in (("", v), (" F", np.asfortranarray(v)),
                               (" strided", np.repeat(v, 2, axis=0)[::2])):
                before = modes.copy(order="K")
                self._same(irfft(modes, n), scipy.fft.irfft(modes, n, axis=0),
                           label + key)
                assert modes.tobytes() == before.tobytes(), label + key

    @pytest.mark.parametrize("n", [9, 64])
    def test_axis_one(self, n, rng):
        x = rng.standard_normal((2, n))
        v = rfft(x, axis=1)
        self._same(v, scipy.fft.rfft(x, axis=1), "rfft")
        self._same(irfft(v, n, axis=1), scipy.fft.irfft(v, n, axis=1), "irfft")

    @pytest.mark.parametrize("rows, n", [(4, 8), (6, 8), (4, 9), (6, 9)])
    def test_wrong_mode_count_is_rejected(self, rows, n):
        # scipy would crop or zero-pad these to n//2 + 1 modes
        with pytest.raises(ValueError, match=f"{rows} modes along axis 0"):
            irfft(np.zeros(rows, dtype=complex), n)
        with pytest.raises(ValueError, match=f"{rows} modes along axis 1"):
            irfft(np.zeros((2, rows), dtype=complex), n, axis=1)


class TestL2Project:
    @pytest.mark.parametrize("kind,n0", [("periodic-interval", 8), ("dirichlet-square", 8)])
    def test_projection_after_interpolation_is_identity(self, kind, n0, rng):
        hier = build_hierarchy(kind, n0, 2)
        u = rng.standard_normal(hier.levels[0].n_dof)
        back = l2_project(hier, prolong(hier, NodalField(0, u)))
        assert_allclose(back.values, u, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("kind,n0", [("periodic-interval", 16), ("dirichlet-square", 8)])
    def test_block_equals_column_by_column(self, kind, n0, rng):
        hier = build_hierarchy(kind, n0, 2)
        block = rng.standard_normal((hier.levels[1].n_dof, 5))
        out = l2_project(hier, NodalField(1, block)).values
        cols = [l2_project(hier, NodalField(1, c)).values for c in block.T]
        assert_array_equal(out, np.column_stack(cols))

    @pytest.mark.parametrize("n0", [4, 5, 8, 9, 64])
    def test_periodic_matches_the_assembled_projection(self, n0, rng):
        # Pi = M_c^{-1} J^T M_f with the element-assembled mass matrices;
        # odd and even coarse counts, vectors and blocks
        hier = build_hierarchy("periodic-interval", n0, 2)
        M_c = sp.csc_matrix(mass_matrix_periodic(n0))
        R = prolong_matrix_periodic(n0).T
        M_f = mass_matrix_periodic(2 * n0)
        for u in (rng.standard_normal(2 * n0), rng.standard_normal((2 * n0, 3))):
            ref = spsolve(M_c, R @ (M_f @ u)).reshape(n0, *u.shape[1:])
            got = l2_project(hier, NodalField(1, u)).values
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n0", [4, 8, 16])
    def test_square_matches_the_assembled_projection(self, n0, rng):
        # Pi = M_c^{-1} J^T M_f with the element-assembled (unscaled) mass
        # matrices; the package's rescaled ones carry the 2^{-2} of R
        hier = build_hierarchy("dirichlet-square", n0, 2)
        M_c = sp.csc_matrix(mass_matrix_dirichlet(n0))
        R = sp.csr_matrix(prolong_matrix_dirichlet(n0).T)
        M_f = mass_matrix_dirichlet(2 * n0)
        nf = hier.levels[1].n_dof
        for u in (rng.standard_normal(nf), rng.standard_normal((nf, 3))):
            ref = spsolve(M_c, R @ (M_f @ u)).reshape(-1, *u.shape[1:])
            got = l2_project(hier, NodalField(1, u)).values
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_periodic_constant_survives(self):
        hier = build_hierarchy("periodic-interval", 8, 2)
        out = l2_project(hier, NodalField(1, np.full(16, 0.7)))
        assert_allclose(out.values, 0.7, rtol=1e-12)

    def test_residual_is_l2_orthogonal_to_coarse_space(self, rng):
        # <u - J Pi u, J v>_{L2} = 0, checked with the element-assembled
        # fine mass matrix
        hier = build_hierarchy("periodic-interval", 16, 2)
        M = mass_matrix_periodic(32)
        u = rng.standard_normal(32)
        resid = u - prolong(hier, l2_project(hier, NodalField(1, u))).values
        for _ in range(5):
            v = rng.standard_normal(16)
            jv = prolong(hier, NodalField(0, v)).values
            pair = float(resid @ (M @ jv))
            scale = np.linalg.norm(resid) * np.linalg.norm(jv) * np.linalg.norm(M)
            assert abs(pair) <= 1e-10 * max(scale, 1e-30)

    def test_coarsest_level_rejected(self):
        hier = build_hierarchy("periodic-interval", 8, 2)
        with pytest.raises(ValueError):
            l2_project(hier, NodalField(0, np.zeros(8)))


class TestCoarsenLambda:
    def test_constant(self):
        hier = build_hierarchy("periodic-interval", 4, 2)
        out = coarsen_lambda(hier, NodalField(1, np.full(8, 2.5)))
        assert_allclose(out.values, 2.5, rtol=0)

    def test_discards_in_between_values(self):
        hier = build_hierarchy("periodic-interval", 4, 2)
        out = coarsen_lambda(hier, NodalField(1, np.arange(1.0, 9.0)))
        assert_allclose(out.values, [1.0, 3.0, 5.0, 7.0], rtol=0)

    def test_two_level_descent_is_double_discard(self):
        hier = build_hierarchy("periodic-interval", 4, 3)
        fine = NodalField(2, np.arange(16.0))
        mid = coarsen_lambda(hier, fine)
        out = coarsen_lambda(hier, mid)
        assert_allclose(out.values, fine.values[0::4], rtol=0)

    def test_square_values_stay_attached_to_nodes(self):
        hier = build_hierarchy("dirichlet-square", 4, 2)
        xf, yf = node_coordinates(hier.levels[1])
        out = coarsen_lambda(hier, NodalField(1, xf + 10.0 * yf))
        xc, yc = node_coordinates(hier.levels[0])
        assert_allclose(out.values, xc + 10.0 * yc, rtol=1e-15)


class TestDiscreteW2inf:
    def test_constant_is_zero(self):
        level = build_hierarchy("periodic-interval", 8, 1).finest
        assert discrete_w2inf(level, np.full(8, 4.2)) == 0.0

    def test_linear_profile(self):
        level = build_hierarchy("periodic-interval", 16, 1).finest
        x = node_coordinates(level)
        assert discrete_w2inf(level, x) == pytest.approx(1.0, abs=1e-12)

    def test_interpolated_sine(self):
        level = build_hierarchy("periodic-interval", 80, 1).finest
        x = node_coordinates(level)
        val = discrete_w2inf(level, np.sin(x))
        assert val == pytest.approx(1.0, abs=0.05)

    def test_square_linear_profile(self):
        level = build_hierarchy("dirichlet-square", 16, 1).finest
        x, _ = node_coordinates(level)
        assert discrete_w2inf(level, 3.0 * x) == pytest.approx(3.0, abs=1e-12)

    def test_rough_fields_match_a_per_line_loop(self, rng):
        # the result must be the same float as a loop over the grid lines;
        # on the trend field the one-sided end stencils set the maximum
        def line_max(y, h):
            first = np.empty_like(y)
            first[1:-1] = 0.5 * (y[2:] - y[:-2])
            first[0] = y[1] - y[0]
            first[-1] = y[-1] - y[-2]
            second = y[2:] - 2.0 * y[1:-1] + y[:-2]
            return max(np.abs(first).max() / h, np.abs(second).max() / (h * h))

        level = build_hierarchy("dirichlet-square", 16, 1).finest
        i, j = np.meshgrid(np.arange(15.0), np.arange(15.0), indexing="ij")
        trend = 100.0 * (i + j) + i * i + j * j
        for g in (rng.standard_normal((15, 15)), trend + 0.01 * rng.standard_normal((15, 15))):
            expected = max(line_max(line, level.h) for line in (*g, *g.T))
            assert discrete_w2inf(level, g.ravel()) == expected

        line = build_hierarchy("periodic-interval", 4, 1).finest
        g = rng.standard_normal(4)
        assert discrete_w2inf(line, g) == line_max(g, line.h)


class TestNormEquivalence:
    def test_bounds_stable_across_periodic_levels(self):
        # extreme Rayleigh quotients of |u|_h^2 against the consistent
        # mass: the circulant symbol h(2 + cos)/3 puts them at exactly
        # 1 and 3 on every level
        hier = build_hierarchy("periodic-interval", 16, 5)
        for level in hier.levels:
            M = mass_matrix_periodic(level.n_dof)
            ev = np.linalg.eigvalsh(np.asarray(M))
            lo = np.sqrt(level.h / ev.max())
            hi = np.sqrt(level.h / ev.min())
            assert abs(lo - 1.0) <= 1e-12
            assert abs(hi - np.sqrt(3.0)) <= 1e-12

    def test_bounds_stable_across_square_levels(self):
        # six incident triangles per interior node with element mass
        # eigenvalues (area/12) {4, 1, 1} confine the norm ratio to
        # [1, 2]; the extremes tighten toward that window monotonically
        hier = build_hierarchy("dirichlet-square", 8, 3)
        lows, highs = [], []
        for level in hier.levels:
            M = mass_matrix_dirichlet(level.n_cells).toarray()
            ev = np.linalg.eigvalsh(M)
            w2 = level.h ** 2
            lows.append(np.sqrt(w2 / ev.max()))
            highs.append(np.sqrt(w2 / ev.min()))
        for lo, hi in zip(lows, highs):
            assert 1.0 - 1e-12 <= lo <= 2.0
            assert 1.0 <= hi <= 2.0 + 1e-12
        assert lows[0] > lows[1] > lows[2]
        assert highs[0] < highs[1] < highs[2]


class TestQuadratureOrder:
    def test_periodic_pairing_error_is_second_order(self):
        hier = build_hierarchy("periodic-interval", 16, 5)
        errs = []
        for level in hier.levels:
            n = level.n_dof
            x = node_coordinates(level)
            u = np.sin(2 * np.pi * x)
            v = np.exp(np.sin(2 * np.pi * x))
            M = mass_matrix_periodic(n)
            approx = level.weights * float(u @ v)
            exact = float(u @ (M @ v))
            errs.append(abs(approx - exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.4 <= coarse / fine <= 4.6

    def test_square_pairing_error_is_second_order(self):
        hier = build_hierarchy("dirichlet-square", 16, 4)
        errs = []
        for level in hier.levels:
            x, y = node_coordinates(level)
            u = np.sin(np.pi * x) * np.sin(np.pi * y)
            v = np.sin(np.pi * x) * np.sin(np.pi * y) * (1.0 + x)
            M = mass_matrix_dirichlet(level.n_cells)
            approx = level.weights * float(u @ v)
            exact = float(u @ (M @ v))
            errs.append(abs(approx - exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.4 <= coarse / fine <= 4.6
