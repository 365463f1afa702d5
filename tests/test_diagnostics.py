"""Spectral checks of the two-grid approximation quality."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from conftest import (
    char_poly_coeffs,
    durand_kerner,
    lemma_a2_check,
    peak_vectors,
    power_dominant,
)
from mgipm import diagnostics, precond
from mgipm.diagnostics import (
    _cell_spectrum,
    eigenvalues,
    spectral_distance_table,
    two_grid_cell,
)
from mgipm.grid import NodalField, build_hierarchy, l2_project, node_coordinates, prolong
from mgipm.operators import ParabolicConfig, ZeroOperator, parabolic_build
from mgipm.precond import build_preconditioner, g_apply, make_scaled_system, mg_apply


def parabolic_builder(level, level_index):
    return parabolic_build(level, ParabolicConfig(), level_index=level_index)


def zero_builder(level, level_index):
    return ZeroOperator(level_index, level)


def dense_cell(builder, rule, n, beta):
    """Dense G and S G of the cell two_grid_cell compresses (same lambda)."""
    hier = build_hierarchy("periodic-interval", n // 2, 2)
    ops = [builder(level, i) for i, level in enumerate(hier.levels)]
    lam = NodalField(1, rule(node_coordinates(hier.finest)) + beta)
    mg = build_preconditioner(hier, ops, lam, beta)
    g = g_apply(mg.systems[1], np.eye(n))
    return g, mg_apply(mg, g)


def assembled_two_grid(builder, rule, n, beta):
    """N = (I - J Pi) + J G_0 Pi from single-column transfers and a coarse G
    built from the rule; S G = N^{-1} G.  Returns (N, G)."""
    hier = build_hierarchy("periodic-interval", n // 2, 2)
    coarse, fine = hier.levels
    g0, g = (
        g_apply(make_scaled_system(builder(lv, i), rule(node_coordinates(lv)) + beta, beta),
                np.eye(lv.n_dof))
        for i, lv in enumerate(hier.levels)
    )
    J = np.column_stack(
        [prolong(hier, NodalField(0, e)).values for e in np.eye(coarse.n_dof)]
    )
    P = np.column_stack(
        [l2_project(hier, NodalField(1, e)).values for e in np.eye(fine.n_dof)]
    )
    return (np.eye(n) - J @ P) + J @ g0 @ P, g


class TestMaterialize:
    def test_scaled_system_of_zero_operator_is_identity(self):
        level = build_hierarchy("periodic-interval", 16, 1).finest
        sys = make_scaled_system(ZeroOperator(0, level), np.ones(16), 1.0)
        assert_allclose(g_apply(sys, np.eye(16)), np.eye(16), rtol=0, atol=0)

    def test_weighted_symmetry_of_g(self):
        # W G = G^T W up to roundoff: G is self-adjoint in the lumped pairing
        g, _ = dense_cell(parabolic_builder, np.sin, 80, 1.0)
        level = build_hierarchy("periodic-interval", 80, 1).finest
        W = np.diag(np.full(80, level.weights))
        defect = np.linalg.norm(W @ g - g.T @ W) / np.linalg.norm(W @ g)
        assert defect <= 1e-11


class TestEigenvalues:
    def test_diagonal(self):
        eigs = np.sort(eigenvalues(np.diag([1.0, 2.0, 3.0])).real)
        assert_allclose(eigs, [1.0, 2.0, 3.0], rtol=1e-14)

    def test_rotation_gives_imaginary_pair(self):
        eigs = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert_allclose(np.sort(eigs.imag), [-1.0, 1.0], rtol=1e-14)
        assert np.max(np.abs(eigs.real)) <= 1e-14

    def test_matches_characteristic_polynomial_roots(self, rng):
        A = rng.standard_normal((4, 4))
        got = eigenvalues(A)
        roots = durand_kerner(char_poly_coeffs(A))
        got = sorted(got, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        roots = sorted(roots, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        for g, r in zip(got, roots):
            assert abs(g - r) <= 1e-7 * max(1.0, abs(g))

    def test_dominant_eigenvalue_matches_power_iteration(self, rng):
        B = rng.standard_normal((20, 20))
        A = B.T @ B + np.eye(20)
        dominant = np.max(eigenvalues(A).real)
        assert abs(dominant - power_dominant(A)) <= 1e-7 * dominant

    def test_eigenpairs_by_inverse_iteration(self, rng):
        B = rng.standard_normal((20, 20))
        A = 0.5 * (B + B.T)
        eigs = np.sort(eigenvalues(A).real)
        scale = np.linalg.norm(A, 2)
        for lam in eigs[::4][:5]:
            v = rng.standard_normal(20)
            for _ in range(4):
                v = np.linalg.solve(A - (lam + 1e-9) * np.eye(20), v)
                v /= np.linalg.norm(v)
            assert np.linalg.norm(A @ v - lam * v) <= 1e-8 * scale

    def test_rejects_rectangles_and_oversize(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2049, 2049)))


class TestTwoGridCell:
    def test_shapes_and_hierarchy(self):
        # k = min(n, r_1 + r_0): Q spans the whole space once the two
        # factors together have n columns
        for n in (16, 32, 160):
            hier, c = two_grid_cell(parabolic_builder, np.sin, n, 1.0)
            assert hier.n_levels == 2
            assert hier.finest.n_cells == n
            ranks = sum(parabolic_builder(lv, i).normal_rank
                        for i, lv in enumerate(hier.levels))
            k = min(n, ranks)
            assert c.shape == (k, k)
            assert (k == n) == (n <= 32)

    def test_costs_two_fine_applies_per_column(self):
        # G Q is one block g_apply: 2k fine applies, k = C.shape[0], and
        # the exact coarse solve applies no coarse operator
        ops = {}

        def builder(level, level_index):
            ops[level_index] = parabolic_builder(level, level_index)
            return ops[level_index]

        for n in (16, 80, 160):
            _, c = two_grid_cell(builder, np.sin, n, 0.1)
            assert ops[1].matvec_counter == 2 * c.shape[0]
            assert ops[0].matvec_counter == 0

    def test_looks_up_g_apply_on_precond(self, monkeypatch):
        # a wrapper installed on precond.g_apply sees the one block call
        calls = []
        original = precond.g_apply

        def spy(sys, u):
            calls.append(np.shape(u))
            return original(sys, u)

        monkeypatch.setattr(precond, "g_apply", spy)
        _, c = two_grid_cell(parabolic_builder, np.sin, 80, 0.1)
        assert calls == [(80, c.shape[0])]

    @pytest.mark.parametrize("n, k, bound", [(320, 98, 5.8), (640, 146, 5.35)])
    def test_working_set(self, n, k, bound):
        # peak traced allocation of one cell of the default table, in
        # n x k blocks: 5.19 and 4.77 measured with [B_1, J B_0]
        # orthonormalized in place and the W-cycle summed in place, so the
        # bounds leave about 12% over them.  A stacked copy, np.linalg.qr
        # and out-of-place sums held the cell at 7.38 and 6.46
        cfg = ParabolicConfig(c1=2.0)

        def builder(level, level_index):
            return parabolic_build(level, cfg, level_index=level_index)

        cells = []
        peak = peak_vectors(
            lambda: cells.append(
                two_grid_cell(builder, lambda xs: np.sin(np.pi * xs) / np.pi, n, 1e-2)
            ),
            n * k,
        )
        assert cells[0][1].shape == (k, k)
        assert peak <= bound

    def test_rejects_an_odd_cell_count(self):
        with pytest.raises(ValueError, match="even"):
            two_grid_cell(parabolic_builder, np.sin, 81, 1.0)

    def test_refuses_a_compression_past_the_dense_limit(self, monkeypatch):
        # at 16 cells k = 16; the ranks are read right after the build, so
        # the refusal costs no QR and no apply
        ops = []

        def builder(level, level_index):
            ops.append(parabolic_builder(level, level_index))
            return ops[-1]

        monkeypatch.setattr(diagnostics, "DENSE_LIMIT", 15)
        with pytest.raises(ValueError, match="k = 16 dof; eigenvalues limited to 15$"):
            two_grid_cell(builder, np.sin, 16, 1.0)
        assert len(ops) == 2
        assert [op.matvec_counter for op in ops] == [0, 0]
        monkeypatch.setattr(diagnostics, "DENSE_LIMIT", 16)
        assert two_grid_cell(parabolic_builder, np.sin, 16, 1.0)[1].shape == (16, 16)

    def test_rejects_an_operator_without_a_factor(self):
        class Unfactored(ZeroOperator):
            normal_rank = None

        with pytest.raises(ValueError, match="normal_rank"):
            two_grid_cell(lambda lv, i: Unfactored(i, lv), np.sin, 16, 1.0)

    def test_zero_map_gives_unit_spectrum(self):
        _, c = two_grid_cell(zero_builder, np.sin, 16, 1.0)
        assert c.shape == (0, 0)
        _, sg = dense_cell(zero_builder, np.sin, 16, 1.0)
        alpha = eigenvalues(sg)
        assert np.max(np.abs(alpha - 1.0)) <= 1e-12

    @pytest.mark.parametrize("builder", [zero_builder, parabolic_builder])
    @pytest.mark.parametrize("n", [32, 80])
    def test_equals_the_assembled_two_grid_matrix(self, builder, n):
        # the solver's map applied to the dense G equals N^{-1} G
        beta = 0.1
        N, g_ref = assembled_two_grid(builder, np.sin, n, beta)
        g, sg = dense_cell(builder, np.sin, n, beta)
        assert_allclose(g, g_ref, rtol=0, atol=0)
        assert_allclose(sg, np.linalg.solve(N, g), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c1", [1.0, 2.0])
    @pytest.mark.parametrize("beta", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("n", [16, 32, 80, 160])
    def test_compressed_spectrum_is_the_assembled_spectrum(self, n, beta, c1):
        # oracle: the dense spectrum of N^{-1} G; C carries all of it but
        # n - k unit eigenvalues
        cfg = ParabolicConfig(c1=c1)

        def builder(level, level_index):
            return parabolic_build(level, cfg, level_index=level_index)

        N, g = assembled_two_grid(builder, np.sin, n, beta)
        sg = np.linalg.solve(N, g)
        _, c = two_grid_cell(builder, np.sin, n, beta)
        k = c.shape[0]
        got = np.concatenate([eigenvalues(c), np.ones(n - k)])
        ref = eigenvalues(sg)
        row, col = linear_sum_assignment(np.abs(got[:, None] - ref[None, :]))
        assert np.max(np.abs(got[row] - ref[col])) <= 1e-12
        _, d_ref, imag_ref = _cell_spectrum(sg)
        _, d, imag = _cell_spectrum(c)
        assert_allclose(d, d_ref, rtol=1e-10, atol=0)
        assert_allclose(lemma_a2_check(c), lemma_a2_check(sg), rtol=1e-10, atol=0)
        # an imaginary part carries the absolute error of its eigenvalue
        # (about 1e-15), so small ratios get that floor
        assert_allclose(imag, imag_ref, rtol=1e-10, atol=1e-13)

    def test_spectrum_sits_right_of_one(self):
        # G >= I in the weighted pairing pushes every eigenvalue real part
        # to at least 1
        g, _ = dense_cell(parabolic_builder, np.sin, 64, 1.0)
        eigs = eigenvalues(g)
        assert np.min(eigs.real) >= 1.0 - 1e-9
        assert np.max(np.abs(eigs.imag)) <= 1e-9


class TestSpectralDistanceTable:
    @pytest.mark.parametrize("h_list, beta_list, reason", [
        ((1 / 16, 1 / 80.4), (1.0,),
         f"h_list entry {1 / 80.4!r}: 1/h must be an even integer"),
        ((1 / 16, 0.3), (1.0,), "h_list entry 0.3: 1/h must be an even integer"),
        ((1 / 16, 0.0), (1.0,), "h_list entry 0.0: 1/h must be an even integer"),
        ((1 / 16,), (1.0, float("nan")), "beta_list entry nan must be positive and finite"),
        ((1 / 16,), (1.0, 0.0), "beta_list entry 0.0 must be positive and finite"),
    ], ids=["h=1/80.4", "h=0.3", "h=0", "beta=nan", "beta=0"])
    def test_checks_every_input_before_the_first_cell(self, h_list, beta_list, reason):
        # the bad entry comes last, after entries that would build a cell
        built = []

        def builder(level, level_index):
            built.append(level_index)
            return parabolic_builder(level, level_index)

        with pytest.raises(ValueError, match="^" + re.escape(reason)):
            spectral_distance_table(builder, np.sin, h_list=h_list, beta_list=beta_list)
        assert built == []

    def test_zero_map_collapses_the_table(self):
        # an exact preconditioner makes every distance vanish and leaves
        # no meaningful rate anywhere
        reports = spectral_distance_table(
            zero_builder, np.sin, h_list=(1 / 8, 1 / 16), beta_list=(1.0, 0.1)
        )
        assert len(reports) == 4
        for rep in reports:
            assert rep.d_h <= 1e-12
            assert np.isnan(rep.rate_vs_previous)

    def test_rows_are_grouped_by_beta_with_h_refining(self):
        reports = spectral_distance_table(
            parabolic_builder, np.sin, h_list=(1 / 16, 1 / 32), beta_list=(1.0, 0.1)
        )
        assert [rep.beta for rep in reports] == [1.0, 1.0, 0.1, 0.1]
        assert [rep.h for rep in reports] == [1 / 16, 1 / 32, 1 / 16, 1 / 32]
        assert np.isnan(reports[0].rate_vs_previous)
        assert reports[1].rate_vs_previous == pytest.approx(
            reports[0].d_h / reports[1].d_h
        )

    def test_distance_contracts_under_refinement(self):
        reports = spectral_distance_table(
            parabolic_builder, np.sin, h_list=(1 / 40, 1 / 80, 1 / 160), beta_list=(1.0,)
        )
        ds = [rep.d_h for rep in reports]
        assert ds[0] > ds[1] > ds[2]
        assert reports[2].rate_vs_previous > reports[1].rate_vs_previous
        # the spectra drift off the real line by a fraction that shrinks
        # under refinement
        imags = [rep.max_imag_ratio for rep in reports]
        assert imags[0] > imags[1] > imags[2]
        assert imags[0] <= 1e-3


class TestLemmaA2Check:
    def test_zero_map_is_degenerate_equality(self):
        _, c = two_grid_cell(zero_builder, np.sin, 16, 1.0)
        lhs, rhs = lemma_a2_check(c)
        assert lhs <= 1e-12
        assert rhs <= 1e-12

    def test_bound_holds_on_fine_line(self):
        _, c = two_grid_cell(parabolic_builder, np.sin, 160, 1.0)
        lhs, rhs = lemma_a2_check(c)
        assert 0.0 < lhs <= rhs * (1.0 + 1e-6)
        assert rhs < 1.0

    @pytest.mark.parametrize("beta", [1.0, 0.1, 0.01])
    def test_bound_holds_for_each_regularization(self, beta):
        _, c = two_grid_cell(parabolic_builder, np.sin, 80, beta)
        lhs, rhs = lemma_a2_check(c)
        assert lhs <= rhs * (1.0 + 1e-6)
