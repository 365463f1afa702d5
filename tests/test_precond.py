"""Scaled inner systems and their two-grid / W-cycle approximate inverses."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mgipm.grid import NodalField, build_hierarchy, inner_h, l2_project, node_coordinates, prolong
from mgipm.operators import ParabolicConfig, ZeroOperator, parabolic_build
from mgipm.precond import (
    build_preconditioner,
    g_apply,
    make_scaled_system,
    materialize_g,
    mg_apply,
    spectral_radius_estimate,
    symmetrized_g_handle,
    two_grid_apply,
)


def parabolic_chain(hierarchy):
    return [
        parabolic_build(level, ParabolicConfig(), level_index=i)
        for i, level in enumerate(hierarchy.levels)
    ]


def sine_lambda(hierarchy, beta):
    level = hierarchy.finest
    x = node_coordinates(level)
    return NodalField(hierarchy.n_levels - 1, np.sin(x) + beta)


def single_system(n, lam_values, beta=1.0):
    level = build_hierarchy("periodic-interval", n, 1).finest
    op = parabolic_build(level, ParabolicConfig())
    lam = NodalField(0, np.asarray(lam_values, dtype=float))
    return make_scaled_system(0, level, op, lam, beta)


class TestGApply:
    def test_vanishing_operator_gives_identity(self, rng):
        level = build_hierarchy("periodic-interval", 32, 1).finest
        sys = make_scaled_system(0, level, ZeroOperator(0, level), NodalField(0, np.ones(32)), 1.0)
        u = rng.standard_normal(32)
        assert_allclose(g_apply(sys, u), u, rtol=0, atol=0)

    def test_huge_lambda_flattens_the_correction(self, rng):
        sys = single_system(64, np.full(64, 1e12))
        u = rng.standard_normal(64)
        out = g_apply(sys, u)
        assert np.linalg.norm(out - u) <= 1e-9 * np.linalg.norm(u)

    def test_dense_formula(self, rng):
        level = build_hierarchy("periodic-interval", 16, 1).finest
        op = parabolic_build(level, ParabolicConfig())
        lam_vals = 1.0 + rng.random(16)
        sys = make_scaled_system(0, level, op, NodalField(0, lam_vals), 1.0)
        K = np.column_stack([op.apply(col) for col in np.eye(16)])
        W = np.diag(level.weights)
        D = np.diag(1.0 / np.sqrt(lam_vals))
        G = np.eye(16) + D @ np.linalg.solve(W, K.T @ W @ K) @ D
        assert_allclose(materialize_g(sys), G, rtol=1e-12, atol=1e-12)

    def test_costs_two_operator_applications(self):
        sys = single_system(32, np.full(32, 1.5))
        before = sys.operator.matvec_counter
        g_apply(sys, np.ones(32))
        assert sys.operator.matvec_counter == before + 2

    def test_rejects_lambda_below_beta(self):
        level = build_hierarchy("periodic-interval", 8, 1).finest
        lam = NodalField(0, np.array([1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            make_scaled_system(0, level, ZeroOperator(0, level), lam, 1.0)

    def test_self_adjoint_in_weighted_pairing(self, rng):
        sys = single_system(80, np.sin(np.arange(80) / 80.0) + 1.0)
        level = sys.level
        for _ in range(5):
            u = NodalField(0, rng.standard_normal(80))
            v = NodalField(0, rng.standard_normal(80))
            lhs = inner_h(level, g_apply(sys, u), v)
            rhs = inner_h(level, u, g_apply(sys, v))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_bounded_below_by_identity(self, rng):
        sys = single_system(80, np.sin(np.arange(80) / 80.0) + 1.0)
        level = sys.level
        for _ in range(10):
            u = NodalField(0, rng.standard_normal(80))
            quad = inner_h(level, g_apply(sys, u), u)
            assert quad >= inner_h(level, u, u) - 1e-12

    def test_symmetrized_handle_is_euclidean_symmetric(self, rng):
        sys = single_system(48, np.full(48, 2.0))
        handle = symmetrized_g_handle(sys)
        u = rng.standard_normal(48)
        v = rng.standard_normal(48)
        lhs = float(handle.apply(u) @ v)
        rhs = float(u @ handle.apply(v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestBuildPreconditioner:
    def test_constant_lambda_reaches_every_level(self):
        hier = build_hierarchy("periodic-interval", 40, 3)
        ops = parabolic_chain(hier)
        lam = NodalField(2, np.full(160, 0.5))
        mg = build_preconditioner(hier, ops, lam, beta=0.5)
        for sys in mg.systems:
            assert_allclose(sys.lam.values, 0.5, rtol=0)

    def test_lambda_chain_discards_fine_nodes(self):
        hier = build_hierarchy("periodic-interval", 40, 3)
        ops = parabolic_chain(hier)
        lam = sine_lambda(hier, 1.0)
        mg = build_preconditioner(hier, ops, lam, beta=1.0)
        assert_allclose(mg.systems[1].lam.values, lam.values[0::2], rtol=0)
        assert_allclose(mg.systems[0].lam.values, lam.values[0::4], rtol=0)

    def test_dense_and_cg_coarse_solves_agree(self, rng):
        hier = build_hierarchy("periodic-interval", 40, 2)
        lam = sine_lambda(hier, 1.0)
        r = rng.standard_normal(80)
        outs = []
        for solver in ("dense", "cg"):
            mg = build_preconditioner(
                hier, parabolic_chain(hier), lam, beta=1.0, coarsest_solver=solver
            )
            outs.append(mg_apply(mg, r))
        assert np.linalg.norm(outs[0] - outs[1]) <= 1e-9 * np.linalg.norm(outs[0])

    def test_rejects_bad_setups(self):
        hier3 = build_hierarchy("periodic-interval", 40, 3)
        ops3 = parabolic_chain(hier3)
        lam3 = sine_lambda(hier3, 1.0)
        with pytest.raises(ValueError):
            build_preconditioner(hier3, ops3[:2], lam3, beta=1.0)
        hier1 = build_hierarchy("periodic-interval", 40, 1)
        with pytest.raises(ValueError):
            build_preconditioner(
                hier1, parabolic_chain(hier1), NodalField(0, np.ones(40)), beta=1.0
            )
        with pytest.raises(ValueError):
            build_preconditioner(hier3, ops3, NodalField(0, np.ones(40)), beta=1.0)


class TestTwoGridApply:
    def test_vanishing_operator_returns_residual(self, rng):
        hier = build_hierarchy("periodic-interval", 16, 2)
        ops = [ZeroOperator(i, lv) for i, lv in enumerate(hier.levels)]
        mg = build_preconditioner(hier, ops, NodalField(1, np.ones(32)), 1.0)
        r = rng.standard_normal(32)
        assert_allclose(two_grid_apply(mg, r), r, rtol=1e-10, atol=1e-12)

    def test_rough_residuals_pass_through(self, rng):
        hier = build_hierarchy("periodic-interval", 40, 2)
        mg = build_preconditioner(
            hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0
        )
        raw = rng.standard_normal(80)
        coarse = l2_project(hier, NodalField(1, raw))
        rough = raw - prolong(hier, coarse).values
        assert_allclose(two_grid_apply(mg, rough), rough, rtol=1e-10, atol=1e-12)

    def test_approximates_the_inverse(self, rng):
        hier = build_hierarchy("periodic-interval", 80, 2)
        mg = build_preconditioner(
            hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0
        )
        sys = mg.systems[1]
        for _ in range(3):
            u = rng.standard_normal(160)
            back = two_grid_apply(mg, g_apply(sys, u))
            assert np.linalg.norm(back - u) <= 0.01 * np.linalg.norm(u)

    def test_needs_exactly_two_levels(self):
        hier = build_hierarchy("periodic-interval", 20, 3)
        mg = build_preconditioner(
            hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0
        )
        with pytest.raises(ValueError):
            two_grid_apply(mg, np.zeros(80))


class TestMgApply:
    def test_two_levels_reduce_to_two_grid(self, rng):
        hier = build_hierarchy("periodic-interval", 40, 2)
        mg = build_preconditioner(hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0)
        r = rng.standard_normal(80)
        assert_allclose(mg_apply(mg, r), two_grid_apply(mg, r), rtol=0, atol=1e-13)

    def test_vanishing_operator_returns_residual(self, rng):
        hier = build_hierarchy("periodic-interval", 16, 3)
        ops = [ZeroOperator(i, lv) for i, lv in enumerate(hier.levels)]
        mg = build_preconditioner(hier, ops, NodalField(2, np.ones(64)), 1.0)
        r = rng.standard_normal(64)
        assert_allclose(mg_apply(mg, r), r, rtol=1e-10, atol=1e-12)

    def test_never_applies_the_finest_operator(self, rng):
        hier = build_hierarchy("periodic-interval", 80, 3)
        ops = parabolic_chain(hier)
        mg = build_preconditioner(hier, ops, sine_lambda(hier, 1.0), 1.0)
        before = ops[-1].matvec_counter
        mg_apply(mg, rng.standard_normal(320))
        assert ops[-1].matvec_counter == before

    def test_matches_dense_newton_recursion(self, rng):
        # C_0 = G_0^{-1}; B_i = (I - J Pi) + J C_{i-1} Pi;
        # C_i = 2 B_i - B_i G_i B_i on intermediate levels; the applied map
        # is B at the finest level
        hier = build_hierarchy("periodic-interval", 40, 3)
        ops = parabolic_chain(hier)
        mg = build_preconditioner(hier, ops, sine_lambda(hier, 1.0), 1.0)

        def transfer_matrices(i):
            nc = hier.levels[i - 1].n_dof
            nf = hier.levels[i].n_dof
            J = np.column_stack(
                [prolong(hier, NodalField(i - 1, col)).values for col in np.eye(nc)]
            )
            P = np.column_stack(
                [l2_project(hier, NodalField(i, col)).values for col in np.eye(nf)]
            )
            return J, P

        C = np.linalg.inv(materialize_g(mg.systems[0]))
        for i in (1, 2):
            J, P = transfer_matrices(i)
            n = hier.levels[i].n_dof
            B = (np.eye(n) - J @ P) + J @ C @ P
            if i < 2:
                G = materialize_g(mg.systems[i])
                C = 2.0 * B - B @ G @ B
            else:
                S = B
        r = rng.standard_normal(160)
        assert_allclose(mg_apply(mg, r), S @ r, rtol=1e-10, atol=1e-10)


class TestSpectralRadiusEstimate:
    def test_perfect_preconditioner_leaves_nothing(self):
        hier = build_hierarchy("periodic-interval", 16, 2)
        ops = [ZeroOperator(i, lv) for i, lv in enumerate(hier.levels)]
        mg = build_preconditioner(hier, ops, NodalField(1, np.ones(32)), 1.0)
        rho = spectral_radius_estimate(mg, mg.systems[1])
        assert rho <= 1e-10

    def test_small_contraction_on_fine_line(self):
        hier = build_hierarchy("periodic-interval", 80, 2)
        mg = build_preconditioner(hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0)
        rho = spectral_radius_estimate(mg, mg.systems[1])
        assert rho <= 0.02

    def test_agrees_with_dense_eigensolve(self):
        # the iteration deflates the weighted mean, so the reference
        # spectrum is that of the error map on the mean-free subspace
        hier = build_hierarchy("periodic-interval", 40, 2)
        mg = build_preconditioner(hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0)
        sys = mg.systems[1]
        G = materialize_g(sys)
        S = np.column_stack([two_grid_apply(mg, col) for col in np.eye(80)])
        w = sys.level.weights
        P = np.eye(80) - np.outer(np.ones(80), w) / w.sum()
        dense_rho = np.max(np.abs(np.linalg.eigvals(P @ (np.eye(80) - S @ G) @ P)))
        est = spectral_radius_estimate(mg, sys)
        assert abs(est - dense_rho) <= 0.02 * dense_rho

    def test_contraction_improves_under_refinement(self):
        rhos = []
        for n in (80, 160, 320):
            hier = build_hierarchy("periodic-interval", n // 2, 2)
            mg = build_preconditioner(
                hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0
            )
            rhos.append(spectral_radius_estimate(mg, mg.systems[1]))
        assert rhos[0] > rhos[1] > rhos[2]

    def test_rejects_large_levels(self):
        hier = build_hierarchy("periodic-interval", 1024, 2)
        mg = build_preconditioner(
            hier, parabolic_chain(hier), NodalField(1, np.ones(2048)), 1.0
        )
        with pytest.raises(ValueError):
            spectral_radius_estimate(mg, mg.systems[1])
