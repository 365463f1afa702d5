"""Predictor-corrector solver pieces: residuals, reduction, steps, solve."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import mgipm.ipm as ipm_mod
from conftest import bisection_max_step, enumerate_box_qp, toy_hierarchy
from mgipm.cli import two_bump_target
from mgipm.grid import NodalField, build_hierarchy, node_coordinates
from mgipm.ipm import (
    ControlProblem,
    IpmOptions,
    IpmState,
    compute_mu,
    hessian_apply,
    kkt_residuals,
    recover_full_step,
    reduce_to_scaled,
    solve,
    step_lengths,
)
from mgipm.krylov import LinearOperatorHandle, cg, cgs
from mgipm.operators import DenseOperator, ParabolicConfig, ZeroOperator, parabolic_build
from mgipm.precond import (
    g_apply,
    make_scaled_system,
    materialize_g,
    symmetrized_g_handle,
)


def line_problem(n, beta, f_vals, lo=-10.0, hi=10.0):
    hier = build_hierarchy("periodic-interval", n, 1)
    level = hier.finest
    op = parabolic_build(level, ParabolicConfig())
    return ControlProblem(
        hier,
        [op],
        NodalField(0, np.asarray(f_vals, dtype=float)),
        beta,
        NodalField(0, np.full(n, lo)),
        NodalField(0, np.full(n, hi)),
    )


def zero_problem(n, beta=1.0, lo=-10.0, hi=10.0, f=None):
    hier = build_hierarchy("periodic-interval", n, 1)
    level = hier.finest
    return ControlProblem(
        hier,
        [ZeroOperator(0, level)],
        NodalField(0, np.zeros(n) if f is None else np.asarray(f, dtype=float)),
        beta,
        NodalField(0, np.full(n, lo)),
        NodalField(0, np.full(n, hi)),
    )


def toy_problem(K, f, beta=0.05, lo=-1.0, hi=1.0):
    hier = toy_hierarchy(3)
    op = DenseOperator(0, hier.finest, K)
    return ControlProblem(
        hier,
        [op],
        NodalField(0, np.asarray(f, dtype=float)),
        beta,
        NodalField(0, np.full(3, lo)),
        NodalField(0, np.full(3, hi)),
    )


def make_state(u, v1, v2):
    return IpmState(NodalField(0, u), NodalField(0, v1), NodalField(0, v2), 0.0, 0)


TOY_K = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.3], [0.0, 0.3, 1.0]])
TOY_F = np.array([2.0, -3.0, 1.5])


class TestControlProblem:
    def test_rejects_crossed_bounds(self):
        hier = build_hierarchy("periodic-interval", 8, 1)
        op = ZeroOperator(0, hier.finest)
        lo = np.zeros(8)
        hi = np.ones(8)
        hi[3] = 0.0
        with pytest.raises(ValueError):
            ControlProblem(hier, [op], NodalField(0, np.zeros(8)), 1.0,
                           NodalField(0, lo), NodalField(0, hi))

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            zero_problem(8, beta=0.0)

    def test_rejects_operator_count_mismatch(self):
        hier = build_hierarchy("periodic-interval", 8, 2)
        op = ZeroOperator(1, hier.finest)
        with pytest.raises(ValueError):
            ControlProblem(hier, [op], NodalField(1, np.zeros(16)), 1.0,
                           NodalField(1, np.zeros(16)), NodalField(1, np.ones(16)))


class TestHessianApply:
    def test_zero_operator_leaves_weighted_scaling(self, rng):
        prob = zero_problem(16, beta=2.0)
        u = rng.standard_normal(16)
        expected = 2.0 * prob.hierarchy.finest.weights * u
        assert_allclose(hessian_apply(prob, u), expected, rtol=0, atol=0)

    def test_symmetry(self, rng):
        prob = line_problem(64, 1e-2, np.zeros(64))
        for _ in range(5):
            u = rng.standard_normal(64)
            v = rng.standard_normal(64)
            lhs = float(hessian_apply(prob, u) @ v)
            rhs = float(u @ hessian_apply(prob, v))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_dense_formula(self, rng):
        prob = line_problem(16, 0.3, np.zeros(16))
        op = prob.operators[0]
        K = np.column_stack([op.apply(col) for col in np.eye(16)])
        W = np.diag(prob.hierarchy.finest.weights)
        A = 0.3 * W + K.T @ W @ K
        u = rng.standard_normal(16)
        assert_allclose(hessian_apply(prob, u), A @ u, rtol=1e-12, atol=1e-14)


class TestKktResiduals:
    def test_constructed_kkt_point_has_tiny_residuals(self):
        prob = toy_problem(TOY_K, np.zeros(3))
        eps = 1e-13
        state = make_state(np.zeros(3), np.full(3, eps), np.full(3, eps))
        _, _, _, norms = kkt_residuals(prob, state)
        assert all(nrm <= 1e-12 for nrm in norms)

    def test_vanishing_multipliers_are_infeasible(self):
        prob = toy_problem(TOY_K, TOY_F)
        state = make_state(np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            kkt_residuals(prob, state)

    def test_iterate_outside_bounds_is_infeasible(self):
        prob = toy_problem(TOY_K, TOY_F)
        state = make_state(np.array([0.0, 1.5, 0.0]), np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            kkt_residuals(prob, state)

    def test_dual_residual_is_linear_in_data(self):
        state = make_state(np.zeros(3), np.ones(3), np.ones(3))
        r1, _, _, _ = kkt_residuals(toy_problem(TOY_K, TOY_F), state)
        r2, _, _, _ = kkt_residuals(toy_problem(TOY_K, 2.0 * TOY_F), state)
        assert_allclose(r2, 2.0 * r1, rtol=1e-14)


class TestComputeMu:
    def test_midpoint_with_unit_multipliers(self):
        state = make_state(np.full(6, 0.5), np.ones(6), np.ones(6))
        assert compute_mu(state, np.zeros(6), np.ones(6)) == 0.5

    def test_scales_with_multipliers(self):
        state = make_state(np.full(6, 0.5), np.full(6, 0.01), np.full(6, 0.01))
        assert compute_mu(state, np.zeros(6), np.ones(6)) == pytest.approx(0.005, rel=1e-15)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_compensated_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        lo = -rng.random(n) - 0.5
        hi = rng.random(n) + 0.5
        u = lo + (hi - lo) * rng.uniform(0.01, 0.99, n)
        v1 = rng.uniform(1e-8, 10.0, n)
        v2 = rng.uniform(1e-8, 10.0, n)
        state = make_state(u, v1, v2)
        terms = [(u[i] - lo[i]) * v1[i] for i in range(n)]
        terms += [(hi[i] - u[i]) * v2[i] for i in range(n)]
        expected = math.fsum(terms) / (2.0 * n)
        assert compute_mu(state, lo, hi) == pytest.approx(expected, rel=1e-14)


class TestReduceToScaled:
    def test_unit_gap_diagonal(self):
        u = np.array([0.2, -0.4, 0.9])
        hier = toy_hierarchy(3)
        op = DenseOperator(0, hier.finest, TOY_K)
        prob = ControlProblem(
            hier, [op], NodalField(0, TOY_F), 0.05,
            NodalField(0, u - 1.0), NodalField(0, u + 1.0),
        )
        state = make_state(u, np.ones(3), np.ones(3))
        r_u, r_v1, r_v2, _ = kkt_residuals(prob, state)
        red = reduce_to_scaled(prob, state, r_u, r_v1, r_v2)
        assert_allclose(red.m, 2.0, rtol=0)
        w = hier.finest.weights
        assert_allclose(red.lam.values, 2.0 / w + 0.05, rtol=1e-15)

    def test_zero_operator_solves_in_closed_form(self, rng):
        prob = zero_problem(16, beta=0.7, lo=0.0, hi=1.0, f=rng.standard_normal(16))
        u = rng.uniform(0.2, 0.8, 16)
        state = make_state(u, rng.uniform(0.5, 2.0, 16), rng.uniform(0.5, 2.0, 16))
        r_u, r_v1, r_v2, _ = kkt_residuals(prob, state)
        red = reduce_to_scaled(prob, state, r_u, r_v1, r_v2)
        # G is the identity here, so the scaled solve is a division
        du = red.rhs / red.p
        w = prob.hierarchy.finest.weights
        r = r_u + r_v1 / (u - 0.0) - r_v2 / (1.0 - u)
        assert_allclose(du, r / (red.m + 0.7 * w), rtol=1e-13)

    def test_rejects_infeasible_state(self):
        prob = zero_problem(8, lo=0.0, hi=1.0)
        state = make_state(np.full(8, 0.5), np.zeros(8), np.ones(8))
        with pytest.raises(ValueError):
            reduce_to_scaled(prob, state, np.zeros(8), np.zeros(8), np.zeros(8))

    def test_assembled_reduced_system_is_consistent(self, rng):
        prob = line_problem(64, 0.5, rng.standard_normal(64), lo=-2.0, hi=2.0)
        u = rng.uniform(-1.5, 1.5, 64)
        state = make_state(u, rng.uniform(0.1, 2.0, 64), rng.uniform(0.1, 2.0, 64))
        r_u, r_v1, r_v2, _ = kkt_residuals(prob, state)
        red = reduce_to_scaled(prob, state, r_u, r_v1, r_v2)
        sys = make_scaled_system(0, prob.hierarchy.finest, prob.operators[0],
                                 red.lam, prob.beta)
        G = materialize_g(sys)
        du = np.linalg.solve(G, red.rhs) / red.p
        op = prob.operators[0]
        K = np.column_stack([op.apply(col) for col in np.eye(64)])
        w = prob.hierarchy.finest.weights
        A = 0.5 * np.diag(w) + K.T @ np.diag(w) @ K
        r = r_u + r_v1 / (u + 2.0) - r_v2 / (2.0 - u)
        resid = (A + np.diag(red.m)) @ du - r
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(r)


class TestRecoverFullStep:
    def test_frozen_primal_divides_the_gaps(self, rng):
        u = rng.uniform(0.2, 0.8, 12)
        v1 = rng.uniform(0.5, 2.0, 12)
        v2 = rng.uniform(0.5, 2.0, 12)
        state = make_state(u, v1, v2)
        r_v1 = rng.standard_normal(12)
        r_v2 = rng.standard_normal(12)
        du, dv1, dv2 = recover_full_step(state, np.zeros(12), r_v1, r_v2,
                                         np.zeros(12), np.ones(12))
        assert not du.any()
        assert_allclose(dv1, r_v1 / u, rtol=1e-15)
        assert_allclose(dv2, r_v2 / (1.0 - u), rtol=1e-15)

    def test_zero_rhs_gives_zero_direction(self):
        state = make_state(np.full(5, 0.5), np.ones(5), np.ones(5))
        z = np.zeros(5)
        du, dv1, dv2 = recover_full_step(state, z, z, z, np.zeros(5), np.ones(5))
        assert not du.any() and not dv1.any() and not dv2.any()

    def test_direction_satisfies_all_kkt_rows(self, rng):
        prob = line_problem(64, 0.5, rng.standard_normal(64), lo=-2.0, hi=2.0)
        u = rng.uniform(-1.5, 1.5, 64)
        state = make_state(u, rng.uniform(0.1, 2.0, 64), rng.uniform(0.1, 2.0, 64))
        r_u, r_v1, r_v2, _ = kkt_residuals(prob, state)
        red = reduce_to_scaled(prob, state, r_u, r_v1, r_v2)
        sys = make_scaled_system(0, prob.hierarchy.finest, prob.operators[0],
                                 red.lam, prob.beta)
        du_scaled = np.linalg.solve(materialize_g(sys), red.rhs)
        du, dv1, dv2 = recover_full_step(state, du_scaled / red.p, r_v1, r_v2,
                                         prob.lo, prob.hi)
        v1 = state.v1.values
        v2 = state.v2.values
        g1 = u + 2.0
        g2 = 2.0 - u
        row_u = hessian_apply(prob, du) - dv1 + dv2 - r_u
        assert np.linalg.norm(row_u) <= 1e-8 * np.linalg.norm(r_u)
        assert_allclose(v1 * du + g1 * dv1, r_v1, rtol=0, atol=1e-12)
        assert_allclose(-v2 * du + g2 * dv2, r_v2, rtol=0, atol=1e-12)


class TestStepLengths:
    def test_zero_direction_takes_full_steps(self):
        state = make_state(np.full(4, 0.5), np.ones(4), np.ones(4))
        z = np.zeros(4)
        assert step_lengths(state, z, z, z, np.zeros(4), np.ones(4), 0.99995) == (1.0, 1.0)

    def test_binding_step_is_damped(self):
        state = make_state(np.full(4, 0.5), np.ones(4), np.ones(4))
        du = np.full(4, -1.0)
        z = np.zeros(4)
        ap, ad = step_lengths(state, du, z, z, np.zeros(4), np.ones(4), 0.99995)
        assert ap == pytest.approx(0.99995 * 0.5, rel=1e-15)
        assert ad == 1.0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_bisection_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        lo = -1.0 - rng.random(n)
        hi = 1.0 + rng.random(n)
        u = lo + (hi - lo) * rng.uniform(0.05, 0.95, n)
        du = 2.0 * rng.standard_normal(n)
        v1 = rng.uniform(0.1, 2.0, n)
        v2 = rng.uniform(0.1, 2.0, n)
        dv1 = rng.standard_normal(n)
        dv2 = rng.standard_normal(n)
        state = make_state(u, v1, v2)
        tau = 0.99995
        ap, ad = step_lengths(state, du, dv1, dv2, lo, hi, tau)

        amax_p = bisection_max_step(
            lambda a: bool(np.all(u + a * du >= lo) and np.all(u + a * du <= hi))
        )
        amax_d = bisection_max_step(
            lambda a: bool(np.all(v1 + a * dv1 >= 0.0) and np.all(v2 + a * dv2 >= 0.0))
        )
        for got, amax in ((ap, amax_p), (ad, amax_d)):
            expected = 1.0 if amax > 1.0 else tau * amax
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestSymmetrizedHandle:
    def test_euclidean_symmetry(self, rng):
        level = build_hierarchy("periodic-interval", 48, 1).finest
        op = parabolic_build(level, ParabolicConfig())
        sys = make_scaled_system(0, level, op, NodalField(0, np.full(48, 1.5)), 1.0)
        handle = symmetrized_g_handle(sys)
        u = rng.standard_normal(48)
        v = rng.standard_normal(48)
        lhs = float(handle.apply(u) @ v)
        rhs = float(u @ handle.apply(v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_uniform_weights_change_nothing(self, rng):
        # W = c I commutes with everything, so the conjugation is trivial
        level = build_hierarchy("periodic-interval", 32, 1).finest
        op = parabolic_build(level, ParabolicConfig())
        sys = make_scaled_system(0, level, op, NodalField(0, np.full(32, 2.0)), 1.0)
        handle = symmetrized_g_handle(sys)
        v = rng.standard_normal(32)
        assert_allclose(handle.apply(v), g_apply(sys, v), rtol=1e-13, atol=1e-15)

    def test_cg_and_cgs_reach_the_same_solution(self, rng):
        level = build_hierarchy("periodic-interval", 64, 1).finest
        op = parabolic_build(level, ParabolicConfig())
        x = node_coordinates(level)
        sys = make_scaled_system(0, level, op, NodalField(0, np.sin(x) + 1.0), 1.0)
        rhs = rng.standard_normal(64)
        sqw = np.sqrt(level.weights)
        y, rep = cg(symmetrized_g_handle(sys), sqw * rhs, tol=1e-12)
        assert rep.converged
        via_cg = y / sqw
        gh = LinearOperatorHandle(64, lambda v: g_apply(sys, v))
        ident = LinearOperatorHandle(64, lambda r: r)
        via_cgs, rep2 = cgs(gh, ident, rhs, tol=1e-12)
        assert rep2.converged
        assert np.linalg.norm(via_cg - via_cgs) <= 1e-7 * np.linalg.norm(via_cg)


@pytest.fixture(scope="module")
def parabolic_run():
    hier = build_hierarchy("periodic-interval", 512, 2)
    ops = [parabolic_build(lv, ParabolicConfig(), level_index=i)
           for i, lv in enumerate(hier.levels)]
    x = node_coordinates(hier.finest)
    f = ops[-1].apply(two_bump_target(x))
    prob = ControlProblem(hier, ops, NodalField(1, f), 1e-3,
                          NodalField(1, np.zeros(1024)),
                          NodalField(1, np.ones(1024)))
    return prob, solve(prob)


class TestSolve:
    def test_unforced_projection_returns_zero(self, rng):
        prob = zero_problem(16, beta=1.0, f=rng.standard_normal(16))
        result = solve(prob)
        assert result.converged
        assert len(result.records) <= 25
        assert result.mu_final <= 1e-10 * result.mu0
        assert np.max(np.abs(result.u.values)) <= 1e-6

    def test_toy_matches_active_set_enumeration(self):
        prob = toy_problem(TOY_K, TOY_F)
        result = solve(prob)
        assert result.converged
        w = prob.hierarchy.finest.weights
        expected = enumerate_box_qp(TOY_K, w, 0.05, TOY_F,
                                    np.full(3, -1.0), np.full(3, 1.0))
        assert np.any(np.abs(expected) == 1.0)
        assert np.max(np.abs(result.u.values - expected)) <= 1e-7

    def test_parabolic_line_converges(self, parabolic_run):
        prob, result = parabolic_run
        assert result.converged
        assert result.mu_final <= 1e-10 * result.mu0
        u = result.u.values
        assert np.all(u >= -1e-6) and np.all(u <= 1.0 + 1e-6)

    def test_complementarity_at_convergence(self, parabolic_run):
        prob, result = parabolic_run
        u = result.u.values
        gap1 = (u - prob.lo.values) * result.v1.values
        gap2 = (prob.hi.values - u) * result.v2.values
        assert max(np.max(np.abs(gap1)), np.max(np.abs(gap2))) <= 1e-8
        assert max(np.max(gap1), np.max(gap2)) <= 10.0 * 1e-10 * result.mu0

    def test_final_iterate_is_strictly_feasible(self, parabolic_run):
        prob, result = parabolic_run
        u = result.u.values
        assert np.all(u > prob.lo.values) and np.all(u < prob.hi.values)
        assert np.all(result.v1.values > 0) and np.all(result.v2.values > 0)

    def test_mu_decreases_and_counters_accumulate(self, parabolic_run):
        _, result = parabolic_run
        mus = [rec.mu for rec in result.records]
        for prev, nxt in zip(mus, mus[1:]):
            assert nxt <= 2.0 * prev
        counts = [rec.fine_matvecs_cumulative for rec in result.records]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert [rec.iteration for rec in result.records] == list(
            range(1, len(result.records) + 1)
        )

    def test_mu_final_is_the_duality_measure_of_the_result(self, parabolic_run):
        prob, result = parabolic_run
        state = IpmState(result.u, result.v1, result.v2, result.mu_final,
                         len(result.records))
        assert result.mu_final == compute_mu(state, prob.lo, prob.hi)

    def test_coarse_normal_matrix_is_materialized_once(self):
        hier = build_hierarchy("periodic-interval", 64, 3)
        ops = [parabolic_build(lv, ParabolicConfig(), level_index=i)
               for i, lv in enumerate(hier.levels)]
        x = node_coordinates(hier.finest)
        f = ops[-1].apply(two_bump_target(x))
        prob = ControlProblem(hier, ops, NodalField(2, f), 1e-3,
                              NodalField(2, np.zeros(256)),
                              NodalField(2, np.ones(256)))
        result = solve(prob, IpmOptions(coarsest_solver="dense"))
        assert result.converged and len(result.records) > 1
        # one apply and one transpose per coarse column, then never again:
        # the dense coarse solve and the cycle touch no level-0 operator
        n0 = hier.levels[0].n_dof
        assert ops[0].matvec_counter == 2 * n0
        ipm_mod.build_preconditioner(hier, ops, NodalField(2, np.full(256, 3.0)),
                                     1e-3, coarsest_solver="dense")
        assert ops[0].matvec_counter == 2 * n0

    def test_preconditioner_built_once_per_outer(self, monkeypatch):
        hier = build_hierarchy("periodic-interval", 128, 2)
        ops = [parabolic_build(lv, ParabolicConfig(), level_index=i)
               for i, lv in enumerate(hier.levels)]
        x = node_coordinates(hier.finest)
        f = ops[-1].apply(two_bump_target(x))
        prob = ControlProblem(hier, ops, NodalField(1, f), 1e-3,
                              NodalField(1, np.zeros(256)),
                              NodalField(1, np.ones(256)))
        calls = []
        original = ipm_mod.build_preconditioner

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ipm_mod, "build_preconditioner", counting)
        result = solve(prob)
        assert result.converged
        assert len(calls) == len(result.records)
