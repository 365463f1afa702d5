"""Predictor-corrector solver pieces: residuals, reduction, steps, solve."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import mgipm.ipm as ipm_mod
from conftest import (
    DenseOperator,
    bisection_max_step,
    enumerate_box_qp,
    peak_vectors,
    toy_hierarchy,
    warm_elliptic_problem,
    warm_parabolic_problem,
)
from mgipm.cli import two_bump_target
from mgipm.grid import NodalField, build_hierarchy, node_coordinates
from mgipm.ipm import (
    ControlProblem,
    IpmOptions,
    IpmState,
    compute_mu,
    kkt_residuals,
    recover_full_step,
    reduce_to_scaled,
    solve,
    step_lengths,
)
from mgipm.krylov import cg, cgs
from mgipm.operators import ParabolicConfig, ZeroOperator, parabolic_build
from mgipm.precond import g_apply, make_scaled_system


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

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0000000000000002), (-1e308, 1e308)],
                             ids=["one-ulp", "overflowing-gap"])
    def test_rejects_bounds_whose_midpoint_is_not_inside(self, lo, hi):
        # lo < hi holds, but the midpoint start rounds onto a bound or to inf
        with pytest.raises(ValueError, match="midpoint"):
            zero_problem(8, lo=lo, hi=hi)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            zero_problem(8, beta=0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_rejects_nonfinite_beta(self, beta):
        with pytest.raises(ValueError, match="finite"):
            zero_problem(8, beta=beta)

    def test_rejects_operator_count_mismatch(self):
        hier = build_hierarchy("periodic-interval", 8, 2)
        op = ZeroOperator(1, hier.finest)
        with pytest.raises(ValueError):
            ControlProblem(hier, [op], NodalField(1, np.zeros(16)), 1.0,
                           NodalField(1, np.zeros(16)), NodalField(1, np.ones(16)))


class TestIpmOptions:
    @pytest.mark.parametrize("kw", [
        {"step_fraction": 1.5}, {"max_outer": 0}, {"coarsest_solver": "lu"},
        {"coarsest_solver": "dense"}, {"krylov_tol": math.nan}, {"krylov_tol": 0.0},
        {"resid_tol": -1e-8}, {"resid_tol": math.inf},
        {"mu_tol": -1.0}, {"mu_tol": math.nan}, {"krylov_maxit": 0},
    ])
    def test_rejects_out_of_range_values(self, kw):
        with pytest.raises(ValueError):
            IpmOptions(**kw)


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
        lam, _ = reduce_to_scaled(prob, state, r_u, r_v1, r_v2)
        # m = v1/(u-lo) + v2/(hi-u) = 2 at every node
        w = hier.finest.weights
        assert_allclose(lam.values, 2.0 / w + 0.05, rtol=1e-15)

    def test_zero_operator_solves_in_closed_form(self, rng):
        prob = zero_problem(16, beta=0.7, lo=0.0, hi=1.0, f=rng.standard_normal(16))
        u = rng.uniform(0.2, 0.8, 16)
        state = make_state(u, rng.uniform(0.5, 2.0, 16), rng.uniform(0.5, 2.0, 16))
        r_u, r_v1, r_v2, _ = kkt_residuals(prob, state)
        lam, rhs = reduce_to_scaled(prob, state, r_u, r_v1, r_v2)
        # G is the identity here, so the scaled solve is a division
        du = rhs / np.sqrt(lam.values)
        w = prob.hierarchy.finest.weights
        r = r_u + r_v1 / (u - 0.0) - r_v2 / (1.0 - u)
        m = state.v1.values / (u - 0.0) + state.v2.values / (1.0 - u)
        assert_allclose(du, r / (m + 0.7 * w), rtol=1e-13)

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
        lam, rhs = reduce_to_scaled(prob, state, r_u, r_v1, r_v2)
        sys = make_scaled_system(prob.operators[0], lam.values, prob.beta)
        G = g_apply(sys, np.eye(64))
        du = np.linalg.solve(G, rhs) / sys.p
        op = prob.operators[0]
        K = np.column_stack([op.apply(col) for col in np.eye(64)])
        W = np.diag(np.full(64, prob.hierarchy.finest.weights))
        A = 0.5 * W + K.T @ W @ K
        r = r_u + r_v1 / (u + 2.0) - r_v2 / (2.0 - u)
        m = state.v1.values / (u + 2.0) + state.v2.values / (2.0 - u)
        resid = (A + np.diag(m)) @ du - r
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
        lam, rhs = reduce_to_scaled(prob, state, r_u, r_v1, r_v2)
        sys = make_scaled_system(prob.operators[0], lam.values, prob.beta)
        du_scaled = np.linalg.solve(g_apply(sys, np.eye(64)), rhs)
        du, dv1, dv2 = recover_full_step(state, du_scaled / sys.p, r_v1, r_v2,
                                         prob.lo, prob.hi)
        v1 = state.v1.values
        v2 = state.v2.values
        g1 = u + 2.0
        g2 = 2.0 - u
        op = prob.operators[0]
        w = prob.hierarchy.finest.weights
        row_u = prob.beta * w * du + op.apply_transpose(w * op.apply(du)) - dv1 + dv2 - r_u
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

    def test_ratio_tests_hold_no_full_length_temporary(self, rng):
        # the ratio tests select their nodes before subtracting, so no
        # temporary is n long: 1.13 n-vectors measured at n = 16384 with
        # about half the nodes moving toward each bound, where subtracting
        # first (hi - u and -du both alive) peaked at 3.6
        n = 16384
        u = rng.uniform(0.1, 0.9, n)
        state = make_state(u, np.ones(n), np.ones(n))
        du, dv1, dv2 = rng.standard_normal((3, n))
        lo, hi = np.zeros(n), np.ones(n)
        args = (state, du, dv1, dv2, lo, hi, 0.99995)
        step_lengths(*args)
        assert peak_vectors(lambda: step_lengths(*args), n) <= 1.5


class TestSymmetrizedHandle:
    """G is symmetric on uniform grids: CG runs on plain g_apply calls."""

    def test_euclidean_symmetry(self, rng):
        level = build_hierarchy("periodic-interval", 48, 1).finest
        op = parabolic_build(level, ParabolicConfig())
        sys = make_scaled_system(op, np.full(48, 1.5), 1.0)
        u = rng.standard_normal(48)
        v = rng.standard_normal(48)
        lhs = float(g_apply(sys, u) @ v)
        rhs = float(u @ g_apply(sys, v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_cg_and_cgs_reach_the_same_solution(self, rng):
        level = build_hierarchy("periodic-interval", 64, 1).finest
        op = parabolic_build(level, ParabolicConfig())
        x = node_coordinates(level)
        sys = make_scaled_system(op, np.sin(x) + 1.0, 1.0)
        rhs = rng.standard_normal(64)
        via_cg, rep = cg(lambda v: g_apply(sys, v), rhs, tol=1e-12)
        assert rep.converged
        via_cgs, rep2 = cgs(lambda v: g_apply(sys, v), lambda r: r, rhs, tol=1e-12)
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
        w = np.full(3, prob.hierarchy.finest.weights)
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
        n0 = hier.levels[0].n_dof
        k0 = parabolic_build(hier.levels[0], ParabolicConfig())
        dense = DenseOperator(0, hier.levels[0],
                              np.column_stack([k0.apply(e) for e in np.eye(n0)]))
        x = node_coordinates(hier.finest)
        f = ops[-1].apply(two_bump_target(x))
        # the parabolic coarse solve uses its K^T K factor and applies no
        # level-0 operator; without a factor, one apply and one transpose
        # per coarse column, then never again: the dense coarse solve and
        # the cycle touch no level-0 operator
        for coarse, applies in ((ops[0], 0), (dense, 2 * n0)):
            chain = [coarse] + ops[1:]
            prob = ControlProblem(hier, chain, NodalField(2, f), 1e-3,
                                  NodalField(2, np.zeros(256)),
                                  NodalField(2, np.ones(256)))
            result = solve(prob)
            assert result.converged and len(result.records) > 1
            assert coarse.matvec_counter == applies
            ipm_mod.build_preconditioner(hier, chain, NodalField(2, np.full(256, 3.0)), 1e-3)
            assert coarse.matvec_counter == applies

    def test_coarse_normal_factor_is_never_built(self):
        # the Woodbury coarse inverse reads the band, not the n0 x r factor:
        # after a solve no operator holds an array with a row per dof and
        # more than one column (an n x r factor or the n x n K^T K)
        prob = warm_parabolic_problem(1024, 3)
        assert solve(prob).converged
        for op in prob.operators:
            stack = list(vars(op).values())
            while stack:
                v = stack.pop()
                if isinstance(v, tuple):
                    stack.extend(v)
                elif isinstance(v, np.ndarray):
                    assert not (v.ndim == 2 and v.shape[0] == op.level.n_dof)

    def test_elliptic_coarse_level_applies_and_caches_nothing(self):
        # the banded coarse inverse reads the stencils, not K^T K: after a
        # 2-level 2D solve no operator has cached normal_matrix, and the
        # coarse operator was never applied
        prob, opts = warm_elliptic_problem(32, 2)
        coarse = prob.operators[0]
        before = coarse.matvec_counter
        assert solve(prob, opts).converged
        assert coarse.matvec_counter == before
        for op in prob.operators:
            assert "normal_matrix" not in vars(op)

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


class TestWorkingSet:
    """Peak allocation of a whole solve, in finest-level n-vectors.

    The bounds hold only if each outer iteration's temporaries are freed
    after their last use and the Krylov and G updates run in place; with
    stale temporaries the two solves below peak near 32 and 53 vectors.
    The 3-level solve peaked at 29.7 while the coarse Woodbury inverse
    stored its n0 x r factor, and at 23.5-23.8 with the factor-free one.
    """

    @pytest.mark.parametrize("levels, bound", [(1, 20.0), (3, 26.0)])
    def test_solve_peak_stays_within_bound(self, levels, bound):
        prob = warm_parabolic_problem(4096, levels)
        results = []
        peak = peak_vectors(lambda: results.append(solve(prob)), 4096)
        assert results[0].converged
        assert peak <= bound

    def test_elliptic_two_level_solve_peak(self):
        # 2D n=32 on two levels, the banded coarse inverse built inside the
        # solve: 33.8-35.7 vectors measured, so the bound leaves 12% over
        # the highest.  The dense coarse K^T K and LU-factored G (52.7
        # vectors each) held the solve at 138
        prob, opts = warm_elliptic_problem(32, 2)
        results = []
        peak = peak_vectors(lambda: results.append(solve(prob, opts)), 961)
        assert results[0].converged
        assert peak <= 40.0
