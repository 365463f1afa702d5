"""Scaled inner systems and their two-grid / W-cycle approximate inverses."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import DenseOperator, lemma_a2_check, sine_diagonalization
from mgipm import precond
from mgipm.grid import NodalField, build_hierarchy, l2_project, node_coordinates, prolong
from mgipm.krylov import KrylovReport, cgs
from mgipm.operators import ParabolicConfig, ZeroOperator, elliptic_build, parabolic_build
from mgipm.precond import build_preconditioner, g_apply, make_scaled_system, mg_apply


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
    return make_scaled_system(op, lam_values, beta)


def assembled_two_grid(mg):
    """Dense S = (I - J Pi) + J G_0^{-1} Pi of a two-level preconditioner."""
    hier = mg.hierarchy
    coarse, fine = hier.levels
    J = np.column_stack(
        [prolong(hier, NodalField(0, e)).values for e in np.eye(coarse.n_dof)]
    )
    P = np.column_stack(
        [l2_project(hier, NodalField(1, e)).values for e in np.eye(fine.n_dof)]
    )
    g0 = g_apply(mg.systems[0], np.eye(coarse.n_dof))
    return np.eye(fine.n_dof) - J @ P + J @ np.linalg.solve(g0, P)


class TestGApply:
    def test_vanishing_operator_gives_identity(self, rng):
        level = build_hierarchy("periodic-interval", 32, 1).finest
        sys = make_scaled_system(ZeroOperator(0, level), np.ones(32), 1.0)
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
        sys = make_scaled_system(op, lam_vals, 1.0)
        K = np.column_stack([op.apply(col) for col in np.eye(16)])
        W = np.diag(np.full(16, level.weights))
        D = np.diag(1.0 / np.sqrt(lam_vals))
        G = np.eye(16) + D @ np.linalg.solve(W, K.T @ W @ K) @ D
        assert_allclose(g_apply(sys, np.eye(16)), G, rtol=1e-12, atol=1e-12)

    def test_costs_two_operator_applications(self):
        sys = single_system(32, np.full(32, 1.5))
        before = sys.operator.matvec_counter
        g_apply(sys, np.ones(32))
        assert sys.operator.matvec_counter == before + 2

    def test_block_matches_a_column_loop(self, rng):
        # p is broadcast down the rows of an n x k block: the same bits as
        # the columns one by one, at exactly 2k operator applies
        sys = single_system(63, 2.0 + np.sin(np.arange(63) / 5.0))
        k = 7
        block = rng.standard_normal((63, k))
        loop = np.column_stack([g_apply(sys, block[:, j]) for j in range(k)])
        before = sys.operator.matvec_counter
        out = g_apply(sys, block)
        assert sys.operator.matvec_counter == before + 2 * k
        assert_array_equal(out, loop)

    def test_rejects_lambda_below_beta(self):
        level = build_hierarchy("periodic-interval", 8, 1).finest
        lam = np.array([1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            make_scaled_system(ZeroOperator(0, level), lam, 1.0)

    def test_self_adjoint_in_weighted_pairing(self, rng):
        sys = single_system(80, np.sin(np.arange(80) / 80.0) + 1.0)
        w = sys.operator.level.weights
        for _ in range(5):
            u = rng.standard_normal(80)
            v = rng.standard_normal(80)
            lhs = float(np.sum(w * g_apply(sys, u) * v))
            rhs = float(np.sum(w * u * g_apply(sys, v)))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_bounded_below_by_identity(self, rng):
        sys = single_system(80, np.sin(np.arange(80) / 80.0) + 1.0)
        w = sys.operator.level.weights
        for _ in range(10):
            u = rng.standard_normal(80)
            quad = float(np.sum(w * g_apply(sys, u) * u))
            assert quad >= float(np.sum(w * u * u)) - 1e-12

    def test_symmetrized_handle_is_euclidean_symmetric(self, rng):
        # uniform weights make the weighted adjoint the transpose, so G is
        # symmetric in the plain product and the callable CG is given is
        # g_apply itself, with no conjugation by sqrt(W)
        sys = single_system(48, 2.0 + np.sin(np.arange(48) / 7.0))
        for _ in range(5):
            u = rng.standard_normal(48)
            v = rng.standard_normal(48)
            lhs = float(g_apply(sys, u) @ v)
            rhs = float(u @ g_apply(sys, v))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestBuildPreconditioner:
    def test_constant_lambda_reaches_every_level(self):
        hier = build_hierarchy("periodic-interval", 40, 3)
        ops = parabolic_chain(hier)
        lam = NodalField(2, np.full(160, 0.5))
        mg = build_preconditioner(hier, ops, lam, beta=0.5)
        for sys in mg.systems:
            assert_allclose(sys.p, np.sqrt(0.5), rtol=0)

    def test_lambda_chain_discards_fine_nodes(self):
        hier = build_hierarchy("periodic-interval", 40, 3)
        ops = parabolic_chain(hier)
        lam = sine_lambda(hier, 1.0)
        mg = build_preconditioner(hier, ops, lam, beta=1.0)
        assert_allclose(mg.systems[1].p, np.sqrt(lam.values[0::2]), rtol=0)
        assert_allclose(mg.systems[0].p, np.sqrt(lam.values[0::4]), rtol=0)

    def test_rejects_an_unknown_coarsest_solver(self):
        hier = build_hierarchy("periodic-interval", 8, 2)
        with pytest.raises(ValueError, match="^unknown coarsest solver 'lu'$"):
            build_preconditioner(hier, parabolic_chain(hier), sine_lambda(hier, 1.0),
                                 beta=1.0, coarsest_solver="lu")

    def test_stalled_coarse_cg_raises(self, monkeypatch):
        # cg is looked up on precond per coarse solve
        monkeypatch.setattr(precond, "cg", lambda apply, r, tol, maxit: (
            np.zeros_like(r), KrylovReport(maxit, 0.5, False)))
        hier = build_hierarchy("periodic-interval", 8, 2)
        mg = build_preconditioner(hier, parabolic_chain(hier), sine_lambda(hier, 1.0),
                                  beta=1.0, coarsest_solver="cg")
        with pytest.raises(RuntimeError, match="^coarsest-level CG stalled at 5.00e-01$"):
            mg_apply(mg, np.ones(16))

    def test_dense_and_cg_coarse_solves_agree(self, rng):
        hier = build_hierarchy("periodic-interval", 40, 2)
        lam = sine_lambda(hier, 1.0)
        r = rng.standard_normal(80)
        outs = []
        for solver in ("auto", "cg"):
            mg = build_preconditioner(
                hier, parabolic_chain(hier), lam, beta=1.0, coarsest_solver=solver
            )
            outs.append(mg_apply(mg, r))
        assert np.linalg.norm(outs[0] - outs[1]) <= 1e-9 * np.linalg.norm(outs[0])

    def test_auto_keeps_the_exact_solve_above_the_dense_limit(self, rng):
        # n0 = 2304, above the size a dense coarse G could serve: the
        # parabolic factor of K^T K (normal_rank) makes the exact coarse
        # solve cheap at any size
        hier = build_hierarchy("periodic-interval", 2304, 2)
        lam = sine_lambda(hier, 1.0)
        r = rng.standard_normal(4608)
        ops = parabolic_chain(hier)
        auto = build_preconditioner(hier, ops, lam, beta=1.0)
        ref = mg_apply(build_preconditioner(
            hier, parabolic_chain(hier), lam, beta=1.0, coarsest_solver="cg"), r)
        out = mg_apply(auto, r)
        assert ops[0].matvec_counter == 0
        assert np.linalg.norm(out - ref) <= 1e-9 * np.linalg.norm(out)

    def test_low_rank_coarse_solve_is_exact(self, rng):
        # 64 coarse cells take the plain round trip, 1030 = 103 x 10 the split
        for n0 in (64, 1030):
            hier = build_hierarchy("periodic-interval", n0, 2)
            ops = parabolic_chain(hier)
            mg = build_preconditioner(hier, ops, sine_lambda(hier, 1e-3), beta=1e-3)
            r = rng.standard_normal(n0)
            z = mg.coarse_solve(r)
            # the factor path materializes nothing: no level-0 applies so far
            assert ops[0].matvec_counter == 0
            G = g_apply(mg.systems[0], np.eye(n0))
            ref = np.linalg.solve(G, r)
            assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)
            # the diagnostics pass n0 x k blocks through the same solve
            R = rng.standard_normal((n0, 3))
            Z = mg.coarse_solve(R)
            ref = np.linalg.solve(G, R)
            assert Z.shape == R.shape
            assert np.linalg.norm(Z - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("beta", [1.0, 1e-6, 1e-8])
    @pytest.mark.parametrize("n0", [4, 8, 16, 32])
    def test_elliptic_coarse_solve_is_exact(self, n0, beta, rng):
        # the banded Woodbury solve against the dense G of g_apply.  At
        # lambda = beta = 1e-8 on 32 cells G has condition number 2e5, and
        # np.linalg.solve on the G of g_apply was off by 5e-12, so the
        # reference is refined twice with residuals of the exact
        # G = I + D M A^{-2} M D in extended precision, A^{-1} from its
        # sine diagonalization and M the assembled mass, h^2 times the level's
        hier = build_hierarchy("dirichlet-square", n0, 2)
        ops = [elliptic_build(lv, level_index=i) for i, lv in enumerate(hier.levels)]
        nf = hier.finest.n_dof
        lam = NodalField(1, beta * (1.0 + 10.0 * rng.random(nf)))
        mg = build_preconditioner(hier, ops, lam, beta)
        assert "normal_matrix" not in vars(ops[0])
        assert ops[0].matvec_counter == 0
        sys0 = mg.systems[0]
        n = n0 - 1
        s, eig = sine_diagonalization(n0, np.longdouble)
        coarse = hier.levels[0]
        mass = (coarse.h**2 * coarse.mass_matrix).toarray().astype(np.longdouble)
        p = sys0.p.astype(np.longdouble)

        def exact_g(x):
            # x is n^2 x k; each column is an n x n grid
            k = x.shape[1]
            grids = (mass @ (x / p[:, None])).T.reshape(k, n, n)
            grids = s @ ((s @ grids @ s) / (eig * eig)) @ s
            return x + (mass @ grids.reshape(k, -1).T) / p[:, None]

        G = g_apply(sys0, np.eye(n * n))
        for r in (rng.standard_normal(n * n), rng.standard_normal((n * n, 3))):
            rhs = r.reshape(n * n, -1)
            ref = np.linalg.solve(G, rhs).astype(np.longdouble)
            for _ in range(2):
                ref += np.linalg.solve(G, (rhs - exact_g(ref)).astype(float))
            z = mg.coarse_solve(r)
            assert z.shape == r.shape
            err = np.linalg.norm(z.reshape(n * n, -1) - ref) / np.linalg.norm(ref)
            assert err <= 1e-12

    @pytest.mark.parametrize("top", [1e5, 1.0])
    @pytest.mark.parametrize("n0", [32, 64])
    def test_elliptic_coarse_residual_is_roundoff(self, n0, top, rng):
        # lambda from beta where a smooth bump is low up to top elsewhere,
        # as late in a solve: H = A^2 + M D^2 M leaves an unrefined solve
        # with a G residual of 1e-13 to 3e-13 here (a dense LU: 2e-15)
        beta = 1e-6
        hier = build_hierarchy("dirichlet-square", n0, 2)
        ops = [elliptic_build(lv, level_index=i) for i, lv in enumerate(hier.levels)]
        x, y = node_coordinates(hier.finest)
        bump = (np.sin(np.pi * x) * np.sin(np.pi * y)) ** 2
        mg = build_preconditioner(hier, ops, NodalField(1, beta * (top / beta) ** bump), beta)
        sys0 = mg.systems[0]
        n = sys0.p.size
        for r in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            z = mg.coarse_solve(r)
            res = np.linalg.norm(r - g_apply(sys0, z), axis=0) / np.linalg.norm(r, axis=0)
            assert np.max(res) <= 1e-14

    def test_elliptic_core_overflow_raises(self):
        # a subnormal lambda makes 1/p^2 overflow: the band's factor is not
        # finite, and the build stops with RuntimeError
        hier = build_hierarchy("dirichlet-square", 4, 2)
        ops = [elliptic_build(lv, level_index=i) for i, lv in enumerate(hier.levels)]
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError, match="no finite Cholesky factor"):
                build_preconditioner(hier, ops, NodalField(1, np.full(49, 1e-310)), 1e-310)

    def test_zero_operator_coarse_solve_is_the_identity(self, rng):
        # K^T K = 0 has the rank-0 factor, and G = I
        hier = build_hierarchy("periodic-interval", 16, 2)
        ops = [ZeroOperator(i, lv) for i, lv in enumerate(hier.levels)]
        mg = build_preconditioner(hier, ops, NodalField(1, np.full(32, 2.0)), 1.0)
        for r in (rng.standard_normal(16), rng.standard_normal((16, 3))):
            z = mg.coarse_solve(r)
            assert z is not r
            assert_array_equal(z, r)

    def test_underflowed_parabolic_coarse_solve_is_the_identity(self, rng):
        # at c = 1000 and c1 = 0.01 every mode of the symbol underflows to 0:
        # K^T K = 0 has rank 0, LAPACK takes no 0 x 0 core, and G = I
        hier = build_hierarchy("periodic-interval", 32, 2)
        cfg = ParabolicConfig(c=1000.0, c1=0.01)
        ops = [parabolic_build(lv, cfg, level_index=i) for i, lv in enumerate(hier.levels)]
        assert ops[0].normal_rank == 0
        mg = build_preconditioner(hier, ops, NodalField(1, np.full(64, 2.0)), 1.0)
        for r in (rng.standard_normal(32), rng.standard_normal((32, 3))):
            z = mg.coarse_solve(r)
            assert z is not r
            assert_array_equal(z, r)

    def test_auto_takes_the_coarsest_operators_scaled_inverse(self, rng):
        # the one seam between the preconditioner and the coarse structure:
        # "auto" calls scaled_inverse once, on the coarsest operator with
        # the coarsest p, and keeps what it returns; "cg" never calls it
        calls = []

        def inverse(r):
            return 2.0 * r

        class CountingZero(ZeroOperator):
            def scaled_inverse(self, p):
                calls.append((self.level_index, p))
                return inverse

        hier = build_hierarchy("periodic-interval", 8, 3)
        ops = [CountingZero(i, lv) for i, lv in enumerate(hier.levels)]
        lam = NodalField(2, 1.0 + rng.random(32))
        mg = build_preconditioner(hier, ops, lam, 1.0)
        assert len(calls) == 1
        assert calls[0][0] == 0
        assert calls[0][1] is mg.systems[0].p
        assert mg.coarse_inverse is inverse
        r = rng.standard_normal(8)
        assert_array_equal(mg.coarse_solve(r), 2.0 * r)
        build_preconditioner(hier, ops, lam, 1.0, coarsest_solver="cg")
        assert len(calls) == 1

    def test_dense_coarse_solve_passes_nan_on(self, rng):
        # the LU solve does not scan for non-finite input: a NaN residual
        # gives a NaN correction, and CGS stops on the NaN residual
        hier = build_hierarchy("dirichlet-square", 8, 2)
        ops = [elliptic_build(lv, level_index=i) for i, lv in enumerate(hier.levels)]
        mg = build_preconditioner(hier, ops, NodalField(1, np.full(225, 1.0)), 1.0)
        r = rng.standard_normal(49)
        r[3] = np.nan
        assert np.isnan(mg.coarse_solve(r)).all()
        b = rng.standard_normal(225)
        b[7] = np.nan
        _, rep = cgs(lambda v: g_apply(mg.systems[1], v), lambda v: mg_apply(mg, v), b)
        assert not rep.converged
        assert rep.iterations <= 1
        assert not np.isfinite(rep.final_relative_residual)

    def test_coarse_solve_without_factor_is_exact(self, rng):
        hier = build_hierarchy("periodic-interval", 64, 2)
        ops = parabolic_chain(hier)
        k0 = np.column_stack([ops[0].apply(col) for col in np.eye(64)])
        ops[0] = DenseOperator(0, hier.levels[0], k0)
        mg = build_preconditioner(hier, ops, sine_lambda(hier, 1e-3), beta=1e-3)
        assert ops[0].matvec_counter == 2 * 64
        r = rng.standard_normal(64)
        ref = np.linalg.solve(g_apply(mg.systems[0], np.eye(64)), r)
        assert np.linalg.norm(mg.coarse_solve(r) - ref) <= 1e-12 * np.linalg.norm(ref)

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
        assert_allclose(mg_apply(mg, r), r, rtol=1e-10, atol=1e-12)

    def test_rough_residuals_pass_through(self, rng):
        hier = build_hierarchy("periodic-interval", 40, 2)
        mg = build_preconditioner(
            hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0
        )
        raw = rng.standard_normal(80)
        coarse = l2_project(hier, NodalField(1, raw))
        rough = raw - prolong(hier, coarse).values
        assert_allclose(mg_apply(mg, rough), rough, rtol=1e-10, atol=1e-12)

    def test_approximates_the_inverse(self, rng):
        hier = build_hierarchy("periodic-interval", 80, 2)
        mg = build_preconditioner(
            hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0
        )
        sys = mg.systems[1]
        for _ in range(3):
            u = rng.standard_normal(160)
            back = mg_apply(mg, g_apply(sys, u))
            assert np.linalg.norm(back - u) <= 0.01 * np.linalg.norm(u)



class TestMgApply:
    def test_two_levels_reduce_to_two_grid(self, rng):
        # S r = r - J Pi r + J G_0^{-1} Pi r, assembled from single-column
        # transfers and the dense coarse G
        hier = build_hierarchy("periodic-interval", 40, 2)
        mg = build_preconditioner(hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0)
        r = rng.standard_normal(80)
        got = mg_apply(mg, r)
        gap = np.linalg.norm(got - assembled_two_grid(mg) @ r)
        assert gap <= 1e-13 * np.linalg.norm(got)

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

        C = np.linalg.inv(g_apply(mg.systems[0], np.eye(40)))
        for i in (1, 2):
            J, P = transfer_matrices(i)
            n = hier.levels[i].n_dof
            B = (np.eye(n) - J @ P) + J @ C @ P
            if i < 2:
                G = g_apply(mg.systems[i], np.eye(n))
                C = 2.0 * B - B @ G @ B
            else:
                S = B
        r = rng.standard_normal(160)
        assert_allclose(mg_apply(mg, r), S @ r, rtol=1e-10, atol=1e-10)


class TestSpectralRadiusEstimate:
    """rho(I - S G) of the two-grid map, from the dense spectrum of S G."""

    @staticmethod
    def rho(mg):
        g = g_apply(mg.systems[1], np.eye(mg.hierarchy.finest.n_dof))
        return lemma_a2_check(mg_apply(mg, g))[0]

    def test_perfect_preconditioner_leaves_nothing(self):
        hier = build_hierarchy("periodic-interval", 16, 2)
        ops = [ZeroOperator(i, lv) for i, lv in enumerate(hier.levels)]
        mg = build_preconditioner(hier, ops, NodalField(1, np.ones(32)), 1.0)
        assert self.rho(mg) <= 1e-10

    def test_small_contraction_on_fine_line(self):
        hier = build_hierarchy("periodic-interval", 80, 2)
        mg = build_preconditioner(hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0)
        assert self.rho(mg) <= 0.02

    def test_contraction_improves_under_refinement(self):
        rhos = []
        for n in (80, 160, 320):
            hier = build_hierarchy("periodic-interval", n // 2, 2)
            mg = build_preconditioner(
                hier, parabolic_chain(hier), sine_lambda(hier, 1.0), 1.0
            )
            rhos.append(self.rho(mg))
        assert rhos[0] > rhos[1] > rhos[2]
        assert rhos[0] <= 0.02
