"""CG and preconditioned CGS, including exact apply counts on the callback."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mgipm.krylov import KrylovBreakdown, KrylovReport, cg, cgs


def counted_apply(matrix):
    """Apply callable of a dense matrix that tallies its own applications."""
    counter = {"n": 0}

    def apply(v):
        counter["n"] += 1
        return matrix @ v

    return apply, counter


def turns_nan(matrix, good_applies):
    """Like counted_apply, but every apply after the first good_applies
    returns NaN, as an operator that broke down numerically would."""
    counter = {"n": 0}

    def apply(v):
        counter["n"] += 1
        out = matrix @ v
        if counter["n"] > good_applies:
            out[...] = np.nan
        return out

    return apply, counter


def textbook_cgs(A, b, steps):
    """Unpreconditioned CGS from a zero start; returns the last iterate."""
    x = np.zeros_like(b)
    r = b.copy()
    rtilde = r.copy()
    u = r.copy()
    p = r.copy()
    rho = rtilde @ r
    for _ in range(steps):
        v = A @ p
        alpha = rho / (rtilde @ v)
        q = u - alpha * v
        x = x + alpha * (u + q)
        r = r - alpha * (A @ (u + q))
        rho, rho_old = rtilde @ r, rho
        beta = rho / rho_old
        u = r + beta * q
        p = u + beta * (q + beta * p)
    return x


def reference_cg(A, b, tol, maxit):
    """Out-of-place CG with cg's stopping rule; returns (x, KrylovReport)."""
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    rel = 1.0
    for k in range(1, maxit + 1):
        Ap = A @ p
        alpha = rs / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        rel = np.sqrt(rs_new) / bnorm
        if rel <= tol:
            return x, KrylovReport(k, float(rel), True)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, KrylovReport(maxit, float(rel), False)


def reference_cgs(A, M, b, tol, maxit):
    """Out-of-place CGS preconditioned by M, with cgs's confirmation,
    restart, divergence-guard and best-iterate rules; the rho and sigma
    breakdowns are outside its scope.  Returns (x, KrylovReport, applies),
    applies the number of products with A."""
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    r = b.copy()
    rtilde = r.copy()
    rho_prev = None
    applies = iterations = above = 0
    rel = 1.0
    converged = False
    x_best, rel_best = x, rel
    while iterations < maxit:
        rho = float(rtilde @ r)
        assert rho != 0.0
        if rho_prev is None:
            u = r.copy()
            p = u.copy()
        else:
            beta = rho / rho_prev
            u = r + beta * q
            p = u + beta * (q + beta * p)
        vhat = A @ (M @ p)
        sigma = float(rtilde @ vhat)
        assert sigma != 0.0
        alpha = rho / sigma
        q = u - alpha * vhat
        uhat = M @ (u + q)
        x = x + alpha * uhat
        r = r - alpha * (A @ uhat)
        applies += 2
        rho_prev = rho
        iterations += 1
        rel = np.linalg.norm(r) / bnorm
        if rel <= tol:
            r_true = b - A @ x
            applies += 1
            rel = np.linalg.norm(r_true) / bnorm
            if rel <= tol:
                converged = True
                break
            r = r_true
            rtilde = r.copy()
            rho_prev = None
        if rel < rel_best:
            x_best, rel_best = x, rel
        above = above + 1 if rel > 1e4 else 0
        if above >= 20 or not np.isfinite(rel):
            break
    if not converged:
        x = x_best
        rel = np.linalg.norm(b - A @ x) / bnorm
        applies += 1
    return x, KrylovReport(iterations, float(rel), converged), applies


def nonsymmetric_system(n, cond, rng):
    """Symmetric part with the given condition number plus a strictly upper
    triangular perturbation, and the inverse of its diagonal."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(np.logspace(0, np.log10(cond), n)) @ Q.T
    A += 0.3 * np.triu(rng.standard_normal((n, n)), 1)
    return A, np.diag(1.0 / np.diag(A))


def spd_matrix(n, rng):
    A = rng.standard_normal((n, n))
    return A.T @ A + np.eye(n)


class TestCg:
    def test_diagonal_system_finishes_in_rank_iterations(self):
        A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        op, counter = counted_apply(A)
        b = np.ones(5)
        x, report = cg(op, b, tol=1e-12)
        assert report.converged
        assert report.iterations <= 5
        assert_allclose(x, b / np.diag(A), rtol=1e-10)
        assert counter["n"] == report.iterations

    def test_zero_rhs_short_circuits(self):
        op, counter = counted_apply(np.eye(3))
        x, report = cg(op, np.zeros(3))
        assert not x.any()
        assert report.iterations == 0
        assert report.converged
        assert counter["n"] == 0

    def test_random_spd_matches_dense_solve(self, rng):
        A = spd_matrix(20, rng)
        b = rng.standard_normal(20)
        op, _ = counted_apply(A)
        x, report = cg(op, b, tol=1e-10)
        assert report.converged
        expected = np.linalg.solve(A, b)
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_one_matvec_per_iteration(self, rng):
        A = spd_matrix(30, rng)
        op, counter = counted_apply(A)
        _, report = cg(op, rng.standard_normal(30), tol=1e-10)
        assert counter["n"] == report.iterations

    def test_indefinite_operator_raises(self):
        A = np.diag([1.0, -1.0])
        op, _ = counted_apply(A)
        with pytest.raises(KrylovBreakdown):
            cg(op, np.array([0.0, 1.0]))

    def test_energy_error_is_monotone(self, rng):
        # truncating CG after k sweeps gives errors that never grow in the
        # A-norm
        A = spd_matrix(60, rng)
        b = rng.standard_normal(60)
        exact = np.linalg.solve(A, b)
        energies = []
        for k in range(1, 26):
            op, _ = counted_apply(A)
            x, _ = cg(op, b, tol=0.0, maxit=k)
            e = exact - x
            energies.append(float(e @ (A @ e)))
        for prev, nxt in zip(energies, energies[1:]):
            assert nxt <= prev * (1 + 1e-12)

    def test_nan_residual_stops_at_once(self, rng):
        # a NaN p^T A p is not <= 0, so only the residual check can stop it
        A = spd_matrix(30, rng)
        op, counter = turns_nan(A, 2)
        _, report = cg(op, rng.standard_normal(30), tol=1e-14, maxit=500)
        assert not report.converged
        assert report.iterations == 3
        assert not np.isfinite(report.final_relative_residual)
        assert counter["n"] == 3


class TestCgs:
    def test_exact_inverse_preconditioner_converges_immediately(self, rng):
        A = spd_matrix(12, rng)
        inv = np.linalg.inv(A)
        op, _ = counted_apply(A)
        b = rng.standard_normal(12)
        x, report = cgs(op, lambda r: inv @ r, b, tol=1e-10)
        assert report.converged
        assert report.iterations == 1
        assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_identity_preconditioner_on_spd(self, rng):
        A = spd_matrix(20, rng)
        b = rng.standard_normal(20)
        op, counter = counted_apply(A)
        x, report = cgs(op, lambda r: r, b, tol=1e-10)
        assert report.converged
        expected = np.linalg.solve(A, b)
        assert np.linalg.norm(x - expected) <= 1e-6 * np.linalg.norm(expected)
        assert counter["n"] == 2 * report.iterations + 1

    def test_zero_rhs_short_circuits(self):
        op, counter = counted_apply(np.eye(4))
        x, report = cgs(op, lambda r: r, np.zeros(4))
        assert not x.any()
        assert report.iterations == 0
        assert report.converged
        assert counter["n"] == 0

    def test_two_matvecs_per_iteration_plus_confirmation(self, rng):
        A = spd_matrix(20, rng)
        op, counter = counted_apply(A)
        _, report = cgs(op, lambda r: r, rng.standard_normal(20), tol=1e-10)
        assert report.converged
        assert counter["n"] == 2 * report.iterations + 1

    def test_unconverged_run_returns_its_best_iterate(self):
        # indefinite and nonnormal: the CGS residual falls for two steps,
        # then swings up by orders of magnitude
        n, steps = 12, 10
        A = np.diag(np.linspace(-1.0, 1.0, n) + 0.05) + np.triu(np.ones((n, n)), 1)
        b = np.ones(n)
        op, counter = counted_apply(A)
        x, report = cgs(op, lambda r: r, b, tol=1e-14, maxit=steps)
        assert not report.converged
        assert report.iterations == steps
        true = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert report.final_relative_residual == pytest.approx(true, rel=1e-12)
        last = textbook_cgs(A, b, steps)
        assert true <= np.linalg.norm(b - A @ last) / np.linalg.norm(b)
        # the best iterate's residual costs one apply on top of two per step
        assert counter["n"] == 2 * steps + 1

    def test_nan_residual_stops_with_the_best_iterate(self, rng):
        # the third apply (second iteration) turns the residual into NaN,
        # which the 1e4 divergence guard never sees
        A = spd_matrix(30, rng)
        op, counter = turns_nan(A, 2)
        x, report = cgs(op, lambda r: r, rng.standard_normal(30), tol=1e-14, maxit=500)
        assert not report.converged
        assert report.iterations == 2
        assert np.all(np.isfinite(x))
        # two applies per step plus the best iterate's residual
        assert counter["n"] == 5

    def test_costs_double_cg_per_iteration(self, rng):
        # same system, same tolerance: CGS burns two applies where CG burns
        # one
        A = spd_matrix(25, rng)
        b = rng.standard_normal(25)
        op_cg, counter_cg = counted_apply(A)
        _, rep_cg = cg(op_cg, b, tol=1e-10)
        op_cgs, counter_cgs = counted_apply(A)
        _, rep_cgs = cgs(op_cgs, lambda r: r, b, tol=1e-10)
        assert counter_cg["n"] == rep_cg.iterations
        assert counter_cgs["n"] == 2 * rep_cgs.iterations + 1


class TestInPlaceUpdatesMatchReference:
    """cg and cgs update their vectors in place.  Rounded the same way, the
    updates give the out-of-place references' iterates bit for bit."""

    @pytest.mark.parametrize("tol, maxit", [(1e-12, 500), (0.0, 7)])
    def test_cg(self, tol, maxit, rng):
        A = spd_matrix(40, rng)
        b = rng.standard_normal(40)
        op, _ = counted_apply(A)
        x, report = cg(op, b, tol=tol, maxit=maxit)
        x_ref, report_ref = reference_cg(A, b, tol, maxit)
        assert_array_equal(x, x_ref)
        assert report == report_ref

    @pytest.mark.parametrize("tol, restarts, converged", [
        (1e-10, False, True),
        (3e-15, True, True),
        (1e-15, True, False),
    ])
    def test_cgs(self, tol, restarts, converged):
        # near the attainable accuracy the recurrence claims convergence
        # that the explicit residual refutes, and cgs restarts
        A, M = nonsymmetric_system(40, 1e2, np.random.default_rng(20260822))
        b = np.random.default_rng(7).standard_normal(40)
        op, counter = counted_apply(A)
        x, report = cgs(op, lambda r: M @ r, b, tol=tol, maxit=300)
        x_ref, report_ref, applies_ref = reference_cgs(A, M, b, tol, 300)
        assert_array_equal(x, x_ref)
        assert report == report_ref
        assert counter["n"] == applies_ref
        assert report.converged == converged
        # one explicit residual per refuted confirmation, plus the last one
        assert (counter["n"] > 2 * report.iterations + 1) == restarts
