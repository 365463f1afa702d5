"""Acceptance suite: the end-to-end guarantees the package ships under.

Each test prints one ACCEPTANCE line naming the guarantee and its outcome.
Heavy artifacts (the spectral table, the 1D and 2D run ladders) are
built once in module-scoped fixtures and shared by every test that grades
them.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from conftest import (
    DenseOperator,
    convergence_probe,
    enumerate_box_qp,
    lemma_a2_check,
    toy_hierarchy,
)
from mgipm.cli import run_elliptic, run_parabolic, two_bump_target
from mgipm.diagnostics import eigenvalues, two_grid_cell
from mgipm.grid import (
    NodalField,
    build_hierarchy,
    l2_project,
    node_coordinates,
    prolong,
)
from mgipm.ipm import ControlProblem, solve
from mgipm.operators import ParabolicConfig, elliptic_build, parabolic_build
from mgipm.precond import (
    build_preconditioner,
    g_apply,
    make_scaled_system,
    mg_apply,
)

# reference spectral distances for the canonical sine-profile table,
# together with the published operator-cost ladders the runs are compared
# against; the cost corridor is reported, not gated
REFERENCE_D = {
    1.0: (0.0206, 0.0066, 0.0020, 0.0006),
    0.1: (0.1127, 0.0363, 0.0102, 0.0027),
    0.01: (0.2812, 0.1270, 0.0445, 0.0123),
}
REFERENCE_TOTALS_1D = {
    (1024, 1): 728, (1024, 2): 581,
    (2048, 1): 740, (2048, 2): 463,
    (4096, 1): 764, (4096, 2): 403, (4096, 3): 425,
}
H_LIST = (1 / 80, 1 / 160, 1 / 320, 1 / 640)
BETA_LIST = (1.0, 0.1, 0.01)


def verdict(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def spectral_cells():
    """(d_h, rho, bound) per (beta, n_cells) cell of the spectral table."""
    start = time.perf_counter()
    op_cfg = ParabolicConfig(c1=2.0)

    def builder(level, level_index):
        return parabolic_build(level, op_cfg, level_index=level_index)

    def rule(xs):
        return np.sin(np.pi * xs) / np.pi

    cells = {}
    for beta in BETA_LIST:
        for h in H_LIST:
            n = round(1.0 / h)
            _, c = two_grid_cell(builder, rule, n, beta)
            lhs, rhs = lemma_a2_check(c)
            cells[(beta, n)] = (math.log1p(rhs), lhs, rhs)
    return cells, time.perf_counter() - start


@pytest.fixture(scope="module")
def parabolic_ladder(tmp_path_factory):
    """Operator totals for the 1D runs at three resolutions and level counts."""
    start = time.perf_counter()
    totals = {}
    converged = {}
    per_outer = {}
    for n, levels in ((1024, 1), (1024, 2), (2048, 1), (2048, 2),
                      (4096, 1), (4096, 2), (4096, 3)):
        out = str(tmp_path_factory.mktemp(f"par_{n}_{levels}"))
        cfg = {"experiment": "parabolic-1d", "finest_n": n, "levels": levels,
               "output_dir": out}
        arts, ok = run_parabolic(cfg)
        converged[(n, levels)] = ok
        _, srows = read_rows(arts.summary_csv)
        totals[(n, levels)] = int(srows[0][5])
        _, orows = read_rows(arts.outer_csv)
        per_outer[(n, levels)] = [(int(r[2]), int(r[3])) for r in orows]
    return totals, converged, per_outer, time.perf_counter() - start


@pytest.fixture(scope="module")
def elliptic_ladder(tmp_path_factory):
    """Operator totals for the 2D runs at three resolutions and level counts."""
    start = time.perf_counter()
    totals = {}
    converged = {}
    for n in (64, 128, 256):
        for levels in (1, 2):
            out = str(tmp_path_factory.mktemp(f"ell_{n}_{levels}"))
            cfg = {"experiment": "elliptic-2d", "finest_n": n,
                   "levels": levels, "output_dir": out}
            arts, ok = run_elliptic(cfg)
            converged[(n, levels)] = ok
            _, srows = read_rows(arts.summary_csv)
            totals[(n, levels)] = int(srows[0][5])
    return totals, converged, time.perf_counter() - start


def test_spectral_distance_table_contracts_at_high_order(spectral_cells):
    cells, elapsed = spectral_cells
    ds = {beta: [cells[(beta, round(1 / h))][0] for h in H_LIST]
          for beta in BETA_LIST}

    matched = all(
        abs(d - ref) <= 0.25 * ref
        for beta in BETA_LIST
        for d, ref in zip(ds[beta], REFERENCE_D[beta])
    )
    rates = {beta: [ds[beta][i - 1] / ds[beta][i] for i in range(1, 4)]
             for beta in BETA_LIST}
    decreasing = all(a > b for beta in BETA_LIST
                     for a, b in zip(ds[beta], ds[beta][1:]))
    ordered = all(r[0] < r[1] < r[2] for r in rates.values())
    in_corridor = all(2.0 <= r <= 4.2 for rs in rates.values() for r in rs)
    final_fast = all(rates[beta][-1] >= 3.3 for beta in (1.0, 0.1))

    gate = "reference-value gate" if matched else "rate-order gate"
    ok = decreasing and ordered and final_fast and (matched or in_corridor)
    ok = ok and elapsed < 300.0
    verdict("spectral-distance-contraction", ok,
            f"{gate}, {elapsed:.0f}s, final rates "
            + ", ".join(f"{rates[b][-1]:.2f}" for b in BETA_LIST))
    assert decreasing
    assert ordered
    if matched:
        pass
    else:
        assert in_corridor
    assert final_fast
    assert elapsed < 300.0


def test_error_propagation_bound_holds_at_every_cell(spectral_cells):
    cells, _ = spectral_cells
    worst = 0.0
    for (beta, n), (d, rho, bound) in cells.items():
        assert rho <= bound * (1.0 + 1e-6), (beta, n)
        if bound > 0:
            worst = max(worst, rho / bound)
    verdict("two-grid-error-bound", True, f"worst rho/bound {worst:.4f}")


def test_forward_operators_are_second_order():
    # keep every graded pair at least two refinements away from the
    # reference level, where the self-convergence ratio sits near 4
    start = time.perf_counter()
    hier1 = build_hierarchy("periodic-interval", 64, 6)
    errs1 = convergence_probe(
        hier1, lambda lv: parabolic_build(lv, ParabolicConfig()), two_bump_target
    )
    ratios1 = [a / b for a, b in zip(errs1[:-1], errs1[1:-1])]

    hier2 = build_hierarchy("dirichlet-square", 8, 6)
    errs2 = convergence_probe(
        hier2, lambda lv: elliptic_build(lv),
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
    )
    ratios2 = [a / b for a, b in zip(errs2[:-1], errs2[1:-1])]
    elapsed = time.perf_counter() - start

    ok = all(3.2 <= r <= 4.8 for r in ratios1 + ratios2) and elapsed < 120.0
    verdict("operator-order", ok,
            "ratios " + ", ".join(f"{r:.2f}" for r in ratios1 + ratios2))
    for r in ratios1 + ratios2:
        assert 3.2 <= r <= 4.8
    assert elapsed < 120.0


def test_algebraic_identities_hold_to_tight_tolerances():
    rng = np.random.default_rng(11)

    level1 = build_hierarchy("periodic-interval", 256, 1).finest
    op1 = parabolic_build(level1, ParabolicConfig())
    level2 = build_hierarchy("dirichlet-square", 32, 1).finest
    op2 = elliptic_build(level2)
    pair_ok = True
    for level, op in ((level1, op1), (level2, op2)):
        n = level.n_dof
        for _ in range(10):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            lhs = float(op.apply(u) @ v)
            rhs = float(u @ op.apply_transpose(v))
            pair_ok = pair_ok and abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))
            wl = float(np.sum(level.weights * op.apply(u) * v))
            wr = float(np.sum(level.weights * u * op.apply_transpose(v)))
            pair_ok = pair_ok and abs(wl - wr) <= 1e-11 * max(1.0, abs(wl))

    level = build_hierarchy("periodic-interval", 160, 1).finest
    x = node_coordinates(level)
    sys = make_scaled_system(
        parabolic_build(level, ParabolicConfig()), np.sin(x) + 1.0, 1.0
    )
    adj_ok = True
    for _ in range(5):
        u = rng.standard_normal(160)
        v = rng.standard_normal(160)
        lhs = float(np.sum(level.weights * g_apply(sys, u) * v))
        rhs = float(np.sum(level.weights * u * g_apply(sys, v)))
        adj_ok = adj_ok and abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    proj_ok = True
    for kind, n0 in (("periodic-interval", 64), ("dirichlet-square", 16)):
        hier = build_hierarchy(kind, n0, 2)
        nc = hier.levels[0].n_dof
        for _ in range(5):
            c = rng.standard_normal(nc)
            back = l2_project(hier, prolong(hier, NodalField(0, c))).values
            proj_ok = proj_ok and (
                np.linalg.norm(back - c) <= 1e-10 * np.linalg.norm(c)
            )

    eigs = eigenvalues(g_apply(sys, np.eye(160)))
    spec_ok = bool(np.min(eigs.real) >= 1.0 - 1e-9)
    spec_ok = spec_ok and bool(np.max(np.abs(eigs.imag)) <= 1e-9)

    ok = pair_ok and adj_ok and proj_ok and spec_ok
    verdict("algebraic-identities", ok,
            f"min Re(sigma(G)) {np.min(eigs.real):.12f}")
    assert pair_ok
    assert adj_ok
    assert proj_ok
    assert spec_ok


def test_interior_point_reaches_certified_solutions():
    start = time.perf_counter()
    K = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.3], [0.0, 0.3, 1.0]])
    f = np.array([2.0, -3.0, 1.5])
    hier = toy_hierarchy(3)
    prob = ControlProblem(
        hier, [DenseOperator(0, hier.finest, K)], NodalField(0, f), 0.05,
        NodalField(0, np.full(3, -1.0)), NodalField(0, np.full(3, 1.0)),
    )
    toy = solve(prob)
    expected = enumerate_box_qp(K, np.full(3, hier.finest.weights), 0.05, f,
                                np.full(3, -1.0), np.full(3, 1.0))
    toy_err = float(np.max(np.abs(toy.u.values - expected)))

    hier = build_hierarchy("periodic-interval", 512, 2)
    ops = [parabolic_build(lv, ParabolicConfig(), level_index=i)
           for i, lv in enumerate(hier.levels)]
    x = node_coordinates(hier.finest)
    f_vals = ops[-1].apply(two_bump_target(x))
    prob = ControlProblem(
        hier, ops, NodalField(1, f_vals), 1e-3,
        NodalField(1, np.zeros(1024)), NodalField(1, np.ones(1024)),
    )
    line = solve(prob)
    u = line.u.values
    gap1 = u * line.v1.values
    gap2 = (1.0 - u) * line.v2.values
    comp = max(float(np.max(np.abs(gap1))), float(np.max(np.abs(gap2))))
    elapsed = time.perf_counter() - start

    ok = (toy.converged and toy_err <= 1e-7
          and line.converged and line.mu_final <= 1e-10 * line.mu0
          and bool(np.all(u >= -1e-6)) and bool(np.all(u <= 1.0 + 1e-6))
          and comp <= 1e-8 and elapsed < 180.0)
    verdict("kkt-certified-solutions", ok,
            f"toy error {toy_err:.2e}, complementarity {comp:.2e}")
    assert toy.converged and line.converged
    assert toy_err <= 1e-7
    assert line.mu_final <= 1e-10 * line.mu0
    assert np.all(u >= -1e-6) and np.all(u <= 1.0 + 1e-6)
    assert comp <= 1e-8
    assert elapsed < 180.0


def test_second_level_cuts_fine_operator_work_in_1d(parabolic_ladder):
    totals, converged, _, elapsed = parabolic_ladder
    assert all(converged.values())

    savings = all(totals[(n, 2)] <= 0.85 * totals[(n, 1)] for n in (2048, 4096))
    monotone = (totals[(1024, 2)] >= totals[(2048, 2)] >= totals[(4096, 2)])

    corridor = {
        key: REFERENCE_TOTALS_1D[key] / 2 <= totals[key] <= 2 * REFERENCE_TOTALS_1D[key]
        for key in totals
    }
    inside = sum(corridor.values())
    ok = savings and monotone and elapsed < 1200.0
    verdict("multilevel-1d-savings", ok,
            f"{elapsed:.0f}s, corridor {inside}/{len(corridor)} cells, "
            + ", ".join(f"{k}:{v}" for k, v in sorted(totals.items())))
    assert savings
    assert monotone
    assert elapsed < 1200.0


def test_second_level_pays_off_in_2d(elliptic_ladder):
    totals, converged, elapsed = elliptic_ladder
    assert all(converged.values())

    ratios = [totals[(n, 2)] / totals[(n, 1)] for n in (64, 128, 256)]
    beats = totals[(256, 2)] < totals[(256, 1)]
    improving = ratios[0] > ratios[1] > ratios[2]

    ok = beats and improving and elapsed < 1800.0
    verdict("multilevel-2d-savings", ok,
            f"{elapsed:.0f}s, level-2/level-1 ratios "
            + ", ".join(f"{r:.2f}" for r in ratios))
    assert beats
    assert improving
    assert elapsed < 1800.0


def test_w_cycle_collapses_to_two_grid_and_extends(parabolic_ladder):
    rng = np.random.default_rng(3)
    hier = build_hierarchy("periodic-interval", 80, 2)
    ops = [parabolic_build(lv, ParabolicConfig(), level_index=i)
           for i, lv in enumerate(hier.levels)]
    x = node_coordinates(hier.finest)
    mg = build_preconditioner(hier, ops, NodalField(1, np.sin(x) + 1.0), 1.0)
    r = rng.standard_normal(160)
    a = mg_apply(mg, r)
    # the two-grid map r - J Pi r + J G_0^{-1} Pi r, assembled densely
    J = np.column_stack([prolong(hier, NodalField(0, e)).values for e in np.eye(80)])
    P = np.column_stack([l2_project(hier, NodalField(1, e)).values for e in np.eye(160)])
    pr = P @ r
    b = r - J @ pr + J @ np.linalg.solve(g_apply(mg.systems[0], np.eye(80)), pr)
    gap = float(np.linalg.norm(a - b)) / float(np.linalg.norm(a))
    ident = gap <= 1e-13

    _, _, per_outer, _ = parabolic_ladder
    two = per_outer[(4096, 2)]
    three = per_outer[(4096, 3)]
    depth = min(len(two), len(three))
    close = all(
        three[k][0] <= two[k][0] + 3 and three[k][1] <= two[k][1] + 3
        for k in range(depth)
    )

    ok = ident and close
    verdict("w-cycle-consistency", ok,
            f"two-grid gap {gap:.1e}, outer depths {len(two)}/{len(three)}")
    assert ident
    assert close


def test_identical_configs_reproduce_byte_identical_csvs(tmp_path_factory):
    digests = []
    for tag in ("a", "b"):
        out = str(tmp_path_factory.mktemp(f"det_{tag}"))
        cfg = {"experiment": "parabolic-1d", "finest_n": 256, "levels": 2,
               "output_dir": out}
        arts, ok = run_parabolic(cfg)
        assert ok
        blob = b""
        for path in (arts.outer_csv, arts.summary_csv, arts.solution_csv):
            with open(path, "rb") as fh:
                blob += fh.read()
        digests.append(blob)
    same = digests[0] == digests[1]
    verdict("deterministic-artifacts", same,
            f"{len(digests[0])} bytes compared")
    assert same
