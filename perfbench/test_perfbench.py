"""Tests of the benchmark itself, on small problems.

    python3 -m pytest perfbench -q

They check that tracing changes no result, that the tracer's counts agree
with the solver's own, that self times partition the experiment span,
that the output checks catch a wrong solution, and that the runner fails
cleanly where the program is missing.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import tracer as tracing  # noqa: E402
from mgipm import cli, diagnostics, ipm, operators, precond  # noqa: E402
from mgipm.grid import NodalField  # noqa: E402

SEED = 5


CASES = {
    "par-1lvl": bench.SolverWorkload("par-1lvl", "parabolic-1d", 256, 1),
    "par-3lvl": bench.SolverWorkload("par-3lvl", "parabolic-1d", 512, 3),
    "ell-coarse-cg": bench.SolverWorkload("ell-coarse-cg", "elliptic-2d", 16, 2,
                                          coarsest_solver="cg"),
}

WRAPPED = [
    (ipm, "solve"), (ipm, "cgs"), (ipm, "cg"), (ipm, "build_preconditioner"),
    (ipm, "mg_apply"), (ipm, "g_apply"), (precond, "cg"), (precond, "g_apply"),
    (precond, "l2_project"), (precond, "prolong"), (cli, "emit_csv"),
    (diagnostics, "spectral_distance_table"), (diagnostics, "two_grid_cell"),
    (diagnostics, "eigenvalues"),
]
WRAPPED_METHODS = [
    (operators.ForwardOperator, "apply"),
    (operators.ForwardOperator, "apply_transpose"),
    (precond.MgPreconditioner, "coarse_solve"),
]


def _plain(wl, out_dir):
    state = wl.setup(SEED)
    result = wl.solve(state)
    wl.emit(state, result, out_dir)
    return result


def _read(paths):
    out = []
    for path in paths:
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_tracing_changes_no_result_and_is_removed(case, tmp_path):
    wl = CASES[case]
    before = {(m, a): getattr(m, a) for m, a in WRAPPED}
    methods = {(c, a): c.__dict__[a] for c, a in WRAPPED_METHODS}
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()

    plain = _plain(wl, str(plain_dir))
    _, _, _, traced = bench.traced_experiment(wl, SEED, str(traced_dir))

    for name in ("u", "v1", "v2"):
        a = getattr(plain, name).values
        b = getattr(traced, name).values
        assert a.tobytes() == b.tobytes(), name
    assert plain.records == traced.records
    assert _read(wl.paths(str(plain_dir))) == _read(wl.paths(str(traced_dir)))
    for key, fn in before.items():
        assert getattr(*key) is fn, key
    for (cls, attr), fn in methods.items():
        assert cls.__dict__[attr] is fn, (cls, attr)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fine_matvecs_equal_solver_count(case, tmp_path):
    wl = CASES[case]
    tr, root, _, result = bench.traced_experiment(wl, SEED, str(tmp_path))
    m = tracing.layer_metrics(tr, root, wl.finest, len(result.records))
    assert result.converged
    assert m["operators.fine_matvecs"] == bench.total_fine_matvecs(result)
    assert m["ipm.outer_iterations"] == len(result.records)
    if case == "par-1lvl":
        assert m["krylov.cg_fine_iters"] > 0 and m["precond.coarse_solves"] == 0
    else:
        assert m["krylov.cgs_iters"] > 0 and m["grid.transfers"] > 0
    if case == "ell-coarse-cg":
        assert m["krylov.cg_coarse_iters"] > 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_self_times_partition_the_experiment_span(case, tmp_path):
    wl = CASES[case]
    tr, root, _, _ = bench.traced_experiment(wl, SEED, str(tmp_path))
    spans = tr.spans
    last = spans[root][tracing.LAST]
    assert last == len(spans)
    selfs = tracing.self_times(spans, root, last)
    assert min(selfs) >= 0.0
    duration = spans[root][tracing.END] - spans[root][tracing.START]
    assert sum(selfs) == pytest.approx(duration, rel=1e-9, abs=1e-12)
    for rec in spans[root + 1:last]:
        parent = spans[rec[tracing.PARENT]]
        assert parent[tracing.START] <= rec[tracing.START] <= rec[tracing.END] <= parent[tracing.END]


def test_spectral_table_trace_counts_cells(tmp_path, monkeypatch):
    wl = bench.SpectralWorkload()
    monkeypatch.setattr(wl, "h_list", (1 / 40, 1 / 80))
    monkeypatch.setattr(wl, "beta_list", (0.1,))
    tr, root, _, reports = bench.traced_experiment(wl, SEED, str(tmp_path))
    m = tracing.layer_metrics(tr, root, wl.finest, 0)
    assert m["diagnostics.cells"] == len(reports) == 2
    assert m["diagnostics.eigen_s"] > 0.0
    assert m["cli.csv_bytes"] == os.path.getsize(wl.paths(str(tmp_path))[0])


def test_checks_reject_a_wrong_solution(tmp_path):
    wl = CASES["par-3lvl"]
    state = wl.setup(SEED)
    result = wl.solve(state)
    wl.emit(state, result, str(tmp_path))
    assert wl.check(state, result, SEED, str(tmp_path)) == []
    u = result.u.values
    lo, hi = state.prob.lo.values, state.prob.hi.values
    moved = np.clip(u + 1e-3, lo + 1e-9, hi - 1e-9)
    wrong = ipm.IpmResult(
        NodalField(result.u.level_index, moved), result.v1, result.v2,
        result.records, True, result.mu0, result.mu_final)
    assert wl.check(state, wrong, SEED, str(tmp_path))


def test_a_raising_solve_is_counted_as_failed(tmp_path):
    def attempt():
        raise RuntimeError("inner predictor solve failed at outer iteration 3")

    tally = bench.Tally()
    tally.record(CASES["par-1lvl"], SEED, str(tmp_path), attempt)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "par1d-3lvl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
