"""Config files in, deterministic CSVs out, exit codes as documented."""

import csv
import math
import os
import sys
from dataclasses import fields

import numpy as np
import pytest
import scipy.fft

from mgipm import operators
from mgipm.cli import (
    _READS,
    _RUNNERS,
    _SCHEMA,
    ConfigError,
    emit_csv,
    main,
    parse_config,
    run_elliptic,
    run_parabolic,
    run_spectral_table,
    two_bump_target,
)
from mgipm.grid import build_hierarchy, csr_apply, irfft, rfft
from mgipm.ipm import IpmOptions


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParseConfig:
    def test_types_comments_and_blanks(self, tmp_path):
        path = write_config(
            tmp_path,
            "# run setup\n"
            "experiment = parabolic-1d\n"
            "\n"
            "finest_n = 256  # fine grid\n"
            "beta = 1e-3\n"
            "coarsest_solver = cg\n"
            "h_list = 0.0125, 0.00625\n",
        )
        cfg = parse_config(path)
        assert cfg["experiment"] == "parabolic-1d"
        assert cfg["finest_n"] == 256
        assert cfg["beta"] == 1e-3
        assert cfg["coarsest_solver"] == "cg"
        assert cfg["h_list"] == (0.0125, 0.00625)

    def test_unknown_key_reports_position(self, tmp_path):
        path = write_config(
            tmp_path, "experiment = parabolic-1d\nfinest = 64\n"
        )
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            parse_config(path)

    def test_every_ipm_option_is_a_config_key(self):
        # the keys that do not set IpmOptions: experiment, grid, problem
        # data, operator parameters and the spectral table's lists
        problem_keys = {
            "experiment", "finest_n", "levels", "beta", "lo", "hi",
            "bounds_file", "output_dir", "a", "b", "c", "T", "c1",
            "h_list", "beta_list",
        }
        assert set(_SCHEMA) - problem_keys == {f.name for f in fields(IpmOptions)}

    def test_missing_equals_sign(self, tmp_path):
        path = write_config(tmp_path, "experiment parabolic-1d\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(path)

    def test_experiment_is_required(self, tmp_path):
        path = write_config(tmp_path, "finest_n = 64\n")
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(path)

    def test_experiment_name_is_validated(self, tmp_path):
        path = write_config(tmp_path, "experiment = hyperbolic-3d\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_boolean_is_not_a_number(self, tmp_path):
        path = write_config(
            tmp_path, "experiment = parabolic-1d\nbeta = true\n"
        )
        with pytest.raises(ConfigError, match="beta"):
            parse_config(path)

    @pytest.mark.parametrize("key, value", [
        ("inner_solver", "cg"), ("inner_tol", "1e-12"), ("factor_max_cells", "512"),
        ("method", "spectral"), ("coarsest_tol", "1e-10"),
    ])
    def test_removed_keys_are_unknown(self, tmp_path, key, value):
        # the elliptic stiffness solve is exact, the parabolic apply has a
        # single FFT path and the coarse CG tolerance is a constant, so
        # none of these options is left
        path = write_config(
            tmp_path, f"experiment = elliptic-2d\n{key} = {value}\n"
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}:2: unknown key '{key}'"

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "missing.cfg"))


class TestTwoBumpTarget:
    def test_bump_heights(self):
        vals = two_bump_target(np.array([0.3, 0.65]))
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(0.5)

    def test_vanishes_between_and_outside_bumps(self):
        vals = two_bump_target(np.array([0.0, 0.5, 0.95]))
        assert not vals.any()

    def test_range(self):
        x = np.linspace(0.0, 1.0, 2001)
        vals = two_bump_target(x)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


class TestEmitCsv:
    def test_empty_rows_leave_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        emit_csv(["a", "b"], [], path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "a,b\n"

    def test_round_trip_preserves_floats(self, tmp_path, rng):
        path = str(tmp_path / "vals.csv")
        values = [(i, float(v)) for i, v in enumerate(rng.standard_normal(20))]
        emit_csv(["i", "v"], values, path)
        _, rows = read_csv(path)
        for (i, v), row in zip(values, rows):
            assert int(row[0]) == i
            assert float(row[1]) == v

    def test_column_order_and_special_values(self, tmp_path):
        path = str(tmp_path / "mixed.csv")
        emit_csv(["x", "flag", "gap"], [(3, True, math.nan), (4, False, 2.5)], path)
        header, rows = read_csv(path)
        assert header == ["x", "flag", "gap"]
        assert rows[0] == ["3", "true", ""]
        assert rows[1] == ["4", "false", "2.5"]

    def test_literal_bytes_of_every_emitted_type(self, tmp_path):
        path = str(tmp_path / "types.csv")
        emit_csv(
            ["none", "nan", "flag", "int", "np_int", "real", "np_real", "text"],
            [(None, math.nan, True, 7, np.int64(-3), 0.1, np.float64(1 / 3), "x"),
             (None, np.float64("nan"), False, 0, np.int64(2**40), 1e-300,
              np.float64(-2.5), "elliptic-2d")],
            path,
        )
        with open(path, "rb") as fh:
            assert fh.read() == (
                b"none,nan,flag,int,np_int,real,np_real,text\n"
                b",,true,7,-3,0.10000000000000001,0.33333333333333331,x\n"
                b",,false,0,1099511627776,1e-300,-2.5,elliptic-2d\n"
            )


@pytest.fixture(scope="module")
def single_level_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("par1"))
    cfg = {"experiment": "parabolic-1d", "finest_n": 1024, "levels": 1,
           "output_dir": out}
    arts, converged = run_parabolic(cfg)
    return arts, converged


class TestRunParabolic:
    def test_converges_within_matvec_budget(self, single_level_run):
        arts, converged = single_level_run
        assert converged
        header, rows = read_csv(arts.summary_csv)
        assert header == ["experiment", "finest_n", "levels", "beta",
                          "outer_iterations", "total_fine_matvecs", "converged"]
        row = dict(zip(header, rows[0]))
        assert row["experiment"] == "parabolic-1d"
        assert row["converged"] == "true"
        total = int(row["total_fine_matvecs"])
        assert 728 / 2 <= total <= 728 * 2

    def test_outer_log_is_consistent(self, single_level_run):
        arts, _ = single_level_run
        header, rows = read_csv(arts.outer_csv)
        assert header == ["iteration", "mu", "predictor_iters", "corrector_iters",
                          "fine_matvecs_cumulative", "lambda_w2inf"]
        iters = [int(r[0]) for r in rows]
        assert iters == list(range(1, len(rows) + 1))
        mus = [float(r[1]) for r in rows]
        assert all(m > 0 for m in mus)
        counts = [int(r[4]) for r in rows]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        _, srows = read_csv(arts.summary_csv)
        assert counts[-1] == int(srows[0][5])

    def test_solution_stays_in_the_box(self, single_level_run):
        arts, _ = single_level_run
        _, rows = read_csv(arts.solution_csv)
        assert len(rows) == 1024
        u = np.array([float(r[1]) for r in rows])
        assert np.all(u >= -1e-6) and np.all(u <= 1.0 + 1e-6)

    def test_second_level_pays_off_on_finer_grids(self, tmp_path):
        totals = {}
        for levels in (1, 2):
            out = str(tmp_path / f"lv{levels}")
            cfg = {"experiment": "parabolic-1d", "finest_n": 2048,
                   "levels": levels, "output_dir": out}
            _, converged = run_parabolic(cfg)
            assert converged
            _, rows = read_csv(os.path.join(out, "parabolic-1d_summary.csv"))
            totals[levels] = int(rows[0][5])
        assert totals[2] < totals[1]

    def test_three_levels_converge_on_a_small_grid(self, tmp_path):
        # n0 = 32: CGS must restart once its explicit residual refutes the recurrence
        cfg = {"experiment": "parabolic-1d", "finest_n": 128, "levels": 3,
               "output_dir": str(tmp_path)}
        _, converged = run_parabolic(cfg)
        assert converged

    def test_collapsed_bounds_are_a_config_error(self, tmp_path):
        cfg = {"experiment": "parabolic-1d", "finest_n": 128, "levels": 1,
               "lo": 0.5, "hi": 0.5, "output_dir": str(tmp_path)}
        with pytest.raises(ConfigError):
            run_parabolic(cfg)

    def test_indivisible_level_count_is_a_config_error(self, tmp_path):
        # 102 halves once to 51, which cannot support a third level
        cfg = {"experiment": "parabolic-1d", "finest_n": 102, "levels": 3,
               "output_dir": str(tmp_path)}
        with pytest.raises(ConfigError):
            run_parabolic(cfg)


class TestRunElliptic:
    def test_solution_presses_both_bounds(self, tmp_path):
        cfg = {"experiment": "elliptic-2d", "finest_n": 128, "levels": 2,
               "output_dir": str(tmp_path)}
        arts, converged = run_elliptic(cfg)
        assert converged
        _, rows = read_csv(arts.solution_csv)
        u = np.array([float(r[1]) for r in rows])
        assert np.all(u >= -1.0 - 1e-6) and np.all(u <= 1.0 + 1e-6)
        assert np.count_nonzero(u > 1.0 - 1e-6) > 0
        assert np.count_nonzero(u < -1.0 + 1e-6) > 0

    def test_two_levels_converge_on_sixteen_coarse_cells(self, tmp_path):
        # 16 coarse cells per side at the default beta, no noise: the
        # smallest two-level grid that converges (16/2 fails, see
        # TestMain::test_smallest_ladder_stops_with_reason)
        cfg = {"experiment": "elliptic-2d", "finest_n": 32, "levels": 2,
               "output_dir": str(tmp_path)}
        _, converged = run_elliptic(cfg)
        assert converged

    def test_heavy_regularization_flattens_the_control(self, tmp_path):
        cfg = {"experiment": "elliptic-2d", "finest_n": 64, "levels": 2,
               "beta": 1e6, "output_dir": str(tmp_path)}
        arts, converged = run_elliptic(cfg)
        assert converged
        _, rows = read_csv(arts.solution_csv)
        u = np.array([float(r[1]) for r in rows])
        level = build_hierarchy("dirichlet-square", 64, 1).finest
        assert np.sqrt(level.weights * float(u @ u)) <= 1e-4


class TestScipyProductOracle:
    @pytest.mark.parametrize("levels, refine_above", [(2, None), (3, None), (2, 0)],
                             ids=["16/2", "16/3", "16/2-refined"])
    def test_csr_apply_keeps_the_bits_of_scipy_products(self, tmp_path, monkeypatch,
                                                        levels, refine_above):
        # the whole solve, run once as shipped and once with every csr_apply
        # replaced by scipy's own a @ x, in one process (so on one BLAS
        # thread count).  beta = 1e-5, as at the default beta both stop at
        # outer iteration 5 and write no CSV
        if refine_above is not None:
            # every band solve takes its refinement step
            monkeypatch.setattr(operators, "BAND_UNREFINED_MAX_DOF", refine_above)
        cfg = {"experiment": "elliptic-2d", "finest_n": 16, "levels": levels,
               "beta": 1e-5}

        def csvs(out):
            _, converged = run_elliptic({**cfg, "output_dir": str(out)})
            assert converged
            return {p.name: p.read_bytes() for p in out.glob("*.csv")}

        shipped = csvs(tmp_path / "shipped")
        patched = set()
        for name, module in list(sys.modules.items()):
            if name.startswith("mgipm") and getattr(module, "csr_apply", None) is csr_apply:
                monkeypatch.setattr(module, "csr_apply", lambda a, x: a @ x)
                patched.add(name)
        assert patched == {"mgipm.grid", "mgipm.operators"}
        assert len(shipped) == 3
        assert csvs(tmp_path / "scipy") == shipped


class TestScipyFftOracle:
    """Whole runs of the interval's experiments, whose every FFT goes
    through grid.rfft and grid.irfft."""

    RUNS = {
        "1024/2": (run_parabolic, {"experiment": "parabolic-1d", "finest_n": 1024,
                                   "levels": 2}),
        "512/3": (run_parabolic, {"experiment": "parabolic-1d", "finest_n": 512,
                                  "levels": 3}),
        "spectral": (run_spectral_table, {"experiment": "spectral-table",
                                          "h_list": (1 / 80, 1 / 160),
                                          "beta_list": (0.1,)}),
    }

    @staticmethod
    def _csvs(runner, cfg, out):
        _, converged = runner({**cfg, "output_dir": str(out)})
        assert converged
        return {p.name: p.read_bytes() for p in out.glob("*.csv")}

    @pytest.mark.parametrize("run", list(RUNS))
    def test_helpers_keep_the_bits_of_scipy_fft(self, tmp_path, monkeypatch, run):
        # the run once as shipped and once with both helpers replaced by
        # scipy.fft's own functions in every mgipm module that imports them
        runner, cfg = self.RUNS[run]
        shipped = self._csvs(runner, cfg, tmp_path / "shipped")
        patched = set()
        for name, module in list(sys.modules.items()):
            if not name.startswith("mgipm"):
                continue
            if getattr(module, "rfft", None) is rfft:
                monkeypatch.setattr(module, "rfft",
                                    lambda x, axis=0: scipy.fft.rfft(x, axis=axis))
                patched.add(name)
            if getattr(module, "irfft", None) is irfft:
                monkeypatch.setattr(module, "irfft",
                                    lambda v, n, axis=0: scipy.fft.irfft(v, n, axis=axis))
                patched.add(name)
        assert {"mgipm.grid", "mgipm.operators"} <= patched
        assert len(shipped) == (1 if run == "spectral" else 3)
        assert self._csvs(runner, cfg, tmp_path / "scipy") == shipped

    @pytest.mark.parametrize("run", list(RUNS))
    def test_no_call_reaches_scipy_fft(self, tmp_path, monkeypatch, run):
        # a call site that still calls scipy.fft fails the run
        def stub(*args, **kwargs):
            raise AssertionError("scipy.fft called")

        monkeypatch.setattr(scipy.fft, "rfft", stub)
        monkeypatch.setattr(scipy.fft, "irfft", stub)
        runner, cfg = self.RUNS[run]
        assert self._csvs(runner, cfg, tmp_path)


class TestRunnersLeaveTheConfig:
    @pytest.mark.parametrize("runner, experiment", [
        (run_parabolic, "parabolic-1d"), (run_elliptic, "elliptic-2d"),
    ])
    def test_config_is_unchanged(self, tmp_path, runner, experiment):
        # defaults such as the elliptic mu_tol are read, never written back
        cfg = {"experiment": experiment, "finest_n": 16, "levels": 1,
               "output_dir": str(tmp_path)}
        before = dict(cfg)
        runner(cfg)
        assert cfg == before


class TestRunSpectralTable:
    def test_small_table_layout(self, tmp_path):
        cfg = {"experiment": "spectral-table", "h_list": (1 / 16, 1 / 32),
               "beta_list": (1.0, 0.1), "output_dir": str(tmp_path)}
        arts, converged = run_spectral_table(cfg)
        assert converged
        header, rows = read_csv(arts.outer_csv)
        assert header == ["h", "beta", "d_h", "rate"]
        assert len(rows) == 4
        assert [float(r[1]) for r in rows] == [1.0, 1.0, 0.1, 0.1]
        assert rows[0][3] == "" and rows[2][3] == ""
        assert rows[1][3] != "" and rows[3][3] != ""
        assert float(rows[1][2]) < float(rows[0][2])
        assert float(rows[3][2]) < float(rows[2][2])

    def test_single_resolution_has_no_rates(self, tmp_path):
        cfg = {"experiment": "spectral-table", "h_list": (1 / 16,),
               "beta_list": (1.0, 0.1, 0.01), "output_dir": str(tmp_path)}
        arts, _ = run_spectral_table(cfg)
        _, rows = read_csv(arts.outer_csv)
        assert len(rows) == 3
        assert all(r[3] == "" for r in rows)


class TestMain:
    def test_run_returns_zero_on_convergence(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            "experiment = parabolic-1d\nfinest_n = 128\nlevels = 2\n"
            f"output_dir = {out}\n",
        )
        assert main(["run", path]) == 0
        assert (out / "parabolic-1d_summary.csv").exists()

    def test_output_dir_override_wins(self, tmp_path):
        override = tmp_path / "override"
        path = write_config(
            tmp_path,
            "experiment = parabolic-1d\nfinest_n = 128\nlevels = 2\n"
            f"output_dir = {tmp_path / 'ignored'}\n",
        )
        assert main(["run", path, "--output-dir", str(override)]) == 0
        assert (override / "parabolic-1d_summary.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_unconverged_run_returns_two(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "experiment = parabolic-1d\nfinest_n = 128\nlevels = 2\n"
            "max_outer = 1\n"
            f"output_dir = {tmp_path}\n",
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err == f"solver error: {path}: not converged after 1 outer iterations\n"
        _, rows = read_csv(tmp_path / "parabolic-1d_summary.csv")
        assert rows[0][-1] == "false"

    def test_solver_failure_returns_two_with_reason(self, tmp_path, capsys):
        # three 2D levels at the default beta on the smallest ladder: the
        # inner solve ends far above the usable residual at outer iteration 5
        path = write_config(
            tmp_path,
            "experiment = elliptic-2d\nfinest_n = 32\nlevels = 3\n"
            f"output_dir = {tmp_path}\n",
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"solver error: {path}: inner predictor solve failed")
        assert len(err.splitlines()) == 1

    def test_parabolic_tiny_beta_stops_with_reason(self, tmp_path, capsys):
        # 1D 256/2 converges down to beta = 1e-5 and fails from 1e-6 on;
        # at 1e-14 the inner predictor solve ends far above the usable
        # residual (5.0e-01): a clean exit 2 with one line, no CSVs
        path = write_config(
            tmp_path,
            "experiment = parabolic-1d\nfinest_n = 256\nlevels = 2\nbeta = 1e-14\n"
            f"output_dir = {tmp_path}\n",
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(
            f"solver error: {path}: inner predictor solve failed at outer iteration 12 "
            "(relative residual")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("levels, residual", [(2, "8.00e-03"), (3, "1.00e+00")])
    def test_smallest_ladder_stops_with_reason(self, tmp_path, capsys, levels,
                                               residual):
        # 2D 16/2 (8 coarse cells, h0^2/beta = 1.6e4) and 16/3 fail at the
        # default beta; both converge at beta = 1e-5
        path = write_config(
            tmp_path,
            f"experiment = elliptic-2d\nfinest_n = 16\nlevels = {levels}\n"
            f"output_dir = {tmp_path}\n",
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err.strip()
        assert err == (f"solver error: {path}: inner predictor solve failed at outer "
                       f"iteration 5 (relative residual {residual})")
        assert not list(tmp_path.glob("*.csv"))

    def test_tiny_time_step_ratio_runs(self, tmp_path, capsys):
        # c1 = 1e-17 takes 5.12e18 Crank-Nicolson steps at n = 64, so
        # eps^(1/n_steps) rounds to 1 and the band cut sits at the largest
        # step modulus; the modes at it are kept, where the band came out
        # empty and the run ended in an IndexError
        path = write_config(
            tmp_path,
            "experiment = parabolic-1d\nfinest_n = 64\nc1 = 1e-17\n"
            f"output_dir = {tmp_path}\n",
        )
        assert main(["run", path]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(tmp_path / "parabolic-1d_summary.csv")
        assert rows[0][-1] == "true"

    @pytest.mark.parametrize("command, body", [
        ("run", "experiment = parabolic-1d\nfinest_n = 64\n"),
        ("spectral", "experiment = spectral-table\nh_list = 0.125\n"),
    ], ids=["run", "spectral"])
    @pytest.mark.parametrize("c1, T", [
        pytest.param("1e-310", None, id="1e-310"),
        pytest.param("5e-324", None, id="5e-324"),
        pytest.param("1", "1e308", id="T=1e308"),
    ])
    def test_subnormal_time_step_ratio_is_a_config_error(self, tmp_path, capsys,
                                                         command, body, c1, T):
        # c1 h underflows to 0 at 5e-324 and T/(c1 h) overflows at 1e-310;
        # both ended in a traceback (ZeroDivisionError, OverflowError).  At
        # T = 1e308 T/(c1 h) overflows with c1 = 1, so the message names T
        if T is not None:
            body += f"T = {T}\n"
        path = write_config(tmp_path, f"{body}c1 = {c1}\noutput_dir = {tmp_path}\n")
        assert main([command, path]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"config error: time-step ratio c1={float(c1)!r}")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.glob("*.csv"))
        if T is not None:
            assert f"T={float(T)!r}" in err

    @pytest.mark.parametrize("command, body", [
        ("run", "experiment = parabolic-1d\nfinest_n = 64\na = 1e308\n"),
        ("run", "experiment = parabolic-1d\nfinest_n = 64\nc = 1e308\n"),
        ("run", "experiment = spectral-table\nh_list = 0.125\na = 1e308\n"),
        ("spectral", "experiment = spectral-table\nh_list = 0.125\na = 1e308\n"),
    ], ids=["run-a", "run-c", "run-spectral-a", "spectral-a"])
    def test_overflowing_coefficient_is_a_config_error(self, tmp_path, capsys,
                                                       command, body):
        # the transport modes overflow to a NaN step modulus, which ended in
        # an IndexError from the band cut, after two RuntimeWarnings
        path = write_config(tmp_path, f"{body}output_dir = {tmp_path}\n")
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: parabolic coefficients a=")
        assert "overflow the time step" in err
        assert len(err.strip().splitlines()) == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("levels", [1, 2])
    def test_bounds_away_from_zero_stop_with_reason(self, tmp_path, capsys, levels):
        # floats are 8.9e-16 apart at lo = 5; as mu is driven toward
        # mu_tol * mu0 = 5e-16 a gap falls below that spacing, and the
        # rounded step lands u on the lower bound at outer iteration 6
        path = write_config(
            tmp_path,
            f"experiment = elliptic-2d\nfinest_n = 16\nlevels = {levels}\n"
            f"lo = 5\nhi = 6\noutput_dir = {tmp_path}\n",
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(
            f"solver error: {path}: outer iteration 6: iterate violates the lower bound")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("body, reason", [
        # c1 = 0.1 at beta = 1e-12: a computed eigenvalue of the 8-cell
        # compression has a negative real part
        ("beta_list = 1e-12\nc1 = 0.1\n", "generalized spectrum left the right half line"),
        # 1/p^2 reaches 1e300 at lambda = beta: the coarse Woodbury core
        # rounds to indefinite
        ("beta_list = 1e-300\n", "coarse Woodbury core has no Cholesky factor: 3-th"),
        # a subnormal beta: 1/p^2 overflows to inf
        ("beta_list = 1e-310\n", "coarse Woodbury core has no Cholesky factor: array"),
    ], ids=["spectrum", "woodbury-core", "woodbury-overflow"])
    def test_spectral_cell_failure_returns_two_with_reason(self, tmp_path, capsys,
                                                           body, reason):
        path = write_config(
            tmp_path,
            f"experiment = spectral-table\nh_list = 0.125\n{body}"
            f"output_dir = {tmp_path}\n",
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"solver error: {path}: {reason}")
        assert len(err.splitlines()) == 1

    def test_config_errors_return_one(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1
        bad = write_config(tmp_path, "experiment = parabolic-1d\nfinest = 1\n")
        assert main(["run", bad]) == 1

    @pytest.mark.parametrize("key, value", [("lo", "-inf"), ("hi", "inf")])
    def test_infinite_bound_is_a_config_error(self, tmp_path, capsys, key, value):
        path = write_config(
            tmp_path,
            "experiment = parabolic-1d\nfinest_n = 8\nlevels = 1\n"
            f"{key} = {value}\noutput_dir = {tmp_path}\n",
        )
        assert main(["run", path]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"config error: {key} must be finite")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("body", [
        pytest.param("experiment = parabolic-1d\nbeta = -1\n", id="beta=-1"),
        pytest.param("experiment = parabolic-1d\nbeta = nan\n", id="beta=nan"),
        pytest.param("experiment = elliptic-2d\nbeta = inf\n", id="beta=inf"),
        pytest.param("experiment = parabolic-1d\nstep_fraction = 1.5\n",
                     id="step_fraction=1.5"),
        pytest.param("experiment = parabolic-1d\nmax_outer = 0\n", id="max_outer=0"),
        pytest.param("experiment = parabolic-1d\nkrylov_tol = nan\n", id="krylov_tol=nan"),
        pytest.param("experiment = parabolic-1d\nkrylov_tol = 0\n", id="krylov_tol=0"),
        pytest.param("experiment = parabolic-1d\nresid_tol = inf\n", id="resid_tol=inf"),
        pytest.param("experiment = parabolic-1d\nmu_tol = -1\n", id="mu_tol=-1"),
        pytest.param("experiment = parabolic-1d\nkrylov_maxit = 0\n", id="krylov_maxit=0"),
        pytest.param("experiment = parabolic-1d\na = 0\n", id="a=0"),
        pytest.param("experiment = parabolic-1d\nc1 = 0\n", id="c1=0"),
        pytest.param("experiment = parabolic-1d\nT = inf\n", id="T=inf"),
        pytest.param("experiment = parabolic-1d\ncoarsest_solver = lu\n",
                     id="coarsest_solver=lu-2-levels"),
        pytest.param("experiment = parabolic-1d\nlevels = 1\ncoarsest_solver = lu\n",
                     id="coarsest_solver=lu-1-level"),
        pytest.param("experiment = spectral-table\nh_list = 0.0625\nbeta_list = 1, 0\n",
                     id="beta_list-0"),
        pytest.param("experiment = spectral-table\nh_list = 0.012345679\n",
                     id="h_list-odd"),
        pytest.param("experiment = spectral-table\nh_list = 0.3\n", id="h_list-coarse"),
        pytest.param("experiment = spectral-table\nh_list = 0\n", id="h_list-0"),
        pytest.param("experiment = parabolic-1d\nlo = 1\nhi = 1.0000000000000002\n",
                     id="bounds-one-ulp-apart"),
        pytest.param("experiment = parabolic-1d\nlo = -1e308\nhi = 1e308\n",
                     id="bounds-gap-overflows"),
        pytest.param("experiment = parabolic-1d\nlo = 1\nhi = 0\n", id="bounds-reversed"),
        pytest.param("experiment = parabolic-1d\nlo = 0.5\nhi = 0.5\n", id="bounds-equal"),
        pytest.param("experiment = parabolic-1d\nlevels = 0\n", id="levels=0"),
    ])
    def test_out_of_range_value_is_a_config_error(self, tmp_path, capsys, body):
        path = write_config(tmp_path, body + f"finest_n = 16\noutput_dir = {tmp_path}\n")
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_config_error_outranks_nonconvergence(self, tmp_path):
        good = write_config(
            tmp_path,
            "experiment = parabolic-1d\nfinest_n = 128\nlevels = 2\n"
            "max_outer = 1\n"
            f"output_dir = {tmp_path}\n",
            name="good.cfg",
        )
        missing = str(tmp_path / "absent.cfg")
        assert main(["run", good, missing]) == 1

    def test_spectral_subcommand_forces_the_experiment(self, tmp_path):
        path = write_config(
            tmp_path,
            "experiment = parabolic-1d\n"
            "h_list = 0.0625\nbeta_list = 1.0\n"
            f"output_dir = {tmp_path}\n",
        )
        assert main(["spectral", path]) == 0
        assert (tmp_path / "spectral.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "0.5"), ("--levels", "7"), ("--finest-n", "3"),
    ])
    def test_spectral_subcommand_rejects_run_overrides(self, tmp_path, capsys,
                                                      flag, value):
        # the table reads neither beta nor the grid keys, so these flags
        # must fail, not be ignored
        path = write_config(
            tmp_path,
            "experiment = spectral-table\nh_list = 0.125\nbeta_list = 1.0\n"
            f"output_dir = {tmp_path}\n",
        )
        with pytest.raises(SystemExit) as exc:
            main(["spectral", path, flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "spectral.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            path = write_config(
                tmp_path,
                "experiment = parabolic-1d\nfinest_n = 128\nlevels = 2\n"
                f"output_dir = {out}\n",
                name=f"{tag}.cfg",
            )
            assert main(["run", path]) == 0
            outs.append(out)
        for name in ("parabolic-1d_outer.csv", "parabolic-1d_summary.csv",
                     "parabolic-1d_solution.csv"):
            first = (outs[0] / name).read_bytes()
            second = (outs[1] / name).read_bytes()
            assert first == second


class TestUnreadKeys:
    """Each experiment reads a fixed set of keys (cli._READS); any other,
    from the file or from a command-line override, is one config error
    line, exit 1, before anything is written."""

    def check(self, tmp_path, capsys, argv, experiment, unread):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (f"config error: {argv[1]}: {experiment} reads no "
                       f"{', '.join(unread)}\n")
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("command", ["run", "spectral"])
    def test_spectral_table_reads_no_control_keys(self, tmp_path, capsys, command):
        path = write_config(
            tmp_path,
            "experiment = spectral-table\nh_list = 0.125\nbeta_list = 1.0\n"
            f"lo = -1\nmax_outer = 3\nfinest_n = 16\noutput_dir = {tmp_path}\n",
        )
        self.check(tmp_path, capsys, [command, path], "spectral-table",
                   ["finest_n", "lo", "max_outer"])

    @pytest.mark.parametrize("flag, value, key", [
        ("--beta", "0.5", "beta"), ("--levels", "7", "levels"),
        ("--finest-n", "3", "finest_n"),
    ])
    def test_run_overrides_the_table_does_not_read(self, tmp_path, capsys, flag,
                                                    value, key):
        path = write_config(
            tmp_path,
            "experiment = spectral-table\nh_list = 0.125\nbeta_list = 1.0\n"
            f"output_dir = {tmp_path}\n",
        )
        self.check(tmp_path, capsys, ["run", path, flag, value], "spectral-table",
                   [key])

    @pytest.mark.parametrize("key, value", [("a", "-5"), ("c1", "1e-300"),
                                            ("h_list", "0.5")])
    def test_elliptic_reads_no_parabolic_or_table_keys(self, tmp_path, capsys, key,
                                                       value):
        path = write_config(
            tmp_path,
            "experiment = elliptic-2d\nfinest_n = 16\nlevels = 1\n"
            f"{key} = {value}\noutput_dir = {tmp_path}\n",
        )
        self.check(tmp_path, capsys, ["run", path], "elliptic-2d", [key])

    def test_parabolic_reads_no_table_keys(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "experiment = parabolic-1d\nfinest_n = 16\nlevels = 1\n"
            f"h_list = 0.125\noutput_dir = {tmp_path}\n",
        )
        self.check(tmp_path, capsys, ["run", path], "parabolic-1d", ["h_list"])

    @pytest.mark.parametrize("body, reason", [
        ("h_list = 0.012345679\n", "h_list entry 0.012345679: 1/h must be an even"),
        ("h_list = 0\n", "h_list entry 0.0: 1/h must be an even"),
        ("h_list = 0.0625\nbeta_list = 1, 0\n", "beta_list entry 0.0 must be positive"),
    ], ids=["h_list-odd", "h_list-0", "beta_list-0"])
    def test_table_values_are_checked_without_control_keys(self, tmp_path, capsys,
                                                           body, reason):
        # the table's own checks, which a config that also holds finest_n
        # no longer reaches
        path = write_config(
            tmp_path, f"experiment = spectral-table\n{body}output_dir = {tmp_path}\n")
        assert main(["spectral", path]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {reason}")

    def test_every_key_is_read_by_some_experiment(self):
        read = set().union(*_READS.values())
        assert read <= set(_SCHEMA)
        assert set(_SCHEMA) - {"experiment", "output_dir"} <= read
        assert all({"experiment", "output_dir"} <= set(keys)
                   for keys in _READS.values())
        assert set(_READS) == set(_RUNNERS)


class TestBoundsFile:
    def run(self, tmp_path, rows):
        bounds = tmp_path / "bounds.csv"
        bounds.write_text("".join(f"{row}\n" for row in rows), encoding="utf-8")
        path = write_config(
            tmp_path,
            "experiment = parabolic-1d\nfinest_n = 16\nlevels = 1\n"
            f"bounds_file = {bounds}\noutput_dir = {tmp_path / 'out'}\n",
        )
        return main(["run", path]), str(bounds)

    def test_valid_file_sets_nodewise_bounds(self, tmp_path):
        hi = [0.2 if i % 2 else 0.3 for i in range(16)]
        code, _ = self.run(tmp_path, [f"-0.1,{h}" for h in hi])
        assert code == 0
        _, rows = read_csv(str(tmp_path / "out" / "parabolic-1d_solution.csv"))
        u = np.array([float(r[1]) for r in rows])
        assert np.all(u > -0.1) and np.all(u < hi)
        # the target peaks at 1, so the solution presses the file's upper bounds
        assert np.any(np.abs(u - 0.2) <= 1e-6) and np.any(np.abs(u - 0.3) <= 1e-6)

    def test_wrong_shape_is_a_config_error(self, tmp_path, capsys):
        code, bounds = self.run(tmp_path, ["0,1"] * 4)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bounds}: ")
        assert "16 rows" in err

    def test_unparsable_row_is_a_config_error(self, tmp_path, capsys):
        code, bounds = self.run(tmp_path, ["0,1"] * 7 + ["zero,1"] + ["0,1"] * 8)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bounds}: ")
        assert "zero" in err


    def test_infinite_row_is_a_config_error(self, tmp_path, capsys):
        code, bounds = self.run(tmp_path, ["0,1"] * 3 + ["-inf,1"] + ["0,1"] * 12)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bounds}: ")
        assert "finite" in err

    def test_reversed_row_is_a_config_error(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, ["0,1"] * 5 + ["1,0"] + ["0,1"] * 10)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "lo < hi" in err
        assert len(err.strip().splitlines()) == 1
