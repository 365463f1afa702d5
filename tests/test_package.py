"""The import surface: what the package and its modules export."""

import importlib
import inspect
from dataclasses import fields

import numpy as np
import pytest

import mgipm
from mgipm import cli, precond
from mgipm.grid import GridLevel
from mgipm.krylov import KrylovReport
from mgipm.operators import (
    ForwardOperator,
    ParabolicOperator,
    elliptic_build,
    parabolic_build,
)

MODULES = ("grid", "operators", "krylov", "precond", "ipm", "diagnostics", "cli")

# test oracles and wrappers that no solver path calls; the oracles live in
# tests/conftest.py
REMOVED = (
    "inner_h",
    "mass_apply",
    "materialize_columns",
    "materialize_g",
    "DenseOperator",
    "convergence_probe",
    "LinearOperatorHandle",
    "lemma_a2_check",
    "ReducedSystem",
    "restrict",
)


# the exact coarse inverse belongs to the operator (scaled_inverse): the
# preconditioner keeps no structure dispatch, band constant or LAPACK
# import, and the base class no band sentinel
def test_precond_keeps_no_coarse_structure():
    assert not hasattr(precond, "_exact_inverse")
    assert not hasattr(precond, "BAND_UNREFINED_MAX_DOF")
    assert not hasattr(ForwardOperator, "stiffness_band")
    assert not hasattr(precond, "csr_apply")
    assert not any(getattr(value, "__name__", None) == "scipy.linalg"
                   for value in vars(precond).values())


# the band split serves the apply alone: the normal members take one
# rfft or irfft, so the apply keeps no shared transform halves
def test_parabolic_operator_keeps_no_transform_halves():
    assert not hasattr(ParabolicOperator, "_forward")
    assert not hasattr(ParabolicOperator, "_back")


# the constructor settles the apply: a parabolic operator keeps its named
# band tables, not its build inputs or a lazy band tuple
def test_parabolic_operator_keeps_no_build_inputs():
    op = parabolic_build(GridLevel("periodic-interval", 8))
    for name in ("_band", "_first_rows", "config", "dt", "n_steps"):
        assert not hasattr(op, name)


# each runner turns its whole set-up's ValueErrors into one ConfigError, so
# the cli keeps no per-step converter
def test_cli_keeps_no_config_error_converters():
    assert not hasattr(cli, "_operator")
    assert not hasattr(cli, "_problem")


# the spectral table checks its own inputs, and one exact-type table writes
# every CSV cell with the missing-value rule in it alone
def test_cli_keeps_no_table_checks_or_cell_fallbacks():
    for name in ("DENSE_LIMIT", "_KINDS", "_fmt_int"):
        assert not hasattr(cli, name)
    assert set(cli._FORMATS) == {type(None), bool, float, np.float64}
    runner = inspect.getsource(cli.run_spectral_table)
    for text in ("h_list entry", "beta_list entry", "isfinite", "None"):
        assert text not in runner


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"mgipm.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"mgipm.{name}.{attr}"
    assert not set(REMOVED) & set(module.__all__)
    assert not any(hasattr(module, attr) for attr in REMOVED)


def test_package_exports_resolve():
    for attr in mgipm.__all__:
        assert hasattr(mgipm, attr), attr
    assert not set(REMOVED) & set(mgipm.__all__)
    assert not any(hasattr(mgipm, attr) for attr in REMOVED)


# each quantity is kept once: the solvers' apply counts live on the
# operators, the square's mass on its level, and the lumped weight is the
# one number h resp. h^2
def test_krylov_report_keeps_no_apply_count():
    assert tuple(f.name for f in fields(KrylovReport)) == (
        "iterations", "final_relative_residual", "converged")


def test_elliptic_operator_keeps_no_mass_copy():
    assert not hasattr(elliptic_build(GridLevel("dirichlet-square", 8)), "mass_full")


@pytest.mark.parametrize("kind", ["periodic-interval", "dirichlet-square"])
def test_level_weight_is_a_float(kind):
    assert type(GridLevel(kind, 8).weights) is float
