"""The import surface: what the package and its modules export."""

import importlib

import pytest

import mgipm

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
