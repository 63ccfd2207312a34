"""Public names: every exported name resolves, and deleted names stay gone."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import specflow
from specflow import gluing

MODULES = ["specflow"] + sorted(
    f"specflow.{name}"
    for _, name, _ in pkgutil.iter_modules(specflow.__path__)
    if not name.startswith("_")
)

# Names removed as duplicates of engine abstractions; none may be re-exported.
DELETED = (
    "certify_window",
    "SpectralWindow",
    "NoGap",
    "eigenvalues",
    "Partition",
    "refine_partition",
    "WindowTooSmall",
    "BASEPOINT_RTOL",
    "eigen_count",
    "EigenCount",
    "stacked_operators",
    "diagonal_operators",
    "solve_spectra",
    "DEFAULT_ZERO_BAND",
)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported), f"{module}.__all__ lists a name twice"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined attributes {missing}"


@pytest.mark.parametrize("name", DELETED)
def test_deleted_name_not_importable(name):
    assert name not in specflow.__all__
    for module in MODULES:
        assert not hasattr(importlib.import_module(module), name), f"{module}.{name} exists"


def test_one_path_constructor_and_one_homotopy_reader():
    assert not hasattr(specflow.OperatorPath, "batched")
    assert not hasattr(specflow.OperatorPath, "_operators")
    assert not hasattr(specflow.Homotopy, "at")


def test_spectrum_holds_values_only():
    for name in ("radius", "scale", "min_abs"):
        assert not hasattr(specflow.Spectrum, name)


def test_glue_is_the_only_gluing_constructor_exported():
    assert "GluedPath" not in specflow.__all__
    assert "GluedPath" not in gluing.__all__
    assert not hasattr(specflow, "GluedPath")


def test_oracle_flow_has_no_doubling_switch():
    assert list(inspect.signature(specflow.oracle_flow).parameters) == ["path", "grid"]
