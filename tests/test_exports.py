"""Public names: every exported name resolves, and deleted names stay gone."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import specflow

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
