"""The package namespace exports every name in its modules' ``__all__``."""

import importlib
import pkgutil

import pytest

import resistnet

MODULES = [m.name for m in pkgutil.iter_modules(resistnet.__path__) if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_exported_by_the_package(name):
    module = importlib.import_module(f"resistnet.{name}")
    public = getattr(module, "__all__", [])
    missing = [k for k in public if getattr(resistnet, k, None) is not getattr(module, k)]
    assert missing == []


def test_the_analysis_modules_declare_their_public_names():
    declared = {name for name in MODULES if hasattr(importlib.import_module(f"resistnet.{name}"), "__all__")}
    assert {"graph", "resistance", "robustness", "simulation", "spectral", "stability"} <= declared
