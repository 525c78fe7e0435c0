"""The package namespace exports every name in its modules' ``__all__``, and
every public zero threshold ``tol`` is checked."""

import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import resistnet
from resistnet import InputError, SectorSpec, UncertaintySpec, build_graph

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


IMPORT_PROBE = """
import sys
import resistnet
print(*[name for name in ("resistnet.cli", "resistnet._jsontext", "resistnet._csvtext") if name in sys.modules])
"""


def test_import_loads_no_cli_and_no_text_engine():
    # every module compiled at import is paid by each fresh interpreter that
    # runs without bytecode caches; the CLI and the JSON and CSV text engines
    # load when first used
    src = os.path.dirname(os.path.dirname(resistnet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=env,
                          check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# stable, with a negative edge that is no cut, so every call reaches a zero cut
SIGNED = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.2)])
EDGE0 = UncertaintySpec((0,))
TOL_CALLS = {
    "signature_of": lambda tol: resistnet.signature_of(np.eye(2), tol),
    "pseudoinverse": lambda tol: resistnet.pseudoinverse(np.eye(2), tol),
    "is_psd": lambda tol: resistnet.is_psd(np.eye(2), tol),
    "classify_stability": lambda tol: resistnet.classify_stability(SIGNED, tol),
    "lmi_psd_check": lambda tol: resistnet.lmi_psd_check(SIGNED, tol),
    "m11_at_zero": lambda tol: resistnet.m11_at_zero(SIGNED, EDGE0, tol),
    "m11_frequency_response": lambda tol: resistnet.m11_frequency_response(SIGNED, EDGE0, 1.0, tol),
    "sandwich_bounds": lambda tol: resistnet.sandwich_bounds(SIGNED, EDGE0, tol),
    "small_gain_margin": lambda tol: resistnet.small_gain_margin(SIGNED, EDGE0, tol),
    "single_edge_margin": lambda tol: resistnet.single_edge_margin(SIGNED, 0, tol),
    "worst_single_edge": lambda tol: resistnet.worst_single_edge(SIGNED, tol),
    "disjoint_paths_margin": lambda tol: resistnet.disjoint_paths_margin(SIGNED, EDGE0, tol),
    "sector_stability_check": lambda tol: resistnet.sector_stability_check(
        SIGNED, EDGE0, SectorSpec(((-0.1, 0.1),)), tol),
    "single_edge_sector_check": lambda tol: resistnet.single_edge_sector_check(SIGNED, 0, -0.1, 0.1, tol),
}


def test_every_public_zero_threshold_is_covered():
    # detect_clusters' tol is a gap between node values, not a zero threshold
    public = {k for name in MODULES for k in getattr(importlib.import_module(f"resistnet.{name}"), "__all__", [])}
    takes_tol = {k for k in public - {"detect_clusters"}
                 if inspect.isfunction(obj := getattr(resistnet, k)) and "tol" in inspect.signature(obj).parameters}
    assert takes_tol == set(TOL_CALLS)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(TOL_CALLS))
def test_zero_threshold_must_be_finite_and_non_negative(name, tol):
    with pytest.raises(InputError, match="tol must be a finite non-negative number"):
        TOL_CALLS[name](tol)
    TOL_CALLS[name](0.0)
