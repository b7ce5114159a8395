"""Every name a module exports resolves, so a deletion that leaves a stale
``__all__`` entry or package import fails here, not in a user's
``from omnistbc.<module> import *``."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

PACKAGE = importlib.util.find_spec("omnistbc")
MODULES = sorted(info.name for info in pkgutil.iter_modules(PACKAGE.submodule_search_locations))


def test_package_imports():
    assert importlib.import_module("omnistbc").__version__


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"omnistbc.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"omnistbc.{name}.__all__ names missing attributes: {missing}"


def test_cold_import_loads_no_scipy():
    """A fresh process that imports the package, its CLI and its engine
    loads NumPy only: SciPy's import is most of a sweep process's start-up."""
    src = os.path.dirname(PACKAGE.submodule_search_locations[0])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys, omnistbc, omnistbc.cli, omnistbc.engine\n"
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []
