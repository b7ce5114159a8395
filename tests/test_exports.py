"""Every name a module exports resolves, so a deletion that leaves a stale
``__all__`` entry or package import fails here, not in a user's
``from omnistbc.<module> import *``."""

import importlib
import importlib.util
import pkgutil

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
