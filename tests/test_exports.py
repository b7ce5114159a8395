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


def test_perfbench_names_resolve():
    """Every name the benchmark harness reaches into the package for still
    exists: the attributes its tracer wraps (``perfbench/spans.py``'s
    ``LAYERS``), the functions its references call, and what its own tests
    import and read, ``CovarianceModel.matrix`` among them."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    where = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(root, "perfbench", "spans.py")
    )
    spans = importlib.util.module_from_spec(where)
    where.loader.exec_module(spans)  # standard library imports only
    kinds = ("ostbc", "qostbc", "ciod", "nze_tc", "nze_oac")
    used = [("omnistbc.codes", f"encode_{kind}") for kind in kinds]
    used += [("omnistbc.constellations", "make_psk"), ("omnistbc.precoding", "precoder_for_code")]
    used += [
        ("omnistbc.channel", "covariance_for"),
        ("omnistbc.channel", "CovarianceModel.matrix"),
        ("omnistbc.config", "parse_config"),
        ("omnistbc.engine", "run_ber_sweep"),
    ]
    missing = []
    for layer, targets in [*spans.LAYERS.items(), ("used", used)]:
        for module_name, attr in targets:
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{layer}: {module_name}.{attr}")
    assert not missing, f"names the benchmark reads are gone: {missing}"
