"""Every name a module exports resolves, so a deletion that leaves a stale
``__all__`` entry or package import fails here, not in a user's
``from omnistbc.<module> import *``."""

import ast
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


def _loaded_in_fresh_process(statement, package):
    """Sorted names of ``package`` and its submodules that a fresh Python
    process has loaded after running ``statement``."""
    src = os.path.dirname(PACKAGE.submodule_search_locations[0])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        f"import sys; {statement}\n"
        f"print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_cold_import_loads_no_scipy():
    """A fresh process that imports the package, its CLI and its engine
    loads NumPy only: SciPy's import is most of a sweep process's start-up."""
    assert _loaded_in_fresh_process("import omnistbc, omnistbc.cli, omnistbc.engine", "scipy") == []


@pytest.mark.parametrize(
    "statement,loaded",
    [
        ("import omnistbc", ["omnistbc"]),
        ("import omnistbc.sequences", ["omnistbc", "omnistbc.sequences"]),
    ],
    ids=["root", "sequences"],
)
def test_import_loads_only_what_it_names(statement, loaded):
    """The package root imports no submodule, so a fresh process that
    imports one leaf module loads that module and the root alone."""
    assert _loaded_in_fresh_process(statement, "omnistbc") == loaded


def test_perfbench_names_resolve():
    """Every name the benchmark harness reaches into the package for still
    exists: the attributes its tracer wraps (``perfbench/spans.py``'s
    ``LAYERS``), the functions its references call, and what its own tests
    import and read, ``CovarianceModel.matrix`` and the precoder's
    ``.w_matrix`` among them."""
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
    precoding = importlib.import_module("omnistbc.precoding")
    assert precoding.precoder_for_code("ac", 4).w_matrix.shape == (4, 2)
    # The tracer wraps ``NzeTables.build`` to count encodes; a copy or a
    # subclass of the registry's table class would leave that count at 0.
    codes, kinds = (importlib.import_module(f"omnistbc.{m}") for m in ("codes", "kinds"))
    assert codes.NzeTables is kinds.GatherTable


def _package_imports():
    """Each module of the package mapped to the set of package modules it
    imports, at module level or inside a function."""
    src = PACKAGE.submodule_search_locations[0]
    graph = {}
    for name in MODULES:
        with open(os.path.join(src, f"{name}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        edges = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                edges |= {node.module} if node.module else {a.name for a in node.names}
        graph[name] = edges & set(MODULES)
    return graph


def test_import_graph_is_acyclic():
    """No module imports one that imports it, directly or through others,
    so no import has to hide inside a function to break a cycle."""
    graph = _package_imports()
    assert graph["cli"] >= {"engine", "selfcheck"}  # function-level imports are edges
    done, path, cycles = set(), [], []

    def visit(name):
        if name in path:
            cycles.append(" -> ".join(path[path.index(name) :] + [name]))
        elif name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in MODULES:
        visit(name)
    assert not cycles, f"import cycles: {cycles}"
