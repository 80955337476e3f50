"""The public surface: every exported name resolves.

With no linter in the toolchain, this is what catches a stale ``__all__``
entry or re-export after a name is deleted.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fragsched

MODULES = sorted(m.name for m in pkgutil.iter_modules(fragsched.__path__)
                 if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fragsched.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"fragsched.{name}.__all__ names {missing}"


def reexports() -> list[tuple[str, str]]:
    """(module, name) of every ``from .module import name`` in the package."""
    tree = ast.parse(Path(fragsched.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_package_reexports_resolve():
    assert reexports()
    for module, name in reexports():
        source = importlib.import_module(f"fragsched.{module}")
        assert getattr(fragsched, name) is getattr(source, name), (module, name)


def test_star_import():
    namespace = {}
    exec("from fragsched import *", namespace)
    assert {name for _, name in reexports()} <= namespace.keys()


def test_no_private_name_crosses_modules():
    """No module imports an underscore-prefixed name from a sibling: what
    one module needs of another is public there."""
    package = Path(fragsched.__file__).parent
    crossings = [(path.name, node.module, alias.name)
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.level
                 for alias in node.names if alias.name.startswith("_")]
    assert not crossings


def test_engine_reexports_the_exact_evaluator():
    from fragsched import engine, mdp

    assert engine.exact_mean_download is mdp.exact_mean_download is fragsched.exact_mean_download


def benchmark_names() -> set[tuple[str, str]]:
    """(module, name) of every ``from fragsched[.x] import name`` in
    ``perfbench/run.py`` and of every ``module.name`` read on a module it
    imports that way."""
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "run.py").read_text())
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fragsched":
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "fragsched":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.add((f"fragsched.{node.value.id}", node.attr))
    return names


def test_benchmark_names_resolve():
    """Every package name the benchmark reads exists, so deleting one it
    still calls fails here, not only in a benchmark run."""
    names = benchmark_names()
    assert len(names) >= 30
    missing = [(module, name) for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
