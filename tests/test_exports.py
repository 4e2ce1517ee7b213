"""Every name a module lists in `__all__` resolves, so star imports work,
and every name a module imports is read somewhere in it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fleetlife

MODULES = ["fleetlife"] + [
    f"fleetlife.{info.name}" for info in pkgutil.iter_modules(fleetlife.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def imported_names(tree: ast.AST) -> dict[str, int]:
    """The line of each name an import statement of `tree` binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(getattr(module, "__all__", []))
    unused = {n: line for n, line in imported_names(tree).items() if n not in read}
    assert unused == {}
