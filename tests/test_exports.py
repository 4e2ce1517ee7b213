"""`src/fleetlife` holds only what runs: every name a module lists in
`__all__` resolves, so star imports work, every name a module imports is
read somewhere in it, every dataclass field is read somewhere in the
package, and so is every function and class that is neither public API nor
a command, and every module-level name not in `__all__`. Code only the
tests use lives in `tests/`."""

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


SOURCES = sorted(Path(fleetlife.__file__).parent.glob("*.py"))


def is_dataclass_decorator(node: ast.expr) -> bool:
    """`@dataclass` or `@dataclass(...)`, by name."""
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Name) and node.id == "dataclass"


def test_every_dataclass_field_is_read():
    # a field nothing reads is a setting nothing honours: each annotated
    # field of a dataclass must be read as an attribute somewhere in the
    # package (by name, whatever the object)
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{cls.name}.{stmt.target.id}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and any(map(is_dataclass_decorator, cls.decorator_list))
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        if stmt.target.id not in read
    ]
    assert unread == []


def is_click_command(node: ast.expr) -> bool:
    """`@<group>.command(...)`, `@click.group(...)` and the like, by name."""
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Attribute) and node.attr in ("command", "group")


def names_read(trees: list[ast.AST]) -> set[str]:
    """Every name the package reads, as a name or an attribute (whatever
    the object), and every public name."""
    read = set(fleetlife.__all__)
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_def_is_read():
    # a function or class nothing in the package reads runs only in tests:
    # each must be read by name, be public API or be a command. A method
    # that shares its name with something read elsewhere passes unseen.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    read = names_read(trees)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in zip(SOURCES, trees)
        for node in ast.walk(tree)
        if isinstance(node, defs)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        if node.name not in read
        if not any(map(is_click_command, node.decorator_list))
    ]
    assert unread == []


def test_every_module_name_is_read():
    # a module-level constant nothing in the package reads is read only by
    # tests, which keep their own: each name a module's top-level statements
    # assign must be read by name or be listed in `__all__`
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    read = names_read(trees)
    unread = [
        f"{path.name}:{node.lineno} {name.id}"
        for path, tree in zip(SOURCES, trees)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
        if not name.id.startswith("__")
        if name.id not in read
    ]
    assert unread == []
