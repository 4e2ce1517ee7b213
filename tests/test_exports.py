"""Every name a module lists in `__all__` resolves, so star imports work."""

import importlib
import pkgutil

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
