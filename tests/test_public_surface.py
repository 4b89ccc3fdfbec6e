"""Every exported name resolves: a name deleted from a module but left in an
export list fails here."""

import importlib
import pkgutil

import pytest

import quadszego

MODULES = [quadszego] + [
    importlib.import_module(f"quadszego.{info.name}") for info in pkgutil.iter_modules(quadszego.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
