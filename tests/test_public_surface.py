"""Every exported name resolves: a name deleted from a module but left in an
export list fails here."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import quadszego

MODULES = [quadszego] + [
    importlib.import_module(f"quadszego.{info.name}") for info in pkgutil.iter_modules(quadszego.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_plain_pytest_finds_the_package():
    # from a checkout, with no PYTHONPATH and nothing installed, collection
    # failed with ModuleNotFoundError until pytest put src on the path
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    argv = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests/test_public_surface.py"]
    out = subprocess.run(argv, cwd=Path(__file__).resolve().parents[1], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
