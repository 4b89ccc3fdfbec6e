"""Every exported name resolves: a name deleted from a module but left in an
export list fails here.  No module reaches into another's private names."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import quadszego

SRC = Path(quadszego.__file__).resolve().parent
MODULES = [quadszego] + [
    importlib.import_module(f"quadszego.{info.name}") for info in pkgutil.iter_modules(quadszego.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _private_imports(path: Path) -> list[str]:
    """``module.name`` of each underscore name that ``path`` imports from
    another package module; importing a private module by name is allowed."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        package_module = node.level > 0 or (node.module or "").split(".")[0] == "quadszego"
        if not package_module:
            continue
        from_package = node.level > 0 and not node.module  # "from . import _dop853"
        for alias in node.names:
            if alias.name.startswith("_") and not from_package:
                found.append(f"{node.module}.{alias.name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    # the sample grid, the J step and the FFT passes stay inside hardy
    assert _private_imports(path) == []


def test_hankel_sketch_is_exported_as_a_pair():
    # one factorisation sketches H and K; the single-matrix sketch is gone
    from quadszego import operators

    assert "sketched_hankel_pair" in operators.__all__
    assert not hasattr(operators, "sketched_singular_values")


def test_plain_pytest_finds_the_package():
    # from a checkout, with no PYTHONPATH and nothing installed, collection
    # failed with ModuleNotFoundError until pytest put src on the path
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    argv = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests/test_public_surface.py"]
    out = subprocess.run(argv, cwd=Path(__file__).resolve().parents[1], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
