"""The package's modules form layers: each one imports only modules below
it, so none takes part in an import cycle and any of them can be imported
first, whatever ``__init__`` happens to import before it.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hornkit"

#: bottom to top; a module may import only the modules before it
LAYERS = ("errors", "core", "closure", "dualize", "direct", "canonical", "rows", "primes",
          "cli")


def _relative_imports(name: str) -> set[str]:
    """The package modules that module ``name`` imports, by relative import."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py") if p.stem != "__init__"}
    assert modules == set(LAYERS)


def test_imports_point_down():
    upward = [
        f"{name} -> {dep}"
        for i, name in enumerate(LAYERS)
        for dep in sorted(_relative_imports(name))
        if dep not in LAYERS[:i]
    ]
    assert upward == []


@pytest.mark.parametrize("name", LAYERS)
def test_module_imports_first(name):
    # a bare package object stands in for hornkit, so __init__ never runs
    # and nothing is imported before the module under test
    code = (
        "import importlib, sys, types\n"
        "pkg = types.ModuleType('hornkit')\n"
        f"pkg.__path__ = [{str(SRC)!r}]\n"
        "sys.modules['hornkit'] = pkg\n"
        f"importlib.import_module('hornkit.{name}')\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
