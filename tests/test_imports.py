"""No module of the package imports a name that it never uses, or a
private name of a sibling module; __init__ exports what it imports."""

import ast
from pathlib import Path

import pytest

import magicnoise

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "magicnoise"
# __init__.py re-exports the public API; of the other modules, only
# thresholds imports a name for callers outside it: the benchmark's tracer
# reaches depolarize as thresholds.depolarize.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REEXPORTS = {"thresholds.py": {"depolarize"}}


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a module and never read in it."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "x: Sequence = np.zeros(os.path.sep)\n"
    )
    assert unused_imports(source) == ["Optional"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    allowed = REEXPORTS.get(path.name, set())
    unused = [name for name in unused_imports(path.read_text()) if name not in allowed]
    assert unused == [], f"{path.name} imports {unused} without using them"


def private_imports(source: str) -> list[str]:
    """Single-underscore names that a module imports from its own package
    (dunders such as __version__ are allowed)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "magicnoise"
        ):
            found += [
                a.name
                for a in node.names
                if a.name.startswith("_") and not a.name.endswith("__")
            ]
    return sorted(found)


def test_finds_a_private_import():
    source = (
        "from . import __version__\n"
        "from .frames import _upper, decode_frame\n"
        "from magicnoise.optimize import _Objective\n"
        "from numpy import _private_but_foreign\n"
    )
    assert private_imports(source) == ["_Objective", "_upper"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_private_names_from_sibling_modules(path):
    private = private_imports(path.read_text())
    assert private == [], f"{path.name} imports private names {private}"


def test_all_lists_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    assert len(magicnoise.__all__) == len(set(magicnoise.__all__))
    assert set(magicnoise.__all__) == imported | {"__version__"}


def test_cli_imports_nothing_from_optimize():
    # the frame search has no CLI setting: the answer it cross-checks is proven
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "optimize" not in modules
