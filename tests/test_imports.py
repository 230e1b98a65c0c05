"""No module of the package imports a name that it never uses."""

import ast
from pathlib import Path

import pytest

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
