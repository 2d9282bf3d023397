"""Each module keeps its private names to itself: no module of the package
imports an underscore name from a sibling module."""

import ast
from pathlib import Path

import pytest

import kzero

MODULES = sorted(Path(kzero.__file__).parent.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """``module.name`` for every underscore name that ``path`` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("kzero")):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_private_name_from_a_sibling(path):
    assert private_imports(path) == []
