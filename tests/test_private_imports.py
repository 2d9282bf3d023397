"""Import rules read from the source: no module of the package imports an
underscore name from a sibling module, the package and its CLI import no
calculator module at start-up, and the CLI imports no ``argparse`` at start-up."""

import ast
from pathlib import Path

import pytest

import kzero

PACKAGE = Path(kzero.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


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


def start_up_imports(body: list[ast.stmt]) -> list[str]:
    """Modules imported by ``body`` when it runs, a relative one with its leading dots:
    function and class bodies and ``if TYPE_CHECKING:`` blocks do not run at import time
    and are skipped."""
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            found += start_up_imports(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            found += [dots + node.module] if node.module else [dots + a.name for a in node.names]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        for field in ("body", "orelse", "finalbody", "handlers"):
            found += start_up_imports(getattr(node, field, []))
    return found


def start_up_imports_of(name: str) -> list[str]:
    return start_up_imports(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")).body)


@pytest.mark.parametrize("name", ["__init__", "cli"])
def test_start_up_imports_no_sibling_but_errors(name):
    package = {m for m in start_up_imports_of(name) if m.startswith(".") or m.split(".")[0] == "kzero"}
    assert package <= {".errors"}


def test_cli_start_up_imports_no_argparse():
    # argparse and the gettext and locale it loads cost milliseconds a job; only help
    # and usage errors need them, so ``build_parser`` imports argparse itself.
    assert [m for m in start_up_imports_of("cli") if m.split(".")[0] == "argparse"] == []
