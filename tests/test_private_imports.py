"""Import rules read from the source, the ones no run can check: no module of the
package imports an underscore name from a sibling module or reads an underscore
attribute that it does not define itself, no module imports ``re``, only the CLI
ends the process at ``os._exit``, no module freezes the collector or builds a
``NamedTuple`` class, ``simplicial`` imports nothing from ``posets``, and ``meets``
imports neither.  What a job loads at start-up is checked by running it: see the
load table of ``test_imports.py``."""

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


PUBLIC_UNDERSCORE_NAMES = {
    "os._exit": "public, documented os API: it ends the process without the interpreter's exit",
}
"""Attributes that start with an underscore but are public API, with the reason each is."""


def private_attribute_reads(path: Path) -> list[str]:
    """Every ``obj._name`` that ``path`` reads, dunders and ``PUBLIC_UNDERSCORE_NAMES``
    aside, whose ``_name`` the module does not define: as a function, class, assigned name
    or attribute, or slot."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Assign) and "__slots__" in map(ast.unparse, node.targets):
            defined |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and ast.unparse(node) not in PUBLIC_UNDERSCORE_NAMES:
            read.add(node.attr)
    return sorted(a for a in read - defined if a.startswith("_") and not (a.startswith("__") and a.endswith("__")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_reads_a_private_attribute_it_does_not_define(path):
    assert private_attribute_reads(path) == []


def imported_modules(path: Path) -> set[str]:
    """The top-level name of every module that ``path`` imports anywhere, function
    bodies included; relative imports aside."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_re(path):
    # compiling a pattern costs a fresh process 0.04-0.2 ms; the scanners are str methods
    assert "re" not in imported_modules(path)


def names(path: Path, dotted: str) -> bool:
    """Whether ``path`` names ``module.attribute`` ``dotted``, as an attribute or an import."""
    module, _, attribute = dotted.rpartition(".")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and ast.unparse(node) == dotted:
            return True
        if isinstance(node, ast.ImportFrom) and node.module == module and attribute in (a.name for a in node.names):
            return True
    return False


def test_only_the_cli_ends_the_process_and_no_module_freezes_the_collector():
    # os._exit is for the process that exits after ``main``; in a library module it would
    # end a caller's process.  It skips the exit-time collection, so gc.freeze has no use.
    assert [path.stem for path in MODULES if names(path, "os._exit")] == ["cli"]
    assert [path.stem for path in MODULES if names(path, "gc.freeze")] == []


def test_no_module_builds_a_named_tuple_class():
    # such a class is built each time its module runs, so every job that imports it pays for
    # it; the records are tuple subclasses
    assert [path.stem for path in MODULES
            if names(path, "typing.NamedTuple") or names(path, "collections.namedtuple")] == []


def sibling_imports(stem: str) -> list[str]:
    """Every import statement of the module ``stem``, at any depth, as source text."""
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("stem, others", [("simplicial", ["posets"]), ("meets", ["simplicial", "posets"])],
                         ids=["simplicial", "meets"])
def test_the_h_routes_import_nothing_from_the_modules_that_call_them(stem, others):
    # the general h routes are ``meets``'s: ``simplicial`` and ``posets`` call them, one way
    imports = sibling_imports(stem)
    assert imports  # the walk saw the module's imports
    assert [line for line in imports for other in others if other in line] == []
