"""Start-up loads only what a verb uses.

Each check runs in a fresh interpreter, so the modules it finds loaded are the
ones the code under test imported, not ones an earlier test pulled in.
"""

import ast
import json
from pathlib import Path

import pytest

from util import SRC, run_child

RING_VERBS = {
    "eval": ["eval", "x^2 + 1"],
    "symprod-series": ["symprod-series", "--X", "x", "--order", "4"],
    "zerocycles": ["zerocycles", "--m", "2", "--n", "1", "--X", "x", "--order", "4"],
    "ratio": ["ratio", "--m", "2", "--n", "1", "--X", "x", "--order", "4"],
    "cycprod": ["cycprod", "--n", "4", "--X", "x"],
}
"""Verbs that need the ring and at most ``products`` and ``zerocycles``."""

UNUSED_BY_RING_VERBS = {"kzero.quotients", "kzero.polyhedral", "kzero.posets", "kzero.simplicial", "dataclasses"}

INPUTS = {
    "K.txt": "n=5\n1,2\n2,3\n3,4\n4,5\n",
    "space.txt": "stratum p1 class=1\nstratum p2 class=1\nstratum arc1 class=-1\n"
    "stratum arc2 class=-1\ngroup degree=2\ngen (1 2)\naction 1 arc1->arc2 arc2->arc1\n",
    "desc.txt": "id c=2 class=1\nid c=1 class=-1\nid c=2 class=1\nt1 c=2 class=1\nt2 c=2 class=1\n",
    "cells.txt": "0 2\n1 1\n0 2\n",
    "classes.txt": "r1 c=2\nr2 c=2\n",
    "map.txt": "dim=2\nrow -1 0\nrow 0 -1\nt 1 0\n",
    "group.txt": "degree=4\ngen (1 2 3 4)\n",
    "facet.txt": "n=30\n" + ",".join(map(str, range(1, 25))) + "\n",
}
"""Input files the file verbs below read, by the name their argv gives."""

FILE_VERBS = {
    "polyprod": ["polyprod", "--complex", "K.txt", "--X", "x", "--A", "a"],
    "complement": ["complement", "--complex", "K.txt", "--X", "x", "--A", "a", "--show-poset"],
    "config": ["config", "--complex", "K.txt", "--X", "x"],
    "config-complement": ["config-complement", "--complex", "K.txt", "--X", "x", "--show-poset"],
    "quotient": ["quotient", "--space", "space.txt"],
    "quotient-descriptor": ["quotient-descriptor", "--descriptor", "desc.txt"],
    "orbifold-euler": ["orbifold-euler", "--cells", "cells.txt"],
    "crystal": ["crystal", "--descriptor", "classes.txt"],
    "fixed-point": ["fixed-point", "--map", "map.txt"],
}
"""The complex and quotient verbs, which read an input file."""

PERMUTATION_FREE_VERBS = (
    "quotient-descriptor", "orbifold-euler", "crystal", "fixed-point", "zerocycles", "ratio", "cycprod",
)
"""Verbs that use no permutation group: ``cycprod`` is a formula in ``n`` alone."""


def fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter with ``src`` on its path; return its last stdout line as JSON."""
    proc = run_child(["-c", code, *args], timeout=60)[1]
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout.splitlines()[-1])


def test_building_the_parser_loads_no_calculator_module():
    loaded = fresh(
        "import json, sys, kzero.cli; kzero.cli.build_parser(); "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'kzero')))"
    )
    assert loaded == ["kzero", "kzero.cli", "kzero.errors"]


def modules_around_main(argv: list[str], tmp_path: Path) -> tuple[set[str], set[str]]:
    """Modules loaded before ``from kzero.cli import main`` and after ``main(argv)``
    succeeds, the input files written to ``tmp_path``."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in INPUTS else arg for arg in argv]
    code, before, after = fresh(
        "import json, sys; before = sorted(sys.modules); from kzero.cli import main; "
        "code = main(sys.argv[1:]); print(json.dumps([code, before, sorted(sys.modules)]))",
        *argv,
    )
    assert code == 0
    return set(before), set(after)


def loaded_by(argv: list[str], tmp_path: Path) -> set[str]:
    """Modules loaded after ``kzero.cli.main(argv)`` succeeds, the input files written to ``tmp_path``."""
    return modules_around_main(argv, tmp_path)[1]


@pytest.mark.parametrize("argv", RING_VERBS.values(), ids=RING_VERBS.keys())
def test_a_ring_verb_leaves_the_complex_and_quotient_modules_unloaded(argv, tmp_path):
    assert UNUSED_BY_RING_VERBS.isdisjoint(loaded_by(argv, tmp_path))


@pytest.mark.parametrize("argv", FILE_VERBS.values(), ids=FILE_VERBS.keys())
def test_a_complex_or_quotient_verb_leaves_dataclasses_unloaded(argv, tmp_path):
    assert "dataclasses" not in loaded_by(argv, tmp_path)


@pytest.mark.parametrize("verb", PERMUTATION_FREE_VERBS)
def test_a_verb_without_permutations_leaves_permgroups_unloaded(verb, tmp_path):
    argv = {**RING_VERBS, **FILE_VERBS}[verb]
    assert "kzero.permgroups" not in loaded_by(argv, tmp_path)


FATWEDGE = ["fatwedge", "--n", "4", "--d", "1", "--X", "x"]


POSET_FREE_ARGVS = {
    "polyprod": FILE_VERBS["polyprod"],
    "complement": ["complement", "--complex", "K.txt", "--X", "x", "--A", "a"],
    "config": FILE_VERBS["config"],
    "config-complement": ["config-complement", "--complex", "K.txt", "--X", "x"],
    "fatwedge": FATWEDGE,
    "polyprod on one facet": ["polyprod", "--complex", "facet.txt", "--X", "x", "--A", "a"],
}
"""Argvs that print no poset: on the path ``K.txt``, and on one facet of 24 of 30 vertices, whose
h-numbers take the Möbius route (one meet, not 2^24 faces)."""


@pytest.mark.parametrize("argv", POSET_FREE_ARGVS.values(), ids=POSET_FREE_ARGVS.keys())
def test_a_verb_without_a_poset_leaves_posets_unloaded(argv, tmp_path):
    assert "kzero.posets" not in loaded_by(argv, tmp_path)


def test_quotient_leaves_the_discrete_group_module_unloaded(tmp_path):
    assert "kzero.discrete" not in loaded_by(FILE_VERBS["quotient"], tmp_path)


PERMPROD = ["permprod", "--group", "group.txt", "--X", "x"]


def test_quotient_leaves_the_product_formulas_unloaded(tmp_path):
    loaded = loaded_by(FILE_VERBS["quotient"], tmp_path)
    assert "kzero.permgroups" in loaded
    assert "kzero.products" not in loaded


@pytest.mark.parametrize("argv", [PERMPROD, RING_VERBS["cycprod"]], ids=["permprod", "cycprod"])
def test_permprod_and_cycprod_load_the_product_formulas(argv, tmp_path):
    assert "kzero.products" in loaded_by(argv, tmp_path)


MOVED_TO_PRODUCTS = (
    "burnside_quotient_class", "cyclic_product_class", "permutation_product_class", "symmetric_product_class",
)
"""The product-space formulas that ``kzero.permgroups`` forwards to ``kzero.products``."""


def test_every_moved_formula_is_one_object_in_permgroups_and_products():
    loaded_first, different = fresh(
        "import json, sys, kzero.permgroups as g\n"
        "loaded_first = 'kzero.products' in sys.modules\n"
        "from kzero.permgroups import " + ", ".join(MOVED_TO_PRODUCTS) + "\n"
        "import kzero.products as p\n"
        "print(json.dumps([loaded_first, [n for n in sys.argv[1:] if getattr(g, n) is not getattr(p, n)\n"
        "                                 or globals()[n] is not getattr(p, n)]]))",
        *MOVED_TO_PRODUCTS,
    )
    assert not loaded_first  # a moved formula is imported on first use, not with permgroups
    assert different == []


def test_permgroups_still_refuses_an_unknown_name():
    import kzero.permgroups

    with pytest.raises(AttributeError, match="no_such_name"):
        kzero.permgroups.no_such_name


@pytest.mark.parametrize("verb", ("quotient-descriptor", "orbifold-euler", "crystal", "fixed-point"))
def test_a_discrete_group_verb_leaves_quotients_and_permgroups_unloaded(verb, tmp_path):
    loaded = loaded_by(FILE_VERBS[verb], tmp_path)
    assert "kzero.discrete" in loaded
    assert {"kzero.quotients", "kzero.permgroups"}.isdisjoint(loaded)


PLAIN_ARGVS = {**RING_VERBS, **FILE_VERBS, "fatwedge": FATWEDGE}
"""A plain argv of each verb, which ``main`` reads off the verb table."""


@pytest.mark.parametrize("argv", PLAIN_ARGVS.values(), ids=PLAIN_ARGVS.keys())
def test_a_plain_argv_leaves_argparse_unloaded(argv, tmp_path):
    assert {"argparse", "gettext", "locale"}.isdisjoint(loaded_by(argv, tmp_path))


FRACTIONS = {"fractions", "decimal", "numbers"}
"""``fractions`` and what it imports: the ring reads scalars as integer pairs, so a
verb that reads and prints integers and ``p/q`` literals loads none of them."""

FRACTION_FREE_ARGVS = {
    **RING_VERBS,
    "zerocycles --table": [*RING_VERBS["zerocycles"], "--table"],
    **{verb: FILE_VERBS[verb] for verb in (
        "polyprod", "complement", "config", "config-complement", "quotient", "quotient-descriptor",
    )},
    "permprod": PERMPROD,
    "fatwedge": FATWEDGE,
    "fatwedge with p/q": ["fatwedge", "--n", "6", "--d", "3", "--X", "1/3*x^2 + y"],
    # the --at forms of the series and cli workloads of perfbench/jobs.py
    "eval --at": ["eval", "(x+3)^40*(x-1)^3", "--at", "x=-7"],
    "eval --at with p/q": ["eval", "(3/5*x - a + 1)^9", "--at", "x=4", "--at", "a=-2"],
    "eval --at, two names": ["eval", "(x+2)^5 - 7*a", "--at", "x=-3", "--at", "a=2"],
}
"""Argvs of every verb but the three that compute a ``Fraction`` (``orbifold-euler``,
``crystal`` and ``fixed-point``), ``eval`` with and without ``--at``."""


def test_importing_the_ring_adds_no_fractions_module():
    added = fresh(
        "import json, sys; before = set(sys.modules); import kzero.classpoly; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert "kzero.classpoly" in added
    assert FRACTIONS.isdisjoint(added)


@pytest.mark.parametrize("argv", FRACTION_FREE_ARGVS.values(), ids=FRACTION_FREE_ARGVS.keys())
def test_a_verb_that_returns_no_fraction_adds_no_fractions_module(argv, tmp_path):
    # measured against the modules loaded before kzero, which a site .pth may widen
    before, after = modules_around_main(argv, tmp_path)
    assert FRACTIONS.isdisjoint(after - before)


def test_every_export_is_the_object_of_its_home_module():
    report = fresh(
        "import json, sys, kzero\n"
        "homes = {name: getattr(kzero, name).__module__ for name in kzero.__all__}\n"
        "wrong = [n for n, m in homes.items() if getattr(sys.modules[m], n) is not getattr(kzero, n)]\n"
        "print(json.dumps([sorted(set(homes.values())), wrong, '__all__' in dir(kzero)]))"
    )
    homes, wrong, listed = report
    assert wrong == []
    assert homes == [f"kzero.{m}" for m in (
        "classpoly", "classseries", "discrete", "permgroups", "polyhedral", "posets", "products",
        "quotients", "simplicial", "zerocycles",
    )]
    assert listed


MOVED_TO_DISCRETE = (
    "AffineMap", "CentralIsometryClass", "DimensionMismatchError", "crystal_chi",
    "crystal_quotient_class", "descriptor_class", "has_unique_fixed_point", "orbifold_euler",
    "parse_affine_map_text", "parse_cells_text", "parse_descriptor_text",
    "parse_isometry_classes_text", "quotient_euler_from_fixed_data",
)
"""The discrete-group names that ``kzero.quotients`` forwards to ``kzero.discrete``."""


def test_every_moved_name_is_one_object_in_quotients_and_discrete():
    loaded_first, different = fresh(
        "import json, sys, kzero.quotients as q\n"
        "loaded_first = 'kzero.discrete' in sys.modules\n"
        "import kzero.discrete as d\n"
        "print(json.dumps([loaded_first, [n for n in sys.argv[1:] if getattr(q, n) is not getattr(d, n)]]))",
        *MOVED_TO_DISCRETE,
    )
    assert not loaded_first  # a moved name is imported on first use, not with quotients
    assert different == []


def test_g_space_format_error_is_one_class_in_errors_quotients_and_discrete():
    from kzero import discrete, errors, quotients

    assert quotients.GSpaceFormatError is discrete.GSpaceFormatError is errors.GSpaceFormatError


def test_quotients_still_refuses_an_unknown_name():
    import kzero.quotients

    with pytest.raises(AttributeError, match="no_such_name"):
        kzero.quotients.no_such_name


def test_star_import_binds_every_export():
    missing = fresh(
        "import json, kzero\n"
        "namespace = {}\n"
        "exec('from kzero import *', namespace)\n"
        "print(json.dumps([n for n in kzero.__all__ if namespace.get(n) is not getattr(kzero, n)]))"
    )
    assert missing == []


def test_an_unknown_name_raises_attribute_error():
    import kzero

    with pytest.raises(AttributeError, match="no_such_name"):
        kzero.no_such_name


PACKAGE = Path(SRC) / "kzero"


def test_the_cli_defines_no_handler_and_each_home_defines_its_own():
    import importlib

    from kzero import cli

    assert [name for name in vars(cli) if name.startswith("cmd_")] == []
    for verb, (_, home, _) in cli.VERBS.items():
        module = importlib.import_module(f"kzero.{home}")
        assert callable(getattr(module, "cmd_" + verb.replace("-", "_"), None)), verb


def imports_of_cli(path: Path) -> list[int]:
    """Line numbers of every import of ``kzero.cli`` in ``path``, at any depth: ``import
    kzero.cli``, ``from kzero.cli import ...``, ``from .cli import ...`` and ``from . import cli``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "kzero" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            names = [module, *(f"{module}.{a.name}" for a in node.names)]
        else:
            continue
        if "kzero.cli" in names:
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_the_cli(path):
    # under ``python -m kzero.cli`` the CLI runs as ``__main__``; importing it again
    # would compile it twice
    assert imports_of_cli(path) == []
