"""Start-up loads only what a verb uses.

``LOADS`` is the one load table: an argv of every verb, and of the
``--show-poset``, ``--table``, one-facet, ``p/q`` and ``--at`` forms, with the
``kzero`` modules its job loads.  Each row runs once, in a fresh interpreter, so
the modules found loaded are the ones the job imported, not ones an earlier test
pulled in; one test per fact reads that run: the ``kzero`` set, the value
module that only ``eval`` loads, the stdlib modules no job adds, and
``fractions``.  A verb's first row is its plain argv, whose modules are also the
compile bill that ``tools/code_lines.py`` reads off the source, and ``BUDGET``
caps that bill's AST nodes.  The other checks here are the package's import
surface: its lazy exports, the ring methods that import the value module on
first use, the names three modules forward to where they moved, and the CLI
that no module imports.
"""

import ast
import functools
import importlib
import json
import shlex
from pathlib import Path

import pytest

from kzero.cli import VERBS
from util import INPUTS, SRC, load_tool, run_child

LOADS = {
    # all edges on 5 vertices, a skeleton: the h-numbers' closed form, no general route
    "polyprod --complex skeleton.txt --X x --A a": "polyhedral simplicial",
    # the line graph: the general routes of kzero.meets
    "polyprod --complex K.txt --X x --A a": "meets polyhedral simplicial",
    # one facet of 24 of 30 vertices: the h-numbers' Möbius route, one meet, not 2^24 faces
    "polyprod --complex facet.txt --X x --A a": "meets polyhedral simplicial",
    "complement --complex skeleton.txt --X x --A a": "polyhedral simplicial",
    "complement --complex K.txt --X x --A a": "meets polyhedral simplicial",
    "complement --complex K.txt --X x --A a --show-poset": "meets polyhedral posets simplicial",
    "fatwedge --n 4 --d 1 --X x": "arrangements polyhedral simplicial",
    "fatwedge --n 6 --d 3 --X '1/3*x^2 + y'": "arrangements polyhedral simplicial",
    "config --complex skeleton.txt --X x": "polyhedral simplicial",
    "config --complex K.txt --X x": "meets polyhedral simplicial",
    "config-complement --complex skeleton.txt --X x": "polyhedral simplicial",
    "config-complement --complex K.txt --X x": "meets polyhedral simplicial",
    "config-complement --complex K.txt --X x --show-poset": "meets polyhedral posets simplicial",
    "permprod --group group.txt --X x": "permgroups products",
    "cycprod --n 4 --X x": "products",
    "symprod-series --X x --order 4": "classseries",
    "zerocycles --m 2 --n 1 --X x --order 4": "classseries zerocycles",
    "zerocycles --m 2 --n 1 --X x --order 4 --table": "classseries zerocycles",
    "ratio --m 2 --n 1 --X x --order 4": "classseries zerocycles",
    "quotient --space space.txt": "permgroups quotients",
    "quotient-descriptor --descriptor desc.txt": "discrete",
    "orbifold-euler --cells cells.txt": "discrete",
    "crystal --descriptor classes.txt": "discrete",
    "fixed-point --map map.txt": "discrete",
    "eval 'x^2 + 1'": "polyvalues",
    # the --at forms of the series and cli workloads of perfbench/jobs.py
    "eval '(x+3)^40*(x-1)^3' --at x=-7": "polyvalues",
    "eval '(3/5*x - a + 1)^9' --at x=4 --at a=-2": "polyvalues",
    "eval '(x+2)^5 - 7*a' --at x=-3 --at a=2": "polyvalues",
}
"""An argv of a successful job, as a shell line, and the ``kzero`` modules its job loads
beyond the package, ``cli``, ``errors`` and ``classpoly``."""

PLAIN = {line.split()[0]: line for line in reversed(LOADS)}
"""Each verb's first row: its plain argv."""

NEVER_ADDED = {"argparse", "gettext", "locale", "dataclasses"}
"""What no job loads: ``main`` reads a well-formed argv off the verb table, and argparse
with the gettext and locale it loads cost milliseconds; the records are plain tuples."""

FRACTIONS = {"fractions", "decimal", "numbers"}
"""``fractions`` and what it imports: the ring reads scalars as integer pairs, so a
verb that reads and prints integers and ``p/q`` literals loads none of them."""

FRACTION_VERBS = {"orbifold-euler", "crystal", "fixed-point"}
"""The verbs that compute a ``Fraction``."""

CODE_LINES = load_tool("code_lines")
BILLS = CODE_LINES.compile_bills(Path(SRC) / "kzero")

BUDGET = {
    **dict.fromkeys(["polyprod", "complement", "config", "config-complement"], 7566),
    "fatwedge": 8700,
    "permprod": 9261,
    "cycprod": 6217,
    "symprod-series": 6548,
    "zerocycles": 7786,
    "ratio": 7786,
    "quotient": 10505,
    **dict.fromkeys(["quotient-descriptor", "orbifold-euler", "crystal", "fixed-point"], 7189),
    "eval": 6500,
}
"""The most AST nodes a job of each verb may compile from source, by ``tools/code_lines.py``:
the bill of ``polyprod``, ``complement``, ``config`` and ``config-complement`` once the general
h routes moved to ``meets`` and the fat wedge to ``arrangements`` (8677 before, 9905 while
``polyhedral`` held the formulas no verb runs), 8700 for ``fatwedge``, 6500 for ``eval``, and
800 below the bill of every other verb before ``classpoly``'s exchange with Python values moved
to ``polyvalues``."""


def fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter with ``src`` on its path; return its last stdout line as JSON."""
    proc = run_child(["-c", code, *args], timeout=60)[1]
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout.splitlines()[-1])


def row(line: str) -> set[str]:
    """The ``kzero`` modules the job of ``line`` loads, by the table."""
    return {"kzero", "kzero.cli", "kzero.errors", "kzero.classpoly", *(f"kzero.{m}" for m in LOADS[line].split())}


@pytest.fixture(scope="module")
def job(tmp_path_factory):
    """Run a row's argv once, in a fresh interpreter, for all the tests that read it; return
    its verb, the ``kzero`` modules it loaded and the modules it added."""
    folder = tmp_path_factory.mktemp("inputs")
    for name, text in INPUTS.items():
        (folder / name).write_text(text)

    @functools.cache
    def run(line):
        argv = [str(folder / arg) if arg in INPUTS else arg for arg in shlex.split(line)]
        code, before, after = fresh(
            "import json, sys; before = sorted(sys.modules); from kzero.cli import main; "
            "code = main(sys.argv[1:]); print(json.dumps([code, before, sorted(sys.modules)]))",
            *argv,
        )
        assert code == 0
        # added is measured against the modules loaded before kzero, which a site .pth may widen
        return argv[0], {m for m in after if m.split(".")[0] == "kzero"}, set(after) - set(before)

    return run


@pytest.mark.parametrize("line", LOADS)
def test_a_job_loads_the_kzero_modules_of_its_row(line, job):
    assert job(line)[1] == row(line)


@pytest.mark.parametrize("line", LOADS)
def test_only_an_eval_job_loads_the_value_module(line, job):
    verb, loaded, _ = job(line)
    assert ("kzero.polyvalues" in loaded) == (verb == "eval")


@pytest.mark.parametrize("line", LOADS)
def test_a_job_adds_no_argparse_gettext_locale_or_dataclasses(line, job):
    assert NEVER_ADDED.isdisjoint(job(line)[2])


@pytest.mark.parametrize("line", LOADS)
def test_only_a_job_that_computes_a_fraction_adds_the_fractions_module(line, job):
    verb, _, added = job(line)
    assert FRACTIONS.isdisjoint(added) or verb in FRACTION_VERBS


@pytest.mark.parametrize("verb", VERBS)
def test_the_compile_bill_of_a_verb_is_the_row_of_its_plain_argv(verb):
    assert PLAIN.keys() == BILLS.keys() == VERBS.keys()
    assert {"kzero" if m == "__init__" else f"kzero.{m}" for m in BILLS[verb]} == row(PLAIN[verb])


@pytest.mark.parametrize("verb", VERBS)
def test_a_job_compiles_no_more_ast_nodes_than_its_budget(verb):
    assert BUDGET.keys() == VERBS.keys()
    package = Path(SRC) / "kzero"
    nodes = sum(CODE_LINES.ast_nodes((package / f"{m}.py").read_text(encoding="utf-8")) for m in BILLS[verb])
    assert nodes <= BUDGET[verb]


@pytest.mark.parametrize("call", ["ClassPoly(('x', 'a'), {(2, 1): 3})", "list(p.terms())", "p.evaluate({'x': 2})"])
def test_a_ring_method_that_exchanges_python_values_imports_the_value_module_on_first_call(call):
    before, after = fresh(
        "import json, sys\n"
        "from kzero.classpoly import ClassPoly, parse_poly\n"
        "p = parse_poly('(x + 1)^2') * 3 - ClassPoly.var('x') / 2\n"
        "before = ['kzero.polyvalues' in sys.modules, str(p), p.latex(), hash(p)]\n"
        f"{call}\n"
        "print(json.dumps([before[0], 'kzero.polyvalues' in sys.modules]))"
    )
    assert (before, after) == (False, True)


def test_building_the_parser_loads_no_calculator_module():
    loaded = fresh(
        "import json, sys, kzero.cli; kzero.cli.build_parser(); "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'kzero')))"
    )
    assert loaded == ["kzero", "kzero.cli", "kzero.errors"]


def test_importing_the_ring_adds_no_fractions_module():
    added = fresh(
        "import json, sys; before = set(sys.modules); import kzero.classpoly; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert "kzero.classpoly" in added
    assert FRACTIONS.isdisjoint(added)


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
        "arrangements", "classpoly", "classseries", "discrete", "permgroups", "polyhedral", "posets",
        "products", "quotients", "simplicial", "zerocycles",
    )]
    assert listed


FORWARDS = {
    "permgroups": ("products", "no_such_name", (
        "burnside_quotient_class", "cyclic_product_class", "permutation_product_class", "symmetric_product_class",
    )),
    "quotients": ("discrete", "AffineMap", (
        "CentralIsometryClass", "crystal_chi", "descriptor_class", "orbifold_euler", "parse_descriptor_text",
        "quotient_euler_from_fixed_data",
    )),
    "polyhedral": ("arrangements", "no_such_name", (
        "ComponentIsSingleSimplexError", "TooFewComponentsError", "chi_complement_manifold",
        "delta_config_class_disjoint", "fat_wedge_as_polyhedral_product", "fat_wedge_class", "w_class",
    )),
}
"""Per forwarding module: the module its names moved to, a name it refuses, and the names
it forwards: the ones ``tests/test_acceptance.py`` or a demo imports through it, with
the errors they raise."""


@pytest.mark.parametrize("module", FORWARDS)
def test_a_moved_name_is_one_object_imported_on_first_use_and_no_other_name_is(module):
    home, refused, names = FORWARDS[module]
    loaded_first, different = fresh(
        f"import json, sys, kzero.{module} as m\n"
        f"loaded_first = 'kzero.{home}' in sys.modules\n"
        f"from kzero.{module} import {', '.join(names)}\n"
        f"import kzero.{home} as h\n"
        "print(json.dumps([loaded_first, [n for n in sys.argv[1:] if getattr(m, n) is not getattr(h, n)\n"
        "                                 or globals()[n] is not getattr(h, n)]]))",
        *names,
    )
    assert not loaded_first  # a moved name is imported on first use, not with its old module
    assert different == []
    with pytest.raises(AttributeError, match=refused):
        getattr(importlib.import_module(f"kzero.{module}"), refused)


def test_g_space_format_error_is_one_class_in_errors_quotients_and_discrete():
    from kzero import discrete, errors, quotients

    assert quotients.GSpaceFormatError is discrete.GSpaceFormatError is errors.GSpaceFormatError


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
    from kzero import cli

    assert [name for name in vars(cli) if name.startswith("cmd_")] == []
    for verb, (_, home, _) in VERBS.items():
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
