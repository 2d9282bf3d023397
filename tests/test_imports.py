"""Start-up loads only what a verb uses.

Each check runs in a fresh interpreter, so the modules it finds loaded are the
ones the code under test imported, not ones an earlier test pulled in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

RING_VERBS = {
    "eval": ["eval", "x^2 + 1"],
    "symprod-series": ["symprod-series", "--X", "x", "--order", "4"],
    "zerocycles": ["zerocycles", "--m", "2", "--n", "1", "--X", "x", "--order", "4"],
    "ratio": ["ratio", "--m", "2", "--n", "1", "--X", "x", "--order", "4"],
    "cycprod": ["cycprod", "--n", "4", "--X", "x"],
}
"""Verbs that need the ring and at most ``permgroups`` and ``zerocycles``."""

UNUSED_BY_RING_VERBS = {"kzero.quotients", "kzero.polyhedral", "kzero.posets", "kzero.simplicial", "dataclasses"}

INPUTS = {
    "K.txt": "n=5\n1,2\n2,3\n3,4\n4,5\n",
    "space.txt": "stratum p1 class=1\nstratum p2 class=1\nstratum arc1 class=-1\n"
    "stratum arc2 class=-1\ngroup degree=2\ngen (1 2)\naction 1 arc1->arc2 arc2->arc1\n",
    "desc.txt": "id c=2 class=1\nid c=1 class=-1\nid c=2 class=1\nt1 c=2 class=1\nt2 c=2 class=1\n",
    "cells.txt": "0 2\n1 1\n0 2\n",
    "classes.txt": "r1 c=2\nr2 c=2\n",
    "map.txt": "dim=2\nrow -1 0\nrow 0 -1\nt 1 0\n",
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

PERMUTATION_FREE_VERBS = ("quotient-descriptor", "orbifold-euler", "crystal", "fixed-point", "zerocycles", "ratio")
"""Verbs that use no permutation group."""


def fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter with ``src`` on its path; return its last stdout line as JSON."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout.splitlines()[-1])


def test_building_the_parser_loads_no_calculator_module():
    loaded = fresh(
        "import json, sys, kzero.cli; kzero.cli.build_parser(); "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'kzero')))"
    )
    assert loaded == ["kzero", "kzero.cli", "kzero.errors"]


def loaded_by(argv: list[str], tmp_path: Path) -> set[str]:
    """Modules loaded after ``kzero.cli.main(argv)`` succeeds, the input files written to ``tmp_path``."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in INPUTS else arg for arg in argv]
    code, loaded = fresh(
        "import json, sys; from kzero.cli import main; code = main(sys.argv[1:]); "
        "print(json.dumps([code, sorted(sys.modules)]))",
        *argv,
    )
    assert code == 0
    return set(loaded)


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


@pytest.mark.parametrize("verb", ("polyprod", "config", "fatwedge"))
def test_a_verb_without_a_poset_leaves_posets_unloaded(verb, tmp_path):
    argv = {**FILE_VERBS, "fatwedge": FATWEDGE}[verb]
    assert "kzero.posets" not in loaded_by(argv, tmp_path)


PLAIN_ARGVS = {**RING_VERBS, **FILE_VERBS, "fatwedge": FATWEDGE}
"""A plain argv of each verb, which ``main`` reads off the verb table."""


@pytest.mark.parametrize("argv", PLAIN_ARGVS.values(), ids=PLAIN_ARGVS.keys())
def test_a_plain_argv_leaves_argparse_unloaded(argv, tmp_path):
    assert {"argparse", "gettext", "locale"}.isdisjoint(loaded_by(argv, tmp_path))


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
        "classpoly", "classseries", "permgroups", "polyhedral", "posets", "quotients",
        "simplicial", "zerocycles",
    )]
    assert listed


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
