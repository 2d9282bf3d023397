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


@pytest.mark.parametrize("argv", RING_VERBS.values(), ids=RING_VERBS.keys())
def test_a_ring_verb_leaves_the_complex_and_quotient_modules_unloaded(argv):
    code, loaded = fresh(
        "import json, sys; from kzero.cli import main; code = main(sys.argv[1:]); "
        "print(json.dumps([code, sorted(sys.modules)]))",
        *argv,
    )
    assert code == 0
    assert UNUSED_BY_RING_VERBS.isdisjoint(loaded)


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
