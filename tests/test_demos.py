"""Every demo script runs to completion in a fresh interpreter."""

from pathlib import Path

import pytest

from util import run_child

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    proc = run_child([str(demo)], timeout=120)[1]
    assert (proc.returncode, proc.stderr) == (0, "")
