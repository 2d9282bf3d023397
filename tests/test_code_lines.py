"""Smoke test of ``tools/code_lines.py``, the counter of code lines outside docstrings and comments
and of AST nodes."""

from pathlib import Path

import pytest

from util import closed_pipe, run_child

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def test_only_the_statement_is_a_code_line(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('"""A docstring\nover two lines."""\n\n# a comment\nx = 1  # and a trailing one\n')
    proc = run_child([str(TOOL), str(module)], timeout=60)[1]
    assert (proc.returncode, proc.stderr) == (0, "")
    # Module, Expr and Constant (the docstring), Assign, Name, Store, Constant: 7 nodes
    assert proc.stdout.split() == ["1", "7", str(module), "1", "7", "total"]


def test_every_node_of_the_tree_counts_contexts_and_operators_too(tmp_path):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text("x = y + 1\n")  # Module, Assign, Name, Store, BinOp, Name, Load, Add, Constant
    second.write_text("pass\n")  # Module, Pass
    proc = run_child([str(TOOL), str(tmp_path)], timeout=60)[1]
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["1", "9", str(first), "1", "2", str(second), "2", "11", "total"]


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_output_to_a_closed_pipe_exits_1_with_empty_stderr(unbuffered):
    with closed_pipe() as stdout:
        proc = run_child([str(TOOL), str(TOOL)], timeout=60, stdout=stdout, env={"PYTHONUNBUFFERED": unbuffered})[1]
    assert (proc.returncode, proc.stderr) == (1, "")


PACKAGE = TOOL.parent.parent / "src" / "kzero"


def test_a_verb_bill_is_the_sum_of_the_rows_of_the_modules_it_loads():
    from kzero.cli import VERBS

    proc = run_child([str(TOOL), str(PACKAGE)], timeout=60)[1]
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [line.split() for line in proc.stdout.splitlines()]
    nodes = {Path(row[2]).stem: int(row[1]) for row in rows if row[2].endswith(".py")}
    bills = {row[2].rstrip(":"): (int(row[1]), row[3:]) for row in rows if row[0] == "verb"}
    assert list(bills) == list(VERBS)
    # which modules each verb loads is checked against a real job in test_imports.py
    assert [verb for verb, (bill, modules) in bills.items() if bill != sum(nodes[m] for m in modules)] == []


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_and_exits_0(flag):
    proc = run_child([str(TOOL), flag], timeout=60)[1]
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("Count the code lines and the AST nodes") and "code_lines.py src/kzero" in proc.stdout


def test_a_path_that_does_not_exist_gives_one_error_line_and_exit_2(tmp_path):
    # this ended in a FileNotFoundError traceback
    missing = tmp_path / "missing.py"
    proc = run_child([str(TOOL), str(TOOL), str(missing)], timeout=60)[1]
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: no such file or directory: {missing}\n")
