"""End-to-end checks of every command line verb, including exit codes."""

import argparse
import contextlib
import importlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzero.classpoly import MAX_DIGITS, MAX_NESTING, MAX_TOTAL_DEGREE, ClassPoly, parse_poly
from kzero import cli
from kzero.cli import main
from kzero.permgroups import MAX_CYCLIC_ORDER, MAX_ORDER, PermGroup, Permutation

EXAMPLE_COMPLEX = "n=5\n1,2,3\n3,4\n3,5\n"
LINE_GRAPH = "n=5\n1,2\n2,3\n3,4\n4,5\n"
CYCLIC4_GROUP = "degree=4\ngen (1 2 3 4)\n"
CIRCLE_SPACE = (
    "stratum p1 class=1\n"
    "stratum p2 class=1\n"
    "stratum arc1 class=-1\n"
    "stratum arc2 class=-1\n"
    "group degree=2\n"
    "gen (1 2)\n"
    "action 1 arc1->arc2 arc2->arc1\n"
)
DIHEDRAL_DESCRIPTOR = (
    "id c=2 class=1\n"
    "id c=1 class=-1\n"
    "id c=2 class=1\n"
    "t1 c=2 class=1\n"
    "t2 c=2 class=1\n"
)


def child_env() -> dict[str, str]:
    """This environment with ``src`` first on PYTHONPATH, so a child interpreter imports kzero."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_polyprod(tmp_path, capsys):
    path = tmp_path / "K.txt"
    path.write_text(EXAMPLE_COMPLEX)
    code, out, err = run(capsys, "polyprod", "--complex", str(path), "--X", "x", "--A", "a")
    assert (code, err) == (0, "")
    assert out == "x^3*a^2 + 2*x^2*a^3 - 2*x*a^4\n"


def test_complement_with_poset(tmp_path, capsys):
    path = tmp_path / "K.txt"
    path.write_text(EXAMPLE_COMPLEX)
    code, out, _ = run(
        capsys, "complement", "--complex", str(path), "--X", "x", "--A", "a", "--show-poset"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# ambient  mu=1"
    assert lines[-1] == "x^5 - x^3*a^2 - 2*x^2*a^3 + 2*x*a^4"
    assert all(line.startswith("# ") for line in lines[:-1])


def test_complement_without_poset(tmp_path, capsys):
    path = tmp_path / "K.txt"
    path.write_text(EXAMPLE_COMPLEX)
    code, out, _ = run(capsys, "complement", "--complex", str(path), "--X", "x", "--A", "a")
    assert code == 0
    assert out == "x^5 - x^3*a^2 - 2*x^2*a^3 + 2*x*a^4\n"


def test_fatwedge(capsys):
    code, out, _ = run(capsys, "fatwedge", "--n", "3", "--d", "1", "--X", "x")
    assert (code, out) == (0, "3*x - 2\n")


def test_config_and_complement(tmp_path, capsys):
    path = tmp_path / "K.txt"
    path.write_text(LINE_GRAPH)
    code, out, _ = run(capsys, "config", "--complex", str(path), "--X", "x")
    assert (code, out) == (0, "4*x^3 - 3*x^2\n")
    code, out, _ = run(capsys, "config-complement", "--complex", str(path), "--X", "x")
    assert (code, out) == (0, "x^5 - 4*x^3 + 3*x^2\n")


def test_permprod_matches_cycprod(tmp_path, capsys):
    path = tmp_path / "G.txt"
    path.write_text(CYCLIC4_GROUP)
    code, out, _ = run(capsys, "permprod", "--group", str(path), "--X", "x")
    assert (code, out) == (0, "1/4*x^4 + 1/4*x^2 + 1/2*x\n")
    code, out, _ = run(capsys, "cycprod", "--n", "4", "--X", "x")
    assert (code, out) == (0, "1/4*x^4 + 1/4*x^2 + 1/2*x\n")


def test_symprod_series(capsys):
    code, out, _ = run(capsys, "symprod-series", "--X", "x", "--order", "2")
    assert (code, out) == (0, "1 + x*x + (1/2*x^2 + 1/2*x)*x^2 + O(x^3)\n")


def test_zerocycles_series_and_table(capsys):
    code, out, _ = run(capsys, "zerocycles", "--m", "2", "--n", "1", "--X", "1", "--order", "3")
    assert code == 0
    assert out == "1 + 2*x + 2*x^2 + 2*x^3 + O(x^4)\n"
    code, out, _ = run(
        capsys, "zerocycles", "--m", "2", "--n", "1", "--X", "x", "--order", "2", "--table"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0,0: 1"
    assert "1,1: x^2 - x" in lines
    assert len(lines) == 6  # degree vectors with total at most 2


def test_ratio(capsys):
    code, out, _ = run(capsys, "ratio", "--m", "2", "--n", "1", "--X", "1", "--order", "8")
    assert (code, out) == (0, "1 - x^2 + O(x^9)\n")


def test_quotient(tmp_path, capsys):
    path = tmp_path / "space.txt"
    path.write_text(CIRCLE_SPACE)
    code, out, _ = run(capsys, "quotient", "--space", str(path))
    assert (code, out) == (0, "1\n")


@pytest.mark.parametrize(
    "actions", ["action 1 a->b b->a\naction 1\n", "action 1\naction 1 a->b b->a\n"]
)
def test_a_second_action_line_for_one_generator_exits_2(tmp_path, capsys, actions):
    path = tmp_path / "space.txt"
    path.write_text("stratum a class=x\nstratum b class=x\ngroup degree=2\ngen (1 2)\n" + actions)
    code, out, err = run(capsys, "quotient", "--space", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 6: ") and err.count("\n") == 1


def test_quotient_on_an_action_that_breaks_a_relation_exits_2(tmp_path, capsys):
    # (1 2) acts trivially and (1 2 3) as a 3-cycle, but (1 2)(1 2 3)(1 2) = (1 2 3)^-1.
    # The (element, action) pairs then reach each element of S3 with three images.
    path = tmp_path / "space.txt"
    path.write_text(
        "stratum s1 class=1\nstratum s2 class=1\nstratum s3 class=1\n"
        "group degree=3\ngen (1 2)\ngen (1 2 3)\naction 2 s1->s2 s2->s3 s3->s1\n"
    )
    code, out, err = run(capsys, "quotient", "--space", str(path))
    assert (code, out) == (2, "")
    prefix = "error: generator actions do not extend to a homomorphism (conflict at "
    assert err.startswith(prefix) and err.endswith(")\n") and err.count("\n") == 1
    named = err[len(prefix):-2]
    assert Permutation.from_cycles(named, 3) in PermGroup.symmetric(3)


def test_quotient_route_disagreement_exits_4_with_every_value(tmp_path, capsys, monkeypatch):
    import kzero.quotients

    monkeypatch.setattr(kzero.quotients, "burnside_class", lambda space: ClassPoly.const(7))
    path = tmp_path / "space.txt"
    path.write_text(CIRCLE_SPACE)
    code, out, err = run(capsys, "quotient", "--space", str(path))
    assert (code, out) == (4, "")
    assert err == "error: quotient routes disagree: centralizer sum 1, Burnside 7, orbit sum 1\n"


def test_quotient_descriptor(tmp_path, capsys):
    path = tmp_path / "desc.txt"
    path.write_text(DIHEDRAL_DESCRIPTOR)
    code, out, _ = run(capsys, "quotient-descriptor", "--descriptor", str(path))
    assert (code, out) == (0, "1\n")


def test_orbifold_euler(tmp_path, capsys):
    path = tmp_path / "cells.txt"
    path.write_text("0 2\n1 1\n0 2\n")
    code, out, _ = run(capsys, "orbifold-euler", "--cells", str(path))
    assert (code, out) == (0, "0\n")


def test_crystal(tmp_path, capsys):
    path = tmp_path / "classes.txt"
    path.write_text("r1 c=2\nr2 c=2\nr3 c=2\nr4 c=2\n")
    code, out, _ = run(capsys, "crystal", "--descriptor", str(path))
    assert (code, out) == (0, "2\n")


def test_crystal_non_integer_sum_prints_without_warning(tmp_path):
    path = tmp_path / "classes.txt"
    path.write_text("c0 c=2\nc1 c=3\n")
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "kzero.cli", "crystal", "--descriptor", str(path)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "5/6\n", "")


def test_fixed_point(tmp_path, capsys):
    rotation = tmp_path / "rot.txt"
    rotation.write_text("dim=2\nrow 0 -1\nrow 1 0\nt 1 0\n")
    code, out, _ = run(capsys, "fixed-point", "--map", str(rotation))
    assert (code, out) == (0, "yes\n")
    translation = tmp_path / "tr.txt"
    translation.write_text("dim=1\nrow 1\nt 1\n")
    code, out, _ = run(capsys, "fixed-point", "--map", str(translation))
    assert (code, out) == (0, "no\n")


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "x^2 + 2*x + 1")
    assert (code, out) == (0, "x^2 + 2*x + 1\n")
    code, out, _ = run(capsys, "eval", "(x + 1)^2", "--at", "x=3")
    assert (code, out) == (0, "16\n")
    code, out, _ = run(capsys, "eval", "1/2*x", "--at", "x=3")
    assert (code, out) == (0, "3/2\n")
    code, out, _ = run(capsys, "eval", "x*y", "--at", "x=2", "--at", "y=5")
    assert (code, out) == (0, "10\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "5", "--at", "=3"),
        ("eval", "5", "--at", "1x=3"),
        ("eval", "x", "--at", "x=1", "--at", "x=2"),
    ],
)
def test_eval_refuses_a_bad_or_repeated_at_name(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad --at ") and err.count("\n") == 1


def test_latex_output(capsys):
    code, out, _ = run(capsys, "eval", "1/2*x^2 - a", "--latex")
    assert (code, out) == (0, "\\frac{1}{2}x^{2} - a\n")


def test_syntax_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "eval", "x +")
    assert code == 2
    assert err.startswith("error:")
    bad = tmp_path / "bad.txt"
    bad.write_text("facets without header\n")
    code, _, err = run(capsys, "polyprod", "--complex", str(bad), "--X", "x", "--A", "1")
    assert code == 2
    code, _, err = run(capsys, "quotient", "--space", str(tmp_path / "missing.txt"))
    assert code == 2
    code, _, err = run(capsys, "eval", "x", "--at", "x=oops")
    assert code == 2
    code, _, err = run(capsys, "eval", "x", "--at", "y3")
    assert code == 2


def test_precondition_errors_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "fatwedge", "--n", "3", "--d", "5", "--X", "x")
    assert code == 3
    assert err.startswith("error:")
    dense = tmp_path / "dense.txt"
    dense.write_text("n=3\n1,2\n2,3\n")
    code, _, err = run(capsys, "config", "--complex", str(dense), "--X", "x")
    assert code == 3
    code, _, err = run(capsys, "zerocycles", "--m", "0", "--n", "1", "--X", "x", "--order", "2")
    assert code == 3
    single = tmp_path / "single.txt"
    single.write_text("n=5\n1,2\n")
    code, _, err = run(capsys, "config-complement", "--complex", str(single), "--X", "x")
    assert code == 3


def test_permprod_refuses_degree_nine_before_generating(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the group was generated before the degree check")

    monkeypatch.setattr(PermGroup, "generate", fail)
    path = tmp_path / "S9.txt"
    path.write_text("degree=9\ngen (1 2)\ngen (1 2 3 4 5 6 7 8 9)\n")
    code, out, err = run(capsys, "permprod", "--group", str(path), "--X", "x")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_negative_order_exits_3(capsys):
    for argv in (
        ["symprod-series", "--X", "x", "--order", "-1"],
        ["zerocycles", "--m", "1", "--n", "1", "--X", "x", "--order", "-1"],
        ["ratio", "--m", "1", "--n", "1", "--X", "x", "--order", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_runaway_power_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "(x+1)^100000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_TOTAL_DEGREE) in err


def test_power_under_the_size_cap_still_evaluates(capsys):
    code, out, err = run(capsys, "eval", "(x+1)^200")
    assert (code, err) == (0, "")
    assert parse_poly(out) == (ClassPoly.var("x") + 1) ** 200
    assert out.startswith("x^200 + 200*x^199 + 19900*x^198 + ")


def test_numbers_over_the_digit_limit_exit_3(capsys):
    for argv in (
        ["eval", "7^10000"],
        ["eval", "1" * (MAX_DIGITS + 1)],
        ["eval", "x^2", "--at", "x=" + "7" * 3000],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv[:2]
        assert err.startswith("error: ") and err.count("\n") == 1, argv[:2]
        assert str(MAX_DIGITS) in err


def test_numbers_at_the_digit_limit_still_print(capsys):
    code, out, err = run(capsys, "eval", "9" * MAX_DIGITS)
    assert (code, out, err) == (0, "9" * MAX_DIGITS + "\n", "")
    code, out, err = run(capsys, "eval", "1/" + "9" * MAX_DIGITS, "--latex")
    assert (code, out, err) == (0, "\\frac{1}{" + "9" * MAX_DIGITS + "}\n", "")


def nested(depth: int, inner: str = "x") -> str:
    return "(" * depth + inner + ")" * depth


def assert_refused(code: int, out: str, err: str) -> None:
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_show_poset_on_a_refused_complex_prints_nothing(tmp_path, capsys):
    single = tmp_path / "single.txt"
    single.write_text("n=5\n1,2\n")
    assert_refused(
        *run(capsys, "config-complement", "--complex", str(single), "--X", "x", "--show-poset")
    )


def test_a_negative_cell_dimension_exits_3(tmp_path, capsys):
    path = tmp_path / "cells.txt"
    path.write_text("0 2\n-1 2\n")
    assert_refused(*run(capsys, "orbifold-euler", "--cells", str(path)))


def test_parentheses_at_the_nesting_limit_still_parse(capsys):
    assert run(capsys, "eval", nested(MAX_NESTING)) == (0, "x\n", "")


def test_parentheses_past_the_nesting_limit_exit_3(tmp_path, capsys):
    assert_refused(*run(capsys, "eval", nested(MAX_NESTING + 1)))
    space = tmp_path / "space.txt"
    space.write_text(f"stratum p class={nested(MAX_NESTING + 1, '1')}\ngroup degree=1\n")
    assert_refused(*run(capsys, "quotient", "--space", str(space)))


def test_power_past_the_digit_limit_exits_3_before_multiplying(capsys):
    start = time.perf_counter()
    assert_refused(*run(capsys, "eval", "7^10000000"))
    assert time.perf_counter() - start < 2.0
    # the check looks at the power, not at the printed result
    assert_refused(*run(capsys, "eval", "7^10000 - 7^10000"))


def test_power_at_the_digit_limit_still_prints(capsys):
    code, out, err = run(capsys, "eval", "7^5088")
    assert (code, err) == (0, "")
    assert out == f"{7 ** 5088}\n" and len(out) == MAX_DIGITS + 1


def test_cyclic_product_of_a_large_order_is_quick(capsys):
    start = time.perf_counter()
    assert run(capsys, "cycprod", "--n", "100000000", "--X", "1") == (0, "1\n", "")
    assert time.perf_counter() - start < 2.0


def test_quotient_on_a_group_past_the_order_cap_exits_3_at_once(tmp_path, capsys):
    space = tmp_path / "S11.txt"
    space.write_text("stratum a class=1\ngroup degree=11\ngen (1 2)\ngen (1 2 3 4 5 6 7 8 9 10 11)\n")
    start = time.perf_counter()
    assert_refused(*run(capsys, "quotient", "--space", str(space)))
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("verb, option, text", [
    ("quotient", "--space", "stratum a class=1\ngroup degree=3000000\ngen (1 2)\n"),
    ("permprod", "--group", "degree=3000000\ngen (1 2)\n"),
])
def test_a_group_degree_past_the_order_cap_exits_3_at_once(tmp_path, capsys, verb, option, text):
    path = tmp_path / "group.txt"
    path.write_text(text)
    start = time.perf_counter()
    assert_refused(*run(capsys, verb, option, str(path), *(["--X", "x"] if verb == "permprod" else [])))
    assert time.perf_counter() - start < 2.0


def test_a_group_degree_at_the_order_cap_still_reads(tmp_path, capsys):
    space = tmp_path / "space.txt"
    space.write_text(f"stratum a class=x\ngroup degree={MAX_ORDER}\n")
    assert run(capsys, "quotient", "--space", str(space)) == (0, "x\n", "")


def test_a_cyclic_product_past_the_order_cap_exits_3_at_once(capsys):
    n = 1000000000039  # the least prime past the cap
    assert n > MAX_CYCLIC_ORDER
    start = time.perf_counter()
    assert_refused(*run(capsys, "cycprod", "--n", str(n), "--X", "1"))
    assert time.perf_counter() - start < 2.0


def test_a_prime_cyclic_order_under_the_cap_still_prints(capsys):
    assert run(capsys, "cycprod", "--n", "999999999989", "--X", "1") == (0, "1\n", "")


@pytest.mark.parametrize("entry", ["1e10000000", "1.5"])
def test_affine_entries_are_integers_or_fractions(tmp_path, capsys, entry):
    path = tmp_path / "map.txt"
    path.write_text(f"dim=1\nrow {entry}\nt 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "fixed-point", "--map", str(path))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: ") and err.count("\n") == 1


def test_an_affine_entry_over_the_digit_limit_exits_3(tmp_path, capsys):
    path = tmp_path / "map.txt"
    path.write_text(f"dim=1\nrow {'7' * (MAX_DIGITS + 1)}\nt 0\n")
    assert_refused(*run(capsys, "fixed-point", "--map", str(path)))


def test_console_script_entry_point():
    proc = subprocess.run(
        ["kzero", "eval", "x + 1"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout == "x + 1\n"


def test_pyproject_declares_console_script():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["kzero"] == "kzero.cli:main"
    module, _, name = scripts["kzero"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "kzero.cli", "cycprod", "--n", "3", "--X", "x"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1/3*x^3 + 2/3*x\n"


def test_missing_verb_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


VALID_ARGV = {
    "polyprod": ["--complex", "K.txt", "--X", "x", "--A", "a", "--latex"],
    "complement": ["--complex", "K.txt", "--X", "x", "--A", "a", "--show-poset"],
    "fatwedge": ["--n", "4", "--d", "1", "--X", "x"],
    "config": ["--complex", "K.txt", "--X", "x"],
    "config-complement": ["--complex", "K.txt", "--X", "x", "--show-poset"],
    "permprod": ["--group", "G.txt", "--X", "x"],
    "cycprod": ["--n", "4", "--X", "x"],
    "symprod-series": ["--X", "x", "--order", "4"],
    "zerocycles": ["--m", "2", "--n", "1", "--X", "x", "--order", "4", "--table"],
    "ratio": ["--m", "2", "--n", "1", "--X", "x", "--order", "4"],
    "quotient": ["--space", "space.txt"],
    "quotient-descriptor": ["--descriptor", "desc.txt"],
    "orbifold-euler": ["--cells", "cells.txt"],
    "crystal": ["--descriptor", "classes.txt"],
    "fixed-point": ["--map", "map.txt"],
    "eval": ["x^2 + 1", "--at", "x=2"],
}
"""Arguments each verb's parser accepts; parsing reads no file, so none need exist."""

INT_OPTIONS = ("--n", "--m", "--d", "--order")


def parser_cases():
    """(argv, exit code) for every verb: valid, help, a required argument missing, an unknown
    option, a stray extra argument, and a non-integer for its first integer option."""
    for verb, valid in VALID_ARGV.items():
        yield [verb, *valid], 0
        yield [verb, "-h"], 0
        yield [verb], 2
        yield [verb, *valid, "--bogus"], 2
        yield [verb, *valid, "extra"], 2
        ints = [i for i, token in enumerate(valid) if token in INT_OPTIONS]
        if ints:
            yield [verb, *valid[:ints[0] + 1], "abc", *valid[ints[0] + 2:]], 2


def parsed(parser: argparse.ArgumentParser, argv: list[str]):
    """(exit code, parsed arguments, stdout, stderr) of ``parser.parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, result = 0, vars(parser.parse_args(argv))
        except SystemExit as e:
            code, result = e.code, None
    return code, result, out.getvalue(), err.getvalue()


def test_every_verb_has_parser_cases():
    assert list(VALID_ARGV) == list(cli.VERBS)


@pytest.mark.parametrize("argv, code", parser_cases(), ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_a_one_verb_parser_parses_as_the_full_parser(argv, code):
    one = parsed(cli.build_parser([argv[0]]), argv)
    assert one[0] == code
    assert one == parsed(cli.build_parser(), argv)


def count_add_parser(monkeypatch) -> list[str]:
    """The verbs whose subparser is built from now on, in order."""
    action = type(argparse.ArgumentParser().add_subparsers())
    built: list[str] = []
    add_parser = action.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(action, "add_parser", counting)
    return built


def test_main_builds_only_the_named_verbs_parser(monkeypatch, capsys):
    built = count_add_parser(monkeypatch)
    assert run(capsys, "cycprod", "--n", "3", "--X", "x") == (0, "1/3*x^3 + 2/3*x\n", "")
    assert built == []  # a plain argv is read off the verb table
    with pytest.raises(SystemExit) as exc:
        main(["cycprod", "--n", "abc", "--X", "x"])
    assert exc.value.code == 2
    assert built == ["cycprod"]


@pytest.mark.parametrize("argv", [["--help"], ["nosuch", "x"]])
def test_help_and_an_unknown_verb_build_every_parser(monkeypatch, capsys, argv):
    built = count_add_parser(monkeypatch)
    with pytest.raises(SystemExit):
        main(argv)
    assert built == list(cli.VERBS) and len(built) == 16


def outcome(argv: list[str]) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of ``main(argv)``, a usage error or help included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, code", parser_cases(), ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_the_table_reader_reads_as_argparse(argv, code, monkeypatch, tmp_path):
    read = cli.read_argv(argv)
    assert read is None or vars(read) == parsed(cli.build_parser(), argv)[1]
    assert (read is not None) == (code == 0 and "-h" not in argv)
    monkeypatch.chdir(tmp_path)  # the valid argvs name input files that do not exist here
    by_table = outcome(argv)
    monkeypatch.setattr(cli, "read_argv", lambda argv: None)
    assert outcome(argv) == by_table


PLAIN_ARGVS = [
    ["eval", "x", "--at", "x=1", "--at", "y=2"],
    ["eval", "--latex", "--at", "x=1", ""],
    ["cycprod", "--X", "", "--n", " 5 "],
    ["zerocycles", "--table", "--order", "1_0", "--X", "x y", "--n", "+1", "--m", "2", "--latex"],
]
"""Plain argvs with an ``append`` flag given twice, an empty value or positional, switches
first and values that ``int`` reads with a sign, spaces or an underscore."""


@pytest.mark.parametrize("argv", PLAIN_ARGVS, ids=" ".join)
def test_the_table_reader_reads_a_plain_argv(argv):
    read = cli.read_argv(argv)
    assert read is not None and vars(read) == parsed(cli.build_parser(), argv)[1]


ARGPARSE_ARGVS = [
    [], ["-h"], ["nosuch"], ["cycprod", "-h"], ["cycprod", "--help"],
    ["cycprod", "--n", "3", "--X", "x", "--bogus"],
    ["cycprod", "--n", "3", "--X=x"], ["cycprod", "--n", "3", "--x", "x"], ["fatwedge", "--n", "3", "--d", "1", "--X", "x", "--lat"],
    ["cycprod", "--n", "-3", "--X", "x"], ["cycprod", "--n", "3", "--X", "-x"], ["cycprod", "--n", "3", "--X", "--"],
    ["cycprod", "--n", "3", "--X", "-h"], ["cycprod", "--n", "3", "--X", "-"], ["cycprod", "--", "--n", "3", "--X", "x"],
    ["cycprod", "--n", "3", "--n", "4", "--X", "x"], ["cycprod", "--n", "3", "--X", "x", "--latex", "--latex"],
    ["cycprod", "--n", "3"], ["cycprod", "--n", "3", "--X"], ["eval"], ["eval", "--latex"],
    ["eval", "x", "y"], ["cycprod", "--n", "3", "--X", "x", "y"],
    ["cycprod", "--n", "three", "--X", "x"], ["cycprod", "--n", "", "--X", "x"], ["cycprod", "--n", "3.0", "--X", "x"],
]
"""One argv of each shape that goes to argparse: help, a missing or unknown verb, an
unknown, abbreviated or ``--flag=value`` flag, a value that starts with ``-`` or is ``--``,
a repeated option other than ``--at``, a missing required argument, a stray or missing
positional, and a value that ``int`` refuses."""


@pytest.mark.parametrize("argv", ARGPARSE_ARGVS, ids=" ".join)
def test_the_table_reader_leaves_every_other_argv_to_argparse(argv):
    assert cli.read_argv(argv) is None


FLAGS = sorted({flag for _, _, arguments in cli.VERBS.values() for flag, _ in arguments if flag.startswith("-")})
SWITCHES = {flag for _, _, arguments in cli.VERBS.values() for flag, kw in arguments if kw.get("action") == "store_true"}
TOKENS = [
    *cli.VERBS, *FLAGS, "--comp", "--sh", "--o", "--X=x", "--n=3", "--at=x=1",
    "-h", "--help", "--", "-", "-5", "5", "abc", "", "x+1",
]
"""Verbs, every flag, flag prefixes, ``--flag=value``, help, ``--`` and values good and bad."""

FULL_PARSER = cli.build_parser()


def chunks(argv: list[str]) -> list[tuple[str, ...]]:
    """``argv`` cut into flags with their values, switches and positionals."""
    tokens = iter(argv)
    return [(t, next(tokens)) if t in FLAGS and t not in SWITCHES else (t,) for t in tokens]


@st.composite
def token_lists(draw) -> list[str]:
    """A first token from ``TOKENS``; after a verb, its valid arguments in any order with
    some left out; then tokens or flag-token pairs from ``TOKENS`` put in anywhere."""
    first = draw(st.sampled_from(TOKENS))
    rest = [c for c in draw(st.permutations(chunks(VALID_ARGV.get(first, [])))) if draw(st.integers(0, 4))]
    token = st.sampled_from(TOKENS)
    for chunk in draw(st.lists(st.tuples(token) | st.tuples(st.sampled_from(FLAGS), token), max_size=3)):
        rest.insert(draw(st.integers(0, len(rest))), chunk)
    return [first, *(t for chunk in rest for t in chunk)]


@given(token_lists())
@settings(max_examples=300, deadline=None)
def test_the_table_reader_is_none_or_argparse_on_any_tokens(argv):
    code, by_argparse, _, _ = parsed(FULL_PARSER, argv)
    read = cli.read_argv(argv)
    if code != 0:
        assert read is None
    elif read is not None:
        assert vars(read) == by_argparse


def test_a_reader_closing_stdout_after_one_line_gets_exit_1_and_no_traceback():
    argv = ["zerocycles", "--m", "2", "--n", "1", "--X", "x", "--order", "25", "--table"]  # 142 kB
    with subprocess.Popen(
        [sys.executable, "-m", "kzero.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    ) as proc:
        assert proc.stdout.readline() == b"0,0: 1\n"
        proc.stdout.close()
        start = time.perf_counter()
        assert proc.wait(timeout=60) == 1
        assert time.perf_counter() - start < 2
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_output_to_a_closed_pipe_exits_1_with_empty_stderr(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kzero.cli", "eval", "(x+1)^300"],
            stdout=write_end, stderr=subprocess.PIPE,
            env=dict(child_env(), PYTHONUNBUFFERED=unbuffered), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("x", ["1", "x"])
def test_a_fat_wedge_past_the_degree_limit_exits_3_at_once(capsys, x):
    start = time.perf_counter()
    code, out, err = run(capsys, "fatwedge", "--n", "100000", "--d", "50000", "--X", x)
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_fat_wedge_at_the_degree_limit_still_prints(capsys):
    d = MAX_TOTAL_DEGREE
    assert run(capsys, "fatwedge", "--n", str(d), "--d", str(d), "--X", "2") == (0, f"{2 ** d}\n", "")
    code, out, err = run(capsys, "fatwedge", "--n", str(d + 1), "--d", str(d + 1), "--X", "2")
    assert (code, out) == (3, "")
    assert err == f"error: fatness index d={d + 1}; the limit is {d}\n"
