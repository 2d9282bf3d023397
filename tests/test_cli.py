"""End-to-end checks of every command line verb, including exit codes.

``CONTRACT`` is the one contract table: one row per argv, as a shell line whose
arguments ending in ``.txt`` name files of ``FILES``, with the outcome the run
must give, and optionally the seconds it must end within, whether it runs in a
child interpreter and the address space that child gets.  The ``ran`` fixture
writes the files once and runs each row once, in this process through
``util.run_main`` or in a child as ``python -W default -m kzero.cli``, so every
child row checks the module entry too and that no warning reaches stderr; one
test per fact reads that run: the outcome and the bound.  The tests after the
table need more than one run or a special stdio: the argv reader against
argparse, the parser builds, closed pipes and full devices, the process entry,
and monkeypatched runs.
"""

import argparse
import contextlib
import functools
import importlib
import io
import random
import re
import shlex
import subprocess
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzero.classpoly import MAX_DIGITS, MAX_NESTING, MAX_TOTAL_DEGREE, ClassPoly, parse_poly
from kzero import cli
from kzero.cli import VERBS, main
from kzero.errors import MAX_FILE_BYTES
from kzero.permgroups import MAX_IMAGES, MAX_ORDER, PermGroup, Permutation
from kzero.polyhedral import PolyPair, polyhedral_product_class
from kzero.products import MAX_CYCLIC_ORDER
from kzero.simplicial import SimplicialComplex
from util import INPUTS, child_env, closed_pipe, kzero_child, run_child, run_main


class Row(NamedTuple):
    """One run of ``CONTRACT``; see its docstring."""

    line: str
    want: tuple
    seconds: float | None = None
    child: bool = False
    address_space: int | None = None


def printed(text: str | Callable[[], str]) -> tuple:
    """Exit 0, ``text`` and a newline on stdout, and nothing on stderr; a function
    ``text`` is called when the row is checked."""
    return 0, (lambda: text() + "\n") if callable(text) else text + "\n", ""


def refused(code: int = 3, part: str = "", pattern: str = "") -> tuple[int, str, re.Pattern]:
    """Exit ``code``, nothing on stdout and one ``error:`` line on stderr that holds
    ``part``, or that continues as ``pattern`` matches."""
    return code, "", re.compile(f"error: {pattern or '.*' + re.escape(part) + '.*'}\n")


def binomial_power(v: str, k: int, shift: int = 0) -> str:
    """v^shift (v + 1)^k as the verbs print it, term by term from the binomial coefficients."""
    terms = []
    for j in range(k, -1, -1):
        c, e = comb(k, j), j + shift
        mono = "" if e == 0 else v if e == 1 else f"{v}^{e}"
        terms.append(str(c) if not mono else mono if c == 1 else f"{c}*{mono}")
    return " + ".join(terms)


def nested(depth: int, inner: str = "x") -> str:
    return "(" * depth + inner + ")" * depth


def facet(n: int, first: int, size: int) -> str:
    """The complex on vertices 1..n with the one facet first..first+size-1."""
    return f"n={n}\n" + ",".join(map(str, range(first, first + size))) + "\n"


def seeded_complex(n: int, m: int, lo: int, hi: int) -> SimplicialComplex:
    rng = random.Random(1)
    return SimplicialComplex(n, [rng.sample(range(1, n + 1), rng.randint(lo, hi)) for _ in range(m)])


def facets_near_ten_million(join_one: bool) -> list[list[int]]:
    """60 seeded facets of 3-6 vertices within 100 of 10^7, vertex 1 joined to each if asked,
    and each facet's first two vertices as one more candidate face."""
    rng = random.Random(1)
    facets = [rng.sample(range(10**7 - 99, 10**7 + 1), rng.randint(3, 6)) for _ in range(60)]
    facets = [[1, *f] if join_one else f for f in facets]
    return facets + [f[:2] for f in facets]


COMPLEXES = {
    "overlapping.txt": seeded_complex(20, 150, 10, 14),
    "apart.txt": seeded_complex(600, 900, 10, 13),
    "core.txt": SimplicialComplex(30, [[*range(1, 24), v] for v in range(24, 29)]),
    "near_10_7.txt": SimplicialComplex(10**7, facets_near_ten_million(False)),
    "near_10_7_and_1.txt": SimplicialComplex(10**7, facets_near_ten_million(True)),
}
"""Complexes whose ``polyprod --X x --A 1`` class the library computes in this process."""


def polyprod_x_1(name: str) -> Callable[[], str]:
    return lambda: str(polyhedral_product_class(COMPLEXES[name], PolyPair(parse_poly("x"), 1)))


def s8_space_text(strata: list[str], actions: list[str]) -> str:
    """S_8 by (1 2) and (1 2 ... 8) on the named strata, each ``label class``."""
    lines = [f"stratum {s}" for s in strata] + ["group degree=8", "gen (1 2)", "gen (1 2 3 4 5 6 7 8)"]
    return "\n".join(lines + actions) + "\n"


def s8_on_subsets_text(k: int) -> str:
    """S_8 on the k-subsets of 1..8, each of class x^2+y, and a fixed stratum of class 2*y."""
    subsets = list(combinations(range(1, 9), k))
    label = {s: "s" + "_".join(map(str, s)) for s in subsets}
    gens = [Permutation.from_cycles("(1 2)", 8), Permutation.from_cycles("(1 2 3 4 5 6 7 8)", 8)]
    actions = [" ".join([f"action {i}", *(f"{label[s]}->{label[tuple(sorted(map(g, s)))]}" for s in subsets)])
               for i, g in enumerate(gens, 1)]
    return s8_space_text([f"{label[s]} class=x^2+y" for s in subsets] + ["pt class=2*y"], actions)


def on_one_stratum(d: int, dihedral: bool) -> str:
    """C_d, or D_d, on 1..d acting on one stratum of class x."""
    gens = ["(" + " ".join(map(str, range(1, d + 1))) + ")"]
    if dihedral:
        gens.append("".join(f"({i} {d + 1 - i})" for i in range(1, d // 2 + 1)))
    return f"stratum a class=x\ngroup degree={d}\n" + "".join(f"gen {g}\n" for g in gens)


TWO_STRATA = "stratum a class=x\nstratum b class=x\ngroup degree=2\ngen (1 2)\n"
NINE_CYCLE = " ".join(f"s{i}->s{(i + 1) % 9}" for i in range(9))

FILES = {
    **INPUTS,
    **{name: K.to_text() for name, K in COMPLEXES.items()},
    "example.txt": "n=5\n1,2,3\n3,4\n3,5\n",
    "translation.txt": "dim=1\nrow 1\nt 1\n",
    "sixths.txt": "c0 c=2\nc1 c=3\n",
    "no_header.txt": "facets without header\n",
    "dense.txt": "n=3\n1,2\n2,3\n",
    "single.txt": "n=5\n1,2\n",
    "negative_cell.txt": "0 2\n-1 2\n",
    "bad_descriptor.txt": "id c=2 class=1\nid c=two class=1\n",
    "bad_classes.txt": "r1 c=2\nr2 c=x\n",
    "action_twice.txt": TWO_STRATA + "action 1 a->b b->a\naction 1\n",
    "bare_action_first.txt": TWO_STRATA + "action 1\naction 1 a->b b->a\n",
    "relation.txt": "stratum s1 class=1\nstratum s2 class=1\nstratum s3 class=1\n"
                    "group degree=3\ngen (1 2)\ngen (1 2 3)\naction 2 s1->s2 s2->s3 s3->s1\n",
    "nested_class.txt": f"stratum p class={nested(MAX_NESTING + 1, '1')}\ngroup degree=1\n",
    "S11.txt": "stratum a class=1\ngroup degree=11\ngen (1 2)\ngen (1 2 3 4 5 6 7 8 9 10 11)\n",
    "degree_3000000_space.txt": "stratum a class=1\ngroup degree=3000000\ngen (1 2)\n",
    "degree_3000000_group.txt": "degree=3000000\ngen (1 2)\n",
    "transposition.txt": f"stratum a class=x\nstratum b class=x\ngroup degree={MAX_ORDER}\ngen (1 2)\n"
                         "action 1 a->b b->a\n",
    "long_cycle.txt": f"stratum a class=1\ngroup degree={MAX_ORDER}\ngen ({' '.join(map(str, range(1, MAX_ORDER + 1)))})\n",
    "order_cap.txt": f"stratum a class=x\ngroup degree={MAX_ORDER}\n",
    "s8_on_2_subsets.txt": s8_on_subsets_text(2),
    "s8_on_3_subsets.txt": s8_on_subsets_text(3),
    "C1000.txt": on_one_stratum(1000, False),
    "D500.txt": on_one_stratum(500, True),
    "s8_1000_fixed.txt": s8_space_text([f"s{i} class=x" for i in range(1000)], []),
    "s8_9_cycle.txt": s8_space_text([f"s{i} class=x" for i in range(9)], [f"action 1 {NINE_CYCLE}"]),
    "exponent_entry.txt": "dim=1\nrow 1e10000000\nt 0\n",
    "decimal_entry.txt": "dim=1\nrow 1.5\nt 0\n",
    "long_entry.txt": f"dim=1\nrow {'7' * (MAX_DIGITS + 1)}\nt 0\n",
    "facet_400_on_400.txt": facet(400, 1, 400),
    "facet_400_on_401.txt": facet(401, 1, 400),
    "facet_5000.txt": facet(10001, 1, 5000),
    "facet_200000.txt": facet(400000, 1, 200000),
    "facet_24.txt": facet(25, 1, 24),
    "edge_10_billion.txt": "n=10000000000\n1,10000000000\n",
    "degree_0_space.txt": "stratum p class=1\ngroup degree=0\n",
    "utf16.txt": "n=1\n".encode("utf-16"),  # starts with the bytes ff fe
}
"""Every input file of ``CONTRACT``, by the name its shell lines give, as text or bytes;
``missing.txt`` is left out on purpose."""

FILE_VERBS = [verb for verb, (_, _, arguments) in VERBS.items()
              if any(keywords.get("metavar") == "PATH" for _, keywords in arguments)]
"""Every verb that reads an input file."""


def file_line(verb: str, path: str) -> str:
    """``verb`` with ``path`` for its file and ``1`` for every other required argument."""
    return shlex.join([verb, *(token for flag, keywords in VERBS[verb][2] if keywords.get("required")
                               for token in (flag, path if keywords.get("metavar") == "PATH" else "1"))])

HALF = "5" + "0" * (MAX_DIGITS - 1)
SEVENS = "7" * 2000
TOO_MANY_DIGITS = f"cannot print a number of more than {MAX_DIGITS} digits"
CONSTANT_SERIES = " + ".join(["1", "x", *(f"x^{k}" for k in range(2, MAX_TOTAL_DEGREE + 1))]) + " + O(x^1001)"
BIG_N = 10 ** (MAX_DIGITS // 2)
GIB = 2**30

CONTRACT = {
    "polyprod": Row("polyprod --complex example.txt --X x --A a", printed("x^3*a^2 + 2*x^2*a^3 - 2*x*a^4")),
    "complement_with_poset": Row(
        "complement --complex example.txt --X x --A a --show-poset",
        printed("# ambient  mu=1\n# {1,2,3}  mu=-1\n# {3,4}    mu=-1\n# {3,5}    mu=-1\n# {3}      mu=2\n"
                "x^5 - x^3*a^2 - 2*x^2*a^3 + 2*x*a^4")),
    "complement_without_poset": Row("complement --complex example.txt --X x --A a",
                                    printed("x^5 - x^3*a^2 - 2*x^2*a^3 + 2*x*a^4")),
    "fatwedge": Row("fatwedge --n 3 --d 1 --X x", printed("3*x - 2")),
    "config_and_complement: config": Row("config --complex K.txt --X x", printed("4*x^3 - 3*x^2")),
    "config_and_complement: config-complement": Row("config-complement --complex K.txt --X x",
                                                    printed("x^5 - 4*x^3 + 3*x^2")),
    "permprod_matches_cycprod: permprod": Row("permprod --group group.txt --X x", printed("1/4*x^4 + 1/4*x^2 + 1/2*x")),
    "permprod_matches_cycprod: cycprod": Row("cycprod --n 4 --X x", printed("1/4*x^4 + 1/4*x^2 + 1/2*x")),
    "symprod_series": Row("symprod-series --X x --order 2", printed("1 + x*x + (1/2*x^2 + 1/2*x)*x^2 + O(x^3)")),
    "zerocycles_series_and_table: series": Row("zerocycles --m 2 --n 1 --X 1 --order 3",
                                               printed("1 + 2*x + 2*x^2 + 2*x^3 + O(x^4)")),
    # the degree vectors of total at most 2
    "zerocycles_series_and_table: table": Row(
        "zerocycles --m 2 --n 1 --X x --order 2 --table",
        printed("0,0: 1\n0,1: x\n1,0: x\n0,2: 1/2*x^2 + 1/2*x\n1,1: x^2 - x\n2,0: 1/2*x^2 + 1/2*x")),
    "ratio": Row("ratio --m 2 --n 1 --X 1 --order 8", printed("1 - x^2 + O(x^9)")),
    "quotient": Row("quotient --space space.txt", printed("1")),
    "a_second_action_line_for_one_generator_exits_2: the action first": Row(
        "quotient --space action_twice.txt", refused(2, pattern="line 6: .*")),
    "a_second_action_line_for_one_generator_exits_2: the bare line first": Row(
        "quotient --space bare_action_first.txt", refused(2, pattern="line 6: .*")),
    # (1 2) acts trivially and (1 2 3) as a 3-cycle, but (1 2)(1 2 3)(1 2) = (1 2 3)^-1.
    # The joined (generator, action) permutations then generate a group 3 times the order
    # of S3, and each element of S3, the named identity too, has three images.
    "quotient_on_an_action_that_breaks_a_relation_exits_2": Row(
        "quotient --space relation.txt",
        refused(2, pattern=r"generator actions do not extend to a homomorphism \(conflict at "
                f"({'|'.join(map(re.escape, map(str, PermGroup.symmetric(3))))})\\)")),
    "quotient_descriptor": Row("quotient-descriptor --descriptor desc.txt", printed("1")),
    "orbifold_euler": Row("orbifold-euler --cells cells.txt", printed("0")),
    "crystal": Row("crystal --descriptor classes.txt", printed("2")),
    # the child runs under -W default, like every child row: no warning on stderr
    "crystal_non_integer_sum_prints_without_warning": Row("crystal --descriptor sixths.txt", printed("5/6"),
                                                          child=True),
    "fixed_point: rotation": Row("fixed-point --map map.txt", printed("yes")),
    "fixed_point: translation": Row("fixed-point --map translation.txt", printed("no")),
    "eval": Row("eval 'x^2 + 2*x + 1'", printed("x^2 + 2*x + 1")),
    "eval: at x=3": Row("eval '(x + 1)^2' --at x=3", printed("16")),
    "eval: a fraction at x=3": Row("eval 1/2*x --at x=3", printed("3/2")),
    "eval: at two names": Row("eval x*y --at x=2 --at y=5", printed("10")),
    "eval_refuses_a_bad_or_repeated_at_name: no name": Row("eval 5 --at =3", refused(2, pattern="bad --at .*")),
    "eval_refuses_a_bad_or_repeated_at_name: a bad name": Row("eval 5 --at 1x=3", refused(2, pattern="bad --at .*")),
    "eval_refuses_a_bad_or_repeated_at_name: a repeated name": Row("eval x --at x=1 --at x=2",
                                                                   refused(2, pattern="bad --at .*")),
    "latex_output": Row("eval '1/2*x^2 - a' --latex", printed("\\frac{1}{2}x^{2} - a")),
    # the value was once printed as plain text whatever --latex said
    "an_evaluated_value_honours_latex": Row("eval 1/2*x --at x=1 --latex", printed("\\frac{1}{2}")),
    # each term is in range and their sum has MAX_DIGITS + 1 digits: refused in both forms
    "an_evaluated_value_honours_latex: a sum past the digit limit": Row(
        f"eval 'x + y' --at x={HALF} --at y={HALF}", (3, "", f"error: {TOO_MANY_DIGITS}\n")),
    "an_evaluated_value_honours_latex: a sum past the digit limit, in LaTeX": Row(
        f"eval 'x + y' --at x={HALF} --at y={HALF} --latex", (3, "", f"error: {TOO_MANY_DIGITS}\n")),
    "syntax_errors_exit_2: a polynomial": Row("eval 'x +'", refused(2)),
    "syntax_errors_exit_2: a complex file": Row("polyprod --complex no_header.txt --X x --A 1", refused(2)),
    "syntax_errors_exit_2: a missing file": Row("quotient --space missing.txt", refused(2)),
    "syntax_errors_exit_2: a value": Row("eval x --at x=oops", refused(2)),
    "syntax_errors_exit_2: no =": Row("eval x --at y3", refused(2)),
    # Arabic-Indic three and fullwidth three are Unicode decimal digits, but not literals
    "a_non_ascii_digit_is_a_syntax_error: a coefficient": Row("eval '٣*x + ３'", refused(2)),
    "a_non_ascii_digit_is_a_syntax_error: an exponent": Row("eval 'x^٣'", refused(2)),
    "precondition_errors_exit_3: fatwedge": Row("fatwedge --n 3 --d 5 --X x", refused()),
    "precondition_errors_exit_3: config": Row("config --complex dense.txt --X x", refused()),
    "precondition_errors_exit_3: zerocycles": Row("zerocycles --m 0 --n 1 --X x --order 2", refused()),
    "precondition_errors_exit_3: config-complement": Row("config-complement --complex single.txt --X x", refused()),
    "negative_order_exits_3: symprod-series": Row("symprod-series --X x --order -1", refused()),
    "negative_order_exits_3: zerocycles": Row("zerocycles --m 1 --n 1 --X x --order -1", refused()),
    "negative_order_exits_3: ratio": Row("ratio --m 1 --n 1 --X x --order -1", refused()),
    "runaway_power_exits_3_at_once": Row("eval '(x+1)^100000'", refused(part=str(MAX_TOTAL_DEGREE)), 1.0),
    "power_under_the_size_cap_still_evaluates": Row("eval '(x+1)^200'", printed(binomial_power("x", 200))),
    "numbers_over_the_digit_limit_exit_3: a power": Row("eval 7^10000", refused(part=str(MAX_DIGITS))),
    "numbers_over_the_digit_limit_exit_3: a literal": Row(f"eval {'1' * (MAX_DIGITS + 1)}",
                                                          refused(part=str(MAX_DIGITS))),
    "numbers_over_the_digit_limit_exit_3: a value": Row(f"eval x^2 --at x={'7' * 3000}",
                                                        refused(part=str(MAX_DIGITS))),
    "numbers_at_the_digit_limit_still_print": Row(f"eval {'9' * MAX_DIGITS}", printed("9" * MAX_DIGITS)),
    "numbers_at_the_digit_limit_still_print: in LaTeX": Row(f"eval 1/{'9' * MAX_DIGITS} --latex",
                                                            printed("\\frac{1}{" + "9" * MAX_DIGITS + "}")),
    # each term's bit bound, not value ** k, decides: these ran past 20 s or took 3.7 s
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: eval (x+1)^1000 at 4000 nines": Row(
        f"eval '(x+1)^1000' --at x={'9' * 4000}", refused(), 2, child=True),
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: eval x^1000 at 4000 nines": Row(
        f"eval x^1000 --at x={'9' * 4000}", refused(), 2, child=True),
    # C(60, 40) degree vectors: this ran past 8 s
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: zerocycles m=40 table": Row(
        "zerocycles --m 40 --n 1 --X 1 --order 20 --table", refused(), 2, child=True),
    # a series order past the degree limit, whatever X: these printed, ran past 4 s, or took 3.6 s
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: symprod-series X=1 order 1001": Row(
        "symprod-series --X 1 --order 1001", refused(), 2, child=True),
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: symprod-series X=1 order 3000000": Row(
        "symprod-series --X 1 --order 3000000", refused(), 2, child=True),
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: zerocycles X=1 order 3000000": Row(
        "zerocycles --m 2 --n 1 --X 1 --order 3000000", refused(), 2, child=True),
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: ratio X=1 order 3000000": Row(
        "ratio --m 2 --n 1 --X 1 --order 3000000", refused(), 2, child=True),
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: ratio X=x order 1001": Row(
        "ratio --m 2 --n 1 --X x --order 1001", refused(), 2, child=True),
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: zerocycles X=x order 1001": Row(
        "zerocycles --m 2 --n 1 --X x --order 1001", refused(), 2, child=True),
    # the power pre-check read only the lex-leading coefficient, here 1: these ran past 20 s
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: eval (x+B)^200, B 1000 nines": Row(
        f"eval '(x+{'9' * 1000})^200'", refused(), 2, child=True),
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: eval (x+B*a+1)^200, B 1000 nines": Row(
        f"eval '(x+{'9' * 1000}*a+1)^200'", refused(), 2, child=True),
    # the table's product count was computed in full and printed: two tracebacks, then past 20 s
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: zerocycles table order 3000 nines": Row(
        f"zerocycles --m 1 --n 1 --X x --order {'9' * 3000} --table", refused(), 2, child=True),
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: zerocycles table m=10^10 order 10^5": Row(
        "zerocycles --m 10000000000 --n 1001 --X x --order 100000 --table", refused(), 2, child=True),
    "a_runaway_evaluation_or_table_exits_3_at_once_in_a_child: zerocycles table m=10^10 order 10^6": Row(
        "zerocycles --m 10000000000 --n 1001 --X x --order 1000000 --table", refused(), 2, child=True),
    # past 256 MiB this exited 1 with a 30-line MemoryError traceback; it needs past 256 MiB,
    # and an interpreter starts in 32 MiB
    "a_result_past_the_address_space_exits_3_with_one_error_line": Row(
        "symprod-series --X x+y --order 200", (3, "", "error: out of memory\n"), 2, child=True,
        address_space=96 * 2**20),
    "a_constant_series_at_the_order_limit_still_prints_in_a_child": Row(
        f"symprod-series --X 1 --order {MAX_TOTAL_DEGREE}", printed(CONSTANT_SERIES), 2, child=True),
    # the product once expanded (x - a)^k for every face size k: past 400 s with X = x + 1
    "a_product_over_a_400_vertex_facet_prints_at_once: x+1 on 400": Row(
        "polyprod --X x+1 --A a --complex facet_400_on_400.txt", printed(binomial_power("x", 400)), 2, child=True),
    "a_product_over_a_400_vertex_facet_prints_at_once: x on 401": Row(
        "polyprod --X x --A a --complex facet_400_on_401.txt", printed("x^400*a"), 2, child=True),
    # the h-numbers were once folded from the f-vector by Horner's rule, quadratic in the
    # facet: 3.4-4.3 s a verb here
    "a_verb_over_a_5000_vertex_facet_prints_at_once: config": Row(
        "config --X 1 --complex facet_5000.txt", printed("1"), 2, child=True),
    "a_verb_over_a_5000_vertex_facet_prints_at_once: polyprod": Row(
        "polyprod --X 1 --A 1 --complex facet_5000.txt", printed("1"), 2, child=True),
    "a_verb_over_a_5000_vertex_facet_prints_at_once: complement": Row(
        "complement --X 1 --A 1 --complex facet_5000.txt", printed("0"), 2, child=True),
    # the bitmask conversions and the skeleton test's C(n, s) were once quadratic in the
    # facet: polyprod took 5.6 s here
    "a_verb_over_a_200000_vertex_facet_prints_at_once: polyprod": Row(
        "polyprod --X 1 --A 1 --complex facet_200000.txt", printed("1"), 2, child=True),
    "a_verb_over_a_200000_vertex_facet_prints_at_once: complement": Row(
        "complement --X 1 --A 1 --complex facet_200000.txt", printed("0"), 2, child=True),
    # facets overlap heavily: listing the faces is cheaper
    "the_h_route_picked_prints_at_once: 150 facets of 10-14 on 20": Row(
        "polyprod --X x --A 1 --complex overlapping.txt", printed(polyprod_x_1("overlapping.txt")), 2, child=True),
    # facets barely overlap: the poset is cheaper
    "the_h_route_picked_prints_at_once: 900 facets of 10-13 on 600": Row(
        "polyprod --X x --A 1 --complex apart.txt", printed(polyprod_x_1("apart.txt")), 2, child=True),
    # each pair shares 2^23 faces, but the poset has 6 meets
    "the_h_route_picked_prints_at_once: 5 facets of 24 on a 23-vertex core": Row(
        "polyprod --X x --A 1 --complex core.txt", printed(polyprod_x_1("core.txt")), 2, child=True),
    # a mask with one bit per vertex label would take 1.25 GB; the child has 1 GiB of address space
    "an_edge_on_the_largest_label_needs_no_mask_of_its_label_size: polyprod": Row(
        "polyprod --X x --A a --complex edge_10_billion.txt",
        (3, "", "error: result would have total degree 9999999998; the limit is 1000\n"), 2, True, GIB),
    "an_edge_on_the_largest_label_needs_no_mask_of_its_label_size: config": Row(
        "config --X x --complex edge_10_billion.txt", printed("x^3"), 2, True, GIB),
    "an_edge_on_the_largest_label_needs_no_mask_of_its_label_size: complement --show-poset": Row(
        "complement --X x --A 1 --show-poset --complex edge_10_billion.txt", refused(), 2, True, GIB),
    # the labels reach 10^7 but the faces use 101 of them: work that grows with the labels shows here
    "facets_on_large_labels_print_at_once: near 10^7": Row(
        "polyprod --X x --A 1 --complex near_10_7.txt", printed(polyprod_x_1("near_10_7.txt")), 2, True, GIB),
    "facets_on_large_labels_print_at_once: near 10^7 and vertex 1": Row(
        "polyprod --X x --A 1 --complex near_10_7_and_1.txt", printed(polyprod_x_1("near_10_7_and_1.txt")), 2, True,
        GIB),
    "an_evaluation_with_terms_in_range_still_prints: a difference": Row(
        f"eval 'x^2 - y^2' --at x={SEVENS} --at y={SEVENS}", printed("0")),
    "an_evaluation_with_terms_in_range_still_prints: a square": Row(
        f"eval 'x^2 - 3' --at x={SEVENS}", printed(str(int(SEVENS) ** 2 - 3))),
    "an_evaluation_with_terms_in_range_still_prints: a power": Row(
        "eval x^100*y --at x=-3 --at y=2", printed(str(2 * 3 ** 100))),
    "show_poset_on_a_refused_complex_prints_nothing": Row(
        "config-complement --complex single.txt --X x --show-poset", refused()),
    "a_negative_cell_dimension_exits_3": Row("orbifold-euler --cells negative_cell.txt", refused()),
    "parentheses_at_the_nesting_limit_still_parse": Row(f"eval {nested(MAX_NESTING)}", printed("x")),
    "parentheses_past_the_nesting_limit_exit_3": Row(f"eval {nested(MAX_NESTING + 1)}", refused()),
    "parentheses_past_the_nesting_limit_exit_3: a class": Row("quotient --space nested_class.txt", refused()),
    "power_past_the_digit_limit_exits_3_before_multiplying": Row("eval 7^10000000", refused(), 2.0),
    # the check looks at the power, not at the printed result
    "power_past_the_digit_limit_exits_3_before_multiplying: a difference": Row("eval '7^10000 - 7^10000'", refused()),
    "power_at_the_digit_limit_still_prints": Row("eval 7^5088", printed(str(7 ** 5088))),
    "cyclic_product_of_a_large_order_is_quick": Row("cycprod --n 100000000 --X 1", printed("1"), 2.0),
    "quotient_on_a_group_past_the_order_cap_exits_3_at_once": Row("quotient --space S11.txt", refused(), 2.0),
    "a_group_degree_past_the_order_cap_exits_3_at_once: quotient": Row(
        "quotient --space degree_3000000_space.txt", refused(), 2.0),
    "a_group_degree_past_the_order_cap_exits_3_at_once: permprod": Row(
        "permprod --group degree_3000000_group.txt --X x", refused(), 2.0),
    # the chain's base is the points the generators move, not all 40320 of them
    "a_transposition_on_the_largest_degree_prints_at_once": Row("quotient --space transposition.txt", printed("x"), 2.0),
    # 40320 elements of degree 40320 would be 1.6 * 10**9 images, about 13 GB; the child
    # gets 1 GiB of address space, so code that stores them fails rather than swaps
    "a_cycle_on_the_largest_degree_is_refused_before_its_elements_are_listed": Row(
        "quotient --space long_cycle.txt", refused(), 2.0, True, GIB),
    # 40320 * (8 + 28) and 40320 * (8 + 56) images: under MAX_IMAGES, so the class prints
    "s8_on_its_subsets_prints_the_orbit_sum: 2": Row("quotient --space s8_on_2_subsets.txt", printed("x^2 + 3*y"),
                                                     child=True),
    "s8_on_its_subsets_prints_the_orbit_sum: 3": Row("quotient --space s8_on_3_subsets.txt", printed("x^2 + 3*y"),
                                                     child=True),
    # every centralizer was once scanned out of all of G for each class: 115 s for C_1000
    "a_cyclic_or_dihedral_group_on_one_stratum_prints_at_once: C_1000": Row(
        "quotient --space C1000.txt", printed("x"), 2, child=True),
    "a_cyclic_or_dihedral_group_on_one_stratum_prints_at_once: D_500": Row(
        "quotient --space D500.txt", printed("x"), 2, child=True),
    # 40320 * (8 + 1000) images pass MAX_IMAGES; unbounded, this ran 43 s and printed
    "s8_with_1000_fixed_strata_is_refused_at_once": Row(
        "quotient --space s8_1000_fixed.txt", refused(part="40320 times (degree 8 + stratum count 1000)"), 2,
        child=True),
    # the joint group passes MAX_ORDER, and that is read as |H| > |G|, not as a cap
    "s8_whose_transposition_acts_as_a_9_cycle_exits_2": Row(
        "quotient --space s8_9_cycle.txt",
        (2, "", "error: generator actions do not extend to a homomorphism (conflict at ())\n"), 2, child=True),
    "a_group_degree_at_the_order_cap_still_reads": Row("quotient --space order_cap.txt", printed("x")),
    # the least prime past the cap
    "a_cyclic_product_past_the_order_cap_exits_3_at_once": Row("cycprod --n 1000000000039 --X 1", refused(), 2.0),
    "a_prime_cyclic_order_under_the_cap_still_prints": Row("cycprod --n 999999999989 --X 1", printed("1")),
    "affine_entries_are_integers_or_fractions: 1e10000000": Row(
        "fixed-point --map exponent_entry.txt", refused(2, pattern="line 2: .*"), 2.0),
    "affine_entries_are_integers_or_fractions: 1.5": Row(
        "fixed-point --map decimal_entry.txt", refused(2, pattern="line 2: .*"), 2.0),
    "an_affine_entry_over_the_digit_limit_exits_3": Row("fixed-point --map long_entry.txt", refused()),
    "missing_verb_is_a_usage_error": Row("", (2, "", re.compile("usage: kzero .*", re.DOTALL))),
    "help_still_prints_and_exits_0": Row("eval --help", (0, re.compile(r"usage: kzero eval \[-h\].*", re.DOTALL), ""),
                                         child=True),
    "a_fat_wedge_past_the_degree_limit_exits_3_at_once: X=1": Row("fatwedge --n 100000 --d 50000 --X 1", refused(), 2),
    "a_fat_wedge_past_the_degree_limit_exits_3_at_once: X=x": Row("fatwedge --n 100000 --d 50000 --X x", refused(), 2),
    "a_fat_wedge_with_a_runaway_n_exits_3_at_once": Row(
        f"fatwedge --n {10 ** 20} --d 1000 --X x", (3, "", f"error: {TOO_MANY_DIGITS}\n"), 2),
    # with X = x + 1 the class is 1 + n x + C(n, 2) x^2; C(n, 2) has MAX_DIGITS digits
    # at n = 10^2150 and one more at twice that n, where the rendering would refuse it
    "a_fat_wedge_with_a_runaway_n_exits_3_at_once: C(n, 2) at the digit limit": Row(
        f"fatwedge --n {BIG_N} --d 2 --X x+1", printed(f"{BIG_N * (BIG_N - 1) // 2}*x^2 + {BIG_N}*x + 1")),
    "a_fat_wedge_with_a_runaway_n_exits_3_at_once: C(n, 2) past the digit limit": Row(
        f"fatwedge --n {2 * BIG_N} --d 2 --X x+1", (3, "", f"error: {TOO_MANY_DIGITS}\n")),
    # past the degree cap the error is the one of the first power (x^2 - 1)^501 past it
    "a_fat_wedge_with_a_runaway_n_exits_3_at_once: past the degree cap": Row(
        f"fatwedge --n {10 ** 4000} --d 600 --X x^2",
        (3, "", f"error: result would have total degree 1002; the limit is {MAX_TOTAL_DEGREE}\n"), 2),
    "a_fat_wedge_at_the_degree_limit_still_prints": Row(
        f"fatwedge --n {MAX_TOTAL_DEGREE} --d {MAX_TOTAL_DEGREE} --X 2", printed(str(2 ** MAX_TOTAL_DEGREE))),
    "a_fat_wedge_at_the_degree_limit_still_prints: d past the limit": Row(
        f"fatwedge --n {MAX_TOTAL_DEGREE + 1} --d {MAX_TOTAL_DEGREE + 1} --X 2",
        (3, "", f"error: fatness index d={MAX_TOTAL_DEGREE + 1}; the limit is {MAX_TOTAL_DEGREE}\n")),
    # one facet is two poset nodes; listing its 2^24 faces took past 8 s
    "one_facet_on_24_vertices_is_quick: polyprod": Row(
        "polyprod --complex facet_24.txt --X y+1 --A 1", printed(binomial_power("y", 24)), 2, child=True),
    "one_facet_on_24_vertices_is_quick: complement": Row(
        "complement --complex facet_24.txt --X y+1 --A 1", printed(binomial_power("y", 24, shift=1)), 2, child=True),
    "quotient_on_a_group_of_degree_zero_exits_2": Row("quotient --space degree_0_space.txt",
                                                      refused(2, pattern="line 2: .*")),
    # a file that is not UTF-8 gave a UnicodeDecodeError traceback, /dev/zero a MemoryError one
    # under 256 MiB, and /dev/urandom was still being read at 5 s
    **{f"a_file_that_is_not_utf8_or_never_ends_is_refused_in_a_child: {verb} {path}": Row(
        file_line(verb, path), want, 2, True, GIB)
       for verb in FILE_VERBS for path, want in (
           ("utf16.txt", refused(2, pattern=".*/utf16\\.txt is not UTF-8: invalid start byte at byte 0")),
           ("/dev/zero", (3, "", f"error: /dev/zero is longer than the limit of {MAX_FILE_BYTES} bytes\n")),
           ("/dev/urandom", (3, "", f"error: /dev/urandom is longer than the limit of {MAX_FILE_BYTES} bytes\n")),
       )},
    "every_verb_has_a_refusal_row: quotient-descriptor": Row(
        "quotient-descriptor --descriptor bad_descriptor.txt", refused(2, pattern="line 2: .*")),
    "every_verb_has_a_refusal_row: crystal": Row("crystal --descriptor bad_classes.txt", refused(2, pattern="line 2: .*")),
}
"""Every single-run check of a verb: its shell line and the (exit code, stdout, stderr) it
must give, each a text, a pattern that matches all of it or a function that gives the text;
then the seconds the run must end within, whether it runs in a child, and that child's
address space."""


def check(want: tuple, got: tuple) -> None:
    """Assert that the outcome ``got`` is the ``want`` of a row."""
    want = [w() if callable(w) else w for w in want]
    # a pattern that matches stands in for the text, so a failure shows each side in full
    assert [g if isinstance(w, re.Pattern) and w.fullmatch(g) else w for w, g in zip(want, got)] == list(got)


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """Run a row once, for all the tests that read it; return its seconds and its (exit
    code, stdout, stderr).  ``FILES`` are written once, into one folder."""
    folder = tmp_path_factory.mktemp("inputs")
    for name, text in FILES.items():
        (folder / name).write_bytes(text if isinstance(text, bytes) else text.encode())

    @functools.cache
    def run(name):
        row = CONTRACT[name]
        argv = [str(folder / arg) if arg.endswith(".txt") else arg for arg in shlex.split(row.line)]
        if row.child:
            seconds, proc = run_child(["-W", "default", "-m", "kzero.cli", *argv], timeout=60,
                                      address_space=row.address_space)
            return seconds, (proc.returncode, proc.stdout, proc.stderr)
        start = time.perf_counter()
        got = run_main(argv)
        return time.perf_counter() - start, got

    return run


@pytest.mark.parametrize("name", CONTRACT)
def test_a_run_gives_the_outcome_of_its_row(name, ran):
    check(CONTRACT[name].want, ran(name)[1])


@pytest.mark.parametrize("name", [name for name, row in CONTRACT.items() if row.seconds])
def test_a_run_ends_within_the_seconds_of_its_row(name, ran):
    seconds = ran(name)[0]
    assert seconds < CONTRACT[name].seconds, f"{seconds:.2f} s"


@pytest.mark.parametrize("verb", cli.VERBS)
def test_every_verb_has_a_row_that_succeeds_and_one_that_is_refused(verb):
    codes = {row.want[0] for row in CONTRACT.values() if shlex.split(row.line)[:1] == [verb]}
    assert 0 in codes and codes & {2, 3}


def test_the_rows_inputs_sit_on_the_side_of_each_cap_their_comments_say():
    assert MAX_ORDER * MAX_ORDER > MAX_IMAGES  # the cycle on the largest degree
    assert 40320 * (8 + 57) <= MAX_IMAGES  # S_8 on its 2- or 3-subsets
    assert 40320 * (8 + 1000) > MAX_IMAGES  # S_8 with 1000 fixed strata
    assert 1000000000039 > MAX_CYCLIC_ORDER
    assert len(str(7 ** 5088)) == MAX_DIGITS


def test_quotient_route_disagreement_exits_4_with_every_value(monkeypatch, tmp_path):
    import kzero.quotients

    monkeypatch.setattr(kzero.quotients, "burnside_class", lambda space: ClassPoly.const(7))
    path = tmp_path / "space.txt"
    path.write_text(INPUTS["space.txt"])
    assert run_main(["quotient", "--space", str(path)]) == (
        4, "", "error: quotient routes disagree: centralizer sum 1, Burnside 7, orbit sum 1\n")


def test_permprod_refuses_degree_nine_before_generating(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the group was generated before the degree check")

    monkeypatch.setattr(PermGroup, "generate", fail)
    path = tmp_path / "S9.txt"
    path.write_text("degree=9\ngen (1 2)\ngen (1 2 3 4 5 6 7 8 9)\n")
    check(refused(), run_main(["permprod", "--group", str(path), "--X", "x"]))


LARGE_LABEL_ARGVS = {
    "polyprod": ["polyprod", "--X", "x", "--A", "1"],
    "complement": ["complement", "--X", "2", "--A", "5"],
    "complement --show-poset": ["complement", "--X", "2", "--A", "5", "--show-poset"],
    "complement --show-poset, printed": ["complement", "--X", "1", "--A", "1", "--show-poset"],
}


@pytest.mark.parametrize("n", [10**6, 10**7])
@pytest.mark.parametrize("name", LARGE_LABEL_ARGVS)
def test_a_facet_on_the_largest_labels_runs_as_fast_as_on_the_smallest(tmp_path, name, n):
    # reading a vertex set off its bitmask once shifted the whole mask at every bit
    # position below the top vertex: 20 s a verb at n = 10^6
    runs = []
    for first in (n - 13, 1):
        path = tmp_path / f"facet_{first}.txt"
        path.write_text(facet(n, first, 14))
        runs.append(kzero_child(*LARGE_LABEL_ARGVS[name], "--complex", str(path), timeout=30))
    (seconds, top), (_, low) = runs
    assert seconds < 2, f"{seconds:.2f} s"
    if "printed" not in name:
        assert top == low
    else:  # the poset names the facet's own vertices
        assert (top[0], top[1].splitlines()[-1], top[2]) == (0, low[1].splitlines()[-1], "")
        assert "{" + ",".join(map(str, range(n - 13, n + 1))) + "}" in top[1]


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
def test_the_parser_exits_with_each_case_code(argv, code):
    assert parsed(cli.build_parser(), argv)[0] == code


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


def test_main_builds_the_parser_only_for_a_usage_error(monkeypatch, capsys):
    built = count_add_parser(monkeypatch)
    assert run_main(["cycprod", "--n", "3", "--X", "x"]) == (0, "1/3*x^3 + 2/3*x\n", "")
    assert built == []  # a plain argv is read off the verb table
    with pytest.raises(SystemExit) as exc:
        main(["cycprod", "--n", "abc", "--X", "x"])
    assert exc.value.code == 2
    assert built == list(cli.VERBS) and len(built) == 16


@pytest.mark.parametrize("argv", [["--help"], ["nosuch", "x"]])
def test_help_and_an_unknown_verb_build_every_parser(monkeypatch, capsys, argv):
    built = count_add_parser(monkeypatch)
    with pytest.raises(SystemExit):
        main(argv)
    assert built == list(cli.VERBS) and len(built) == 16


@pytest.mark.parametrize("argv, code", parser_cases(), ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_the_table_reader_reads_as_argparse(argv, code, monkeypatch, tmp_path):
    read = cli.read_argv(argv)
    assert read is None or vars(read) == parsed(cli.build_parser(), argv)[1]
    assert (read is not None) == (code == 0 and "-h" not in argv)
    monkeypatch.chdir(tmp_path)  # the valid argvs name input files that do not exist here
    by_table = run_main(argv)
    monkeypatch.setattr(cli, "read_argv", lambda argv: None)
    assert run_main(argv) == by_table


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
    with closed_pipe() as stdout:  # the reader is gone before the child writes
        code, _, err = kzero_child("eval", "(x+1)^300", stdout=stdout, env={"PYTHONUNBUFFERED": unbuffered})[1]
    assert (code, err) == (1, "")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_output_to_a_full_device_exits_1_with_one_error_line(unbuffered):
    with open("/dev/full", "wb") as full:  # every write fails with ENOSPC
        code, _, err = kzero_child("eval", "x+1", stdout=full.fileno(), env={"PYTHONUNBUFFERED": unbuffered})[1]
    assert (code, err) == (1, "error: cannot write the output: No space left on device\n")


HELP_ARGVS = [["--help"], ["eval", "--help"]]


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_help_to_a_full_device_exits_1_with_one_error_line(argv, unbuffered):
    # argparse ignores a failed write of its own, so the help goes through the verbs' write path
    with open("/dev/full", "wb") as full:
        code, _, err = kzero_child(*argv, stdout=full.fileno(), env={"PYTHONUNBUFFERED": unbuffered})[1]
    assert (code, err) == (1, "error: cannot write the output: No space left on device\n")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_usage_error_with_stdout_on_a_full_device_still_exits_2(unbuffered):
    # argparse writes nothing on stdout here, and a write of nothing to /dev/full fails too
    with open("/dev/full", "wb") as full:
        code, _, err = kzero_child("cycprod", "--n", "abc", "--X", "x", stdout=full.fileno(),
                                   env={"PYTHONUNBUFFERED": unbuffered})[1]
    assert code == 2 and err.startswith("usage: kzero cycprod") and "invalid int value: 'abc'" in err


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_help_to_a_closed_pipe_exits_1_with_empty_stderr(argv, unbuffered):
    with closed_pipe() as stdout:
        code, _, err = kzero_child(*argv, stdout=stdout, env={"PYTHONUNBUFFERED": unbuffered})[1]
    assert (code, err) == (1, "")


ERROR_ARGVS = {
    "exit 2, a parse error": (["eval", "x+"], 2),
    "exit 2 from argparse": (["cycprod", "--n", "abc", "--X", "x"], 2),
    "exit 3": (["eval", "x+a", "--at", "x=1"], 3),
}


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("name", ERROR_ARGVS)
def test_the_exit_code_holds_when_stderr_cannot_take_the_error_line(name, unbuffered):
    argv, want = ERROR_ARGVS[name]
    with open("/dev/full", "wb") as full:
        proc = run_child(["-m", "kzero.cli", *argv], timeout=60, stderr=full.fileno(),
                         env={"PYTHONUNBUFFERED": unbuffered})[1]
    assert (proc.returncode, proc.stdout) == (want, "")


ENTRIES = {
    "python -m": "import runpy; runpy.run_module('kzero.cli', run_name='__main__', alter_sys=True)",
    "main()": "import sys; from kzero.cli import main; sys.exit(main())",
}
"""The two ways a process enters kzero, as ``python -c`` code that other code can precede:
``python -m kzero.cli``, and the console script, which calls ``main()``."""

LIBRARY_CALL = "import sys; from kzero.cli import main; sys.exit(main(sys.argv[1:]))"
"""``main`` with an argv, which returns its code to an interpreter that exits as usual."""

ENTRY_ARGVS = {
    "exit 0": (["eval", "(x+1)^3"], 0),
    "exit 2, a parse error": (["eval", "x+"], 2),
    "exit 2 from argparse": (["cycprod", "--n", "abc", "--X", "x"], 2),
    "exit 3": (["eval", "x+a", "--at", "x=1"], 3),
}


def entry_child(code: str, *args: str, **options) -> tuple[int, str | None, str]:
    """(exit code, stdout, stderr) of ``python -c code args``, run by ``run_child`` with its
    ``options``."""
    proc = run_child(["-c", code, *args], timeout=60, **options)[1]
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("name", ENTRY_ARGVS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_the_process_entry_gives_the_output_of_main_with_an_argv(entry, name):
    argv, code = ENTRY_ARGVS[name]
    returned = entry_child(LIBRARY_CALL, *argv)
    assert returned[0] == code
    assert entry_child(ENTRIES[entry], *argv) == returned


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_process_entry_on_a_closed_pipe_gives_the_output_of_main_with_an_argv(entry):
    results = []
    for code in (LIBRARY_CALL, ENTRIES[entry]):
        with closed_pipe() as stdout:
            results.append(entry_child(code, "eval", "(x+1)^300", stdout=stdout))
    assert results[0] == results[1] == (1, None, "")


ATEXIT_REPORT = "import atexit, sys; atexit.register(lambda: print('atexit ran', file=sys.stderr)); "
"""Child code that reports on stderr when the interpreter runs its ``atexit`` hooks."""


@pytest.mark.parametrize("waiting", ["nothing", "a tracer", "python -i"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_atexit_hooks_run_only_when_something_waits_for_the_interpreter_exit(entry, waiting):
    # the process entry ends at os._exit, which runs no atexit hook, unless a tracer,
    # a profiler or an interactive prompt needs the interpreter's own exit
    flags = ["-i"] if waiting == "python -i" else []
    tracer = "sys.settrace(lambda *event: None); " if waiting == "a tracer" else ""
    proc = run_child([*flags, "-c", ATEXIT_REPORT + tracer + ENTRIES[entry], "eval", "(x+1)^3"], timeout=60)[1]
    assert proc.stdout == "x^3 + 3*x^2 + 3*x + 1\n"
    assert ("atexit ran\n" in proc.stderr) == (waiting != "nothing")
    if waiting == "nothing":
        assert (proc.returncode, proc.stderr) == (0, "")


def test_a_profiled_verb_prints_its_result_and_the_profile():
    proc = run_child(["-m", "cProfile", "-m", "kzero.cli", "eval", "x"], timeout=60)[1]
    result, _, profile = proc.stdout.partition("\n")
    assert (proc.returncode, result, proc.stderr) == (0, "x", "")
    assert "function calls" in profile and "ncalls" in profile
