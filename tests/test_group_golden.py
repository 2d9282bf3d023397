"""Golden gate for the group layer: classes, refusals and CLI output stay byte-identical.

``tests/data/group_golden.json`` holds, for every entry of a fixed corpus, one
sha256 over ``main``'s exit code, stdout and stderr for the entry's argvs, and
for a group or a G-space one more over what the library computes from it: the
order, the conjugacy classes with their centralizer orders and the quotient
classes of a group; the orbits, the action of every element and the three
quotient routes of a G-space.  The verbs are ``permprod``, ``cycprod``,
``quotient`` and the four ``discrete`` verbs.  The corpus is the named groups
S_n, A_n, C_n and D_n of degree n <= 7, each on its k-subsets when n <= 5,
fixed ``random_subgroup`` and ``random_gspace`` seeds, and one input for each
refusal.  No argv is an argparse usage error, whose text follows the terminal
width.  Regenerate it only after a deliberate change to an output:

    PYTHONPATH=src python tests/test_group_golden.py --write

which prints the name and kind of every entry whose digest changed, for review.
"""

from __future__ import annotations

import json
import random
import tempfile
from math import isqrt
from pathlib import Path
from typing import Iterator

from kzero.classpoly import parse_poly
from kzero.permgroups import MAX_IMAGES, MAX_ORDER, PermGroup, Permutation
from kzero.products import MAX_CYCLIC_ORDER, burnside_quotient_class, permutation_product_class
from kzero.quotients import StratifiedGSpace, burnside_class, centralizer_sum_class, orbit_sum_class
from util import (
    centralizer, check_golden, digest, named_generators, random_gspace, random_subgroup, run_main, subset_space,
    write_golden,
)

GOLDEN = Path(__file__).parent / "data" / "group_golden.json"

X_CLASSES = ["x", "x+1", "2*x-a"]
"""X for ``permprod`` and ``cycprod``, and for the library's quotient classes."""


def _both(value) -> str:
    """``str`` and ``latex`` of a class."""
    return f"{value}\n{value.latex()}"


def group_text(degree: int, gens: list[Permutation]) -> str:
    return f"degree={degree}\n" + "".join(f"gen {g}\n" for g in gens)


def group_lines(degree: int, gens: list[Permutation]) -> list[str]:
    G = PermGroup(degree, gens)
    lines = [f"order {G.order}"]
    lines += [f"class {rep} {len(members)} {len(centralizer(G, rep))}" for rep, members in G.conjugacy_classes()]
    for x in X_CLASSES:
        p = parse_poly(x)
        lines.append(f"permprod {x}: " + _both(permutation_product_class(G, p)))
        lines.append(f"burnside {x}: " + _both(burnside_quotient_class(G, p)))
    return lines


def gspace_text(space: StratifiedGSpace) -> str:
    labels = space.labels
    lines = [f"stratum {label} class={cls}" for label, cls in zip(labels, space.classes)]
    lines.append(f"group degree={space.group.degree}")
    lines += [f"gen {g}" for g in space.group.generators]
    for k, g in enumerate(space.group.generators, start=1):
        moves = [f"{labels[i]}->{labels[j - 1]}" for i, j in enumerate(space.action_of(g)) if j != i + 1]
        lines.append(" ".join([f"action {k}", *moves]))
    return "\n".join(lines) + "\n"


def gspace_lines(space: StratifiedGSpace) -> list[str]:
    lines = [" ".join(space.labels), repr(space.orbits())]
    lines += [f"{g} -> {space.action_of(g)}" for g in space.group]
    for route in (orbit_sum_class, burnside_class, centralizer_sum_class):
        lines.append(f"{route.__name__}: " + _both(route(space)))
    return lines


NAMED_GROUPS = [(kind, n) for n in range(1, 8) for kind in "SACD" if n >= 3 or kind in "SC"]
"""(kind, degree) of S_n and C_n for n <= 7, and of A_n and D_n for 3 <= n <= 7."""

SUBSET_SPACES = [(kind, n, k) for kind, n in NAMED_GROUPS if n <= 5 for k in range(1, min(n, 3))]
SUBSET_SPACES += [("C", 6, 2), ("D", 6, 2), ("C", 7, 3)]
"""(kind, degree, k) of the k-subset spaces."""


def permprod_argvs() -> list[list[str]]:
    return [["permprod", "--group", "FILE", "--X", x] for x in X_CLASSES] + [
        ["permprod", "--group", "FILE", "--X", "x", "--latex"]]


QUOTIENT_ARGVS = [["quotient", "--space", "FILE"], ["quotient", "--space", "FILE", "--latex"]]

REFUSED_SPACES = {
    "order past MAX_ORDER": "stratum a class=1\ngroup degree=9\ngen (1 2)\ngen (1 2 3 4 5 6 7 8 9)\n",
    "degree past MAX_ORDER": f"stratum a class=1\ngroup degree={MAX_ORDER + 1}\ngen (1 2)\n",
    "images past MAX_IMAGES": f"stratum a class=1\ngroup degree={isqrt(MAX_IMAGES) + 1}\ngen ("
                              + " ".join(map(str, range(1, isqrt(MAX_IMAGES) + 2))) + ")\n",
    "not a homomorphism": "stratum a class=x\nstratum b class=x\ngroup degree=3\ngen (1 2 3)\naction 1 a->b b->a\n",
    "unequal classes in an orbit": "stratum a class=x\nstratum b class=y\ngroup degree=2\ngen (1 2)\n"
                                   "action 1 a->b b->a\n",
    "unknown label": "stratum a class=x\ngroup degree=2\ngen (1 2)\naction 1 a->c\n",
    "not a permutation": "stratum a class=x\nstratum b class=x\ngroup degree=2\ngen (1 2)\naction 1 a->b\n",
    "mapping without an arrow": "stratum a class=x\ngroup degree=2\ngen (1 2)\naction 1 a\n",
    "second action line": "stratum a class=x\ngroup degree=2\ngen (1 2)\naction 1\naction 1\n",
    "label mapped twice": "stratum a class=x\nstratum b class=x\ngroup degree=2\ngen (1 2)\n"
                          "action 1 a->b a->a\n",
    "action for no generator": "stratum a class=x\ngroup degree=2\ngen (1 2)\naction 2 a->a\n",
    "one action for two generators": "stratum a class=x\nstratum b class=x\ngroup degree=3\ngen (1 2)\n"
                                     "gen (2 3)\naction 1 a->b b->a\n",
    "no strata": "group degree=2\ngen (1 2)\n",
    "repeated label": "stratum a class=x\nstratum a class=x\ngroup degree=1\n",
    "no group": "stratum a class=x\n",
    "bad class": "stratum a class=x+\ngroup degree=1\n",
    "bad generator": "stratum a class=x\ngroup degree=2\ngen (1 3)\n",
    "unrecognized line": "stratum p class=1\nwhat\n",
}

REFUSED_GROUPS = {
    "degree past MAX_DEGREE": group_text(9, named_generators("C", 9)),
    "unclosed cycle": "degree=3\ngen (1 2\n",
    "no degree": "gen (1 2)\n",
    "degree 0": "degree=0\n",
    "degree past MAX_ORDER": f"degree={MAX_ORDER + 1}\ngen (1 2)\n",
    "repeated entry": "degree=3\ngen (1 2 1)\n",
}

DISCRETE = {
    "quotient-descriptor": ("--descriptor", [
        ("rows", "g0 c=1 class=x\ng1 c=2 class=x^2+a\ng0b c=6 class=3*x-1\n", True),
        ("no rows", "# nothing\n", True),
        ("order 0", "g c=0 class=x\n", False),
        ("negative order", "g c=-2 class=x\n", False),
        ("bad line", "g class=x\n", False),
        ("bad class", "g c=1 class=x^\n", False),
        ("bad order", "g c=two class=x\n", False),
    ]),
    "orbifold-euler": ("--cells", [
        ("cells", "0 1\n1 2\n2 6\n1 4\n", False),
        ("no cells", "\n", False),
        ("negative dimension", "-1 2\n", False),
        ("stabilizer 0", "0 0\n", False),
        ("bad line", "0 1 2\n", False),
        ("bad integer", "0 x\n", False),
    ]),
    "crystal": ("--descriptor", [
        ("integral", "c0 c=4\nc1 c=4\nc2 c=2\n", False),
        ("not integral", "c0 c=3\nc1 c=2\n", False),
        ("no classes", "\n", False),
        ("order 0", "c0 c=0\n", False),
        ("bad line", "c0\n", False),
        ("bad order", "c0 c=1/2\n", False),
    ]),
    "fixed-point": ("--map", [
        ("unique", "dim=2\nrow 2 1\nrow 0 3\nt 1 -1\n", False),
        ("not unique", "dim=2\nrow 1 0\nrow 0 1/2\nt 1 1\n", False),
        ("fractions", "dim=3\nrow 1/2 0 1\nrow 0 -3/4 0\nrow 2 0 5\nt 0 0 7/3\n", False),
        ("dim 0", "dim=0\nt\n", False),
        ("too few entries", "dim=2\nrow 1\nrow 0 1\nt 1 1\n", False),
        ("no t line", "dim=1\nrow 2\n", False),
        ("a variable entry", "dim=1\nrow x\nt 1\n", False),
        ("bad kind", "dim=1\nrow 2\nu 1\n", False),
        ("no dim", "row 2\n", False),
    ]),
}
"""Per discrete verb: its file option and (name, file text, whether to add ``--latex``)."""


def corpus() -> Iterator[tuple[str, str | None, list[list[str]], list[str] | None]]:
    """Yield (name, input file text or None, argvs with ``FILE`` for the file, and the
    library lines or None) for every golden entry."""
    for kind, n in NAMED_GROUPS:
        gens = named_generators(kind, n)
        yield f"{kind}{n}", group_text(n, gens), permprod_argvs(), group_lines(n, gens)
    for kind, n, k in SUBSET_SPACES:
        space = subset_space(kind, n, k)
        yield f"{kind}{n} on {k}-subsets", gspace_text(space), QUOTIENT_ARGVS, gspace_lines(space)
    for seed in range(12):
        n = 3 + seed % 5
        gens = list(random_subgroup(random.Random(seed), n).generators)
        yield f"random subgroup {seed}", group_text(n, gens), permprod_argvs(), group_lines(n, gens)
    for seed in range(12):
        space = random_gspace(random.Random(seed))
        yield f"random gspace {seed}", gspace_text(space), QUOTIENT_ARGVS, gspace_lines(space)
    yield "S8 at MAX_ORDER", group_text(8, named_generators("S", 8)), permprod_argvs(), None
    for name, text in REFUSED_GROUPS.items():
        yield f"permprod refused: {name}", text, permprod_argvs()[:1], None
    for name, text in REFUSED_SPACES.items():
        yield f"quotient refused: {name}", text, QUOTIENT_ARGVS[:1], None
    for n in (1, 2, 6, 12, 97, 360, MAX_CYCLIC_ORDER, 0, -3, MAX_CYCLIC_ORDER + 39):
        argvs = [["cycprod", "--n", str(n), "--X", x] for x in X_CLASSES]
        yield f"cycprod {n}", None, argvs + [["cycprod", "--n", str(n), "--X", "x", "--latex"]], None
    yield "cycprod bad class", None, [["cycprod", "--n", "4", "--X", "x+"]], None
    for verb, (option, cases) in DISCRETE.items():
        for name, text, latex in cases:
            argvs = [[verb, option, "FILE"]] + ([[verb, option, "FILE", "--latex"]] if latex else [])
            yield f"{verb} {name}", text, argvs, None
        yield f"{verb} missing file", None, [[verb, option, "FILE"]], None


def cli_lines(text: str | None, argvs: list[list[str]], path: Path) -> list[str]:
    """``main``'s exit code, stdout and stderr for each argv, ``FILE`` being ``path``
    holding ``text``; the path reads as ``FILE`` again in the output."""
    if text is not None:
        path.write_text(text)
    elif path.exists():
        path.unlink()
    lines = []
    for argv in argvs:
        code, *outputs = run_main([str(path) if a == "FILE" else a for a in argv])
        lines.append(json.dumps([argv, code, *(s.replace(str(path), "FILE") for s in outputs)]))
    return lines


def digests() -> dict[str, dict[str, str]]:
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text, argvs, library in corpus():
            assert name not in table, name
            table[name] = {"cli": digest(*cli_lines(text, argvs, Path(tmp) / "input.txt"))}
            if library is not None:
                table[name]["library"] = digest(*library)
    return table


def test_group_layer_matches_golden_digests():
    check_golden(GOLDEN, digests())


if __name__ == "__main__":
    write_golden(GOLDEN, digests)
