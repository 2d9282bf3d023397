"""The rules every input file format shares: comments, blank lines, line-numbered errors."""

import pytest

from kzero.classpoly import MAX_DIGITS, PolyTooLargeError
from kzero.discrete import (
    parse_affine_map_text,
    parse_cells_text,
    parse_descriptor_text,
    parse_isometry_classes_text,
)
from kzero.errors import GSpaceFormatError, InputSyntaxError
from kzero.permgroups import parse_group_generators
from kzero.quotients import parse_gspace_text
from kzero.simplicial import ComplexFormatError, SimplicialComplex

GSPACE = (
    "stratum p1 class=1\n"
    "stratum p2 class=1\n"
    "stratum arc1 class=-1\n"
    "stratum arc2 class=-1\n"
    "group degree=2\n"
    "gen (1 2)\n"
    "action 1 arc1->arc2 arc2->arc1\n"
)


def gspace_key(space):
    """Everything a parsed G-space holds, as a comparable value."""
    group = space.group
    return space.labels, space.classes, group.elements, tuple(space.action_of(g) for g in group)


# format -> (parser, comparable value of a result or None, the format's error class, a valid file)
FORMATS = {
    "group": (parse_group_generators, None, InputSyntaxError, "degree=3\ngen (1 2)\ngen (2 3)\n"),
    "complex": (SimplicialComplex.from_text, None, ComplexFormatError, "n=4\n1,2,3\n3,4\n"),
    "gspace": (parse_gspace_text, gspace_key, GSpaceFormatError, GSPACE),
    "descriptor": (
        parse_descriptor_text, None, GSpaceFormatError, "id c=2 class=1\nid c=1 class=-1\nt1 c=2 class=x\n"
    ),
    "isometry": (parse_isometry_classes_text, None, GSpaceFormatError, "r1 c=2\nr2 c=3\n"),
    "cells": (parse_cells_text, None, GSpaceFormatError, "0 2\n1 1\n0 2\n"),
    "affine": (parse_affine_map_text, None, GSpaceFormatError, "dim=2\nrow 0 -1\nrow 1 0\nt 1/2 0\n"),
}

# (format, file, index of its bad line among the file's lines)
BAD_FIELDS = [
    ("group", "degree=x\n", 0),
    ("group", "degree=0\n", 0),
    ("group", "degree=3\ngen (1 2)\ngen (1 4)\n", 2),
    ("complex", "n=q\n", 0),
    ("complex", "n=4\n1,2\n1,x\n", 2),
    ("complex", "n=-1\n", 0),
    ("gspace", "stratum p class=x+\ngroup degree=1\n", 0),
    ("gspace", "stratum p class=1\ngroup degree=0\n", 1),
    ("gspace", "stratum p class=1\ngroup degree=-3\n", 1),
    ("gspace", "stratum p class=1\ngroup degree=2\ngen (1 3)\n", 2),
    ("gspace", "stratum p class=1\ngroup degree=2\ngen (1 2)\naction ² \n", 3),
    ("gspace", "stratum p class=1\ngroup degree=2\ngen (1 2)\ngroup degree=3\n", 3),
    ("gspace", "stratum a class=1\nstratum b class=1\ngroup degree=2\ngen (1 2)\naction 1 a->b a->a\n", 4),
    ("descriptor", "id c=2 class=1\nid c=two class=1\n", 1),
    ("descriptor", "id c=2 class=1\nid c=1 class=(x\n", 1),
    ("isometry", "r1 c=2\nr2 c=x\n", 1),
    ("cells", "0 2\n1 q\n", 1),
    ("affine", "dim=x\n", 0),
    ("affine", "dim=2\nrow 0 -1\nrow 1 q\nt 0 0\n", 2),
    ("affine", "dim=2\nrow 0 -1\nrow 1 1/0\nt 0 0\n", 2),
    ("affine", "dim=1\nfoo 1\n", 1),
]


def decorated(bare: str) -> str:
    """The file with a full-line comment and a blank line first, and each line
    indented, given a trailing comment and followed by a blank line."""
    lines = ["# a full-line comment", ""]
    for line in bare.splitlines():
        lines += [f"  {line}  # a trailing comment", "   "]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", FORMATS)
def test_comments_and_blank_lines_are_ignored(name):
    parse, key, _, bare = FORMATS[name]
    key = key or (lambda value: value)
    assert key(parse(decorated(bare))) == key(parse(bare))


@pytest.mark.parametrize("name, bare, index", BAD_FIELDS)
def test_a_bad_field_names_its_line_in_the_format_error(name, bare, index):
    parse, _, error, _ = FORMATS[name]
    for text, lineno in ((bare, index + 1), (decorated(bare), 3 + 2 * index)):
        with pytest.raises(InputSyntaxError) as info:
            parse(text)
        assert type(info.value) is error
        assert str(info.value).startswith(f"line {lineno}: ")


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_gspace_text, "stratum p class={}\ngroup degree=1\n"),
        (parse_descriptor_text, "id c=1 class={}\n"),
    ],
)
def test_a_literal_over_the_digit_limit_is_still_a_precondition(parse, text):
    with pytest.raises(PolyTooLargeError):
        parse(text.format("7" * (MAX_DIGITS + 1)))
