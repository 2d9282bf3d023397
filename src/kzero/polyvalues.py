"""The exchange of class polynomials with Python values, and the ``eval`` verb.

The validating constructor ``ClassPoly(variables, terms)``, ``ClassPoly.terms``
and ``ClassPoly.evaluate`` keep their signatures in :mod:`kzero.classpoly`;
each imports its body from here on its first call, as ``_ratio`` imports
``fractions``.  No ring operation and no verb but ``eval`` runs any of it, so
the other verbs' jobs do not compile it.

The constructor builds its class by the ring's own operations: one
``ClassPoly.var`` per variable, which checks the name, powers of those for each
monomial, and one :func:`~kzero.classpoly.sum_of_products` over the (monomial,
coefficient) pairs.  It writes the stored form, numerators keyed by packed
monomials over one denominator, that ``terms`` and ``evaluate`` read back.
"""

from __future__ import annotations

import math
from functools import cache
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .classpoly import (
    MAX_DIGITS, MAX_TOTAL_DEGREE, SLOT_MASK, ClassPoly, MissingVariableError, PolyTooLargeError, parse_poly,
    render, scalar_pair, slot_shifts, sum_of_products,
)
from .errors import InputSyntaxError, read_field

if TYPE_CHECKING:
    from fractions import Fraction
    from types import SimpleNamespace

_VALUE_BITS = (10 ** MAX_DIGITS).bit_length()
"""The bit bound of ``evaluate``: a term whose bound passes it is refused before any power."""


def construct(poly: ClassPoly, variables: Iterable[str], terms: Mapping | None) -> None:
    """The body of ``ClassPoly(variables, terms)``: store in ``poly`` the sum of the terms."""
    vs = tuple(variables)
    xs = [ClassPoly.var(v) for v in vs]  # checks each name
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate variable name")
    power = cache(pow)  # each variable's powers are taken once
    monomials = []
    for e, c in (terms or {}).items():
        e = tuple(e)
        if (len(e) != len(vs) or not all(isinstance(k, int) and k >= 0 for k in e)
                or sum(e) > MAX_TOTAL_DEGREE):
            raise ValueError(f"bad exponent vector {e!r} for variables {vs!r}")
        monomials.append((math.prod(map(power, xs, e), start=ClassPoly.one()), ClassPoly.const(c)))
    p = sum_of_products(monomials)
    poly._vars, poly._terms, poly._den = p._vars, p._terms, p._den


def _exponents(key: int, n: int) -> list[int]:
    """The exponent vector that ``key`` packs over ``n`` variables."""
    return [key >> s & SLOT_MASK for s in slot_shifts(n)]


def terms(poly: ClassPoly) -> Iterator[tuple[dict[str, int], Fraction]]:
    """The body of ``poly.terms()``."""
    from fractions import Fraction

    for k in sorted(poly._terms, reverse=True):
        exponents = _exponents(k, len(poly._vars))
        yield {v: e for v, e in zip(poly._vars, exponents) if e}, Fraction(poly._terms[k], poly._den)


def value(poly: ClassPoly, assignment: Mapping) -> ClassPoly:
    """``poly.evaluate(assignment)`` as a constant class, read without ``fractions``: the
    terms summed over one common denominator, ``poly``'s times each value's denominator to
    the highest power its variable takes."""
    missing = [v for v in poly._vars if v not in assignment]
    if missing:
        raise MissingVariableError(f"no value assigned to {', '.join(missing)}")
    pairs = [scalar_pair(assignment[v], f"the value of {v}") for v in poly._vars]
    bits = [max(abs(n), d).bit_length() for n, d in pairs]
    rows = [(_exponents(k, len(pairs)), c) for k, c in poly._terms.items()]
    for e, c in rows:
        if max(abs(c), poly._den).bit_length() + sum(map(mul, e, bits)) > _VALUE_BITS:
            raise PolyTooLargeError(f"a term of the value may pass {MAX_DIGITS} digits")
    tops = [max(column) for column in zip(*(e for e, _ in rows))]
    total = 0
    for e, c in rows:
        for (n, d), k, top in zip(pairs, e, tops):
            c *= n ** k * d ** (top - k)
        total += c
    return ClassPoly.const(total) / (poly._den * math.prod(d ** top for (_, d), top in zip(pairs, tops)))


# -- command line ----------------------------------------------------------------


def cmd_eval(args: SimpleNamespace) -> None:
    poly = parse_poly(args.expr)
    if args.at:
        assignment: dict[str, int] = {}
        for item in args.at:
            name, _, text = item.partition("=")
            message = f"bad --at {item!r}"
            name = name.strip()
            read_field(ClassPoly.var, name, InputSyntaxError, message)  # checks the name
            if name in assignment:
                raise InputSyntaxError(f"{message}: {name} is assigned twice")
            assignment[name] = read_field(int, text, InputSyntaxError, message)
        poly = value(poly, assignment)
    print(render(poly, args.latex))
