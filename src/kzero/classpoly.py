"""Exact multivariate polynomials over the rationals, used as Grothendieck classes.

A :class:`ClassPoly` is a formal polynomial with rational coefficients in
named variables, one variable per generating class the caller cares about
(say ``x`` for the class of a space X and ``a`` for a subspace A).  All
arithmetic is exact; no floating point appears anywhere in this package.

Canonical form
--------------
* no stored term has coefficient zero;
* the variable tuple holds exactly the variables occurring in some term,
  sorted by decreasing name (so ``x`` comes before ``a``);
* rendering lists terms by decreasing total degree, ties broken by
  decreasing exponent vector.

Together these make equality structural and printing deterministic: two
polynomials are equal exactly when they print the same, and ``parse_poly``
round-trips everything ``str`` emits.

One term writer, :meth:`ClassPoly.term_texts`, makes every plain and LaTeX
choice of the text, for a polynomial and for a series coefficient; ``str`` and
``latex`` join its (negative, unsigned text) pairs with :func:`join_terms`.

Only scalar division is provided.  The formulas built on this ring divide by
group orders and factorials, never by polynomials.

Construction
------------
``ClassPoly(variables, terms)`` is the one validating constructor: it checks
variable names and exponent vectors and reads ``int`` or ``Fraction``
coefficients.  Every function that takes a class reads it through
:func:`as_class`: a ``ClassPoly``, or an ``int`` or ``Fraction`` made a constant;
anything else, a float or a string too, is a ``TypeError``, and so is a
coefficient, evaluation value or divisor that is not an ``int`` or ``Fraction``.
The ring operations build their results through the private ``ClassPoly._make``,
which trusts that the exponent vectors fit the variables; it still puts the
result in canonical form.

A polynomial is stored as integer numerators over one positive common
denominator: a term's coefficient is its numerator over that denominator.
The gcd of the denominator and all the numerators is 1, so the denominator
is the lcm of the reduced coefficients' denominators and the stored form is
unique; zero has denominator 1.  Sums scale both operands to the lcm of
their denominators.  Products multiply numerators and denominators:
:func:`sum_of_products` adds any number of products into one integer
accumulation, each exponent vector packed into one int, and reduces the sum
once; ``a * b`` is its one-pair case, and a series coefficient another.
``Fraction`` values appear only where the API returns them (``terms``,
``constant_term``, ``evaluate``); rendering reduces each coefficient with
one integer gcd.

Size caps
---------
A product or power whose total degree would exceed :data:`MAX_TOTAL_DEGREE`
is refused with :class:`PolyTooLargeError` before any multiplication, so
input like ``(x+1)^100000`` fails at once instead of running without bound.
A number with more than :data:`MAX_DIGITS` decimal digits is refused with
the same error where it is read (``parse_poly``) or rendered (``str``,
``latex``), and a power is refused before multiplying once its leading
coefficient alone must pass that limit.  ``evaluate`` refuses a term before
taking any power once a bound on its bits, from the bit lengths of the
coefficient and of the values times their exponents, passes that limit.
``parse_poly`` refuses parentheses nested deeper than :data:`MAX_NESTING`.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping, Union

from .errors import InputSyntaxError, PreconditionError

Scalar = int | Fraction
PolyLike = Union["ClassPoly", int, Fraction]
Variables = tuple[str, ...]
Terms = dict[tuple[int, ...], int]

MAX_TOTAL_DEGREE = 1000
"""Largest total degree a product or power may reach.  Dense products grow
fast past it: on a 2-vCPU Xeon VM with Python 3.11, ``(x+1)^1000`` takes
0.4 s and ``(x+1)^2000`` 2.5 s."""

MAX_DIGITS = 4300
"""Most decimal digits a number may have where it is parsed or rendered:
Python's default limit on converting between int and str."""

_DIGIT_BOUND = 10 ** MAX_DIGITS
_DIGIT_BITS = _DIGIT_BOUND.bit_length()

MAX_NESTING = 100
"""Deepest nesting of parentheses ``parse_poly`` reads; each level is a few
interpreter frames, and about 200 levels reach Python's recursion limit."""


class MissingVariableError(PreconditionError):
    """An evaluation assignment does not cover every occurring variable."""


class PolyParseError(InputSyntaxError):
    """Text does not denote a polynomial in the accepted syntax."""


class PolyTooLargeError(PreconditionError):
    """A degree, digit count or nesting depth would pass :data:`MAX_TOTAL_DEGREE`,
    :data:`MAX_DIGITS` or :data:`MAX_NESTING`."""


def _scalar(value: object, role: str) -> Fraction:
    """An ``int`` or ``Fraction`` as a ``Fraction``; anything else is a ``TypeError``."""
    if not isinstance(value, Scalar):
        raise TypeError(f"{role} must be an int or Fraction, got {type(value).__name__}")
    return Fraction(value)


def _check_degree(degree: int) -> None:
    if degree > MAX_TOTAL_DEGREE:
        raise PolyTooLargeError(
            f"result would have total degree {degree}; the limit is {MAX_TOTAL_DEGREE}"
        )


def check_digits(value: Scalar) -> Scalar:
    """Return ``value``, or refuse it with :class:`PolyTooLargeError` if its
    numerator or denominator has more than :data:`MAX_DIGITS` digits."""
    if max(abs(value.numerator), value.denominator) >= _DIGIT_BOUND:
        raise PolyTooLargeError(f"cannot print a number of more than {MAX_DIGITS} digits")
    return value


def _literal(token: str) -> int:
    if len(token) > MAX_DIGITS:
        raise PolyTooLargeError(f"literal of {len(token)} digits; the limit is {MAX_DIGITS}")
    return int(token)


_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _remap(terms: Terms, old: Variables, new: Variables) -> Terms:
    """``terms`` over the variables ``old`` with exponent vectors over the variables
    ``new``: a variable missing from ``old`` gets exponent 0, and one missing from
    ``new`` must have exponent 0 in every term."""
    if old == new:
        return terms
    pos = [old.index(v) if v in old else -1 for v in new]
    return {tuple((*e, 0)[i] for i in pos): c for e, c in terms.items()}


def _normalized(variables: Variables, terms: Terms, den: int) -> tuple[Variables, Terms, int]:
    """Integer terms over ``den`` > 0, variables already sorted, in canonical form."""
    terms = {e: c for e, c in terms.items() if c}
    g = math.gcd(den, *terms.values())
    if g > 1:
        terms = {e: c // g for e, c in terms.items()}
    used = tuple(v for v, column in zip(variables, zip(*terms)) if any(column))
    return used, _remap(terms, variables, used), den // g


class ClassPoly:
    """Immutable exact polynomial in named variables, stored as integer
    numerators over one positive denominator."""

    __slots__ = ("_vars", "_terms", "_den")

    def __init__(
        self,
        variables: Iterable[str] = (),
        terms: Mapping[tuple[int, ...], Scalar] | None = None,
    ):
        vs = tuple(variables)
        for v in vs:
            if not _VAR_RE.match(v):
                raise ValueError(f"bad variable name {v!r}")
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable name")
        raw = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != len(vs) or any(k < 0 for k in e):
                raise ValueError(f"bad exponent vector {e!r} for variables {vs!r}")
            raw[e] = raw.get(e, 0) + _scalar(c, "a coefficient")
        den = math.lcm(*(c.denominator for c in raw.values()))
        ordered = tuple(sorted(vs, reverse=True))
        terms = _remap({e: int(c * den) for e, c in raw.items()}, vs, ordered)
        self._vars, self._terms, self._den = _normalized(ordered, terms, den)

    @classmethod
    def _make(cls, variables: Variables, terms: Terms, den: int = 1) -> ClassPoly:
        """Trusted constructor for ring results: integer numerators over ``den`` > 0,
        exponent vectors of the variables' length, names valid and sorted."""
        self = object.__new__(cls)
        self._vars, self._terms, self._den = _normalized(variables, terms, den)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> ClassPoly:
        return cls()

    @classmethod
    def one(cls) -> ClassPoly:
        return cls.const(1)

    @classmethod
    def const(cls, value: Scalar) -> ClassPoly:
        return cls((), {(): value})

    @classmethod
    def var(cls, name: str) -> ClassPoly:
        """The polynomial consisting of the single variable ``name``."""
        return cls((name,), {(1,): 1})

    # -- structure ---------------------------------------------------------

    @property
    def variables(self) -> Variables:
        return self._vars

    def terms(self) -> Iterator[tuple[dict[str, int], Fraction]]:
        """Yield (monomial as {variable: exponent}, coefficient) pairs."""
        for e, c in self._sorted_terms():
            yield {v: k for v, k in zip(self._vars, e) if k}, Fraction(c, self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get((0,) * len(self._vars), 0), self._den)

    def is_constant(self) -> bool:
        return not self._vars

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self._terms), default=-1)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: PolyLike) -> ClassPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        vs = tuple(sorted({*self._vars, *other._vars}, reverse=True))
        den = math.lcm(self._den, other._den)
        a, b = (_remap(p._terms, p._vars, vs) for p in (self, other))
        sa, sb = den // self._den, den // other._den
        return ClassPoly._make(vs, {e: a.get(e, 0) * sa + b.get(e, 0) * sb for e in a | b}, den)

    __radd__ = __add__

    def __neg__(self) -> ClassPoly:
        return ClassPoly._make(self._vars, {e: -c for e, c in self._terms.items()}, self._den)

    def __sub__(self, other: PolyLike) -> ClassPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: PolyLike) -> ClassPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: PolyLike) -> ClassPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> ClassPoly:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"polynomial exponent must be a non-negative integer, got {k!r}")
        if k and self._terms:
            _check_degree(self.total_degree() * k)
            # c^k is the power's lex-leading coefficient, and each part a of c is >= 2^(bits-1)
            c = Fraction(self._terms[max(self._terms)], self._den)
            if k * (max(abs(c.numerator), c.denominator).bit_length() - 1) >= _DIGIT_BITS:
                raise PolyTooLargeError(f"power would pass {MAX_DIGITS} digits")
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __truediv__(self, scalar: Scalar) -> ClassPoly:
        q = _scalar(scalar, "a divisor")
        if not q:
            raise ZeroDivisionError("division of a class polynomial by zero")
        r = 1 / q
        return ClassPoly._make(
            self._vars, {e: c * r.numerator for e, c in self._terms.items()}, self._den * r.denominator
        )

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at integer (or rational) values, one per occurring variable.

        This is the ring morphism sending each generating class to its Euler
        characteristic; extra assignments are ignored, missing ones raise
        :class:`MissingVariableError`.  Before any power is taken, each term
        ``c x1^k1 ... xr^kr`` is bounded by bit lengths: ``bits(c) + k1 bits(x1) +
        ... + kr bits(xr)``, where each bit length is that of the larger of a
        number's numerator and denominator.  A term whose bound passes the bit
        length of ``10**MAX_DIGITS`` raises :class:`PolyTooLargeError`.
        """
        missing = [v for v in self._vars if v not in assignment]
        if missing:
            raise MissingVariableError(f"no value assigned to {', '.join(missing)}")
        values = [_scalar(assignment[v], f"the value of {v}") for v in self._vars]
        bits = [max(abs(v.numerator), v.denominator).bit_length() for v in values]
        total = Fraction(0)
        for e, c in self._terms.items():
            if max(abs(c), self._den).bit_length() + sum(map(mul, e, bits)) > _DIGIT_BITS:
                raise PolyTooLargeError(f"a term of the value may pass {MAX_DIGITS} digits")
            for value, k in zip(values, e):
                c *= value ** k
            total += c
        return total / self._den

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._vars, self._den, self._terms) == (other._vars, other._den, other._terms)

    def __hash__(self) -> int:
        if self._vars:
            return hash((self._vars, self._den, frozenset(self._terms.items())))
        # a constant equals its scalar, so it hashes like it
        return hash(self.constant_term())

    # -- rendering ---------------------------------------------------------

    def _sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self._terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def __str__(self) -> str:
        return join_terms(self.term_texts())

    def __repr__(self) -> str:
        return f"ClassPoly({self})"

    def latex(self) -> str:
        """Render for LaTeX: exponents in braces, fractional coefficients as \\frac."""
        return join_terms(self.term_texts(latex=True))

    def term_texts(self, latex: bool = False, times: tuple[str, int] | None = None) -> list[tuple[bool, str]]:
        """The terms in print order as (negative, unsigned text) pairs, plain or LaTeX.
        ``times=(v, k)`` makes them one pair, the coefficient of ``v^k`` in a series: a
        single term takes ``v^k`` as its last factor, after ``\\,`` in LaTeX if it has a
        variable, and 1 becomes ``v^k``; several terms go in parentheses before ``v^k``."""
        sep, power, frac, before = _STYLES[latex]
        pairs = []
        for e, c in self._sorted_terms():
            g = math.gcd(c, self._den)
            n, d = abs(c) // g, self._den // g
            check_digits(max(n, d))
            coeff = str(n) if d == 1 else frac.format(n, d)
            mono = sep.join([v if k == 1 else power.format(v, k) for v, k in zip(self._vars, e) if k])
            pairs.append((c < 0, coeff if not mono else (mono if n == d == 1 else coeff + sep + mono)))
        if not times or not pairs:
            return pairs
        v, k = times
        neg, body = pairs[0] if len(pairs) == 1 else (False, f"({join_terms(pairs)})")
        if k:
            vk = v if k == 1 else power.format(v, k)
            if not self._vars:  # a constant c: c v^k, or v^k for c = +-1
                body = vk if abs(self._terms[()]) == self._den else body + sep + vk
            else:
                body += (before if len(pairs) == 1 else sep) + vk
        return [(neg, body)]


# plain and LaTeX style: between factors, power, fraction, before a series power
_STYLES = (("*", "{}^{}", "{}/{}", "*"), ("", "{}^{{{}}}", "\\frac{{{}}}{{{}}}", "\\,"))


def join_terms(pairs: list[tuple[bool, str]]) -> str:
    """(negative, unsigned text) pairs as one text: a leading ``-`` for a negative
    first term, `` + `` or `` - `` before each later one, and ``0`` for no terms."""
    if not pairs:
        return "0"
    text = "".join([(" - " if neg else " + ") + body for neg, body in pairs])
    return text[3:] if text[1] == "+" else "-" + text[3:]


_ONE = ClassPoly._make((), {(): 1})


def sum_of_products(pairs: Iterable[tuple[ClassPoly, ClassPoly]]) -> ClassPoly:
    """The sum of ``a * b`` over the (a, b) pairs, with each product's total degree
    checked in pair order.  Every product is added into one integer accumulation
    over the lcm of the products' denominators, and the sum is put in canonical
    form once: ``a * b`` is the one-pair case, and a series coefficient the sum
    over the pairs of factor coefficients whose orders add up to its own."""
    pairs = [(a, b) for a, b in pairs if a._terms and b._terms]
    vs = tuple(sorted({v for a, b in pairs for v in a._vars + b._vars}, reverse=True))
    den = math.lcm(*(a._den * b._den for a, b in pairs))
    # An exponent vector is packed into one int, one 16-bit slot per variable, so the
    # product's exponents, each at most its checked total degree, add as the keys add.
    out: dict[int, int] = {}
    for a, b in pairs:
        _check_degree(a.total_degree() + b.total_degree())
        scale = den // (a._den * b._den)
        right = _packed(b, vs)
        for k1, c1 in _packed(a, vs):
            c1 *= scale
            for k2, c2 in right:
                key = k1 + k2
                out[key] = out.get(key, 0) + c1 * c2
    # the slots, written out in native byte order, read back as unsigned shorts
    width = 2 * len(vs)
    terms = {tuple(memoryview(k.to_bytes(width, sys.byteorder)).cast("H")): c for k, c in out.items()}
    return ClassPoly._make(vs, terms, den)


def _packed(p: ClassPoly, vs: Variables) -> list[tuple[int, int]]:
    """The terms of ``p`` with each exponent vector over ``vs`` packed into one int."""
    weights = [1 << 16 * vs.index(v) for v in p._vars]
    return [(sum(map(mul, e, weights)), c) for e, c in p._terms.items()]


def _coerce(value: object) -> ClassPoly:
    """An operand by the rule of :func:`as_class`, or ``NotImplemented``."""
    if isinstance(value, ClassPoly):
        return value
    if isinstance(value, Scalar):
        return ClassPoly._make((), {(): value.numerator}, value.denominator)
    return NotImplemented


def as_class(value: PolyLike) -> ClassPoly:
    """A class argument as a ``ClassPoly``: a ``ClassPoly`` unchanged, an ``int`` or
    ``Fraction`` as a constant.  Anything else raises ``TypeError``."""
    p = _coerce(value)
    if p is NotImplemented:
        raise TypeError(f"a class must be a ClassPoly, int or Fraction, got {type(value).__name__}")
    return p


def binomial(p: PolyLike, k: int) -> ClassPoly:
    """Symbolic binomial coefficient C(p, k) = p(p-1)...(p-k+1)/k!.

    Defined for any polynomial p and integer k >= 0; C(p, 0) = 1.  For a
    negative constant this gives the usual extension, e.g. C(-x, 3) evaluated
    at x = 1 is C(-1, 3) = -1.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"binomial index must be a non-negative integer, got {k!r}")
    p = as_class(p)
    result = _ONE
    for i in range(k):
        result = result * (p - i)
    return result / math.factorial(k)


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^()/])")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise PolyParseError(f"unexpected character {rest[0]!r} in polynomial {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PolyParseError(f"unexpected end of input in polynomial {self.text!r}")
        self.pos += 1
        return tok

    def parse(self) -> ClassPoly:
        p = self.expr()
        if self.peek() is not None:
            raise PolyParseError(f"trailing {self.peek()!r} in polynomial {self.text!r}")
        return p

    def expr(self) -> ClassPoly:
        p = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> ClassPoly:
        p = self.signed()
        while self.peek() == "*":
            self.take()
            p = p * self.signed()
        return p

    def signed(self) -> ClassPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        p = self.power()
        return p if sign == 1 else -p

    def power(self) -> ClassPoly:
        p = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise PolyParseError(f"exponent must be a non-negative integer, got {tok!r}")
            p = p ** _literal(tok)
        return p

    def atom(self) -> ClassPoly:
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolyTooLargeError(f"parentheses nested deeper than {MAX_NESTING}")
            p = self.expr()
            if self.take() != ")":
                raise PolyParseError(f"unbalanced parentheses in polynomial {self.text!r}")
            self.depth -= 1
            return p
        if tok.isdigit():
            num = _literal(tok)
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit():
                    raise PolyParseError(f"rational literal needs an integer denominator, got {den!r}")
                if _literal(den) == 0:
                    raise PolyParseError("rational literal with zero denominator")
                return ClassPoly.const(Fraction(num, int(den)))
            return ClassPoly.const(num)
        if _VAR_RE.match(tok):
            return ClassPoly.var(tok)
        raise PolyParseError(f"unexpected token {tok!r} in polynomial {self.text!r}")


def parse_poly(text: str) -> ClassPoly:
    """Parse the ASCII polynomial syntax: + - * ^, integer and p/q literals, parentheses."""
    if not text.strip():
        raise PolyParseError("empty polynomial text")
    return _Parser(text).parse()
