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
  decreasing exponent vector: by decreasing packed key (below).

Together these make equality structural and printing deterministic: two
polynomials are equal exactly when they print the same, and ``parse_poly``
round-trips everything ``str`` emits.

A term is keyed by one int, its packed monomial: the total degree in the top
slot, then one slot of ``MAX_TOTAL_DEGREE.bit_length()`` bits per variable, in
the variables' order.  So integer order is print order, the largest key is
the leading term, key 0 is the constant term, and a product of two terms adds
their keys: the degree cap, checked before any product, keeps a slot from
carrying into the next.  A key moves to a larger variable tuple by taking a
zero slot for each variable it lacks, and a slot that no term uses is dropped.

One term writer, :meth:`ClassPoly.term_texts`, makes every plain and LaTeX
choice of the text, for a polynomial and for a series coefficient; ``str`` and
``latex`` join its (negative, unsigned text) pairs with :func:`join_terms`.

Only scalar division is provided.  The formulas built on this ring divide by
group orders and factorials, never by polynomials.

Construction
------------
``ClassPoly(variables, terms)`` is the one validating constructor: it checks
variable names and exponent vectors, ``int`` exponents >= 0 whose total is at
most :data:`MAX_TOTAL_DEGREE` so that every slot of the key fits, and reads
``int`` or ``Fraction`` coefficients.  Every function that takes a class reads it through
:func:`as_class`: a ``ClassPoly``, or an ``int`` or ``Fraction`` made a constant;
anything else, a float or a string too, is a ``TypeError``, and so is a
coefficient, evaluation value or divisor that is not an ``int`` or ``Fraction``.
The ring operations build their results through the private ``ClassPoly._make``,
which trusts that the keys are packed over the variables; it still puts the
result in canonical form.  So do ``ClassPoly.var``, ``const``, ``zero`` and
``one``, after checking their own argument, and a sum or difference takes its
+1 or -1 unit from the module.

No ring operation and no verb but ``eval`` exchanges classes with Python
values, so that code lives in :mod:`kzero.polyvalues`, the ``eval`` verb's home:
the bodies of the validating constructor, of ``terms`` and of ``evaluate``.
Each of the three methods imports it on its first call, as :func:`_ratio`
imports ``fractions``, and every other verb's job compiles none of it.  It
builds the constructor's class by the ring operations and reads the stored form
through :func:`slot_shifts`, :data:`SLOT_MASK` and :func:`scalar_pair`.

A polynomial is stored as integer numerators over one positive common
denominator: a term's coefficient is its numerator over that denominator.
The gcd of the denominator and all the numerators is 1, so the denominator
is the lcm of the reduced coefficients' denominators and the stored form is
unique; zero has denominator 1.  Sums scale both operands to the lcm of
their denominators.  Products multiply numerators and denominators:
:func:`sum_of_products` adds any number of products into one integer
accumulation, keyed by the sums of the packed keys, and reduces the sum
once; ``a * b`` is its one-pair case, and a series coefficient another.
Scalars enter as integer pairs: a coefficient, divisor, operand or evaluation
value is read as its (numerator, denominator), an ``int`` ``n`` as ``(n, 1)``,
so a verb that reads and prints integers and ``p/q`` literals never imports
``fractions``.  ``Fraction`` values appear only where the API returns them
(``terms``, ``constant_term``, ``evaluate``), and only those import it;
``eval --at`` prints the integer pair that ``evaluate`` reduces.  Rendering
works a column at a time: the sorted keys, one gcd per coefficient, and each
variable's exponents read off the keys into a table of its power texts.

Size caps
---------
A product or power whose total degree would exceed :data:`MAX_TOTAL_DEGREE`
is refused with :class:`PolyTooLargeError` before any multiplication, so
input like ``(x+1)^100000`` fails at once instead of running without bound.
A number with more than :data:`MAX_DIGITS` decimal digits is refused with
the same error where it is read (``parse_poly``) or rendered (``str``,
``latex``), and a power is refused before multiplying once a coefficient it
must have passes that limit: the power of the coefficient of a vertex of the
Newton polytope, a term extreme in lex order or in one variable's exponent.
``evaluate`` refuses a term before taking any power once a bound on its bits,
from the bit lengths of the coefficient and of the values times their
exponents, passes that limit.
``parse_poly`` refuses parentheses nested deeper than :data:`MAX_NESTING`.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import repeat
from operator import add, floordiv, or_
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .errors import InputSyntaxError, PreconditionError

if TYPE_CHECKING:  # names for annotations only, so no job builds them
    from fractions import Fraction

    from .classseries import ClassSeries

    Scalar = int | Fraction
    PolyLike = ClassPoly | Scalar
    Variables = tuple[str, ...]
    Terms = dict[int, int]
    Ring = ClassPoly | ClassSeries

MAX_TOTAL_DEGREE = 1000
"""Largest total degree of a class: the constructor refuses more, and a product or
power is refused before it is computed.  So it also bounds every slot of a packed
key, the degree's too, and sets the slot width.  Dense products grow fast past it:
on a 2-vCPU Xeon VM with Python 3.11, ``(x+1)^1000`` takes 0.4 s and
``(x+1)^2000`` 2.5 s."""

_SLOT = MAX_TOTAL_DEGREE.bit_length()
SLOT_MASK = (1 << _SLOT) - 1  # one slot of a packed key, its lowest

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


def _ratio(value: object) -> tuple[int, int] | None:
    """An ``int`` or ``Fraction`` as its (numerator, denominator) pair, the
    denominator positive; ``None`` for anything else.  Only a value that is not an
    ``int`` imports ``fractions``."""
    if isinstance(value, int):
        return value, 1
    from fractions import Fraction

    return (value.numerator, value.denominator) if isinstance(value, Fraction) else None


def scalar_pair(value: object, role: str) -> tuple[int, int]:
    """An ``int`` or ``Fraction`` as its (numerator, denominator) pair; anything else
    is a ``TypeError``."""
    pair = _ratio(value)
    if pair is None:
        raise TypeError(f"{role} must be an int or Fraction, got {type(value).__name__}")
    return pair


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


def _is_name(v: str) -> bool:
    """Whether ``v`` is a variable name: a ``str`` matching ``[A-Za-z_][A-Za-z0-9_]*``,
    nothing after."""
    return isinstance(v, str) and v.isascii() and v.isidentifier()


def slot_shifts(n: int) -> range:
    """The offset of each variable's slot in a key over ``n`` variables, in variable order."""
    return range(_SLOT * (n - 1), -1, -_SLOT)


def _widened(terms: Terms, old: Variables, new: Variables) -> Terms:
    """``terms`` keyed over the variables ``new``, which hold ``old`` in its order: a
    zero slot goes in for each variable missing from ``old``, the lowest first, so the
    ``j`` slots below it are in place.  The part of a key from bit ``s`` up moves up one
    slot, times ``2**_SLOT``: the key gains that part times ``SLOT_MASK``."""
    for j, v in enumerate(reversed(new)):
        if v not in old:
            s = _SLOT * j
            terms = {k + (k >> s << s) * SLOT_MASK: c for k, c in terms.items()}
    return terms


def _normalized(variables: Variables, terms: Terms, den: int) -> tuple[Variables, Terms, int]:
    """Integer terms over ``den`` > 0, variables already sorted, in canonical form: the
    slot of a variable that no term uses, found by one OR over the keys, is dropped, the
    part of each key above it moving down one slot as :func:`_widened` moves it up."""
    g = math.gcd(den, *terms.values())
    terms = {k: c // g for k, c in terms.items() if c}
    used, kept = reduce(or_, terms, 0), []
    for v, s in zip(variables, slot_shifts(len(variables))):  # from the top, so lower slots stay put
        if used >> s & SLOT_MASK:
            kept.append(v)
        else:
            terms = {k - (k >> s + _SLOT << s) * SLOT_MASK: c for k, c in terms.items()}
    return tuple(kept), terms, den // g


class ClassPoly:
    """Immutable exact polynomial in named variables, stored as integer
    numerators over one positive denominator, keyed by packed monomials."""

    __slots__ = ("_vars", "_terms", "_den")

    def __init__(
        self,
        variables: Iterable[str] = (),
        terms: Mapping[tuple[int, ...], Scalar] | None = None,
    ):
        """An exponent vector has one ``int`` exponent >= 0 per variable, and a total of at
        most :data:`MAX_TOTAL_DEGREE`, so every slot of its key fits; any other is a
        ``ValueError``.  The terms are summed as the ring sums."""
        from .polyvalues import construct

        construct(self, variables, terms)

    @classmethod
    def _make(cls, variables: Variables, terms: Terms, den: int = 1) -> ClassPoly:
        """Trusted constructor for ring results: integer numerators over ``den`` > 0,
        keys packed over the variables, names valid and sorted."""
        self = object.__new__(cls)
        self._vars, self._terms, self._den = _normalized(variables, terms, den)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> ClassPoly:
        return cls._make((), {})

    @classmethod
    def one(cls) -> ClassPoly:
        return cls._make((), {0: 1})

    @classmethod
    def const(cls, value: Scalar) -> ClassPoly:
        n, d = scalar_pair(value, "a coefficient")
        return cls._make((), {0: n}, d)

    @classmethod
    def var(cls, name: str) -> ClassPoly:
        """The polynomial consisting of the single variable ``name``."""
        if not _is_name(name):
            raise ValueError(f"bad variable name {name!r}")
        return cls._make((name,), {(1 << _SLOT) + 1: 1})  # x^1: one in the degree slot and in x's

    # -- structure ---------------------------------------------------------

    @property
    def variables(self) -> Variables:
        return self._vars

    def terms(self) -> Iterator[tuple[dict[str, int], Fraction]]:
        """Yield (monomial as {variable: exponent}, coefficient) pairs in print order."""
        from .polyvalues import terms

        return terms(self)

    def constant_term(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._terms.get(0, 0), self._den)

    def leading_coefficient(self) -> tuple[int, int]:
        """The first printed term's coefficient as (numerator, denominator) in lowest
        terms, read without ``fractions``; the polynomial must not be zero."""
        c = self._terms[max(self._terms)]
        g = math.gcd(c, self._den)
        return c // g, self._den // g

    def is_constant(self) -> bool:
        return not self._vars

    def total_degree(self) -> int:
        """Total degree, the top slot of the largest key; -1 for the zero polynomial."""
        return max(self._terms, default=-1) >> _SLOT * len(self._vars)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: PolyLike, sign: int = 1) -> ClassPoly:
        """``self + sign * other``, ``sign`` 1 or -1 (``__sub__``): the products of each by a unit."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((self, _ONE), (other, _ONE if sign == 1 else _MINUS_ONE)))

    __radd__ = __add__

    def __neg__(self) -> ClassPoly:
        return self * -1

    def __sub__(self, other: PolyLike) -> ClassPoly:
        return self.__add__(other, -1)

    def __rsub__(self, other: PolyLike) -> ClassPoly:
        return (-self).__add__(other)

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
            # a term extreme in lex order (its key with the degree slot masked off), or in one
            # exponent with ties broken by lex order, is a vertex of the Newton polytope, so its
            # c^k is a coefficient of the power; each part a of a reduced c is >= 2^(bits-1).
            # No part has more bits than the largest stored number, so the vertices are
            # searched only when k times that many bits reaches the limit.
            if k * max(*map(abs, self._terms.values()), self._den).bit_length() >= _DIGIT_BITS:
                lex = ((1 << _SLOT * len(self._vars)) - 1).__and__
                keys = [lex, *(lambda e, s=s: (e >> s & SLOT_MASK, lex(e)) for s in slot_shifts(len(self._vars)))]
                vertices = {pick(self._terms, key=key) for key in keys for pick in (min, max)}
                bits = max(max(abs(c) // g, self._den // g).bit_length()
                           for c in map(self._terms.get, vertices) for g in [math.gcd(c, self._den)])
                if k * (bits - 1) >= _DIGIT_BITS:
                    raise PolyTooLargeError(f"power would pass {MAX_DIGITS} digits")
        return square_and_multiply(_ONE, self, k)

    def __truediv__(self, scalar: Scalar) -> ClassPoly:
        n, d = scalar_pair(scalar, "a divisor")
        if not n:
            raise ZeroDivisionError("division of a class polynomial by zero")
        if n < 0:
            n, d = -n, -d
        return ClassPoly._make(self._vars, {k: c * d for k, c in self._terms.items()}, self._den * n)

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
        from .polyvalues import value

        return value(self, assignment).constant_term()

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._vars, self._den, self._terms) == (other._vars, other._den, other._terms)

    def __hash__(self) -> int:
        if self._vars:
            return hash((self._vars, self._den, frozenset(self._terms.items())))
        # a constant equals its scalar, so it hashes like it: a whole one as its int
        return hash(self._terms.get(0, 0)) if self._den == 1 else hash(self.constant_term())

    # -- rendering ---------------------------------------------------------

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
        variable, and 1 becomes ``v^k``; several terms go in parentheses before ``v^k``.

        The texts are made a column at a time: the coefficients reduced by one gcd each,
        and each variable's exponents read off the keys into a table of its factor texts."""
        sep, power, frac, before = _STYLES[latex]
        keys = sorted(self._terms, reverse=True)
        cs = [self._terms[k] for k in keys]
        gs = list(map(math.gcd, cs, repeat(self._den)))
        nums = list(map(floordiv, map(abs, cs), gs))
        dens = list(map(floordiv, repeat(self._den), gs))
        check_digits(max(nums + dens, default=0))
        monos = [""] * len(keys)
        for v, s in zip(self._vars, slot_shifts(len(self._vars))):
            column = [k >> s & SLOT_MASK for k in keys]
            text = {k: sep + (v if k == 1 else power.format(v, k)) for k in set(column)}
            text[0] = ""
            monos = list(map(add, monos, map(text.__getitem__, column)))
        # each monomial starts with sep, which a coefficient of 1 drops
        pairs = [(c < 0, m[len(sep):] if m and n == d else (str(n) if d == 1 else frac.format(n, d)) + m)
                 for c, n, d, m in zip(cs, nums, dens, monos)]
        if not times or not pairs:
            return pairs
        v, k = times
        neg, body = pairs[0] if len(pairs) == 1 else (False, f"({join_terms(pairs)})")
        if k:
            vk = v if k == 1 else power.format(v, k)
            if not self._vars:  # a constant c: c v^k, or v^k for c = +-1
                body = vk if abs(self._terms[0]) == self._den else body + sep + vk
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


_ONE = ClassPoly.one()
_MINUS_ONE = ClassPoly.const(-1)


def square_and_multiply(one: Ring, base: Ring, k: int) -> Ring:
    """``base`` to the power ``k`` >= 0 by binary square-and-multiply, from the lowest set bit of
    ``k`` up: ``base`` is squared once per bit past the lowest and multiplied in once per set bit
    past the first, so a power takes popcount(k) + bit_length(k) - 2 products, none of them by the
    ring's ``one``.  The one power loop of ``ClassPoly`` and ``ClassSeries``, which check ``k``
    first."""
    result = one
    while k:
        if k & 1:  # every product is a new object, so result is one until the first set bit
            result = base if result is one else result * base
        k >>= 1
        if k:  # no square past the top bit
            base = base * base
    return result


def sum_of_products(pairs: Iterable[tuple[ClassPoly, ClassPoly]]) -> ClassPoly:
    """The sum of ``a * b`` over the (a, b) pairs, with each product's total degree
    checked in pair order.  Every product is added into one integer accumulation
    over the lcm of the products' denominators, and the sum is put in canonical
    form once: ``a * b`` is the one-pair case, ``a + b`` the pairs ``(a, 1), (b, 1)``,
    and a series coefficient the sum over the pairs of factor coefficients whose
    orders add up to its own."""
    pairs = [(a, b) for a, b in pairs if a._terms and b._terms]
    vs = tuple(sorted({v for a, b in pairs for v in a._vars + b._vars}, reverse=True))
    den = math.lcm(*(a._den * b._den for a, b in pairs))
    out: Terms = {}
    for a, b in pairs:
        # checked first, the degree cap keeps every slot of a product in its width,
        # so the product of two terms is keyed by the sum of their keys
        _check_degree(a.total_degree() + b.total_degree())
        scale = den // (a._den * b._den)
        right = _widened(b._terms, b._vars, vs).items()
        for k1, c1 in _widened(a._terms, a._vars, vs).items():
            c1 *= scale
            for k2, c2 in right:
                key = k1 + k2
                out[key] = out.get(key, 0) + c1 * c2
    return ClassPoly._make(vs, out, den)


def _coerce(value: object) -> ClassPoly:
    """An operand by the rule of :func:`as_class`, or ``NotImplemented``."""
    if isinstance(value, ClassPoly):
        return value
    pair = _ratio(value)
    return NotImplemented if pair is None else ClassPoly._make((), {0: pair[0]}, pair[1])


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

_DIGITS = "0123456789"
_NAME_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_" + _DIGITS


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``: ASCII digit runs, ASCII names and the operators
    ``-+*^()/``, with whitespace (``str.isspace``) between them skipped."""
    tokens: list[str] = []
    pos, end = 0, len(text)
    while pos < end:
        start, c = pos, text[pos]
        pos += 1
        if c.isspace():
            continue
        run = _DIGITS if c in _DIGITS else _NAME_CHARS if c in _NAME_CHARS else None
        if run:
            while pos < end and text[pos] in run:
                pos += 1
        elif c not in "-+*^()/":
            raise PolyParseError(f"unexpected character {c!r} in polynomial {text!r}")
        tokens.append(text[start:pos])
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
            p = p + self.term() if self.take() == "+" else p - self.term()  # the operator is taken before its term
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
                return ClassPoly._make((), {0: num}, int(den))
            return _coerce(num)
        if _is_name(tok):
            return ClassPoly.var(tok)
        raise PolyParseError(f"unexpected token {tok!r} in polynomial {self.text!r}")


def parse_poly(text: str) -> ClassPoly:
    """Parse the ASCII polynomial syntax: + - * ^, integer and p/q literals, parentheses."""
    if not text.strip():
        raise PolyParseError("empty polynomial text")
    return _Parser(text).parse()


# -- command line ----------------------------------------------------------------


def render(value: Ring, latex: bool) -> str:
    """How a verb prints a class or a series: its canonical text, or its LaTeX with ``latex``."""
    return value.latex() if latex else str(value)
