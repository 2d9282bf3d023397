"""Exact multivariate polynomials over the rationals, used as Grothendieck classes.

A :class:`ClassPoly` is a formal polynomial with :class:`fractions.Fraction`
coefficients in named variables, one variable per generating class the caller
cares about (say ``x`` for the class of a space X and ``a`` for a subspace A).
All arithmetic is exact; no floating point appears anywhere in this package.

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

Only scalar division is provided.  The formulas built on this ring divide by
group orders and factorials, never by polynomials.

Construction
------------
``ClassPoly(variables, terms)`` is the one validating constructor: it checks
variable names and exponent vectors and converts coefficients to
``Fraction``.  Every function that takes a class reads it through
:func:`as_class`: a ``ClassPoly``, or an ``int`` or ``Fraction`` made a constant;
anything else, a float or a string too, is a ``TypeError``, and so is a
coefficient, evaluation value or divisor that is not an ``int`` or ``Fraction``.
The ring operations build their results through the private ``ClassPoly._make``,
which trusts that the coefficients are already ``Fraction`` values and the
exponent vectors fit the variables; it still puts the result in canonical form.

Products work on integers: each factor is scaled to integer numerators over
the lcm of its denominators, and only the output terms become ``Fraction``
values again.

Size caps
---------
A product or power whose total degree would exceed :data:`MAX_TOTAL_DEGREE`
is refused with :class:`PolyTooLargeError` before any multiplication, so
input like ``(x+1)^100000`` fails at once instead of running without bound.
A number with more than :data:`MAX_DIGITS` decimal digits is refused with
the same error where it is read (``parse_poly``) or rendered (``str``,
``latex``), and a power is refused before multiplying once its leading
coefficient alone must pass that limit.  ``parse_poly`` refuses parentheses
nested deeper than :data:`MAX_NESTING`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Union

from .errors import InputSyntaxError, PreconditionError

Scalar = int | Fraction
PolyLike = Union["ClassPoly", int, Fraction]

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
    if abs(value.numerator) >= _DIGIT_BOUND or value.denominator >= _DIGIT_BOUND:
        raise PolyTooLargeError(f"cannot print a number of more than {MAX_DIGITS} digits")
    return value


def _literal(token: str) -> int:
    if len(token) > MAX_DIGITS:
        raise PolyTooLargeError(f"literal of {len(token)} digits; the limit is {MAX_DIGITS}")
    return int(token)


def _lcm_denominator(terms: dict[tuple[int, ...], Fraction]) -> int:
    return math.lcm(*(c.denominator for c in terms.values()))


_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _normalized(
    variables: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]
) -> tuple[tuple[str, ...], dict[tuple[int, ...], Fraction]]:
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return (), {}
    used = [i for i in range(len(variables)) if any(e[i] for e in terms)]
    if len(used) != len(variables):
        variables = tuple(variables[i] for i in used)
        terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
    order = sorted(range(len(variables)), key=lambda i: variables[i], reverse=True)
    if order != list(range(len(variables))):
        variables = tuple(variables[i] for i in order)
        terms = {tuple(e[i] for i in order): c for e, c in terms.items()}
    return variables, terms


class ClassPoly:
    """Immutable exact polynomial in named variables."""

    __slots__ = ("_vars", "_terms")

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
        raw: dict[tuple[int, ...], Fraction] = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != len(vs) or any(k < 0 for k in e):
                raise ValueError(f"bad exponent vector {e!r} for variables {vs!r}")
            raw[e] = raw.get(e, Fraction(0)) + _scalar(c, "a coefficient")
        self._vars, self._terms = _normalized(vs, raw)

    @classmethod
    def _make(
        cls, variables: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]
    ) -> ClassPoly:
        """Trusted constructor for ring results: ``Fraction`` coefficients,
        exponent vectors of the variables' length, names already valid."""
        self = object.__new__(cls)
        self._vars, self._terms = _normalized(variables, terms)
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
        return cls((name,), {(1,): Fraction(1)})

    # -- structure ---------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    def terms(self) -> Iterator[tuple[dict[str, int], Fraction]]:
        """Yield (monomial as {variable: exponent}, coefficient) pairs."""
        for e, c in self._sorted_terms():
            yield {v: k for v, k in zip(self._vars, e) if k}, c

    def coefficient(self, monomial: Mapping[str, int]) -> Fraction:
        """Coefficient of the given monomial ({} for the constant term)."""
        mono = {v: k for v, k in monomial.items() if k}
        if not set(mono) <= set(self._vars):
            return Fraction(0)
        key = tuple(mono.get(v, 0) for v in self._vars)
        return self._terms.get(key, Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * len(self._vars), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        """Number of nonzero terms."""
        return len(self._terms)

    def is_constant(self) -> bool:
        return not self._vars

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    # -- ring operations ---------------------------------------------------

    def _aligned(self, other: ClassPoly) -> tuple[
        tuple[str, ...], dict[tuple[int, ...], Fraction], dict[tuple[int, ...], Fraction]
    ]:
        if self._vars == other._vars:
            return self._vars, self._terms, other._terms
        vs = tuple(sorted(set(self._vars) | set(other._vars), reverse=True))
        return vs, self._remapped(vs), other._remapped(vs)

    def _remapped(self, vs: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
        pos = {v: i for i, v in enumerate(vs)}
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self._terms.items():
            ee = [0] * len(vs)
            for v, k in zip(self._vars, e):
                ee[pos[v]] = k
            out[tuple(ee)] = c
        return out

    def __add__(self, other: PolyLike) -> ClassPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        vs, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out[e] + c if e in out else c
        return ClassPoly._make(vs, out)

    __radd__ = __add__

    def __neg__(self) -> ClassPoly:
        return ClassPoly._make(self._vars, {e: -c for e, c in self._terms.items()})

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
        if not self._terms or not other._terms:
            return _ZERO
        _check_degree(self.total_degree() + other.total_degree())
        vs, a, b = self._aligned(other)
        da, db = _lcm_denominator(a), _lcm_denominator(b)
        ib = [(e, c.numerator * (db // c.denominator)) for e, c in b.items()]
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in a.items():
            v1 = c1.numerator * (da // c1.denominator)
            for e2, v2 in ib:
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + v1 * v2
        d = da * db
        return ClassPoly._make(vs, {e: Fraction(v, d) for e, v in out.items() if v})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> ClassPoly:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"polynomial exponent must be a non-negative integer, got {k!r}")
        if k and self._terms:
            _check_degree(self.total_degree() * k)
            # c^k is the power's lex-leading coefficient, and each part a of c is >= 2^(bits-1)
            c = self._terms[max(self._terms)]
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
        return ClassPoly._make(self._vars, {e: c / q for e, c in self._terms.items()})

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at integer (or rational) values, one per occurring variable.

        This is the ring morphism sending each generating class to its Euler
        characteristic; extra assignments are ignored, missing ones raise
        :class:`MissingVariableError`.
        """
        missing = [v for v in self._vars if v not in assignment]
        if missing:
            raise MissingVariableError(f"no value assigned to {', '.join(missing)}")
        values = [_scalar(assignment[v], f"the value of {v}") for v in self._vars]
        total = Fraction(0)
        for e, c in self._terms.items():
            t = c
            for value, k in zip(values, e):
                if k:
                    t *= value ** k
            total += t
        return total

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._vars == other._vars and self._terms == other._terms

    def __hash__(self) -> int:
        if self._vars:
            return hash((self._vars, frozenset(self._terms.items())))
        # a constant equals its scalar, so it hashes like it
        return hash(self.constant_term())

    # -- rendering ---------------------------------------------------------

    def _sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(
            self._terms.items(),
            key=lambda ec: (-sum(ec[0]), tuple(-k for k in ec[0])),
        )

    def __str__(self) -> str:
        return self._render(latex=False)

    def __repr__(self) -> str:
        return f"ClassPoly({self})"

    def latex(self) -> str:
        """Render for LaTeX: exponents in braces, fractional coefficients as \\frac."""
        return self._render(latex=True)

    def _render(self, latex: bool) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self._sorted_terms():
            a = check_digits(abs(c))
            if latex:
                mono = "".join(v if k == 1 else f"{v}^{{{k}}}" for v, k in zip(self._vars, e) if k)
                coeff = str(a) if a.denominator == 1 else f"\\frac{{{a.numerator}}}{{{a.denominator}}}"
            else:
                mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(self._vars, e) if k)
                coeff = f"{a}*" if mono else str(a)
            if not mono:
                body = coeff
            elif a == 1:
                body = mono
            else:
                body = coeff + mono
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)


_ZERO = ClassPoly._make((), {})
_ONE = ClassPoly._make((), {(): Fraction(1)})


def _coerce(value: object) -> ClassPoly:
    """An operand by the rule of :func:`as_class`, or ``NotImplemented``."""
    if isinstance(value, ClassPoly):
        return value
    if isinstance(value, Scalar):
        return ClassPoly._make((), {(): Fraction(value)})
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
