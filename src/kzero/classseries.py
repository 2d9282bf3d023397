"""Truncated power series with polynomial coefficients.

A :class:`ClassSeries` is a formal power series in one counting variable
``x``, truncated at a fixed order, whose coefficients are :class:`ClassPoly`
values.  These are the generating functions of the calculator: symmetric
product series, 0-cycle series, and their ratios.

A series of order ``N`` is its tuple of the coefficients of ``x^0 .. x^N``:
``s[k]`` is the coefficient of ``x^k`` and ``len(s)`` is ``N + 1``.  Arithmetic
between series of different orders truncates to the smaller order, which is
the only sound choice for truncated data.  Equality and hashing are the
tuple's, so equal series have equal order and equal coefficients; to compare
two series through a common order compare the slices ``s[:k + 1]`` and
``t[:k + 1]``.  A series combines only with a series: ``+``, ``*`` and their
reflected forms raise ``TypeError`` for any other operand, so they are never
the tuple's concatenation and repetition.

A series prints each nonzero coefficient as :meth:`ClassPoly.term_texts` writes
the coefficient of ``x^k``, joined like a polynomial's terms, then ``+ O(x^N)``
for ``N`` the order plus one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .classpoly import (
    MAX_TOTAL_DEGREE, ClassPoly, PolyTooLargeError, as_class, join_terms, parse_poly, render, square_and_multiply,
    sum_of_products,
)
from .errors import PreconditionError

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .classpoly import PolyLike


class NonUnitConstantTermError(PreconditionError):
    """Series inversion needs constant coefficient exactly 1."""


class ClassSeries(tuple):
    """Power series truncated at a fixed order, as its tuple of ClassPoly coefficients:
    ``s[k]`` is the coefficient of x^k, and the order is ``len(s) - 1``."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[PolyLike], order: int | None = None) -> ClassSeries:
        cs = [as_class(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("series needs at least the constant coefficient")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        if len(cs) < order + 1:
            cs.extend([ClassPoly.zero()] * (order + 1 - len(cs)))
        return super().__new__(cls, cs[: order + 1])

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> ClassSeries:
        return cls([ClassPoly.one()], order=order)

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self) - 1

    @property
    def coefficients(self) -> tuple[ClassPoly, ...]:
        return tuple(self)

    def coefficient(self, k: int) -> ClassPoly:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside truncation order {self.order}")
        return self[k]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ClassSeries) -> ClassSeries:
        return ClassSeries([a + b for a, b in zip(self, _series(other))])

    __radd__ = __add__

    def __mul__(self, other: ClassSeries) -> ClassSeries:
        """Coefficient k of the product is one ``sum_of_products`` over the pairs of
        coefficients whose orders add up to k, accumulated and reduced once."""
        o = _series(other)
        n = min(len(self), len(o)) - 1
        return ClassSeries(
            [sum_of_products((self[i], o[k - i]) for i in range(k + 1)) for k in range(n + 1)]
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> ClassSeries:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"series exponent must be a non-negative integer, got {k!r}")
        return square_and_multiply(ClassSeries.one(self.order), self, k)

    def inverse(self) -> ClassSeries:
        """Multiplicative inverse; requires constant coefficient exactly 1."""
        if self[0] != ClassPoly.one():
            raise NonUnitConstantTermError(f"cannot invert a series with constant term {self[0]}")
        inv = [ClassPoly.one()]
        for k in range(1, len(self)):
            inv.append(-sum_of_products((self[i], inv[k - i]) for i in range(1, k + 1)))
        return ClassSeries(inv)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return self._render(latex=False)

    def latex(self) -> str:
        return self._render(latex=True)

    def __repr__(self) -> str:
        return f"ClassSeries({self})"

    def _render(self, latex: bool) -> str:
        pairs = [pair for k, c in enumerate(self) for pair in c.term_texts(latex, ("x", k))]
        tail = f"O(x^{{{len(self)}}})" if latex else f"O(x^{len(self)})"
        return f"{join_terms(pairs)} + {tail}"


def _series(other: object) -> ClassSeries:
    """The other operand of a series operator, which must be a series."""
    if not isinstance(other, ClassSeries):
        raise TypeError(f"a series combines only with a series, got {type(other).__name__}")
    return other


# -- series builders --------------------------------------------------------


def binomial_series(
    exponent: PolyLike, power: int = 1, sign: int = 1, *, order: int
) -> ClassSeries:
    """The series (1 - sign*x^power)^exponent, truncated at ``order``.

    Expanded via the symbolic binomial theorem:
    sum_k C(exponent, k) (-sign)^k x^(power*k).  A negative exponent -q is
    handled by the same formula, since C(-q, k)(-1)^k = C(q+k-1, k).  Each
    coefficient is the previous one times (exponent - k + 1) / k and the sign,
    so the whole series takes one polynomial product per term.

    A series of order N is a polynomial of degree N in its counting variable, so
    an order past :data:`MAX_TOTAL_DEGREE` raises :class:`PolyTooLargeError`
    before any coefficient is built, whatever the exponent.
    """
    if order < 0:
        raise PreconditionError(f"series order must be >= 0, got {order}")
    if order > MAX_TOTAL_DEGREE:
        raise PolyTooLargeError(f"series order {order}; the limit is {MAX_TOTAL_DEGREE}")
    if power < 1:
        raise ValueError("power of x must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    q = as_class(exponent)
    coeffs = [ClassPoly.zero()] * (order + 1)
    c = coeffs[0] = ClassPoly.one()
    for k in range(1, order // power + 1):
        c = c * ((q - (k - 1)) / (-k if sign == 1 else k))
        coeffs[power * k] = c
    return ClassSeries(coeffs, order=order)


def macdonald_series(p: PolyLike, order: int) -> ClassSeries:
    """The symmetric product series (1 - x)^(-p) = sum_d C(p+d-1, d) x^d.

    Coefficient of x^d is the class of the d-th symmetric product of a space
    of class p.
    """
    return binomial_series(-as_class(p), 1, 1, order=order)


# -- command line ----------------------------------------------------------------


def cmd_symprod_series(args: SimpleNamespace) -> None:
    print(render(macdonald_series(parse_poly(args.X), args.order), args.latex))
