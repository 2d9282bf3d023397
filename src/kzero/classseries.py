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
two series through a common order use ``s.truncate(k) == t.truncate(k)``.
The arithmetic operators are the series', not the tuple's concatenation and
repetition.
"""

from __future__ import annotations

from typing import Iterable, Union

from .classpoly import ClassPoly, PolyLike, as_class
from .errors import PreconditionError

SeriesLike = Union["ClassSeries", PolyLike]


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
    def zero(cls, order: int) -> ClassSeries:
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> ClassSeries:
        return cls([ClassPoly.one()], order=order)

    @classmethod
    def constant(cls, value: PolyLike, order: int) -> ClassSeries:
        return cls([value], order=order)

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

    def truncate(self, order: int) -> ClassSeries:
        """The same series cut down to a smaller (or equal) order."""
        if order > self.order:
            raise ValueError(f"cannot extend a series truncated at {self.order} to {order}")
        return ClassSeries(self[: order + 1], order=order)

    # -- arithmetic --------------------------------------------------------

    def _coerced(self, other: SeriesLike) -> ClassSeries | None:
        if isinstance(other, ClassSeries):
            return other
        try:
            return ClassSeries.constant(other, self.order)
        except TypeError:
            return None

    def __add__(self, other: SeriesLike) -> ClassSeries:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return ClassSeries([a + b for a, b in zip(self, o)])

    __radd__ = __add__

    def __neg__(self) -> ClassSeries:
        return ClassSeries([-c for c in self])

    def __sub__(self, other: SeriesLike) -> ClassSeries:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: SeriesLike) -> ClassSeries:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: SeriesLike) -> ClassSeries:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        n = min(len(self), len(o)) - 1
        out = [ClassPoly.zero() for _ in range(n + 1)]
        for i in range(n + 1):
            a = self[i]
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = o[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return ClassSeries(out, order=n)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> ClassSeries:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"series exponent must be a non-negative integer, got {k!r}")
        result = ClassSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def inverse(self) -> ClassSeries:
        """Multiplicative inverse; requires constant coefficient exactly 1."""
        if self[0] != ClassPoly.one():
            raise NonUnitConstantTermError(f"cannot invert a series with constant term {self[0]}")
        inv = [ClassPoly.one()]
        for k in range(1, len(self)):
            acc = ClassPoly.zero()
            for i in range(1, k + 1):
                if not self[i].is_zero():
                    acc = acc + self[i] * inv[k - i]
            inv.append(-acc)
        return ClassSeries(inv)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return self._render(latex=False)

    def latex(self) -> str:
        return self._render(latex=True)

    def __repr__(self) -> str:
        return f"ClassSeries({self})"

    def _render(self, latex: bool) -> str:
        parts: list[str] = []
        for k, c in enumerate(self):
            if not c.is_zero():
                parts.append(_render_term(c, k, latex, first=not parts))
        body = "".join(parts) if parts else "0"
        exp = len(self)
        return f"{body} + O(x^{{{exp}}})" if latex else f"{body} + O(x^{exp})"


def _render_term(c: ClassPoly, k: int, latex: bool, first: bool) -> str:
    """One series term, pulling a leading minus sign out of constant coefficients."""
    text = c.latex() if latex else str(c)
    negate = False
    single = c.term_count() == 1
    if single and text.startswith("-"):
        negate = True
        text = text[1:]
    if k == 0:
        body = text if single else f"({text})"
    else:
        xk = "x" if k == 1 else (f"x^{{{k}}}" if latex else f"x^{k}")
        if single:
            if text == "1":
                body = xk
            elif latex:
                body = f"{text}{xk}" if c.is_constant() else f"{text}\\,{xk}"
            else:
                body = f"{text}*{xk}"
        else:
            body = f"({text}){'' if latex else '*'}{xk}"
    if first:
        return f"-{body}" if negate else body
    return f" - {body}" if negate else f" + {body}"


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
    """
    if order < 0:
        raise PreconditionError(f"series order must be >= 0, got {order}")
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


def geometric_series(order: int) -> ClassSeries:
    """1 + x + x^2 + ... = (1 - x)^(-1), truncated at ``order``."""
    return ClassSeries([ClassPoly.one()] * (order + 1), order=order)
