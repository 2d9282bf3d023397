"""Classes of spaces of 0-cycles of bounded multiplicities.

Fix m >= 1 colors and a bound n >= 1.  For a degree vector d = (d_1..d_m),
the space of 0-cycles Z_n^d(X) consists of configurations of points of X
carrying m-tuples of multiplicities, d_i being the total of color i, where
no point carries every coordinate of its multiplicity tuple >= n.

Peeling off the points that do violate the bound gives the defining
recursion against products of symmetric products SP^d(X) = prod SP^(d_i)(X):

    sum_{k=0..min_i floor(d_i/n)} [SP^k(X)] * [Z_n^(d - kn)] = [SP^d(X)]

(d - kn subtracts kn from every coordinate).  Solving bottom-up fills a
table of exact classes in the class x of X.  Summing by total degree packs
the table into a series whose closed form is

    sum_d [Z_n^d(X)] t^|d| = (1 - t^(mn))^x * (1 - t)^(-mx),

and dividing by the symmetric-product series (1 - t)^(-mx) leaves the
binomial series (1 - t^(mn))^x.  ``closed_series`` and ``ratio_series``
build these closed forms from binomial series, one product at most; the
test suite checks both identities against the table, which is the
authoritative computation.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator, Sequence

from .classpoly import ClassPoly, PolyLike, as_class
from .classseries import ClassSeries, binomial_series, macdonald_series
from .errors import DOutOfRangeError, PreconditionError

DegreeVector = tuple[int, ...]


class OrderExceedsTableError(PreconditionError):
    """A series or lookup was requested beyond the table's computed range."""


def sp_vector_class(d: Sequence[int], x_class: PolyLike) -> ClassPoly:
    """[SP^d(X)] = product over i of C(x + d_i - 1, d_i), each factor read off the
    symmetric-product series, as ``ZeroCycleTable`` does."""
    for di in d:
        if di < 0:
            raise DOutOfRangeError(f"degree vector coordinate {di} is negative")
    sp = macdonald_series(x_class, max(d, default=0))
    total = ClassPoly.one()
    for di in d:
        total = total * sp[di]
    return total


def _compositions(total: int, parts: int) -> Iterator[DegreeVector]:
    """All vectors of ``parts`` non-negative integers summing to ``total``, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


class ZeroCycleTable:
    """Classes [Z_n^d(X)] for every degree vector with |d| <= max_total."""

    __slots__ = ("_m", "_max_total", "_values")

    def __init__(self, m: int, n: int, x_class: PolyLike, max_total: int):
        if m < 1 or n < 1:
            raise PreconditionError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
        if max_total < 0:
            raise PreconditionError(f"table bound must be >= 0, got {max_total}")
        self._m = m
        self._max_total = max_total
        self._values: dict[DegreeVector, ClassPoly] = {}
        # [SP^k(X)] for every coordinate k <= max_total: the coefficients of
        # the symmetric-product series, one polynomial product each.
        sp_cache = macdonald_series(as_class(x_class), max_total)
        for total in range(max_total + 1):
            for d in _compositions(total, m):
                cap = min(d) // n
                value = sp_cache[d[0]]
                for di in d[1:]:
                    value = value * sp_cache[di]
                for k in range(1, cap + 1):
                    lower = tuple(di - k * n for di in d)
                    value = value - sp_cache[k] * self._values[lower]
                self._values[d] = value

    def __getitem__(self, d: Sequence[int]) -> ClassPoly:
        key = tuple(d)
        if len(key) != self._m:
            raise PreconditionError(f"degree vector must have {self._m} coordinates, got {key!r}")
        if any(di < 0 for di in key):
            raise DOutOfRangeError(f"degree vector coordinate negative in {key!r}")
        if sum(key) > self._max_total:
            raise OrderExceedsTableError(
                f"|d| = {sum(key)} exceeds the table bound {self._max_total}"
            )
        return self._values[key]

    def entries(self) -> Iterator[tuple[DegreeVector, ClassPoly]]:
        """All (degree vector, class) pairs, sorted by (total degree, vector): the order
        in which the recursion fills the table."""
        return iter(self._values.items())

    def series(self, order: int) -> ClassSeries:
        """sum over d of [Z_n^d(X)] t^|d|, truncated at ``order``."""
        if order > self._max_total:
            raise OrderExceedsTableError(
                f"series order {order} exceeds the table bound {self._max_total}"
            )
        coeffs = [ClassPoly.zero() for _ in range(order + 1)]
        for d, value in self._values.items():
            if sum(d) <= order:
                coeffs[sum(d)] = coeffs[sum(d)] + value
        return ClassSeries(coeffs, order=order)


def closed_series(m: int, n: int, x_class: PolyLike, order: int) -> ClassSeries:
    """(1 - t^(mn))^x * (1 - t)^(-mx): the closed form of the 0-cycle series."""
    return ratio_series(m, n, x_class, order) * binomial_series(-m * as_class(x_class), 1, 1, order=order)


def ratio_series(m: int, n: int, x_class: PolyLike, order: int) -> ClassSeries:
    """(1 - t^(mn))^x: the 0-cycle series divided by the symmetric-product series (1 - t)^(-mx)."""
    if m < 1 or n < 1:
        raise PreconditionError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return binomial_series(as_class(x_class), m * n, 1, order=order)
