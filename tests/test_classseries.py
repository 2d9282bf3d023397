"""Truncated series arithmetic, inversion, and the series builders."""

import random

import pytest

from kzero.classpoly import MAX_TOTAL_DEGREE, ClassPoly, PolyTooLargeError, binomial
from kzero.classseries import (
    ClassSeries,
    NonUnitConstantTermError,
    binomial_series,
    macdonald_series,
)
from kzero.products import symmetric_product_class
from kzero.zerocycles import closed_series, ratio_series

from util import random_poly

x = ClassPoly.var("x")


def random_series(rng: random.Random, order: int, unit: bool = False) -> ClassSeries:
    coeffs = [random_poly(rng, ("x",), max_degree=2) for _ in range(order + 1)]
    if unit:
        coeffs[0] = ClassPoly.one()
    return ClassSeries(coeffs, order=order)


def test_construction_pads_with_zeros():
    s = ClassSeries([1, 2], order=4)
    assert s.order == 4
    assert s.coefficient(3) == ClassPoly.zero()
    assert ClassSeries([], order=3).coefficients == (ClassPoly.zero(),) * 4


def test_mixed_order_arithmetic_truncates():
    s = macdonald_series(1, 8)
    t = macdonald_series(1, 3)
    assert (s + t).order == 3
    assert (s * t).order == 3


def test_equality_needs_equal_order():
    assert macdonald_series(1, 3) != macdonald_series(1, 4)
    assert ClassSeries(macdonald_series(1, 4), order=3) == macdonald_series(1, 3)


def test_geometric_times_one_minus_x_is_one():
    one_minus_x = ClassSeries([1, -1], order=12)
    assert macdonald_series(1, 12) * one_minus_x == ClassSeries.one(12)


def test_inverse_random_unit_series():
    rng = random.Random(201)
    for _ in range(200):
        order = rng.randint(0, 8)
        s = random_series(rng, order, unit=True)
        assert s * s.inverse() == ClassSeries.one(order)
        assert s.inverse().inverse() == s


def test_inverse_requires_unit_constant_term():
    with pytest.raises(NonUnitConstantTermError):
        ClassSeries([2, 1], order=3).inverse()
    with pytest.raises(NonUnitConstantTermError):
        ClassSeries([x, 1], order=3).inverse()


def test_ring_identities_random():
    rng = random.Random(202)
    for _ in range(200):
        order = rng.randint(0, 6)
        s = random_series(rng, order)
        t = random_series(rng, order)
        u = random_series(rng, order)
        assert s + t == t + s
        assert s * t == t * s
        assert s * (t + u) == s * t + s * u
        assert (s * t) * u == s * (t * u)


def test_macdonald_coefficients_are_symmetric_product_classes():
    s = macdonald_series(x, 10)
    for d in range(11):
        assert s.coefficient(d) == symmetric_product_class(x, d)
        assert s.coefficient(d) == binomial(x + d - 1, d)


def test_macdonald_inverse_at_point_class_one():
    assert macdonald_series(1, 9).inverse() == ClassSeries([1, -1], order=9)


def test_binomial_series_inverse_pairs():
    rng = random.Random(203)
    for _ in range(30):
        p = random_poly(rng, ("x",), max_degree=2)
        power = rng.randint(1, 3)
        sign = rng.choice([1, -1])
        s = binomial_series(p, power, sign, order=8)
        t = binomial_series(-p, power, sign, order=8)
        assert s * t == ClassSeries.one(8)


def test_binomial_series_plus_sign_expands_one_plus_x():
    # (1 + x^2)^3 has integer coefficients C(3, k)
    s = binomial_series(3, 2, -1, order=7)
    assert s.coefficient(0) == 1
    assert s.coefficient(2) == 3
    assert s.coefficient(4) == 3
    assert s.coefficient(6) == 1
    assert s.coefficient(1) == 0


@pytest.mark.parametrize("X", [1, x], ids=["X=1", "X=x"])
@pytest.mark.parametrize("build", [
    lambda X, order: binomial_series(X, 3, -1, order=order),
    lambda X, order: macdonald_series(X, order),
    lambda X, order: ratio_series(2, 1, X, order),
    lambda X, order: closed_series(2, 1, X, order),
], ids=["binomial", "macdonald", "ratio", "closed"])
def test_a_series_order_past_the_degree_limit_is_refused_for_every_exponent(build, X):
    with pytest.raises(PolyTooLargeError, match=f"series order {MAX_TOTAL_DEGREE + 1}; the limit is"):
        build(X, MAX_TOTAL_DEGREE + 1)
    if X == 1:  # a constant exponent's series at the limit is cheap to build
        assert build(X, MAX_TOTAL_DEGREE).order == MAX_TOTAL_DEGREE


def test_geometric_square_counts_points():
    sq = macdonald_series(1, 10) ** 2
    for k in range(11):
        assert sq.coefficient(k) == k + 1


def test_power_matches_repeated_multiplication():
    rng = random.Random(204)
    s = random_series(rng, 6)
    assert s ** 0 == ClassSeries.one(6)
    assert s ** 3 == s * s * s


def test_rendering():
    assert str(binomial_series(1, 2, 1, order=8)) == "1 - x^2 + O(x^9)"
    assert str(ClassSeries([], order=4)) == "0 + O(x^5)"
    assert str(macdonald_series(1, 2)) == "1 + x + x^2 + O(x^3)"
    s = macdonald_series(x, 2)
    assert str(s) == "1 + x*x + (1/2*x^2 + 1/2*x)*x^2 + O(x^3)"
    assert str(ClassSeries([1, 2 * x], order=1)) == "1 + 2*x*x + O(x^2)"


def test_latex_rendering():
    assert binomial_series(1, 2, 1, order=8).latex() == "1 - x^{2} + O(x^{9})"


def test_a_series_is_its_coefficients():
    s = ClassSeries([1, x, 0])
    assert len(s) == 3 and s.order == 2
    assert tuple(s) == s.coefficients == (ClassPoly.one(), x, ClassPoly.zero())
    assert type(s.coefficients) is tuple
    assert s[1] == s.coefficient(1) == x
    assert s != ClassSeries([1, x])
