"""Spaces of 0-cycles with bounded multiplicities: table, series, ratio."""

from fractions import Fraction
from itertools import product

import pytest

from kzero.classpoly import ClassPoly, binomial
from kzero.classseries import ClassSeries, binomial_series, macdonald_series
from kzero import zerocycles
from kzero.zerocycles import (
    DOutOfRangeError,
    OrderExceedsTableError,
    TableTooLargeError,
    ZeroCycleTable,
    closed_series,
    ratio_series,
    sp_vector_class,
)
from util import brute_force_binomial_series, count_zero_cycle_points, power_route_closed_series

X = ClassPoly.var("x")


def test_sp_vector_class_is_a_product_of_multiset_counts():
    import math
    p = sp_vector_class((2, 1), X)
    assert p == binomial(X + 1, 2) * X
    for c in range(0, 5):
        assert p.evaluate({"x": c}) == math.comb(c + 1, 2) * c
    with pytest.raises(DOutOfRangeError):
        sp_vector_class((1, -1), X)


def test_zero_degree_vector_gives_the_empty_cycle():
    for m, n in product((1, 2, 3), repeat=2):
        table = ZeroCycleTable(m, n, X, 3)
        assert table[(0,) * m] == ClassPoly.one()


def test_table_counts_points_in_finite_models():
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        table = ZeroCycleTable(m, n, X, 5)
        for d, value in table.entries():
            if sum(d) > 4:
                continue
            for c in range(0, 4):
                assert value.evaluate({"x": c}) == count_zero_cycle_points(c, n, d), (m, n, d, c)


def test_multiplicity_bound_two_single_color_is_a_binomial():
    # every point carries multiplicity 0 or 1, so Z^d is d distinct points
    table = ZeroCycleTable(1, 2, X, 6)
    for d in range(0, 7):
        assert table[(d,)] == binomial(X, d)


def test_defining_recursion_holds_for_table_entries():
    for m, n in [(1, 2), (2, 1), (2, 2), (3, 1)]:
        table = ZeroCycleTable(m, n, X, 5)
        for d, _ in table.entries():
            total = ClassPoly.zero()
            for k in range(0, min(d) // n + 1):
                lower = tuple(di - k * n for di in d)
                total = total + sp_vector_class((k,), X) * table[lower]
            assert total == sp_vector_class(d, X)


def test_series_matches_closed_form():
    for m, n in product((1, 2, 3), repeat=2):
        table = ZeroCycleTable(m, n, X, 6)
        assert table.series(6) == closed_series(m, n, X, 6)


def test_closed_series_matches_the_power_route():
    y = ClassPoly.var("y")
    for m, n in product((1, 2, 3), repeat=2):
        for p in (X, X - 1, ClassPoly.const(2), X * y - Fraction(1, 3)):
            assert closed_series(m, n, p, 8) == power_route_closed_series(m, n, p, 8), (m, n, p)


def test_ratio_is_the_table_series_over_the_symmetric_product_series():
    # the theorem: sum_d [Z_n^d] t^|d| / (1 - t)^(-mx) = (1 - t^(mn))^x
    for m, n in product((1, 2, 3), repeat=2):
        for p in (X, X + 2, ClassPoly.const(3)):
            quotient = ZeroCycleTable(m, n, p, 7).series(7) * (macdonald_series(p, 7) ** m).inverse()
            assert ratio_series(m, n, p, 7) == quotient, (m, n, p)


def test_ratio_collapses_to_binomial_series():
    for m, n in product((1, 2, 3), repeat=2):
        for p in (X, X - 1, ClassPoly.const(2)):
            assert ratio_series(m, n, p, 8) == brute_force_binomial_series(p, m * n, 1, 8)


def test_two_colors_bound_one_over_a_point():
    s = closed_series(2, 1, 1, 6)
    assert s.coefficient(0) == ClassPoly.one()
    for k in range(1, 7):
        assert s.coefficient(k) == ClassPoly.const(2)
    assert ratio_series(2, 1, 1, 8) == binomial_series(ClassPoly.one(), 2, 1, order=8)
    assert str(ratio_series(2, 1, 1, 8)) == "1 - x^2 + O(x^9)"


def test_series_sums_table_rows_by_total_degree():
    table = ZeroCycleTable(2, 1, X, 4)
    s = table.series(4)
    for total in range(0, 5):
        expected = ClassPoly.zero()
        for d, value in table.entries():
            if sum(d) == total:
                expected = expected + value
        assert s.coefficient(total) == expected


def test_entries_are_sorted_and_complete():
    table = ZeroCycleTable(2, 1, X, 4)
    keys = [d for d, _ in table.entries()]
    assert keys == sorted(keys, key=lambda v: (sum(v), v))
    assert len(keys) == 15  # 1 + 2 + 3 + 4 + 5 vectors by total degree


def test_table_lookup_errors():
    table = ZeroCycleTable(2, 1, X, 4)
    with pytest.raises(ValueError):
        table[(1,)]
    with pytest.raises(DOutOfRangeError):
        table[(-1, 0)]
    with pytest.raises(OrderExceedsTableError):
        table[(3, 2)]
    with pytest.raises(OrderExceedsTableError):
        table.series(5)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ZeroCycleTable(0, 1, X, 3)
    with pytest.raises(ValueError):
        ZeroCycleTable(1, 0, X, 3)
    with pytest.raises(ValueError):
        ZeroCycleTable(1, 1, X, -1)
    with pytest.raises(ValueError):
        closed_series(0, 1, X, 3)
    with pytest.raises(ValueError):
        ratio_series(1, 0, X, 3)


def test_macdonald_series_is_the_unbounded_limit():
    # once n exceeds the table bound no multiplicity is ever excluded, so the
    # 0-cycle series agrees with the full symmetric-product series
    order = 5
    for m in (1, 2):
        table = ZeroCycleTable(m, order + 1, X, order)
        assert table.series(order) == macdonald_series(X, order) ** m


def test_series_coefficients_are_polynomials():
    table = ZeroCycleTable(2, 2, X, 5)
    s = table.series(5)
    assert isinstance(s, ClassSeries)
    assert all(isinstance(cp, ClassPoly) for cp in s.coefficients)


def test_a_table_past_the_product_limit_is_refused_before_it_fills(monkeypatch):
    # m=3, n=2 up to 5: C(8, 3) = 56 entries, each at most 3 + 5 // 2 = 5 products
    monkeypatch.setattr(zerocycles, "MAX_TABLE_PRODUCTS", 280)
    assert len(list(ZeroCycleTable(3, 2, X, 5).entries())) == 56
    monkeypatch.setattr(zerocycles, "MAX_TABLE_PRODUCTS", 279)
    with pytest.raises(TableTooLargeError, match="takes up to 280 products; the limit is 279"):
        ZeroCycleTable(3, 2, X, 5)


def test_permuted_degree_vectors_share_one_class():
    table = ZeroCycleTable(3, 1, X, 5)
    for d, value in table.entries():
        assert table[tuple(sorted(d))] is value
