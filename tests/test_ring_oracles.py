"""Independent oracles for the ring core: canonical form, axioms, sympy, old builders.

Every ring operation builds its result through the trusted ``ClassPoly._make``;
these tests rebuild each result through the validating constructor and
compare, check the ring axioms and the parse/print round trip on random
polynomials, and compare products, powers, binomials and series inverses
with sympy.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kzero.classpoly import ClassPoly, binomial, parse_poly
from kzero.classseries import ClassSeries, binomial_series

from util import brute_force_binomial_series

VARIABLES = ("x", "a", "y")

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def polys(draw, max_terms: int = 4, max_exponent: int = 3) -> ClassPoly:
    vs = tuple(draw(st.lists(st.sampled_from(VARIABLES), unique=True, max_size=3)))
    exponents = st.tuples(*[st.integers(0, max_exponent)] * len(vs))
    terms = draw(st.dictionaries(exponents, coefficients, max_size=max_terms))
    return ClassPoly(vs, terms)


def rebuilt(p: ClassPoly) -> ClassPoly:
    """``p`` passed through the validating constructor, from its public terms."""
    return ClassPoly(p.variables, {tuple(m.get(v, 0) for v in p.variables): c for m, c in p.terms()})


def assert_canonical(p: ClassPoly) -> None:
    q = rebuilt(p)
    assert q == p and q.variables == p.variables and hash(q) == hash(p)
    assert all(type(c) is Fraction and c != 0 for _, c in p.terms())
    assert list(p.variables) == sorted(set(p.variables), reverse=True)
    for v in p.variables:
        assert any(v in m for m, _ in p.terms()), f"unused variable {v} kept in {p!r}"


x, a, y = (ClassPoly.var(v) for v in VARIABLES)


@given(polys(), polys())
@example(x + a, -a)
@example(x * a + 1, -(x * a))
@example(x / 2 + a / 3, x / 2 - a / 3)
@settings(max_examples=150, deadline=None)
def test_every_operation_yields_canonical_form(p, q):
    for r in (p + q, p - q, -p, p * q, p ** 3, 2 * p, p / Fraction(-3, 4), p - p, p + 0, p * 0):
        assert_canonical(r)


@given(polys())
@settings(max_examples=150, deadline=None)
def test_parse_of_str_round_trips(p):
    assert parse_poly(str(p)) == p


@given(polys(), polys(), polys())
@settings(max_examples=100, deadline=None)
def test_ring_axioms(p, q, r):
    zero, one = ClassPoly.zero(), ClassPoly.one()
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and p * zero == zero
    assert p + (-p) == zero and p - q == p + (-q)
    assert p ** 2 == p * p


# -- stepped binomial series against the per-k binomial route -------------------


@pytest.mark.parametrize("exponent", [x, -x, x - 6 * a, x + a + y + 7, x / 2 - Fraction(1, 3),
                                      3, -2, Fraction(1, 2), 0])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("power", [1, 2, 3])
def test_binomial_series_matches_per_k_binomials(exponent, sign, power):
    order = 7
    assert binomial_series(exponent, power, sign, order=order) == brute_force_binomial_series(
        exponent, power, sign, order)


# -- sympy oracle -------------------------------------------------------------


def sym(p: ClassPoly):
    sympy = pytest.importorskip("sympy")
    return sympy.sympify(str(p).replace("^", "**"))


def same(p: ClassPoly, expr) -> bool:
    sympy = pytest.importorskip("sympy")
    return sympy.expand(sym(p) - expr) == 0


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_product_matches_sympy(p, q):
    assert same(p * q, sym(p) * sym(q))


@given(polys(max_terms=3, max_exponent=2), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_power_matches_sympy(p, k):
    assert same(p ** k, sym(p) ** k)


@given(polys(max_terms=3, max_exponent=2), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_binomial_matches_sympy(p, k):
    sympy = pytest.importorskip("sympy")
    falling = sympy.Mul(*[sym(p) - i for i in range(k)])
    assert same(binomial(p, k), falling / sympy.factorial(k))


@given(st.lists(polys(max_terms=2, max_exponent=2), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_series_inverse_matches_sympy(tail):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    order = len(tail)
    s = ClassSeries([ClassPoly.one(), *tail], order=order)
    expr = 1 + sum(sym(c) * t ** (k + 1) for k, c in enumerate(tail))
    want = sympy.series(1 / expr, t, 0, order + 1).removeO()
    inverse = s.inverse()
    for k in range(order + 1):
        assert same(inverse.coefficient(k), want.coeff(t, k)), k
