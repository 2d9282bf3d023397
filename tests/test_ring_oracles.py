"""Independent oracles for the ring core: canonical form, axioms, sympy, old builders.

Every ring operation builds its result through the trusted ``ClassPoly._make``;
these tests rebuild each result through the validating constructor and
compare, check the ring axioms and the parse/print round trip on random
polynomials, compare random expressions with the ring's first arithmetic
(``util.FractionPoly``, one ``Fraction`` per term), read ``int`` and ``Fraction``
scalars against that reference, and compare products, powers, binomials and
series inverses with sympy.
"""

import re
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kzero import classpoly
from kzero.classpoly import MAX_TOTAL_DEGREE, ClassPoly, PolyTooLargeError, as_class, binomial, parse_poly
from kzero.classseries import ClassSeries, binomial_series

from util import FractionPoly, brute_force_binomial_series, reference_series_text

VARIABLES = ("x", "a", "y")

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def polys(draw, max_terms: int = 4, max_exponent: int = 3, coefficients=coefficients) -> ClassPoly:
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


# -- integer numerators over one denominator against one Fraction per term ------


@st.composite
def raw_polys(draw) -> tuple[tuple[str, ...], dict]:
    """Variables and Fraction terms, mixing denominators, to build both rings from."""
    vs = tuple(draw(st.lists(st.sampled_from(VARIABLES), unique=True, max_size=3)))
    exponents = st.tuples(*[st.integers(0, 2)] * len(vs))
    return vs, draw(st.dictionaries(exponents, coefficients, max_size=3))


OPERATIONS = ["+", "-", "*", "**", "/"]


@st.composite
def expressions(draw) -> tuple[ClassPoly, FractionPoly]:
    """One random expression evaluated in both rings: a polynomial, then up to four
    steps of +, - or * by a polynomial, ** by 0..3, or / by a nonzero scalar."""
    vs, terms = draw(raw_polys())
    p, ref = ClassPoly(vs, terms), FractionPoly(vs, terms)
    for op in draw(st.lists(st.sampled_from(OPERATIONS), max_size=4)):
        if op == "**":
            k = draw(st.integers(0, 3))
            p, ref = p ** k, ref ** k
        elif op == "/":
            q = draw(coefficients.filter(bool))
            p, ref = p / q, ref / q
        else:
            ws, other = draw(raw_polys())
            q, other_ref = ClassPoly(ws, other), FractionPoly(ws, other)
            if op == "+":
                p, ref = p + q, ref + other_ref
            elif op == "-":
                p, ref = p - q, ref - other_ref
            else:
                p, ref = p * q, ref * other_ref
    return p, ref


@given(expressions(), expressions(), st.tuples(*[coefficients] * len(VARIABLES)))
@settings(max_examples=200, deadline=None)
def test_expressions_agree_with_the_fraction_per_term_reference(first, second, values):
    at = dict(zip(VARIABLES, values))
    for p, ref in (first, second):
        assert str(p) == ref.render(latex=False)
        assert p.latex() == ref.render(latex=True)
        assert list(p.terms()) == ref.terms()
        assert p.variables == ref.variables
        assert p.constant_term() == ref.constant_term()
        assert p.evaluate(at) == ref.evaluate(at)
        rebuilt_p = ClassPoly(ref.variables, ref.coeffs)
        assert rebuilt_p == p and hash(rebuilt_p) == hash(p)
    (p, ref), (q, other_ref) = first, second
    assert (p == q) == (ref == other_ref)
    if p == q:
        assert hash(p) == hash(q)


@given(st.lists(raw_polys(), min_size=1, max_size=4), st.lists(raw_polys(), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_series_products_agree_with_the_fraction_per_term_reference(left, right):
    product = ClassSeries([ClassPoly(*r) for r in left]) * ClassSeries([ClassPoly(*r) for r in right])
    refs = [FractionPoly(*r) for r in left], [FractionPoly(*r) for r in right]
    assert len(product) == min(len(left), len(right))
    for k, c in enumerate(product):
        want = FractionPoly((), {})
        for i in range(k + 1):
            want = want + refs[0][i] * refs[1][k - i]
        assert str(c) == want.render(latex=False) and c == ClassPoly(want.variables, want.coeffs)


negative_fractions = st.fractions(min_value=-5, max_value=0, max_denominator=6).filter(bool)


@st.composite
def series_coefficients(draw) -> ClassPoly:
    """Zero, 1 or -1, a negative fraction, a single negative monomial, or several
    terms, one of them a power of ``x``."""
    kind = draw(st.sampled_from(["zero", "unit", "fraction", "monomial", "terms"]))
    if kind == "zero":
        return ClassPoly.zero()
    if kind == "unit":
        return ClassPoly.const(draw(st.sampled_from([1, -1])))
    if kind == "fraction":
        return ClassPoly.const(draw(negative_fractions))
    if kind == "monomial":
        vs = draw(st.lists(st.sampled_from(VARIABLES), unique=True, min_size=1, max_size=3))
        return ClassPoly(vs, {tuple(draw(st.integers(1, 3)) for _ in vs): draw(negative_fractions)})
    return draw(polys(max_terms=3)) + draw(coefficients.filter(bool)) * x ** draw(st.integers(1, 3))


@given(st.lists(series_coefficients(), min_size=1, max_size=7))
@example([ClassPoly.one(), -ClassPoly.one(), ClassPoly.const(Fraction(-1, 2)), -x * a, x + 1, -x - 1, 0 * x])
@example([-(x ** 2) + a - 1, ClassPoly.const(-7), Fraction(-2, 3) * y, x / 2 - Fraction(1, 3)])
@settings(max_examples=200, deadline=None)
def test_series_text_agrees_with_the_string_surgery_reference(coeffs):
    s = ClassSeries(coeffs)
    assert str(s) == reference_series_text(s, latex=False)
    assert s.latex() == reference_series_text(s, latex=True)


def test_one_polynomial_through_different_denominators_is_one_value():
    builds = [
        x / 6 + a / 4,
        (2 * x + 3 * a) / 12,
        (x / 2 + a * Fraction(3, 4)) / 3,
        (4 * x + 6 * a) / 24 + y / 5 - y / 5,
        x * Fraction(1, 6) + a - a * Fraction(3, 4),
        ClassPoly(("a", "x"), {(1, 0): Fraction(2, 8), (0, 1): Fraction(2, 12)}),
        parse_poly("1/6*x + 1/4*a"),
    ]
    for p in builds:
        assert p == builds[0] and hash(p) == hash(builds[0])
        assert str(p) == "1/6*x + 1/4*a" and p.variables == ("x", "a")
    # a constant reached through any denominator equals and hashes like its scalar
    for c in ((x + Fraction(1, 2)) * 2 - 2 * x, (x / 3 + Fraction(2, 3)) * 3 - x - 1, (x / 7 - x / 7) + 1):
        assert c == 1 and hash(c) == hash(1) and c.is_constant()
    zero = x / 3 - x / 3
    assert zero == 0 and hash(zero) == hash(0) and str(zero) == "0"


# -- packed monomials: one int per term, the degree slot on top ----------------

NAMES = ("z", "x", "b", "a2", "a")
"""Variables whose slots interleave: a missing one may sit above, between or below the others."""


@st.composite
def variable_sets(draw, relation: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Two variable tuples, in a random order of names: ``disjoint``; ``nested``, the
    second inside the first; or ``differing``, each with a variable the other lacks."""
    names = draw(st.permutations(NAMES))
    if relation == "differing":
        i = draw(st.integers(1, len(NAMES) - 2))
        return names[:draw(st.integers(i + 1, len(NAMES) - 1))], names[i:]
    i, j = sorted(draw(st.tuples(*[st.integers(0, len(NAMES))] * 2)))
    return (names[:i], names[i:j]) if relation == "disjoint" else (names[:j], names[:i])


@st.composite
def terms_over(draw, vs: tuple[str, ...], max_exponent: int = 3) -> dict:
    return draw(st.dictionaries(st.tuples(*[st.integers(0, max_exponent)] * len(vs)), coefficients, max_size=4))


@given(st.sampled_from(["disjoint", "nested", "differing"]).flatmap(variable_sets).flatmap(
    lambda pair: st.tuples(*(st.just(vs) for vs in pair), *(terms_over(vs) for vs in pair))))
@settings(max_examples=300, deadline=None)
def test_sums_and_products_over_other_variable_sets_agree_with_the_reference(case):
    vs, ws, left, right = case
    p, q = ClassPoly(vs, left), ClassPoly(ws, right)
    ref, other = FractionPoly(vs, left), FractionPoly(ws, right)
    for got, want in ((p + q, ref + other), (q + p, other + ref), (p - q, ref - other), (p * q, ref * other),
                      (q * p, other * ref)):
        assert_same(got, want)
        assert got == ClassPoly(want.variables, want.coeffs) and got.total_degree() == max(map(sum, want.coeffs),
                                                                                         default=-1)


@given(st.permutations(NAMES), st.data())
@settings(max_examples=200, deadline=None)
def test_a_variable_that_cancels_gives_up_its_slot(names, data):
    # p and q have no b; a multiple of b added and taken away again leaves no slot for b
    vs = tuple(v for v in names if v != "b")[:data.draw(st.integers(0, 4))]
    left, right, k = data.draw(terms_over(vs)), data.draw(terms_over(vs)), data.draw(st.integers(1, 3))
    p, q, b = ClassPoly(vs, left), ClassPoly(vs, right), ClassPoly(("b",), {(k,): 1})
    ref_p, ref_q, ref_b = FractionPoly(vs, left), FractionPoly(vs, right), FractionPoly(("b",), {(k,): 1})
    cases = [((p + b * q) - b * q, (ref_p + ref_b * ref_q) - ref_b * ref_q, p),
             ((p + b) * q - b * q, (ref_p + ref_b) * ref_q - ref_b * ref_q, p * q),
             (p * (b + 1) - p * b, ref_p * (ref_b + FractionPoly((), {(): 1})) - ref_p * ref_b, p)]
    for got, want, same_as in cases:
        assert_same(got, want)
        assert "b" not in got.variables and got == same_as and hash(got) == hash(same_as)


@given(st.integers(0, MAX_TOTAL_DEGREE), st.integers(0, MAX_TOTAL_DEGREE), coefficients.filter(bool),
       coefficients.filter(bool))
@example(MAX_TOTAL_DEGREE, 0, 1, 1)  # all of the degree in the slot of x
@example(0, MAX_TOTAL_DEGREE, -1, Fraction(1, 2))  # all of it in the slot of a
@settings(max_examples=50, deadline=None)
def test_a_product_at_exactly_the_degree_cap_fills_its_slots_without_carrying(i, j, c, d):
    # c x^i a^k + d times d x^(cap - i - k) + c: the top term of the product has degree cap
    k = min(j, MAX_TOTAL_DEGREE - i)
    p = ClassPoly(("x", "a"), {(i, k): c, (0, 0): d})
    q = ClassPoly(("a", "x"), {(0, MAX_TOTAL_DEGREE - i - k): d, (0, 0): c})
    product = p * q
    assert product.total_degree() == MAX_TOTAL_DEGREE
    assert_same(product, FractionPoly.of(p) * FractionPoly.of(q))
    with pytest.raises(PolyTooLargeError, match=f"total degree {MAX_TOTAL_DEGREE + 1};"):
        product * ClassPoly.var("y")


@pytest.mark.parametrize("exponents", [
    (MAX_TOTAL_DEGREE + 1,), (1 << MAX_TOTAL_DEGREE.bit_length(),), (-1,), (600, 401), (MAX_TOTAL_DEGREE, 1),
])
def test_an_exponent_vector_that_does_not_fit_its_slots_is_the_documented_value_error(exponents):
    vs = ("x", "a")[:len(exponents)]
    with pytest.raises(ValueError, match=re.escape(f"bad exponent vector {exponents!r} for variables {vs!r}")):
        ClassPoly(vs, {exponents: 1})
    # the largest vectors that fit are read
    assert ClassPoly(vs, {(MAX_TOTAL_DEGREE, 0)[:len(vs)]: 1}).total_degree() == MAX_TOTAL_DEGREE
    assert ClassPoly(("x", "a"), {(500, 500): 1, (1000, 0): 2}).total_degree() == MAX_TOTAL_DEGREE


@given(polys(max_terms=8))
@settings(max_examples=200, deadline=None)
def test_terms_come_in_print_order(p):
    # by decreasing total degree, then decreasing exponent vector over the variables' order
    monomials = [m for m, _ in p.terms()]
    keys = [(sum(m.values()), tuple(m.get(v, 0) for v in p.variables)) for m in monomials]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
    assert list(p.terms()) == FractionPoly.of(p).terms()
    assert str(p) == FractionPoly.of(p).render(latex=False)


# -- scalars enter as integer pairs ---------------------------------------------

scalars = st.one_of(
    st.integers(-10**12, 10**12),
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1), Fraction(6), Fraction(-6, 3)]),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
"""``int`` and ``Fraction`` scalars: negative, zero, +-1 and whole-number ``Fraction``s included."""


def reference(q) -> FractionPoly:
    return FractionPoly((), {(): Fraction(q)})


def assert_same(p: ClassPoly, ref: FractionPoly) -> None:
    assert (p.variables, list(p.terms()), str(p)) == (ref.variables, ref.terms(), ref.render(latex=False))


@given(raw_polys(), scalars)
@example((("x",), {(1,): Fraction(1, 2)}), -1)
@example((("x",), {(1,): 3}), Fraction(-6, 3))
@example((("x", "a"), {(1, 0): Fraction(1, 3), (0, 1): 2}), Fraction(-2, 3))
@settings(max_examples=200, deadline=None)
def test_an_int_or_fraction_scalar_acts_as_the_fraction_reference(raw, q):
    vs, terms = raw
    p, ref = ClassPoly(vs, terms), FractionPoly(vs, terms)
    assert_same(q * p, reference(q) * ref)
    assert_same(p + q, ref + reference(q))
    assert_same(q - p, reference(q) - ref)
    assert_same(ClassPoly.const(q), reference(q))
    assert hash(ClassPoly.const(q)) == hash(q)
    if q:
        assert_same(p / q, ref / q)


@st.composite
def mixed_raw_polys(draw) -> tuple[tuple[str, ...], dict]:
    """Variables and terms whose coefficients mix ``int`` and ``Fraction``, zeros included."""
    vs = tuple(draw(st.lists(st.sampled_from(VARIABLES), unique=True, max_size=3)))
    return vs, draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(vs)), scalars, max_size=4))


@given(mixed_raw_polys())
@example((("x", "a"), {(1, 0): Fraction(1, 6), (0, 1): Fraction(5, 6), (0, 0): 0}))
@example((("x", "a"), {(1, 0): Fraction(4, 2), (0, 1): Fraction(0), (0, 0): -3}))
@example((("y",), {(1,): 0, (2,): Fraction(0)}))
@settings(max_examples=200, deadline=None)
def test_mixed_int_and_fraction_coefficients_build_the_reference(raw):
    # zero coefficients vanish with their variables, and denominators reduce to the lcm
    vs, terms = raw
    p, ref = ClassPoly(vs, terms), FractionPoly(vs, terms)
    assert_same(p, ref)
    assert p == ClassPoly(ref.variables, ref.coeffs) and hash(p) == hash(ClassPoly(ref.variables, ref.coeffs))


SCALAR_ROLES = {
    "coefficient": (lambda v: ClassPoly.const(v), "a coefficient must be an int or Fraction, got {}"),
    "divisor": (lambda v: x / v, "a divisor must be an int or Fraction, got {}"),
    "value": (lambda v: x.evaluate({"x": v}), "the value of x must be an int or Fraction, got {}"),
    "class": (as_class, "a class must be a ClassPoly, int or Fraction, got {}"),
}


@pytest.mark.parametrize("value", [0.5, "1/2", Decimal("0.5")], ids=["float", "str", "Decimal"])
@pytest.mark.parametrize("role", SCALAR_ROLES)
def test_an_inexact_or_text_scalar_raises_the_same_type_error(role, value):
    call, message = SCALAR_ROLES[role]
    with pytest.raises(TypeError, match=f"^{re.escape(message.format(type(value).__name__))}$"):
        call(value)


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


@given(polys(coefficients=st.fractions(-2**24, 2**24, max_denominator=2**12)), st.integers(0, 6))
@example(x + 2**40, 2)  # the constant term is the one a power must take past the limit
@example(x + 2**40 * a + 1, 2)  # so is the term with the largest exponent of a
@settings(max_examples=200, deadline=None)
def test_a_power_refused_by_the_digit_pre_check_has_a_coefficient_past_the_limit(p, k):
    # 64 bits in place of MAX_DIGITS digits, so powers of small classes cross it both ways
    with mock.patch.object(classpoly, "_DIGIT_BITS", 64):
        try:
            p ** k
        except PolyTooLargeError as e:
            assert str(e) == f"power would pass {classpoly.MAX_DIGITS} digits"
            coefficients = (FractionPoly.of(p) ** k).coeffs.values()
            assert any(max(abs(c.numerator), c.denominator).bit_length() > 64 for c in coefficients)


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
