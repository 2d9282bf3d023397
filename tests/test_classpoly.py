"""Ring, evaluation, binomial, parsing, and rendering of class polynomials."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from kzero.classpoly import (
    MAX_DIGITS,
    ClassPoly,
    MissingVariableError,
    PolyParseError,
    PolyTooLargeError,
    binomial,
    parse_poly,
)

from util import random_poly

x = ClassPoly.var("x")
a = ClassPoly.var("a")


def test_constructors_and_canonical_form():
    assert ClassPoly.zero() == 0
    assert ClassPoly.one() == 1
    assert ClassPoly.const(Fraction(3, 6)) == Fraction(1, 2)
    assert x - x == 0
    # variables that cancel disappear from the variable tuple
    p = x * a - x * a + x
    assert p.variables == ("x",)
    assert x + 0 == x
    assert str(ClassPoly.zero()) == "0"


def test_equality_is_structural():
    assert x + a == a + x
    assert x * (x + 1) == x ** 2 + x
    assert hash(x + a) == hash(a + x)
    assert x != a
    assert x - 1 != x + 1


def test_constants_hash_like_their_scalars():
    for value in (2, Fraction(1, 2), 0):
        c = ClassPoly.const(value)
        assert c == value and hash(c) == hash(value)
        assert value in {c}
        assert c in {value}
    assert ClassPoly.zero() in {0}


def test_ring_axioms_random_sweep():
    rng = random.Random(101)
    for _ in range(1000):
        p = random_poly(rng, ("x", "a"))
        q = random_poly(rng, ("x", "a"))
        r = random_poly(rng, ("x",))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + ClassPoly.zero() == p
        assert p * ClassPoly.one() == p
        assert p - p == ClassPoly.zero()


def test_evaluation_is_a_ring_morphism():
    rng = random.Random(102)
    for _ in range(300):
        p = random_poly(rng, ("x", "a"))
        q = random_poly(rng, ("x", "a"))
        at = {"x": rng.randint(-5, 5), "a": rng.randint(-5, 5)}
        assert (p + q).evaluate(at) == p.evaluate(at) + q.evaluate(at)
        assert (p * q).evaluate(at) == p.evaluate(at) * q.evaluate(at)


def test_evaluation_requires_all_variables():
    p = x * a + 1
    with pytest.raises(MissingVariableError):
        p.evaluate({"x": 2})
    assert p.evaluate({"x": 2, "a": 3, "unused": 9}) == 7


def test_evaluation_refuses_a_term_past_the_digit_limit_before_any_power():
    big = 10 ** (MAX_DIGITS - 300)
    for at in ({"x": big}, {"x": Fraction(1, big)}, {"x": Fraction(-big, 7)}):
        with pytest.raises(PolyTooLargeError, match=f"may pass {MAX_DIGITS} digits"):
            (x ** 1000 + 1).evaluate(at)
    # each term's bound stays under the limit, so the value is computed, however it cancels
    half = 7 ** 2300
    assert (x ** 2 - a ** 2).evaluate({"x": half, "a": half}) == 0
    assert (x ** 2 / 3).evaluate({"x": Fraction(1, half)}) == Fraction(1, 3 * half ** 2)


def test_scalar_division_only():
    assert (2 * x) / 2 == x
    assert x / Fraction(1, 2) == 2 * x
    with pytest.raises(TypeError):
        x / a
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_power():
    assert (x + 1) ** 0 == 1
    assert (x + 1) ** 2 == x ** 2 + 2 * x + 1
    with pytest.raises(ValueError):
        x ** -1


def test_symbolic_binomial_matches_integer_binomial():
    for p_val, k in product(range(0, 8), range(0, 6)):
        got = binomial(ClassPoly.const(p_val), k)
        assert got == math.comb(p_val, k)


def test_symbolic_binomial_at_negative_arguments():
    # C(-p, k) = (-1)^k C(p+k-1, k)
    for p_val, k in product(range(1, 6), range(0, 6)):
        got = binomial(-x, k).evaluate({"x": p_val})
        assert got == (-1) ** k * math.comb(p_val + k - 1, k)
    assert binomial(-x, 3).evaluate({"x": 1}) == -1


def test_symbolic_binomial_degree():
    assert binomial(x, 4).total_degree() == 4
    assert binomial(x * a + 1, 3).total_degree() == 6
    assert binomial(x, 0) == 1


def test_necklace_evaluation_against_brute_force():
    # (x^4 + x^2 + 2x)/4 at x = 2 must count Z/4-orbits of 2-colorings of a
    # 4-cycle; enumerate them directly.
    quotient = (x ** 4 + x ** 2 + 2 * x) / 4
    colorings = set(product(range(2), repeat=4))
    orbits = set()
    for col in colorings:
        orbit = frozenset(col[k:] + col[:k] for k in range(4))
        orbits.add(orbit)
    assert quotient.evaluate({"x": 2}) == len(orbits)
    assert len(orbits) == 6


def test_rendering_canonical_examples():
    poly = x ** 3 * a ** 2 + 2 * x ** 2 * a ** 3 - 2 * x * a ** 4
    assert str(poly) == "x^3*a^2 + 2*x^2*a^3 - 2*x*a^4"
    assert str((x - 1) * (x - 1)) == "x^2 - 2*x + 1"
    assert str((x ** 4 + x ** 2 + 2 * x) / 4) == "1/4*x^4 + 1/4*x^2 + 1/2*x"
    assert str(x ** 5 - x ** 3 * a ** 2 - 2 * x ** 2 * a ** 3 + 2 * x * a ** 4) == (
        "x^5 - x^3*a^2 - 2*x^2*a^3 + 2*x*a^4"
    )
    assert str(-x + 3) == "-x + 3"
    assert str(ClassPoly.const(Fraction(-1, 2))) == "-1/2"


def test_latex_rendering():
    poly = x ** 3 * a ** 2 + 2 * x ** 2 * a ** 3 - 2 * x * a ** 4
    assert poly.latex() == "x^{3}a^{2} + 2x^{2}a^{3} - 2xa^{4}"
    assert ((x ** 4 + x ** 2 + 2 * x) / 4).latex() == (
        "\\frac{1}{4}x^{4} + \\frac{1}{4}x^{2} + \\frac{1}{2}x"
    )


def test_parse_print_round_trip_random():
    rng = random.Random(103)
    for _ in range(300):
        p = random_poly(rng, ("x", "a"), max_degree=4)
        assert parse_poly(str(p)) == p


def test_parse_accepted_syntax():
    assert parse_poly("x") == x
    assert parse_poly("  7 ") == 7
    assert parse_poly("3/4") == Fraction(3, 4)
    assert parse_poly("-x^2 + 2*x - 1") == -(x ** 2) + 2 * x - 1
    assert parse_poly("(x - 1)*(x + 1)") == x ** 2 - 1
    assert parse_poly("2^3") == 8
    assert parse_poly("1/2*x") == x / 2
    assert parse_poly("- - x") == x


def test_parse_rejects_bad_syntax():
    for bad in ["", "x +", "x ^ a", "x^-2", "(x", "x)", "1/0", "x/2", "2x", "x**2", "$", "(x 2)", "1/x"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad)


def test_integer_coercion_in_expressions():
    assert 1 - x == -(x - 1)
    assert 3 * x == x + x + x
    assert (2 + x) - 2 == x
