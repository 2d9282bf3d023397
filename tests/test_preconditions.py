"""Library preconditions: each refused call raises its exact exception class and says why."""

import pytest

from kzero.classpoly import ClassPoly, binomial
from kzero.classseries import ClassSeries, binomial_series
from kzero.errors import DOutOfRangeError, PreconditionError
from kzero.permgroups import PermGroup, Permutation
from kzero.products import cyclic_product_class, symmetric_product_class
from kzero.polyhedral import fat_wedge_as_polyhedral_product, fat_wedge_class, w_class
from kzero.simplicial import SimplicialComplex, full_simplex

x = ClassPoly.var("x")

# (a call, the exact class of the exception it raises, a fragment of its message)
REFUSED = [
    ('ClassPoly(("x", "x"), {})', ValueError, "duplicate variable"),
    ('ClassPoly(("x",), {(1, 2): 1})', ValueError, "bad exponent vector"),
    ("binomial(x, -1)", ValueError, "non-negative integer"),
    ("ClassSeries([])", ValueError, "at least the constant coefficient"),
    ("ClassSeries([1], order=-1)", ValueError, "order must be >= 0"),
    ("ClassSeries([1]) ** -1", ValueError, "non-negative integer"),
    ("binomial_series(x, 0, order=3)", ValueError, "power of x must be >= 1"),
    ("binomial_series(x, 1, 2, order=3)", ValueError, "sign must be +1 or -1"),
    ("PermGroup(3, [Permutation([2, 1])])", ValueError, "does not match 3"),
    ("PermGroup.cyclic(0)", ValueError, "n >= 1"),
    ("PermGroup.symmetric(0)", ValueError, "n >= 1"),
    ("SimplicialComplex(-1)", ValueError, "non-negative integer"),
    ("full_simplex(0)", ValueError, "n >= 1"),
    ("ClassSeries([1]).coefficient(2)", IndexError, "outside truncation order 0"),
    ("cyclic_product_class(0, x)", PreconditionError, "n >= 1"),
    ("symmetric_product_class(x, -1)", PreconditionError, "d >= 0"),
    ("fat_wedge_class(0, 0)", PreconditionError, "n >= 1"),
    ("fat_wedge_as_polyhedral_product(0, 0)", PreconditionError, "n >= 1"),
    ("w_class(0)", PreconditionError, "n >= 1"),
    ("fat_wedge_as_polyhedral_product(3, 4)", DOutOfRangeError, "d=4 outside 0..3"),
]


@pytest.mark.parametrize("call, error, fragment", REFUSED, ids=[call for call, _, _ in REFUSED])
def test_a_refused_call_raises_its_class_with_the_reason(call, error, fragment):
    with pytest.raises(error) as info:
        eval(call)
    assert type(info.value) is error
    assert fragment in str(info.value)


def test_the_zero_class_has_total_degree_minus_one():
    assert ClassPoly.zero().total_degree() == -1


OTHER_OPERANDS = {
    "s + 1": lambda s: s + 1,
    "2 * s": lambda s: 2 * s,
    "s * 2": lambda s: s * 2,
    "(1,) + s": lambda s: (1,) + s,
}


@pytest.mark.parametrize("expression", OTHER_OPERANDS)
def test_a_series_combines_only_with_a_series(expression):
    with pytest.raises(TypeError, match="combines only with a series"):
        OTHER_OPERANDS[expression](ClassSeries([1, x]))


P, Q = Permutation([2, 1, 3]), Permutation([1, 3, 2])
K = SimplicialComplex(3, [[1, 2], [3]])
TUPLE_OPERATORS = {
    "p + q": lambda: P + Q,
    "(1,) + p": lambda: (1,) + P,
    "2 * p": lambda: 2 * P,
    "p * 2": lambda: P * 2,
    "K + K": lambda: K + K,
    "(1,) + K": lambda: (1,) + K,
    "K * 2": lambda: K * 2,
    "2 * K": lambda: 2 * K,
}


@pytest.mark.parametrize("expression", TUPLE_OPERATORS)
def test_permutations_and_complexes_are_not_joined_or_repeated_as_tuples(expression):
    with pytest.raises(TypeError):
        TUPLE_OPERATORS[expression]()


def test_permutations_still_compose():
    assert P * Q == Permutation([2, 3, 1]) and Q * P == Permutation([3, 1, 2])
