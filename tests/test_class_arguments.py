"""One rule for class arguments: a ClassPoly, an int or a Fraction, and nothing else."""

from fractions import Fraction

import pytest

from kzero.classpoly import ClassPoly, as_class, binomial
from kzero.classseries import ClassSeries, binomial_series, macdonald_series
from kzero.permgroups import (
    PermGroup,
    burnside_quotient_class,
    cyclic_product_class,
    symmetric_product_class,
)
from kzero.polyhedral import (
    PolyPair,
    delta_config_class,
    delta_config_class_disjoint,
    fat_wedge_as_polyhedral_product,
    fat_wedge_class,
    m_complement_class,
    w_class,
)
from kzero.quotients import StratifiedGSpace, descriptor_class
from kzero.simplicial import SimplicialComplex
from kzero.zerocycles import ZeroCycleTable, closed_series, ratio_series, sp_vector_class

TWO_POINTS = SimplicialComplex(5, [[1], [2]])

# name -> a function of one class argument whose result compares with ==
ENTRY_POINTS = {
    "as_class": as_class,
    "binomial": lambda c: binomial(c, 3),
    "ClassSeries": lambda c: ClassSeries([1, c]),
    "ClassSeries.constant": lambda c: ClassSeries.constant(c, 2),
    "binomial_series": lambda c: binomial_series(c, 2, order=4),
    "macdonald_series": lambda c: macdonald_series(c, 3),
    "burnside_quotient_class": lambda c: burnside_quotient_class(PermGroup.symmetric(3), c),
    "cyclic_product_class": lambda c: cyclic_product_class(4, c),
    "symmetric_product_class": lambda c: symmetric_product_class(c, 3),
    "PolyPair.x_class": lambda c: PolyPair(c, 1),
    "PolyPair.a_class": lambda c: PolyPair(1, c),
    "fat_wedge_class": lambda c: fat_wedge_class(3, 1, c),
    "fat_wedge_as_polyhedral_product": lambda c: fat_wedge_as_polyhedral_product(3, 2, c),
    "w_class": lambda c: w_class(3, c),
    "delta_config_class": lambda c: delta_config_class(TWO_POINTS, c),
    "delta_config_class_disjoint": lambda c: delta_config_class_disjoint([TWO_POINTS] * 3, c),
    "m_complement_class": lambda c: m_complement_class(TWO_POINTS, c),
    "sp_vector_class": lambda c: sp_vector_class((1, 2), c),
    "ZeroCycleTable": lambda c: list(ZeroCycleTable(2, 1, c, 3).entries()),
    "closed_series": lambda c: closed_series(2, 1, c, 4),
    "ratio_series": lambda c: ratio_series(2, 1, c, 4),
    "StratifiedGSpace": lambda c: StratifiedGSpace([("p", c)], PermGroup.trivial(1), []).classes,
    "descriptor_class": lambda c: descriptor_class([("id", c, 2)]),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("value", [0.5, "1/2"])
def test_a_float_or_a_string_class_raises_type_error(name, value):
    with pytest.raises(TypeError):
        ENTRY_POINTS[name](value)


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("value", [2, Fraction(1, 2)])
def test_an_exact_scalar_class_is_its_constant(name, value):
    entry = ENTRY_POINTS[name]
    assert entry(value) == entry(ClassPoly.const(value))


def test_as_class_keeps_a_class_and_names_the_rule():
    x = ClassPoly.var("x")
    assert as_class(x) is x
    with pytest.raises(TypeError, match="ClassPoly, int or Fraction, got float"):
        as_class(0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ClassPoly.const(0.5),
        lambda: ClassPoly.const("1/3"),
        lambda: ClassPoly(("x",), {(1,): 0.5}),
        lambda: ClassPoly.var("x").evaluate({"x": 0.1}),
        lambda: ClassPoly.var("x").evaluate({"x": "3"}),
        lambda: ClassPoly.var("x") / 0.5,
        lambda: ClassPoly.var("x") / ClassPoly.const(2),
        lambda: ClassPoly.var("x") + 0.5,
        lambda: 0.5 * ClassPoly.var("x"),
    ],
)
def test_scalars_are_int_or_fraction_only(call):
    with pytest.raises(TypeError):
        call()


def test_exact_scalars_still_work_everywhere_a_scalar_goes():
    x = ClassPoly.var("x")
    assert ClassPoly(("x",), {(1,): Fraction(1, 2), (0,): 3}) == x / 2 + 3
    assert x.evaluate({"x": Fraction(1, 3)}) == Fraction(1, 3)
    assert (x / Fraction(1, 2)).evaluate({"x": 1}) == 2
    assert x != 0.5
