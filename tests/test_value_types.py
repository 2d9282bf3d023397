"""The package's records are plain tuples: a validating constructor, one property per field,
and the tuple's equality, hashing, unpacking, copying and pickling.

``SimplicialComplex``, ``PolyPair``, ``PosetNode``, ``AffineMap`` and
``CentralIsometryClass`` are ``tuple`` subclasses like ``Permutation`` and
``ClassSeries``, not ``NamedTuple`` classes, whose class building every job that
imports them would pay.  A copy or an unpickled value is built again through the
constructor, from the fields its ``__getnewargs__`` gives.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from kzero.classpoly import ClassPoly
from kzero.discrete import AffineMap, CentralIsometryClass, DimensionMismatchError
from kzero.polyhedral import PolyPair
from kzero.posets import PosetNode
from kzero.simplicial import SimplicialComplex, VertexOutOfRangeError

X = ClassPoly.var("x")

RECORDS = {
    "SimplicialComplex": (
        SimplicialComplex(3, [(1,), (1, 2), (3,)]), {"n": 3, "facets": ((3,), (1, 2))},
        lambda: SimplicialComplex(1, [(2,)]), VertexOutOfRangeError),
    "PolyPair": (PolyPair(X, 2), {"x_class": X, "a_class": 2}, lambda: PolyPair(X, 0.5), TypeError),
    "PosetNode": (PosetNode((1, 2), -1), {"vertex_set": (1, 2), "mobius": -1}, lambda: PosetNode((1, 2)), TypeError),
    "AffineMap": (
        AffineMap(((Fraction(1, 2),),), (Fraction(0),)), {"linear": ((Fraction(1, 2),),), "translation": (0,)},
        lambda: AffineMap(((1, 0),), (0, 0)), DimensionMismatchError),
    "CentralIsometryClass": (
        CentralIsometryClass("r1", 2), {"label": "r1", "centralizer_order": 2},
        lambda: CentralIsometryClass("r1"), TypeError),
}
"""Per record type: a value, its fields by name, and a constructor call it refuses with its error."""


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_a_tuple_of_its_fields(name):
    value, fields, refused, error = RECORDS[name]
    cls = type(value)
    assert cls.__name__ == name and isinstance(value, tuple) and not hasattr(value, "__dict__")
    first, second = value
    assert (first, second) == tuple(fields.values())
    assert {field: getattr(value, field) for field in fields} == fields
    same = cls(**fields)
    assert same == value and hash(same) == hash(value) and same is not value
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value
    with pytest.raises(error):
        refused()
