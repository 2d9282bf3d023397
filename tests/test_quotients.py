"""Stratified group actions: the three quotient routes, descriptors,
orbifold sums, crystallographic quotients, and affine fixed points."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzero.classpoly import ClassPoly
from kzero.discrete import (
    AffineMap,
    CentralIsometryClass,
    DimensionMismatchError,
    crystal_chi,
    crystal_quotient_class,
    descriptor_class,
    has_unique_fixed_point,
    orbifold_euler,
    parse_affine_map_text,
    parse_cells_text,
    parse_descriptor_text,
    parse_isometry_classes_text,
    quotient_euler_from_fixed_data,
)
from kzero.errors import GSpaceFormatError, InputSyntaxError, PreconditionError
from kzero.permgroups import PermGroup, Permutation
from kzero.quotients import (
    StratifiedGSpace,
    burnside_class,
    centralizer_sum_class,
    orbit_sum_class,
    parse_gspace_text,
)
from util import (
    brute_force_orbits,
    centralizer,
    pair_closure_action,
    random_gspace,
    scanned_centralizer_sum,
    solve_affine_fixed_points,
    subset_space,
)

ONE = ClassPoly.one()

CIRCLE_HALF_TURN = """
# circle with the half-turn: two fixed points, two swapped open arcs
stratum p1 class=1
stratum p2 class=1
stratum arc1 class=-1
stratum arc2 class=-1
group degree=2
gen (1 2)
action 1 arc1->arc2 arc2->arc1
"""


def circle_space() -> StratifiedGSpace:
    return parse_gspace_text(CIRCLE_HALF_TURN)


# -- the stratified model -----------------------------------------------------


def test_gspace_file_round_trip():
    space = circle_space()
    assert space.labels == ("p1", "p2", "arc1", "arc2")
    assert space.group.order == 2
    g = Permutation.from_cycles("(1 2)", 2)
    assert str(space.action_of(g)) == "(3 4)"
    assert space.fixed_strata(g) == [0, 1]
    assert space.orbits() == ((0,), (1,), (2, 3))


def test_equal_class_texts_are_read_once():
    space = circle_space()
    assert space.classes[0] is space.classes[1] and space.classes[2] is space.classes[3]
    assert space.classes == (1, 1, -1, -1)
    # a bad class is reported at the line that first gives it
    with pytest.raises(GSpaceFormatError, match="line 2: bad class"):
        parse_gspace_text("stratum a class=x\nstratum b class=x+\nstratum c class=x+\ngroup degree=1\n")


def test_circle_half_turn_quotient_is_an_interval():
    space = circle_space()
    assert orbit_sum_class(space) == ONE
    assert burnside_class(space) == ONE
    assert centralizer_sum_class(space) == ONE


def test_int_classes_give_one_class_on_every_route():
    strata = [("p1", 1), ("p2", 1), ("arc1", -1), ("arc2", -1)]
    G = PermGroup.generate(2, [Permutation.from_cycles("(1 2)", 2)])
    space = StratifiedGSpace(strata, G, [Permutation.from_cycles("(3 4)", 4)])
    assert space.classes == (ONE, ONE, -ONE, -ONE)
    assert centralizer_sum_class(space) == burnside_class(space) == orbit_sum_class(space) == ONE


def test_three_routes_agree_on_random_spaces():
    rng = random.Random(2024)
    for _ in range(40):
        space = random_gspace(rng)
        a = orbit_sum_class(space)
        b = burnside_class(space)
        c = centralizer_sum_class(space)
        assert a == b == c


def test_orbits_match_the_images_under_every_element():
    rng = random.Random(2025)
    for _ in range(40):
        space = random_gspace(rng)
        assert space.orbits() == brute_force_orbits(space)


def test_action_must_be_a_homomorphism():
    # an order-2 generator cannot act as a 3-cycle on strata
    strata = [("s1", ONE), ("s2", ONE), ("s3", ONE)]
    G = PermGroup.generate(2, [Permutation.from_cycles("(1 2)", 2)])
    with pytest.raises(ValueError):
        StratifiedGSpace(strata, G, [Permutation.from_cycles("(1 2 3)", 3)])


def test_action_must_respect_every_relation():
    # each generator's image has the generator's order, but (1 2) -> id and
    # (1 2 3) -> a 3-cycle breaks (1 2)(1 2 3)(1 2) = (1 2 3)^-1
    strata = [("s1", ONE), ("s2", ONE), ("s3", ONE)]
    G = PermGroup.generate(3, [Permutation.from_cycles("(1 2)", 3),
                               Permutation.from_cycles("(1 2 3)", 3)])
    with pytest.raises(ValueError):
        StratifiedGSpace(strata, G, [Permutation.identity(3),
                                     Permutation.from_cycles("(1 2 3)", 3)])


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_the_joint_chain_agrees_with_the_pair_closure(seed, broken):
    # the joint group's order decides what closing (element, action) pairs decides, and
    # its sorted elements are the pairs' action table
    rng = random.Random(seed)
    space = random_gspace(rng)
    G, m = space.group, len(space.labels)
    actions = [space.action_of(s) for s in G.generators]
    if broken:
        actions[rng.randrange(len(actions))] = Permutation(rng.sample(range(1, m + 1), m))
    table = pair_closure_action(G, actions, m)
    strata = [(label, ONE) for label in space.labels]
    if table is None:
        with pytest.raises(ValueError, match=r"homomorphism \(conflict at \(\)\)"):
            StratifiedGSpace(strata, G, actions)
    else:
        joint = StratifiedGSpace(strata, G, actions)
        assert {g: joint.action_of(g) for g in G} == table
        assert all(joint.fixed_strata(g) == [i for i in range(m) if table[g](i + 1) == i + 1] for g in G)


def test_an_element_outside_the_group_has_no_action():
    space = circle_space()
    for g in (Permutation.identity(3), Permutation([2, 1, 3])):
        with pytest.raises(KeyError):
            space.action_of(g)


def test_the_image_cap_holds_order_times_degree_plus_strata(monkeypatch):
    from kzero import quotients

    monkeypatch.setattr(quotients, "MAX_IMAGES", 2 * (2 + 4))  # the circle fits exactly
    assert centralizer_sum_class(circle_space()) == ONE
    monkeypatch.setattr(quotients, "MAX_IMAGES", 2 * (2 + 4) - 1)
    with pytest.raises(PreconditionError, match=r"order 2 times \(degree 2 \+ stratum count 4\)"):
        circle_space()


@pytest.mark.parametrize("kind, n, k", [
    ("C", 6, 2), ("C", 7, 3), ("C", 8, 4), ("D", 5, 2), ("D", 6, 3), ("D", 7, 2),
    ("S", 4, 2), ("S", 5, 1), ("S", 5, 2), ("A", 5, 2),
])
def test_the_centralizer_route_matches_scanning_every_centralizer_on_subsets(kind, n, k):
    space = subset_space(kind, n, k)
    assert centralizer_sum_class(space) == scanned_centralizer_sum(space) == orbit_sum_class(space)


def test_the_centralizer_route_matches_scanning_every_centralizer_on_random_spaces():
    rng = random.Random(2026)
    for _ in range(40):
        space = random_gspace(rng)
        assert centralizer_sum_class(space) == scanned_centralizer_sum(space)


def test_strata_in_one_orbit_need_equal_classes():
    x = ClassPoly.var("x")
    strata = [("a", x), ("b", x + 1)]
    G = PermGroup.generate(2, [Permutation.from_cycles("(1 2)", 2)])
    with pytest.raises(ValueError):
        StratifiedGSpace(strata, G, [Permutation.from_cycles("(1 2)", 2)])


def test_gspace_structural_errors():
    G = PermGroup.trivial(1)
    with pytest.raises(ValueError):
        StratifiedGSpace([], G, [])
    with pytest.raises(ValueError):
        StratifiedGSpace([("a", ONE), ("a", ONE)], G, [])
    sym = PermGroup.symmetric(2)
    with pytest.raises(ValueError):
        StratifiedGSpace([("a", ONE)], sym, [])  # one action per generator
    with pytest.raises(ValueError):
        StratifiedGSpace([("a", ONE)], sym, [Permutation.identity(3)])


def test_gspace_format_errors():
    cases = [
        "stratum a\ngroup degree=2\ngen (1 2)\n",
        "stratum a class=^\ngroup degree=2\n",
        "stratum a class=1\n",
        "stratum a class=1\ngroup degree=2\ngen (1 2)\naction 1 a->b\n",
        "stratum a class=1\ngroup degree=2\ngen (1 2)\naction 2\n",
        "stratum a class=1\ngroup degree=2\ngen (1 2)\nnonsense\n",
        "gen (1 2)\ngroup degree=2\n",
        "stratum a class=1\nstratum b class=1\ngroup degree=2\ngen (1 2)\naction 1 a->b\n",
    ]
    for text in cases:
        with pytest.raises(GSpaceFormatError):
            parse_gspace_text(text)
    assert issubclass(GSpaceFormatError, InputSyntaxError)


# -- descriptors ---------------------------------------------------------------


DIHEDRAL_DESCRIPTOR = """
# infinite dihedral action on the line
id c=2 class=1
id c=1 class=-1
id c=2 class=1
t1 c=2 class=1
t2 c=2 class=1
"""


def test_descriptor_file_and_class():
    rows = parse_descriptor_text(DIHEDRAL_DESCRIPTOR)
    assert [(label, order) for label, _, order in rows] == [
        ("id", 2), ("id", 1), ("id", 2), ("t1", 2), ("t2", 2)
    ]
    assert [str(cls) for _, cls, _ in rows] == ["1", "-1", "1", "1", "1"]
    assert descriptor_class(rows) == ONE


def test_descriptor_with_an_int_class_divides_exactly():
    got = descriptor_class([("id", 1, 2)])
    assert isinstance(got, ClassPoly) and got == Fraction(1, 2)


def test_descriptor_rejects_bad_orders():
    with pytest.raises(PreconditionError, match="in entry 'g'"):
        descriptor_class([("id", ONE, 1), ("g", ONE, 0)])
    with pytest.raises(GSpaceFormatError):
        parse_descriptor_text("id c=x class=1\n")
    with pytest.raises(GSpaceFormatError):
        parse_descriptor_text("id class=1\n")


def test_descriptor_matches_finite_centralizer_sum():
    # for a finite group the descriptor data is exactly the centralizer-orbit
    # table, so building it from a random stratified space must reproduce the
    # quotient class
    rng = random.Random(77)
    for _ in range(20):
        space = random_gspace(rng)
        rows = []
        for g, _ in space.group.conjugacy_classes():
            fixed = space.fixed_strata(g)
            if not fixed:
                continue
            commuting = centralizer(space.group, g)
            seen: set[int] = set()
            for i in fixed:
                if i in seen:
                    continue
                orbit = {space.action_of(h)(i + 1) - 1 for h in commuting}
                seen.update(orbit)
                stab = sum(1 for h in commuting if space.action_of(h)(i + 1) == i + 1)
                rows.append((str(g), space.classes[i], stab))
        assert descriptor_class(rows) == orbit_sum_class(space)


# -- orbifold and crystallographic sums ----------------------------------------


def test_orbifold_euler_values():
    assert orbifold_euler([(0, 2), (1, 1), (0, 2)]) == 0
    assert orbifold_euler([]) == 0
    assert orbifold_euler([(0, 3)]) == Fraction(1, 3)
    with pytest.raises(ValueError):
        orbifold_euler([(0, 0)])


def test_a_negative_cell_dimension_is_refused():
    with pytest.raises(PreconditionError, match="cell dimension must be >= 0, got -1"):
        orbifold_euler([(0, 2), (-1, 2)])
    with pytest.raises(PreconditionError, match="cell dimension"):
        quotient_euler_from_fixed_data([[(0, 2)], [(-1, 2)]])


def test_quotient_euler_from_fixed_data():
    data = [
        [(0, 2), (1, 1), (0, 2)],
        [(0, 2)],
        [(0, 2)],
    ]
    assert quotient_euler_from_fixed_data(data) == 1


def test_cells_file():
    assert parse_cells_text("0 2\n1 1 # edge\n\n0 2\n") == [(0, 2), (1, 1), (0, 2)]
    with pytest.raises(GSpaceFormatError):
        parse_cells_text("0\n")
    with pytest.raises(GSpaceFormatError):
        parse_cells_text("0 x\n")


def test_crystal_chi_values():
    assert crystal_chi([]) == 0
    p2 = [CentralIsometryClass(f"r{i}", 2) for i in range(4)]
    assert crystal_chi(p2) == 2
    assert crystal_quotient_class(p2) == ClassPoly.const(2)
    with pytest.raises(ValueError):
        crystal_chi([CentralIsometryClass("bad", 0)])


def test_crystal_chi_warns_on_non_integer():
    with pytest.warns(UserWarning):
        crystal_chi([CentralIsometryClass("a", 3)])


def test_isometry_classes_file():
    classes = parse_isometry_classes_text("# p2\nr1 c=2\nr2 c=2\nr3 c=2\nr4 c=2\n")
    assert [c.label for c in classes] == ["r1", "r2", "r3", "r4"]
    assert crystal_chi(classes) == 2
    with pytest.raises(GSpaceFormatError):
        parse_isometry_classes_text("r1 c=two\n")
    with pytest.raises(GSpaceFormatError):
        parse_isometry_classes_text("r1\n")


# -- affine fixed points ---------------------------------------------------------


def test_fixed_point_classification_examples():
    rotation = AffineMap(
        ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0))),
        (Fraction(1), Fraction(0)),
    )
    assert has_unique_fixed_point(rotation)
    translation = AffineMap(((Fraction(1),),), (Fraction(1),))
    assert not has_unique_fixed_point(translation)
    reflection = AffineMap(
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))),
        (Fraction(0), Fraction(0)),
    )
    assert not has_unique_fixed_point(reflection)


def test_fixed_point_matches_exact_row_reduction():
    rng = random.Random(90)
    for _ in range(300):
        n = rng.randint(1, 4)
        linear = tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
            for _ in range(n)
        )
        translation = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        solutions = solve_affine_fixed_points(linear, translation)
        assert has_unique_fixed_point(AffineMap(linear, translation)) == (solutions == 1)


def test_fixed_point_of_a_map_with_int_entries_is_exact():
    # linear - id is singular (its third row is 3 * (second - first)), but eliminating it
    # with float division leaves a nonzero rounding residue as the last pivot
    linear = ((-2, 8, 6), (5, 8, -1), (24, -3, -20))
    assert solve_affine_fixed_points(linear, (0, 0, 0)) != 1
    assert not has_unique_fixed_point(AffineMap(linear, (0, 0, 0)))
    assert has_unique_fixed_point(AffineMap(((0, -1), (1, 0)), (1, 0)))


def test_affine_map_dimension_check():
    with pytest.raises(DimensionMismatchError):
        AffineMap(((Fraction(1), Fraction(0)),), (Fraction(0), Fraction(0)))


def test_affine_map_file():
    f = parse_affine_map_text("dim=2\nrow 0 -1\nrow 1 0\nt 1/2 0\n")
    assert f.linear == ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    assert f.translation == (Fraction(1, 2), Fraction(0))
    for bad in [
        "row 1\n",
        "dim=0\n",
        "dim=2\nrow 1 0\nt 0 0\n",
        "dim=2\nrow 1 0\nrow 0 1\n",
        "dim=2\nrow 1 0\nrow 0 1\nt 0\n",
        "dim=2\nrow 1 0\nrow 0 1\nt 0 0\nt 0 0\n",
        "dim=2\nrow 1 q\nrow 0 1\nt 0 0\n",
        "dim=2\nrow 1 1/0\nrow 0 1\nt 0 0\n",
    ]:
        with pytest.raises(GSpaceFormatError):
            parse_affine_map_text(bad)
