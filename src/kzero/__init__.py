"""Exact calculator for Grothendieck classes of stratifiable spaces.

The ring lives in :mod:`kzero.classpoly`; truncated power series over it in
:mod:`kzero.classseries`.  On top of those sit the geometric calculators:
polyhedral products, fat wedges, diagonal arrangements and their complements
(:mod:`kzero.polyhedral`, backed by :mod:`kzero.simplicial` and
:mod:`kzero.posets`), permutation, cyclic, and symmetric products
(:mod:`kzero.permgroups`), quotients of stratified group actions with
orbifold and crystallographic Euler characteristics
(:mod:`kzero.quotients`), and spaces of 0-cycles (:mod:`kzero.zerocycles`).
``kzero.cli`` exposes everything as the ``kzero`` command line tool.

All arithmetic is exact rational arithmetic; the package never touches
floating point.

Importing the package loads none of those modules: each exported name is
imported from its home module the first time it is looked up (PEP 562), so
a ``kzero`` verb pays only for the modules it uses.
"""

_EXPORTS = {
    "classpoly": ("ClassPoly", "binomial", "parse_poly"),
    "classseries": ("ClassSeries", "binomial_series", "geometric_series", "macdonald_series"),
    "permgroups": (
        "PermGroup", "Permutation", "burnside_quotient_class", "cyclic_product_class",
        "permutation_product_class", "symmetric_product_class",
    ),
    "polyhedral": (
        "PolyPair", "delta_config_class", "delta_config_class_disjoint", "fat_wedge_class",
        "m_complement_class", "polyhedral_product_class", "polyhedral_product_complement_class",
        "w_class",
    ),
    "posets": ("IntersectionPoset", "inclusion_exclusion", "intersection_poset"),
    "quotients": (
        "AffineMap", "CentralIsometryClass", "StratifiedGSpace", "burnside_class",
        "centralizer_sum_class", "crystal_chi", "crystal_quotient_class", "descriptor_class",
        "has_unique_fixed_point", "orbifold_euler", "orbit_sum_class",
        "quotient_euler_from_fixed_data",
    ),
    "simplicial": ("SimplicialComplex", "disjoint_union", "full_simplex"),
    "zerocycles": ("ZeroCycleTable", "closed_series", "ratio_series", "sp_vector_class"),
}
"""Home module of every exported name."""

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an exported name from its home module on first use and keep it here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
