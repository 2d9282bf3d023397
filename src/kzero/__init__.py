"""Exact calculator for Grothendieck classes of stratifiable spaces.

The ring lives in :mod:`kzero.classpoly`; truncated power series over it in
:mod:`kzero.classseries`.  On top of those sit the geometric calculators:
polyhedral products, diagonal arrangements and their complements
(:mod:`kzero.polyhedral`, backed by :mod:`kzero.simplicial`, :mod:`kzero.meets`
and :mod:`kzero.posets`), fat wedges and the arrangement formulas no verb runs
(:mod:`kzero.arrangements`), finite permutation groups (:mod:`kzero.permgroups`),
permutation, cyclic, and symmetric products (:mod:`kzero.products`),
quotients of stratified finite-group actions (:mod:`kzero.quotients`),
action descriptors, orbifold and crystallographic
Euler characteristics and affine fixed points for infinite discrete groups
(:mod:`kzero.discrete`), and spaces of 0-cycles (:mod:`kzero.zerocycles`).
``kzero.cli`` exposes everything as the ``kzero`` command line tool.

All arithmetic is exact rational arithmetic; the package never touches
floating point.

Importing the package loads none of those modules: each exported name is
imported from its home module the first time it is looked up (PEP 562), so
a ``kzero`` verb pays only for the modules it uses.
"""

_EXPORTS = {
    "arrangements": ("delta_config_class_disjoint", "fat_wedge_class", "w_class"),
    "classpoly": ("ClassPoly", "binomial", "parse_poly"),
    "classseries": ("ClassSeries", "binomial_series", "macdonald_series"),
    "discrete": (
        "AffineMap", "CentralIsometryClass", "crystal_chi", "crystal_quotient_class",
        "descriptor_class", "has_unique_fixed_point", "orbifold_euler",
        "quotient_euler_from_fixed_data",
    ),
    "permgroups": ("PermGroup", "Permutation"),
    "polyhedral": (
        "PolyPair", "delta_config_class", "m_complement_class", "polyhedral_product_class",
        "polyhedral_product_complement_class",
    ),
    "posets": ("IntersectionPoset", "inclusion_exclusion", "intersection_poset"),
    "products": (
        "burnside_quotient_class", "cyclic_product_class", "permutation_product_class",
        "symmetric_product_class",
    ),
    "quotients": ("StratifiedGSpace", "burnside_class", "centralizer_sum_class", "orbit_sum_class"),
    "simplicial": ("SimplicialComplex", "full_simplex"),
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
