"""Golden gate for the complex layer: classes, refusals and CLI output stay byte-identical.

``tests/data/complex_golden.json`` holds, for every complex of a fixed corpus,
one sha256 over the ``str`` and ``latex`` of the six complex formulas (or the
class and message of the error each refuses with), and one over ``main``'s
exit code, stdout and stderr for the four complex verbs.  The corpus is
``facet_list_cases()``, every skeleton of the full simplex on n <= 12
vertices, two single big facets, and complexes on which a constant X with a
large n·deg(A) or a large a^n nearly reaches a size cap.  Regenerate it only
after a deliberate change to an output:

    PYTHONPATH=src python tests/test_complex_golden.py --write

which prints the name and kind of every entry whose digest changed, for review.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from kzero.classpoly import parse_poly
from kzero.errors import PreconditionError
from kzero.polyhedral import (
    PolyPair,
    chi_complement_manifold,
    delta_config_class,
    fat_wedge_as_polyhedral_product,
    m_complement_class,
    polyhedral_product_class,
    polyhedral_product_complement_class,
)
from kzero.simplicial import SimplicialComplex, full_simplex
from util import check_golden, digest, facet_list_cases, run_main, write_golden

GOLDEN = Path(__file__).parent / "data" / "complex_golden.json"

PAIRS = [("x", "a"), ("2*x", "a+1"), ("2", "a^2"), ("2", "5")]
"""(X, A) for the polyhedral product and its complement; the constant X pairs
meet the degree cap through a^n at n >= 501 and the digit cap at n >= 7143."""

CONFIG_CLASSES = ["x", "2*x-1"]
CHI_CASES = [(2, 2), (-1, 3), (3, 4)]
"""(chi, m_dim) for ``chi_complement_manifold``."""

VERB_ARGS = [
    ["polyprod", "--X", "x", "--A", "a"],
    ["complement", "--X", "x", "--A", "a", "--show-poset"],
    ["complement", "--X", "2", "--A", "a^2", "--latex"],
    ["complement", "--X", "2", "--A", "5"],
    ["config", "--X", "x"],
    ["config-complement", "--X", "x", "--show-poset"],
    ["config-complement", "--X", "x+1", "--latex"],
]
"""Every argv is run on each complex, given as ``--complex FILE`` after the verb."""


def corpus():
    """Yield (name, n, faces, fat wedge (n, d) or None) for every golden complex."""
    for i, (n, faces) in enumerate(facet_list_cases()):
        yield f"case {i}", n, faces, None
    for n in range(1, 13):
        for d in range(-1, n):
            yield f"skeleton {n},{d}", n, full_simplex(n).skeleton(d).facets, (n, d + 1)
    yield "facet 20 of 20", 20, [list(range(1, 21))], (20, 20)
    yield "facet 18 of 41", 41, [list(range(3, 21))], None
    yield "facet 10 of 501", 501, [list(range(1, 11))], None
    yield "two facets of 501", 501, [list(range(1, 11)), list(range(11, 21))], None
    yield "facet 10 of 7150", 7150, [list(range(1, 11))], None


def _outcome(compute) -> str:
    """``str`` and ``latex`` of a class (``str`` of an int), or the refusal."""
    try:
        value = compute()
        return str(value) if isinstance(value, int) else f"{value}\n{value.latex()}"
    except PreconditionError as e:
        return f"! {type(e).__name__}: {e}"


def class_lines(n: int, faces: list[list[int]], fat: tuple[int, int] | None) -> list[str]:
    K = SimplicialComplex(n, faces)
    lines = []
    for x, a in PAIRS:
        pair = PolyPair(parse_poly(x), parse_poly(a))
        lines.append(f"polyprod {x} {a}: " + _outcome(lambda: polyhedral_product_class(K, pair)))
        lines.append(f"complement {x} {a}: " + _outcome(lambda: polyhedral_product_complement_class(K, pair)))
    for x in CONFIG_CLASSES:
        p = parse_poly(x)
        lines.append(f"config {x}: " + _outcome(lambda: delta_config_class(K, p)))
        lines.append(f"config-complement {x}: " + _outcome(lambda: m_complement_class(K, p)))
    for chi, m_dim in CHI_CASES:
        lines.append(f"chi {chi} {m_dim}: " + _outcome(lambda: chi_complement_manifold(K, chi, m_dim)))
    if fat is not None:
        for x in CONFIG_CLASSES:
            lines.append(f"fatwedge {fat} {x}: " + _outcome(lambda: fat_wedge_as_polyhedral_product(*fat, parse_poly(x))))
    return lines


def cli_lines(n: int, faces: list[list[int]], path: Path) -> list[str]:
    # the faces as given, so repeated, nested and empty faces reach the file reader
    path.write_text(f"n={n}\n" + "".join(",".join(map(str, f)) + "\n" for f in faces))
    return [json.dumps([args, *run_main([args[0], "--complex", str(path), *args[1:]])]) for args in VERB_ARGS]


def digests() -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "K.txt"
        return {name: {"classes": digest(*class_lines(n, faces, fat)), "cli": digest(*cli_lines(n, faces, path))}
                for name, n, faces, fat in corpus()}


def test_complex_layer_matches_golden_digests():
    check_golden(GOLDEN, digests())


if __name__ == "__main__":
    write_golden(GOLDEN, digests)
