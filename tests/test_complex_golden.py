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

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from kzero.classpoly import parse_poly
from kzero.cli import main
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
from util import facet_list_cases

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
    lines = []
    for args in VERB_ARGS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([args[0], "--complex", str(path), *args[1:]])
        lines.append(json.dumps([args, code, out.getvalue(), err.getvalue()]))
    return lines


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def digests(tmp: Path) -> dict[str, dict[str, str]]:
    return {
        name: {"classes": _digest(class_lines(n, faces, fat)), "cli": _digest(cli_lines(n, faces, tmp / "K.txt"))}
        for name, n, faces, fat in corpus()
    }


def test_complex_layer_matches_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert sorted(got) == sorted(want)
    mismatched = [f"{name} ({kind})" for name in want for kind in ("classes", "cli")
                  if got[name][kind] != want[name][kind]]
    assert not mismatched, "output changed for: " + ", ".join(mismatched)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_complex_golden.py --write")
    import tempfile

    GOLDEN.parent.mkdir(exist_ok=True)
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    for name in sorted(table.keys() | old.keys()):
        for kind in ("classes", "cli"):
            if table.get(name, {}).get(kind) != old.get(name, {}).get(kind):
                print(f"{name} ({kind})")
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
