"""Golden rendering gate: ``str`` and ``latex`` output stays byte-identical.

``tests/data/ring_golden.json`` holds the sha256 of the text and LaTeX
rendering of every item of a fixed corpus of series, 0-cycle tables and
powers.  Regenerate it only after a deliberate change to the canonical form:

    PYTHONPATH=src python tests/test_render_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from kzero.classpoly import binomial, parse_poly
from kzero.classseries import binomial_series, macdonald_series
from kzero.zerocycles import ZeroCycleTable, closed_series, ratio_series

GOLDEN = Path(__file__).parent / "data" / "ring_golden.json"

# (class, series order, table bound, power): univariate, rational, 2- and
# 3-variable, rational multivariate and constant classes.
CLASSES = [
    ("x+5", 10, 6, 40),
    ("3/2*x - 1/3", 10, 6, 25),
    ("x-6*a", 10, 6, 12),
    ("x+a+y+7", 6, 4, 6),
    ("1/2*x*a - 2/3*y + 1", 6, 4, 6),
    ("7", 10, 6, 40),
    ("-2/5", 10, 6, 30),
]


class _Table:
    """Renders a 0-cycle table the way ``kzero zerocycles --table`` lays it out."""

    def __init__(self, table: ZeroCycleTable):
        self.rows = list(table.entries())

    def _lines(self, render) -> str:
        return "\n".join(f"{','.join(map(str, d))}: {render(v)}" for d, v in self.rows)

    def __str__(self) -> str:
        return self._lines(str)

    def latex(self) -> str:
        return self._lines(lambda v: v.latex())


def corpus():
    """Yield (name, object with ``str`` and ``.latex()``) for every golden item."""
    for text, order, bound, power in CLASSES:
        c = parse_poly(text)
        yield f"{text} | macdonald {order}", macdonald_series(c, order)
        yield f"{text} | binomial_series -1 pow 3 {order}", binomial_series(c, 3, -1, order=order)
        yield f"{text} | binomial 5", binomial(c, 5)
        yield f"{text} | power {power}", c ** power
        for m, n in ((1, 2), (2, 1), (2, 2), (3, 1), (3, 2)):
            yield f"{text} | closed {m},{n} {order}", closed_series(m, n, c, order)
        for m, n in ((2, 1), (1, 3), (3, 2)):
            yield f"{text} | ratio {m},{n} {order}", ratio_series(m, n, c, order)
        yield f"{text} | table 2,1 {bound}", _Table(ZeroCycleTable(2, 1, c, bound))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests() -> dict[str, dict[str, str]]:
    return {name: {"str": _digest(str(obj)), "latex": _digest(obj.latex())} for name, obj in corpus()}


def test_rendering_matches_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want)
    mismatched = [f"{name} ({kind})" for name in want for kind in ("str", "latex")
                  if got[name][kind] != want[name][kind]]
    assert not mismatched, "rendering changed for: " + ", ".join(mismatched)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_render_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
