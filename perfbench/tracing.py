"""The traced run: the same jobs in-process, with spans around each layer call.

Each job gets a root span ``job``.  Under it sit ``cli.parse_args`` and
``cli.main`` (the verb end to end, stdout captured), then one span per
public module function the verb relies on, called separately on the same
input -- ``intersection_poset`` for ``complement``, say.  These spans
attribute a verb's time to layers; they do not partition it, because the
same work also ran once inside ``cli.main``.  Spans stay in memory and are
written out when the run ends.  Counts are read from the returned objects.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

SPAN_METRICS = (
    "cli.parse_args", "cli.main",
    "classpoly.parse", "classpoly.render",
    "classseries.macdonald", "classseries.binomial_series", "classseries.mul", "classseries.inverse",
    "zerocycles.table", "zerocycles.closed_series", "zerocycles.ratio_series",
    "permgroups.generate", "permgroups.permprod", "permgroups.conjugacy_classes",
    "quotients.gspace_build", "quotients.orbit_sum", "quotients.burnside", "quotients.centralizer_sum",
    "simplicial.build", "simplicial.face_count",
    "posets.poset", "posets.inclusion_exclusion",
    "polyhedral.polyprod", "polyhedral.complement", "polyhedral.config", "polyhedral.config_complement",
)
COUNT_METRICS = (
    "cli.exit2", "cli.exit3",
    "classpoly.result_terms", "classpoly.coeff_bits_max",
    "zerocycles.entries",
    "permgroups.order", "permgroups.classes",
    "quotients.strata",
    "simplicial.facets", "simplicial.faces",
    "posets.nodes",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, job: str):
        record = {"id": len(self.spans), "name": name, "job": job,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, job: str, fn, *args, **kwargs):
        with self.span(name, job):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the time its children cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return out

    def job_totals(self) -> dict[str, float]:
        return {s["job"]: s["end"] - s["start"] for s in self.spans if s["name"] == "job"}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _size(tr: Tracer, result) -> None:
    """Terms and largest coefficient bit size of a ClassPoly, a series, or a list of them."""
    polys = result.coefficients if hasattr(result, "coefficients") else (
        result if isinstance(result, list) else [result])
    for p in polys:
        for _, c in p.terms():
            tr.counts["classpoly.result_terms"] += 1
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            tr.counts["classpoly.coeff_bits_max"] = max(tr.counts["classpoly.coeff_bits_max"], bits)


def _layers(tr: Tracer, jid: str, args, kz) -> None:
    """Call the module functions behind ``args.verb`` separately, each in its own span."""
    verb = args.verb

    def call(name, fn, *a, **kw):
        return tr.call(name, jid, fn, *a, **kw)

    def read(path: str) -> str:
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    X = call("classpoly.parse", kz.parse_poly, args.X) if getattr(args, "X", None) else None
    result = None
    if verb in ("polyprod", "complement", "config", "config-complement"):
        K = call("simplicial.build", kz.SimplicialComplex.from_text, read(args.complex))
        tr.counts["simplicial.facets"] += len(K.facets)
        if verb in ("polyprod", "config"):
            sizes = call("simplicial.face_count", K.face_count_by_size)
            tr.counts["simplicial.faces"] += sum(sizes.values())
        else:
            poset = call("posets.poset", kz.intersection_poset, K)
            tr.counts["posets.nodes"] += len(poset.nodes)
        if verb == "polyprod":
            A = call("classpoly.parse", kz.parse_poly, args.A)
            result = call("polyhedral.polyprod", kz.polyhedral_product_class, K, kz.PolyPair(X, A))
        elif verb == "complement":
            A = call("classpoly.parse", kz.parse_poly, args.A)
            call("posets.inclusion_exclusion", kz.inclusion_exclusion, poset,
                 lambda vs: X ** len(vs) * A ** (K.n - len(vs)), X ** K.n)
            result = call("polyhedral.complement", kz.polyhedral_product_complement_class, K, kz.PolyPair(X, A))
        elif verb == "config":
            result = call("polyhedral.config", kz.delta_config_class, K, X)
        else:
            call("posets.inclusion_exclusion", kz.inclusion_exclusion, poset,
                 lambda vs: X ** (len(vs) + 1), X ** K.n)
            result = call("polyhedral.config_complement", kz.m_complement_class, K, X)
    elif verb == "permprod":
        G = call("permgroups.generate", kz.parse_group_text, read(args.group))
        tr.counts["permgroups.order"] += G.order
        classes = call("permgroups.conjugacy_classes", G.conjugacy_classes)
        tr.counts["permgroups.classes"] += len(classes)
        result = call("permgroups.permprod", kz.permutation_product_class, G, X)
    elif verb == "quotient":
        space = call("quotients.gspace_build", kz.parse_gspace_text, read(args.space))
        tr.counts["quotients.strata"] += len(space.labels)
        tr.counts["permgroups.order"] += space.group.order
        call("quotients.orbit_sum", kz.orbit_sum_class, space)
        call("quotients.burnside", kz.burnside_class, space)
        result = call("quotients.centralizer_sum", kz.centralizer_sum_class, space)
    elif verb == "symprod-series":
        result = call("classseries.macdonald", kz.macdonald_series, X, args.order)
    elif verb == "zerocycles" and args.table:
        table = call("zerocycles.table", kz.ZeroCycleTable, args.m, args.n, X, args.order)
        result = [value for _, value in table.entries()]
        tr.counts["zerocycles.entries"] += len(result)
    elif verb == "zerocycles":
        result = call("zerocycles.closed_series", kz.closed_series, args.m, args.n, X, args.order)
    elif verb == "ratio":
        result = call("zerocycles.ratio_series", kz.ratio_series, args.m, args.n, X, args.order)
        call("classseries.binomial_series", kz.binomial_series, X, args.m * args.n, 1, order=args.order)
        denominator = call("classseries.mul", operator.pow, call("classseries.macdonald", kz.macdonald_series, X, args.order), args.m)
        inverse = call("classseries.inverse", denominator.inverse)
        closed = call("zerocycles.closed_series", kz.closed_series, args.m, args.n, X, args.order)
        call("classseries.mul", operator.mul, closed, inverse)
    elif verb == "eval":
        result = call("classpoly.parse", kz.parse_poly, args.expr)
    if result is not None:
        if isinstance(result, list):
            call("classpoly.render", lambda: [str(p) for p in result])
        else:
            call("classpoly.render", str, result)
        _size(tr, result)


def run_job(tr: Tracer, job, kz) -> tuple[int, str, str]:
    """Trace one job in-process; returns (exit code, stdout, stderr) as main() produced them."""
    out, err = io.StringIO(), io.StringIO()
    with tr.span("job", job.id):
        parser = kz.cli.build_parser()
        with tr.span("cli.parse_args", job.id), contextlib.redirect_stderr(io.StringIO()):
            try:
                args = parser.parse_args(job.argv)
            except SystemExit:
                args = None
        with tr.span("cli.main", job.id), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                code = kz.cli.main(list(job.argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code = 1
        if code in (2, 3):
            tr.counts[f"cli.exit{code}"] += 1
        if code == 0 and args is not None:
            _layers(tr, job.id, args, kz)
    return code, out.getvalue(), err.getvalue()


def import_kzero(root: Path):
    """Import the package from ``src`` and gather the names the traced calls use."""
    sys.path.insert(0, str(root / "src"))
    import types

    import kzero
    import kzero.cli
    from kzero.permgroups import parse_group_text
    from kzero.quotients import parse_gspace_text

    kz = types.SimpleNamespace(**{name: getattr(kzero, name) for name in kzero.__all__})
    kz.cli, kz.parse_group_text, kz.parse_gspace_text = kzero.cli, parse_group_text, parse_gspace_text
    return kz
