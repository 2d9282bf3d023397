"""Seeded job lists for the four workloads.

A job is one ``python -m kzero.cli <verb> ...`` invocation: its argv, the
input files it reads, the exit code the CLI contract requires, and an
independent check of its stdout (see ``oracle``).  The same (workload,
seed) always yields the same jobs, byte for byte.  The seed changes the
inputs -- random generators, random complexes, class arguments, constants,
evaluation points -- but not how many jobs of each kind and size a round
holds, so the cost of a round barely depends on the seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracle

INPUT_DIR = ".perfbench_out/inputs"

Point = dict
Check = Callable[[str], "str | None"]


@dataclass
class Job:
    id: str
    argv: list[str]
    expect: int
    check: Check | None
    inputs_sha: str
    timeout: float


class JobList:
    """The jobs of one workload, with their input files written out."""

    def __init__(self, workload: str, seed: int, root: Path, timeout: float):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.root = root
        self.timeout = timeout
        self.jobs: list[Job] = []
        self.files: dict[str, str] = {}
        (root / INPUT_DIR / workload).mkdir(parents=True, exist_ok=True)

    def file(self, stem: str, text: str) -> str:
        rel = f"{INPUT_DIR}/{self.workload}/{stem}-{len(self.files):03d}.txt"
        (self.root / rel).write_text(text, encoding="utf-8")
        self.files[rel] = text
        return rel

    def add(self, argv: list[str], expect: int = 0, check: Check | None = None) -> None:
        h = hashlib.sha256()
        for arg in argv:
            h.update(arg.encode() + b"\0")
            if arg in self.files:
                h.update(self.files[arg].encode() + b"\0")
        job_id = f"{self.workload}/{len(self.jobs):03d}"
        self.jobs.append(Job(job_id, argv, expect, check, h.hexdigest(), self.timeout))

    def points(self) -> list[Point]:
        return [
            {v: Fraction(self.rng.randint(-400, 400) or 1, self.rng.randint(1, 7)) for v in oracle.VARIABLES}
            for _ in range(2)
        ]


# -- checks ---------------------------------------------------------------------


def _last_line(stdout: str) -> str:
    return stdout.rstrip("\n").rsplit("\n", 1)[-1]


def poly_check(points: list[Point], expected: Callable[[Point], Fraction]) -> Check:
    def check(stdout: str) -> str | None:
        line = _last_line(stdout)
        for p in points:
            got, want = oracle.evaluate(line, p), expected(p)
            if got != want:
                return f"value {got} != expected {want} at {p}"
        return None

    return check


def series_check(points: list[Point], expected: Callable[[Point, int], list[Fraction]], order: int) -> Check:
    def check(stdout: str) -> str | None:
        line = _last_line(stdout)
        for p in points:
            got, got_order = oracle.series_values(line, p)
            if got_order != order:
                return f"series order {got_order} != {order}"
            want = expected(p, order)
            if got != want:
                k = next(i for i in range(order + 1) if got[i] != want[i])
                return f"coefficient {k}: {got[k]} != expected {want[k]} at {p}"
        return None

    return check


def value_check(expected: Fraction | str) -> Check:
    def check(stdout: str) -> str | None:
        text = stdout.strip()
        got: Fraction | str = text if isinstance(expected, str) else Fraction(text)
        return None if got == expected else f"{got} != expected {expected}"

    return check


def table_check(points: list[Point], m: int, n: int, cls: str, order: int) -> Check:
    """The --table rows, summed by total degree, must give the closed-form series."""

    def check(stdout: str) -> str | None:
        lines = stdout.rstrip("\n").split("\n")
        rows = len(lines)
        want_rows = len(list(combinations(range(order + m), m)))
        if rows != want_rows:
            return f"{rows} table rows, expected {want_rows}"
        for p in points:
            sums = [Fraction(0)] * (order + 1)
            for line in lines:
                degree, _, value = line.partition(": ")
                sums[sum(int(d) for d in degree.split(","))] += oracle.evaluate(value, p)
            want = oracle.zero_cycle_series(m, n, oracle.evaluate(cls, p), order)
            if sums != want:
                return f"row sums {sums} != closed form {want} at {p}"
        return None

    return check


def poset_lines_check(inner: Check, nodes: int) -> Check:
    """--show-poset prints one '# ' line per node, the ambient bottom included."""

    def check(stdout: str) -> str | None:
        shown = sum(1 for line in stdout.split("\n") if line.startswith("# "))
        if shown != nodes + 1:
            return f"{shown} poset lines, expected {nodes + 1}"
        return inner(stdout)

    return check


# -- shared job makers ---------------------------------------------------------------


def complex_text(n: int, facets: list[tuple[int, ...]]) -> str:
    return f"n={n}\n" + "".join(",".join(str(v + 1) for v in f) + "\n" for f in facets)


def complex_jobs(
    b: JobList, n: int, facets: list[tuple[int, ...]], x: str, a: str, verbs: tuple[str, ...], show_poset: bool = False
) -> None:
    """Jobs on one complex (0-based facets); the checks pair each verb with X^n."""
    path = b.file(f"K{n}", complex_text(n, facets))
    sizes = oracle.face_sizes(facets)
    nodes = oracle.meet_closure_size(facets) if show_poset else 0

    def pp(p: Point) -> Fraction:
        return oracle.polyprod_value(n, sizes, oracle.evaluate(x, p), oracle.evaluate(a, p))

    def cfg(p: Point) -> Fraction:
        return oracle.config_value(sizes, oracle.evaluate(x, p))

    def xn(p: Point) -> Fraction:
        return oracle.evaluate(x, p) ** n

    for verb in verbs:
        pts = b.points()
        if verb == "polyprod":
            b.add([verb, "--complex", path, "--X", x, "--A", a], check=poly_check(pts, pp))
        elif verb == "complement":
            check = poly_check(pts, lambda p: xn(p) - pp(p))
            argv = [verb, "--complex", path, "--X", x, "--A", a]
            if show_poset:
                argv.append("--show-poset")
                check = poset_lines_check(check, nodes)
            b.add(argv, check=check)
        elif verb == "config":
            b.add([verb, "--complex", path, "--X", x], check=poly_check(pts, cfg))
        else:
            check = poly_check(pts, lambda p: xn(p) - cfg(p))
            argv = [verb, "--complex", path, "--X", x]
            if show_poset:
                argv.append("--show-poset")
                check = poset_lines_check(check, nodes)
            b.add(argv, check=check)


def random_complex(rng: random.Random, n: int, count: int, sizes: tuple[int, int]) -> list[tuple[int, ...]]:
    return [tuple(sorted(rng.sample(range(n), rng.randint(*sizes)))) for _ in range(count)]


def group_text(degree: int, gens: list[tuple[int, ...]]) -> str:
    return f"degree={degree}\n" + "".join(f"gen {oracle.cycles_text(g)}\n" for g in gens)


def named_generators(kind: str, n: int, rng: random.Random) -> list[tuple[int, ...]]:
    rotation = tuple((i + 1) % n for i in range(n))
    if kind == "S":
        return [tuple([1, 0] + list(range(2, n))), rotation]
    if kind == "C":
        return [rotation]
    if kind == "D":
        return [rotation, tuple(n - 1 - i for i in range(n))]
    count = 1 if kind == "R1" else 2
    return [tuple(rng.sample(range(n), n)) for _ in range(count)]


def permprod_job(b: JobList, n: int, gens: list[tuple[int, ...]], x: str) -> None:
    path = b.file(f"G{n}", group_text(n, gens))
    group = oracle.closure(gens, n)
    histogram: dict[int, int] = {}
    for g in group:
        c = oracle.cycle_count(g)
        histogram[c] = histogram.get(c, 0) + 1

    def burnside(p: Point) -> Fraction:
        q = oracle.evaluate(x, p)
        return sum((k * q ** c for c, k in histogram.items()), Fraction(0)) / len(group)

    b.add(["permprod", "--group", path, "--X", x], check=poly_check(b.points(), burnside))


def gspace_job(b: JobList, n: int, gens: list[tuple[int, ...]], k: int, class_pool: list[str]) -> None:
    """G (on 1..n) permuting the k-subset strata, plus one fixed point stratum."""
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    labels = ["s" + "_".join(str(v + 1) for v in s) for s in subsets] + ["pt"]
    maps = [[index[tuple(sorted(g[v] for v in s))] for s in subsets] + [len(subsets)] for g in gens]
    orbit_list = oracle.orbits(len(labels), maps)
    classes = [""] * len(labels)
    for orbit in orbit_list:
        cls = b.rng.choice(class_pool)
        for i in orbit:
            classes[i] = cls
    lines = [f"stratum {label} class={cls}" for label, cls in zip(labels, classes)]
    lines.append(f"group degree={n}")
    lines.extend(f"gen {oracle.cycles_text(g)}" for g in gens)
    for j, f in enumerate(maps, start=1):
        moves = " ".join(f"{labels[i]}->{labels[t]}" for i, t in enumerate(f) if i != t)
        lines.append(f"action {j} {moves}".rstrip())
    path = b.file(f"X{n}k{k}", "\n".join(lines) + "\n")

    def orbit_sum(p: Point) -> Fraction:
        return sum((oracle.evaluate(classes[o[0]], p) for o in orbit_list), Fraction(0))

    b.add(["quotient", "--space", path], check=poly_check(b.points(), orbit_sum))


def sym_job(b: JobList, x: str, order: int) -> None:
    def want(p: Point, o: int) -> list[Fraction]:
        return oracle.sym_series(oracle.evaluate(x, p), o)

    b.add(["symprod-series", "--X", x, "--order", str(order)], check=series_check(b.points(), want, order))


def zerocycle_job(b: JobList, m: int, n: int, x: str, order: int, table: bool) -> None:
    argv = ["zerocycles", "--m", str(m), "--n", str(n), "--X", x, "--order", str(order)]
    if table:
        b.add(argv + ["--table"], check=table_check(b.points(), m, n, x, order))
        return

    def want(p: Point, o: int) -> list[Fraction]:
        return oracle.zero_cycle_series(m, n, oracle.evaluate(x, p), o)

    b.add(argv, check=series_check(b.points(), want, order))


def ratio_job(b: JobList, m: int, n: int, x: str, order: int) -> None:
    def want(p: Point, o: int) -> list[Fraction]:
        return oracle.binom_series(oracle.evaluate(x, p), m * n, o)

    argv = ["ratio", "--m", str(m), "--n", str(n), "--X", x, "--order", str(order)]
    b.add(argv, check=series_check(b.points(), want, order))


def eval_job(b: JobList, expr: str, at: dict[str, int] | None = None) -> None:
    if at is None:
        b.add(["eval", expr], check=poly_check(b.points(), lambda p: oracle.evaluate(expr, p)))
        return
    argv = ["eval", expr]
    for name, value in at.items():
        argv += ["--at", f"{name}={value}"]
    want = oracle.evaluate(expr, {k: Fraction(v) for k, v in at.items()})
    b.add(argv, check=value_check(want))


# -- workloads -------------------------------------------------------------------------


def groups(b: JobList) -> None:
    """permprod on degree 5-7 subgroups of S_n and quotients of k-subset strata."""
    rng = b.rng
    # Degrees 6 and 7 get six groups each, so the median job and the tail
    # job (the 4th-slowest) land inside a cluster of like-cost jobs rather
    # than at its edge or between two.
    kinds = {5: ["S", "C", "D", "R1", "R2"], 6: ["S", "C", "D", "R1", "R2", "R2"], 7: ["S", "C", "D", "R1", "R2", "R2"]}
    for n, names in kinds.items():
        for kind in names:
            x = rng.choice(["x", f"x+{rng.randint(1, 9)}"])
            permprod_job(b, n, named_generators(kind, n, rng), x)
    pool = ["x", "x^2", "x-1", "x^2+a", "x*a", "1", "x+y", f"{rng.randint(2, 9)}"]
    for kind, n, k in (("S", 5, 1), ("S", 5, 2), ("C", 5, 2), ("C", 6, 2), ("C", 7, 3), ("D", 6, 2)):
        gspace_job(b, n, named_generators(kind, n, rng), k, pool)


def complexes(b: JobList) -> None:
    """Four complex verbs on a skeleton ladder and on seeded random complexes."""
    rng = b.rng
    verbs = ("polyprod", "complement", "config", "config-complement")
    # On the ladder the seed only renames the two variables, so its cost is
    # the same for every seed; constants would change the coefficient sizes.
    for n, d in ((12, 1), (12, 2), (12, 3), (14, 2)):
        x, a = rng.sample(oracle.VARIABLES, 2)
        complex_jobs(b, n, list(combinations(range(n), d + 1)), x, a, verbs)
    for n, count in ((10, 24), (12, 36)):
        x, a = rng.choice([("x", "a"), ("x", "1"), ("x", "2"), ("2*x", "a"), ("3*x", "y")])
        complex_jobs(b, n, random_complex(rng, n, count, (2, 4)), x, a, verbs, show_poset=True)


def series(b: JobList) -> None:
    """0-cycle tables and series, ratios, symmetric-product series and powers."""
    rng = b.rng
    c = [rng.randint(5, 7) for _ in range(4)]  # a narrow range keeps coefficient sizes, so costs, alike
    # (class, table order, series order, ratio order, symprod order, power)
    kinds = [
        (f"x+{c[0]}", 8, 12, 10, 16, 60),
        (f"x-{c[1]}*a", 8, 12, 10, 16, 14),
        (f"x+a+y+{c[2]}", 5, 7, 6, 10, 7),
        (f"{c[3]}", 8, 12, 10, 16, 50),
    ]
    for x, t_order, s_order, r_order, sym_order, power in kinds:
        zerocycle_job(b, 2, 1, x, t_order, table=True)
        zerocycle_job(b, 2, 2, x, s_order, table=False)
        ratio_job(b, 2, 1, x, r_order)
        sym_job(b, x, sym_order)
        eval_job(b, f"({x})^{power}")
    eval_job(b, f"(x+{c[0]})^40*(x-1)^3", {"x": rng.randint(-9, 9)})
    eval_job(b, f"({rng.randint(1, 5)}/{rng.randint(2, 7)}*x - a + 1)^9", {"x": rng.randint(-9, 9), "a": rng.randint(-9, 9)})


def cli(b: JobList) -> None:
    """All 16 verbs on tiny inputs, the input-heavy ones twice; about a third invalid."""
    rng = b.rng
    small = ["x", "x+1", "x-a", "2", "x^2"]
    for rep in range(2):
        x = rng.choice(small)
        n = rng.randint(5, 6)
        facets = random_complex(rng, n, rng.randint(2, 4), (1, 2))
        while len(oracle.maximal(facets)) < 2:
            facets = random_complex(rng, n, rng.randint(2, 4), (1, 2))
        complex_jobs(b, n, facets, x, rng.choice(["a", "1"]), ("polyprod", "complement", "config", "config-complement"),
                     show_poset=rep == 1)
        permprod_job(b, 4, named_generators(rng.choice(["S", "C", "D", "R2"]), 4, rng), x)
        zerocycle_job(b, rng.randint(1, 2), rng.randint(1, 2), x, rng.randint(2, 4), table=rep == 0)
        ratio_job(b, rng.randint(1, 2), 1, x, rng.randint(3, 6))
        gspace_job(b, 3 + rep, named_generators("S" if rep == 0 else "C", 3 + rep, rng), 1 + rep, small)
        rows = [(rng.choice(small), rng.randint(1, 6)) for _ in range(3)]
        path = b.file("desc", "".join(f"g{i % 2} c={c} class={cls}\n" for i, (cls, c) in enumerate(rows)))
        b.add(["quotient-descriptor", "--descriptor", path],
              check=poly_check(b.points(), lambda p, rows=rows: sum((oracle.evaluate(cls, p) / c for cls, c in rows), Fraction(0))))
        dim = rng.randint(2, 3)
        linear = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)] for _ in range(dim)]
        if rep == 1:
            linear[0] = [Fraction(int(i == 0)) for i in range(dim)]  # det(A - I) = 0: prints "no"
        shift = [Fraction(rng.randint(-5, 5)) for _ in range(dim)]
        text = f"dim={dim}\n" + "".join("row " + " ".join(map(str, r)) + "\n" for r in linear) + "t " + " ".join(map(str, shift)) + "\n"
        minus_id = [[v - (i == j) for j, v in enumerate(r)] for i, r in enumerate(linear)]
        b.add(["fixed-point", "--map", b.file("map", text)], check=value_check("yes" if oracle.det(minus_id) != 0 else "no"))
        eval_job(b, f"(x+{rng.randint(1, 5)})^{rng.randint(2, 6)} - {rng.randint(1, 9)}*a",
                 None if rep == 0 else {"x": rng.randint(-5, 5), "a": 2})
    x = rng.choice(small)
    fn = rng.randint(3, 5)
    fd = rng.randint(0, fn)
    b.add(["fatwedge", "--n", str(fn), "--d", str(fd), "--X", x], check=poly_check(
        b.points(), lambda p: sum((oracle.gbinom(Fraction(fn), j) * (oracle.evaluate(x, p) - 1) ** j for j in range(fd + 1)), Fraction(0))))
    cn = rng.randint(2, 8)
    cyclic = oracle.closure(named_generators("C", cn, rng), cn)
    b.add(["cycprod", "--n", str(cn), "--X", x],
          check=poly_check(b.points(), lambda p: oracle.burnside_value(cyclic, oracle.evaluate(x, p))))
    sym_job(b, x, rng.randint(3, 6))
    cells = [(rng.randint(0, 2), rng.randint(1, 4)) for _ in range(4)]
    path = b.file("cells", "".join(f"{d} {s}\n" for d, s in cells))
    b.add(["orbifold-euler", "--cells", path], check=value_check(sum((Fraction((-1) ** d, s) for d, s in cells), Fraction(0))))
    orders = rng.choice([[1], [2, 2], [4, 4, 2], [3, 3, 3], [6, 3, 2]])
    path = b.file("iso", "".join(f"c{i} c={c}\n" for i, c in enumerate(orders)))
    b.add(["crystal", "--descriptor", path], check=value_check(sum((Fraction(1, c) for c in orders), Fraction(0))))
    # exit 2: input that cannot be parsed
    for argv in (
        ["eval", f"{rng.randint(2, 9)}*(x+"],
        ["cycprod", "--n", "abc", "--X", "x"],
        ["polyprod", "--complex", b.file("bad", "1,2\n"), "--X", "x", "--A", "a"],
        ["permprod", "--group", b.file("bad", "degree=3\ngen (1 2\n"), "--X", "x"],
        ["quotient", "--space", b.file("bad", "stratum p class=1\nwhat\n")],
        ["config", "--complex", f"{INPUT_DIR}/{b.workload}/missing.txt", "--X", "x"],
    ):
        b.add(argv, expect=2)
    # exit 3: parsed input that violates a documented precondition
    for argv in (
        ["fatwedge", "--n", "3", "--d", str(rng.randint(4, 9)), "--X", "x"],
        ["config", "--complex", b.file("wide", complex_text(4, [(0, 1, 2), (2, 3)])), "--X", "x"],
        ["config-complement", "--complex", b.file("one", complex_text(6, [(0, 1)])), "--X", "x"],
        ["quotient-descriptor", "--descriptor", b.file("bad", "g c=0 class=x\n")],
        ["orbifold-euler", "--cells", b.file("bad", "0 0\n")],
        ["eval", "x+a", "--at", f"x={rng.randint(1, 9)}"],
        ["permprod", "--group", b.file("G9", group_text(9, named_generators("C", 9, rng))), "--X", "x"],
    ):
        b.add(argv, expect=3)


def probes(b: JobList) -> None:
    """CLI contract probes, run once per run outside the timed rounds.

    When the benchmark was written, all of them broke the contract: the
    three ``--order -1`` inputs exit 1 with a traceback, ``crystal`` with a
    non-integer sum leaks a UserWarning to stderr, and the runaway power is
    stopped by the per-job time limit.  They are judged like any job and
    reported by argv, but they are not timed operations, so the round
    itself has no failing job.
    """
    for argv in (
        ["symprod-series", "--X", "x", "--order", "-1"],
        ["zerocycles", "--m", "1", "--n", "1", "--X", "x", "--order", "-1"],
        ["ratio", "--m", "1", "--n", "1", "--X", "x", "--order", "-1"],
    ):
        b.add(argv, expect=3)
    b.add(["crystal", "--descriptor", b.file("iso", "c0 c=2\nc1 c=3\n")], check=value_check(Fraction(5, 6)))
    b.add(["eval", "(x+1)^100000"], expect=3)


WORKLOADS: dict[str, tuple[Callable[[JobList], None], float]] = {
    # name: (builder, per-job time limit in seconds)
    "groups": (groups, 20.0),
    "complexes": (complexes, 20.0),
    "series": (series, 20.0),
    "cli": (cli, 2.0),
}


def build(workload: str, seed: int, root: Path) -> tuple[list[Job], list[Job]]:
    """(the round's jobs, the contract probes run once per run) for a workload and seed."""
    make, timeout = WORKLOADS[workload]
    b = JobList(workload, seed, root, timeout)
    make(b)
    if workload != "cli":
        return b.jobs, []
    extra = JobList("cli-probe", seed, root, timeout)
    probes(extra)
    return b.jobs, extra.jobs
