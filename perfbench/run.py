"""kzero benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

Usage (from the repository root, no install needed):

    python3 perfbench/run.py --workload groups --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one block each
    python3 perfbench/run.py --write-golden            # refresh golden.json (default seed)

Every job is one ``python -m kzero.cli <verb> ...`` child with ``src`` on
PYTHONPATH.  One client runs one child at a time (a closed loop).  A run
repeats the workload's job list ("round") at least MIN_ROUNDS times and
stops starting rounds once the next one would end further from
``--seconds`` than stopping now, so every round is complete and the job mix
is the same in every run.

Times are speed-corrected: each child runs between two reference
runs (``runner.REFERENCE_CODE``, a fresh interpreter running a fixed
loop and no kzero code) on the same CPU, and its wall and CPU time are
scaled by REFERENCE_S over their mean (README.md says why).
``job_p50_s`` ranks every job run; ``jobs_per_s``, ``job_tail_s`` and
``cpu_per_job_s`` use each job's median over the rounds.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs the same jobs in-process with spans around the layer calls (see
``tracing``), writes the spans to ``.perfbench_out/`` and reports the
per-layer metrics and the tracing overhead.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import jobs as joblib
import runner
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0
SETUP_PER_ROUND = 3
MIN_ROUNDS = 3
# Speed-corrected times are wall times scaled to a machine on which the
# reference child (runner.REFERENCE_CODE) takes this long.
REFERENCE_S = 0.08
# A reference child runs once the children since the last one took this
# long: after nearly every child of groups, complexes and series, after
# every second one of cli.  Slow phases of a shared machine last seconds,
# so this tracks them while the reference runs cost at most a quarter of
# a run.
REFERENCE_GAP_S = 0.25
SETUP_CODE = "import kzero.cli as c; c.build_parser()"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], timeout: float) -> runner.Result:
    return runner.run([sys.executable, *args], child_env(), str(ROOT), timeout)


def interpreter_times(code: str, reps: int) -> list[float]:
    """Wall times of ``reps`` fresh interpreters running ``code``."""
    times = []
    for _ in range(reps):
        r = spawn(["-c", code], 60.0)
        if r.code != 0:
            raise RuntimeError(f"python -c {code!r} failed with exit {r.code}: {r.stderr.strip()}")
        times.append(r.wall_s)
    return times


def interpreter_median(code: str, reps: int) -> float:
    """Median wall time of ``reps`` fresh interpreters after one unmeasured warm-up."""
    return statistics.median(interpreter_times(code, reps + 1)[1:])


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


# -- judging one job ---------------------------------------------------------------


class Judge:
    """Applies the CLI contract and the independent checks; caches per distinct output."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self._checked: dict[tuple[str, str], str | None] = {}

    def stdout_problem(self, job, stdout: str) -> str | None:
        key = (job.id, stdout)
        if key not in self._checked:
            try:
                problem = job.check(stdout) if job.check else None
            except (ValueError, ZeroDivisionError, IndexError) as e:
                problem = f"unreadable output: {e}"
            if problem is None and self.golden is not None:
                entry = self.golden.get(job.id)
                digest = hashlib.sha256(stdout.encode()).hexdigest()
                if entry is None or entry["inputs"] != job.inputs_sha:
                    problem = "no golden digest for these inputs (golden.json is stale)"
                elif entry["stdout"] != digest:
                    problem = "stdout differs from the golden digest"
            self._checked[key] = problem
        return self._checked[key]

    def failure(self, job, code: int | None, stdout: str, stderr: str) -> tuple[str | None, bool]:
        """(reason the job failed or None, whether it printed a wrong answer)."""
        if code is None:
            return f"exceeded the {job.timeout:g} s time limit", False
        if "Traceback (most recent call last)" in stderr:
            return f"exit {code} with a traceback (expected {job.expect})", False
        if code != job.expect:
            return f"exit {code}, expected {job.expect}", code == 0
        if code in (2, 3):
            errors = sum("error:" in line for line in stderr.splitlines())
            if errors != 1 or stdout:
                return f"exit {code} with {errors} 'error:' lines and {len(stdout)} bytes of stdout", False
            return None, False
        if code == 0:
            problem = self.stdout_problem(job, stdout)
            if problem:
                return problem, True
            if stderr:
                lines = stderr.strip().splitlines()
                shown = next((line for line in lines if "Warning" in line), lines[-1])
                return f"stderr not empty: {shown.strip()}", False
        return None, False


def tally(judge: Judge, outcomes) -> tuple[int, int, dict[str, str]]:
    """(failed, wrong answers, first failure reason per argv) over (job, code, stdout, stderr)."""
    failed = wrong = 0
    failures: dict[str, str] = {}
    for job, code, stdout, stderr in outcomes:
        reason, is_wrong = judge.failure(job, code, stdout, stderr)
        if reason:
            failed += 1
            wrong += is_wrong
            failures.setdefault(" ".join(job.argv), reason)
    return failed, wrong, failures


def run_record(workload: str, seed: int, load_start: tuple[float, float, float], **counts: int) -> dict:
    return {
        "git_sha": git_sha(), "python": sys.version.split()[0], "interpreter": sys.executable,
        "nproc": os.cpu_count(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "seed": seed, "workload": workload, **counts,
    }


def load_golden(seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text())["jobs"]


# -- metrics -------------------------------------------------------------------------


def tail_quantile(n: int) -> float:
    """The highest quantile of ``n`` samples with at least 10 samples beyond it."""
    return max(0.0, (n - 10) / n)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with a share ``q`` of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def reference_time() -> float:
    r = spawn(["-c", runner.REFERENCE_CODE], 60.0)
    if r.code != 0:
        raise RuntimeError(f"the reference child failed with exit {r.code}: {r.stderr.strip()}")
    return r.wall_s


class ReferenceRunner:
    """Runs children back to back with reference children between them.

    A reference run comes first and after children that took
    REFERENCE_GAP_S together; ``close`` adds the last one.  A child's
    correction factor uses the reference runs on either side of it.
    """

    def __init__(self) -> None:
        self.refs = [reference_time()]
        self.pending_s = 0.0  # wall time of the children since the last reference run

    def run(self, args: list[str], timeout: float) -> tuple[runner.Result, int]:
        result = spawn(args, timeout)
        index = len(self.refs) - 1
        self.pending_s += result.wall_s
        if self.pending_s >= REFERENCE_GAP_S:
            self.close()
        return result, index

    def close(self) -> None:
        if self.pending_s:
            self.refs.append(reference_time())
            self.pending_s = 0.0

    def factor(self, index: int) -> float:
        return REFERENCE_S / ((self.refs[index] + self.refs[index + 1]) / 2)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run: subprocess jobs in whole rounds, then the checks."""
    jobs, contract = joblib.build(workload, seed, ROOT)
    # One CPU for the benchmark and its children, so the reference child runs
    # on the CPU the job ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    load_start = os.getloadavg()
    interpreter_times(SETUP_CODE, 1)  # warm-up: byte-compiles src on a fresh checkout
    contract_results = [(job, spawn(["-m", "kzero.cli", *job.argv], job.timeout)) for job in contract]
    timed = ReferenceRunner()
    setups: list[tuple[runner.Result, int]] = []
    runs: list[tuple[joblib.Job, runner.Result, int]] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        setups += [timed.run(["-c", SETUP_CODE], 60.0) for _ in range(SETUP_PER_ROUND)]
        runs += [(job, *timed.run(["-m", "kzero.cli", *job.argv], job.timeout)) for job in jobs]
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds / 2 >= seconds:
            break
    timed.close()
    judge = Judge(load_golden(seed))
    failed, wrong, failures = tally(judge, [(job, r.code, r.stdout, r.stderr) for job, r, _ in runs])
    faults, contract_wrong, contract_failures = tally(
        judge, [(job, r.code, r.stdout, r.stderr) for job, r in contract_results])
    attempted = len(runs)
    # The tail ranks each job at its median time, counted once per round of
    # MIN_ROUNDS rounds: a job's median is steadier than its slowest run, and
    # a fixed count keeps the tail on the same job whether a run fits 3
    # rounds or 4.
    q_tail = tail_quantile(MIN_ROUNDS * len(jobs))

    def end_to_end(scale: bool) -> dict[str, float]:
        def f(index: int) -> float:
            return timed.factor(index) if scale else 1.0

        walls: dict[str, list[float]] = {}
        cpus: dict[str, list[float]] = {}
        for job, r, i in runs:
            walls.setdefault(job.id, []).append(r.wall_s * f(i))
            cpus.setdefault(job.id, []).append(r.cpu_s * f(i))
        medians = [statistics.median(times) for times in walls.values()]
        return {
            "setup_s": statistics.median(r.wall_s * f(i) for r, i in setups),
            "jobs_per_s": len(medians) / sum(medians),
            "job_p50_s": statistics.median(t for times in walls.values() for t in times),
            "job_tail_s": quantile([m for m in medians for _ in range(MIN_ROUNDS)], q_tail),
            "cpu_per_job_s": sum(statistics.median(times) for times in cpus.values()) / len(cpus),
        }

    corrected, uncorrected = end_to_end(True), end_to_end(False)
    units = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s", "cpu_per_job_s": "s"}
    metrics = {name: metric(value, units[name]) for name, value in corrected.items()}
    metrics["peak_rss_mb"] = metric(max(r.maxrss_mb for _, r, _ in runs), "MiB")
    factors = sorted(timed.factor(i) for _, _, i in runs)
    return {
        "workload": workload,
        "correct": wrong + contract_wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "faults": contract_failures,
        "metrics": metrics,
        "notes": {
            "fail_frac": f"{failed / attempted:.4f} ratio ({failed} of {attempted} timed jobs)",
            "contract probes": "" if not contract else (
                f"{faults} of {len(contract)} break the CLI contract (run once, untimed, not in attempted/failed); "
                f"fail_frac with them {(failed + faults) / (attempted + len(contract)):.4f}"),
            "job_tail_s": (f"p{100 * q_tail:.1f} of {MIN_ROUNDS * len(jobs)} job runs ({len(jobs)} jobs x "
                           f"{MIN_ROUNDS} rounds, each at its job's median of {rounds} runs), "
                           f"{MIN_ROUNDS * len(jobs) - math.ceil(q_tail * MIN_ROUNDS * len(jobs))} beyond it"),
            "speed correction": (f"factor median {statistics.median(factors):.3f}, "
                                 f"range {factors[0]:.3f}..{factors[-1]:.3f}"),
            "uncorrected": " ".join(f"{k}={v:.6g}" for k, v in uncorrected.items()),
        },
        "record": run_record(workload, seed, load_start, round_jobs=len(jobs), rounds=rounds, jobs_run=attempted,
                             contract_probes=len(contract)),
    }


def measure_traced(workload: str, seed: int) -> dict:
    """The traced run: one untraced round for the baseline, then the round in-process with spans."""
    jobs, _ = joblib.build(workload, seed, ROOT)
    coverage = [] if workload == "cli" else joblib.build("cli", seed, ROOT)[0]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    load_start = os.getloadavg()
    import_s = interpreter_median("import kzero.cli", 5) - interpreter_median("pass", 5)
    # The untraced baseline pairs each job with a set-up run just before it,
    # so slow swings of CPU speed cancel in the difference.
    untraced = []
    for job in jobs:
        setup = spawn(["-c", SETUP_CODE], 60.0).wall_s
        untraced.append(spawn(["-m", "kzero.cli", *job.argv], job.timeout).wall_s - setup)
    kz = tracing.import_kzero(ROOT)
    tr = tracing.Tracer()
    failed, wrong, failures = tally(Judge(load_golden(seed)), [
        (job, *tracing.run_job(tr, job, kz)) for job in jobs + coverage])
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    tr.write(spans_path)
    self_times = tr.self_times()
    totals = tr.job_totals()
    traced_job = statistics.median(totals[job.id] for job in jobs)
    untraced_job = statistics.median(untraced)
    metrics = {"cli.import_s": metric(import_s, "s")}
    for name in tracing.SPAN_METRICS:
        metrics[f"{name}_s"] = metric(self_times.get(name, 0.0), "s")
    for name in tracing.COUNT_METRICS:
        metrics[name] = metric(tr.counts.get(name, 0), "count")
    metrics["trace.overhead_ratio"] = metric(traced_job / untraced_job, "ratio")
    return {
        "workload": workload,
        "correct": wrong == 0,
        "attempted": len(jobs) + len(coverage),
        "failed": failed,
        "failures": failures,
        "faults": {},
        "metrics": metrics,
        "notes": {
            "tracing overhead": (f"traced per-job median {traced_job:.4f} s vs untraced median of job minus "
                                 f"set-up {untraced_job:.4f} s; the traced job also repeats its layer calls"),
            "waiting": "none measured: one client, one single-threaded child at a time, no queue",
            "spans": f"{spans_path.relative_to(ROOT)} ({len(tr.spans)} spans)",
            "coverage": "" if not coverage else f"the cli round ({len(coverage)} jobs) is traced too, so every layer runs",
        },
        "record": run_record(workload, seed, load_start, round_jobs=len(jobs), jobs_run=len(jobs) + len(coverage)),
    }


def report(result: dict) -> None:
    print(f"== {result['workload']}: record {json.dumps(result['record'])}")
    for name, m in result["metrics"].items():
        print(f"   {name:34s} {m['value']:>14.6g} {m['unit']}")
    for name, note in result["notes"].items():
        if note:
            print(f"   {name}: {note}")
    print(f"   correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for argv, reason in result["failures"].items():
        print(f"   FAILED kzero {argv}: {reason}")
    for argv, reason in result["faults"].items():
        print(f"   CONTRACT FAULT kzero {argv}: {reason}")


def write_golden() -> None:
    """Store the sha256 of every exit-0 job's stdout at the default seed, probes included."""
    golden: dict[str, dict] = {}
    for workload in joblib.WORKLOADS:
        jobs, contract = joblib.build(workload, DEFAULT_SEED, ROOT)
        judge = Judge(None)
        for job in jobs + contract:
            if job.expect != 0:
                continue
            r = spawn(["-m", "kzero.cli", *job.argv], job.timeout)
            if r.code != 0 or judge.stdout_problem(job, r.stdout):
                raise SystemExit(f"refusing to record {job.id}: exit {r.code}, {judge.stdout_problem(job, r.stdout)}")
            golden[job.id] = {"inputs": job.inputs_sha, "stdout": hashlib.sha256(r.stdout.encode()).hexdigest()}
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "jobs": golden}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN.relative_to(ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*joblib.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "kzero" / "cli.py").is_file():
        print(f"error: no kzero sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    workloads = list(joblib.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for w in workloads:
        result = measure_traced(w, args.seed) if args.trace else measure(w, args.seed, args.seconds)
        report(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
