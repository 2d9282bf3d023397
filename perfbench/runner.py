"""Run one child process to completion: wall time, rusage, output, time limit.

The child is reaped with ``os.wait4`` so that its own user/sys CPU and
max-RSS are read, not the running totals of every child the benchmark
ever started.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import time
from dataclasses import dataclass


@dataclass
class Result:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    code: int | None  # None when the time limit killed the child
    stdout: str
    stderr: str


def run(argv: list[str], env: dict[str, str], cwd: str, timeout: float) -> Result:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            deadline = start + timeout
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.send_signal(signal.SIGKILL)
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,
        code=None if timed_out else proc.returncode,
        stdout=b"".join(chunks[out_fd]).decode("utf-8", "replace"),
        stderr=b"".join(chunks[err_fd]).decode("utf-8", "replace"),
    )


# The reference child: a fixed pure-Python loop that imports no kzero code.
# Run as a fresh interpreter, it pays the same process start-up and CPU
# speed as a job does, so the ratio of a job's time to it is steady.
REFERENCE_CODE = """\
from fractions import Fraction
acc, table = Fraction(0), {}
for i in range(1, 3000):
    acc += Fraction(i % 97, i % 13 + 1)
    table[i % 31] = table.get(i % 31, 0) + i * i
"""
