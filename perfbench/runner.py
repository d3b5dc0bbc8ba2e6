"""Run jobs one at a time, each in a fresh interpreter, and judge their output.

The parent only waits while a job runs: one job process at a time, no
threads.  Each child's CPU time comes from ``os.wait4`` on that child alone.
"""

from __future__ import annotations

import compileall
import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass

from workloads import Job

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
JOB_TIMEOUT_S = 120


@dataclass
class Result:
    job: Job
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float | None  # the child's own VmHWM
    setup_s: float | None  # spawn until easyqg.cli was imported
    trace: dict | None
    problem: str | None  # why the job failed, or None

    @property
    def failed(self) -> bool:
        return self.problem is not None

    @property
    def known_fault(self) -> bool:
        """The job failed exactly the way its known fault shows, and no other way."""
        fault = self.job.fault
        if not self.failed or fault is None:
            return False
        try:
            return fault.shows(self.returncode, self.stdout, self.stderr)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            return False


def run_job(job: Job, trace: bool = False) -> Result:
    report_r, report_w = os.pipe()
    argv = [sys.executable, CHILD, str(report_w), "1" if trace else "0", job.kind, *job.args]
    spawned = time.monotonic_ns()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, pass_fds=(report_w,))
    os.close(report_w)
    streams = _drain(proc, [proc.stdout.fileno(), proc.stderr.fileno(), report_r])
    _, status, usage = os.wait4(proc.pid, 0)
    ended = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    os.close(report_r)
    stdout, stderr, report = streams
    # the child reports: spawn-to-ready clock, peak RSS in kB, trace totals
    lines = report.splitlines()
    setup_s = (int(lines[0]) - spawned) / 1e9 if lines else None
    peak_rss_mb = int(lines[1]) / 1024 if len(lines) > 1 else None
    trace_data = json.loads(lines[2]) if trace and len(lines) > 2 else None
    result = Result(job, proc.returncode, stdout, stderr, (ended - spawned) / 1e9,
                    usage.ru_utime + usage.ru_stime, peak_rss_mb, setup_s, trace_data, None)
    result.problem = _judge(result)
    return result


def _drain(proc: subprocess.Popen, fds: list[int]) -> list[bytes]:
    """Read every fd to its end; kill the job if it outlives JOB_TIMEOUT_S."""
    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    deadline = time.monotonic() + JOB_TIMEOUT_S
    killed = False
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(None if killed else remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    return [b"".join(chunks[fd]) for fd in fds]


def _judge(result: Result) -> str | None:
    if result.returncode != 0:
        return f"exit code {result.returncode}: {result.stderr.decode(errors='replace')[-300:]}"
    if b"Traceback (most recent call last)" in result.stderr:
        return "traceback on stderr"
    try:
        out = json.loads(result.stdout)
    except ValueError:
        return "stdout is not JSON"
    try:
        return result.job.check(out)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return f"output has the wrong form: {exc!r}"


def warm_up() -> None:
    """Compile the bytecode once, as an install would, so no measured job pays for it."""
    for directory in (os.path.join(ROOT, "src"), HERE):
        if not compileall.compile_dir(directory, quiet=1):
            raise RuntimeError(f"cannot compile {directory}")
