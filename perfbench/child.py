"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/child.py REPORT_FD TRACE KIND ARG...

KIND ``cli`` runs ``easyqg.cli.main(ARG...)`` the way the ``easyqg``
script would; KIND ``lib`` runs the library job ``libjobs.JOBS[ARG]``.
The package is imported from ``src`` next to this directory, because it
cannot always be installed.  The child writes three things to REPORT_FD:

1. as soon as ``easyqg.cli`` is imported, the ``time.monotonic_ns()``
   reading (one system-wide clock on Linux), so the parent can time
   start-up;
2. when the job ends, its peak RSS in kB (``VmHWM``).  The ``ru_maxrss``
   that ``wait4`` gives the parent cannot serve: on Linux a child's starts
   at the parent's own high-water mark;
3. with TRACE ``1``, the totals and spans of the ``tracer`` wrappers, which
   were installed before the job started, as one JSON line.
"""

import os
import sys
import time

_start = time.perf_counter()
_here = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_here), "src"))

import easyqg.cli  # noqa: E402

_import_s = time.perf_counter() - _start


def _peak_rss_kb() -> int:
    with open("/proc/self/status", "rb") as status:
        for line in status:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    report_fd, trace, kind, args = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    os.write(report_fd, b"%d\n" % time.monotonic_ns())
    recorder = None
    if trace:
        import tracer

        recorder = tracer.install()
    try:
        if kind == "cli":
            return easyqg.cli.main(args)
        import libjobs  # imported after the tracer, so it sees the wrappers

        return libjobs.JOBS[args[0]]()
    finally:
        os.write(report_fd, b"%d\n" % _peak_rss_kb())
        if recorder is not None:
            os.write(report_fd, recorder.dump(_import_s).encode() + b"\n")


if __name__ == "__main__":
    sys.exit(main())
