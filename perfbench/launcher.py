"""A small process that runs the benchmark's operations and measures them.

A child's `ru_maxrss` includes the peak RSS of the process that spawned it,
because exec folds the old address space's high-water mark into the
process's maximum. Spawned from the benchmark itself, which holds numpy,
generated inputs and probe arrays, an operation would report the
benchmark's peak instead of its own. So operations are spawned by this
process, which imports only the standard library and is started before the
benchmark loads numpy; its own peak (about 10 MB) is below any operation's.

Protocol: one JSON request per line on stdin, {"argv", "env", "cwd", "log",
"timeout"}; one JSON reply per line on stdout, {"wall_s", "rss_mb", "cpu_s",
"rc"}. The process exits at end of input.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

# Every operation runs with BLAS and OpenMP pinned to one thread.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_measured(argv, env, cwd, log_path, timeout) -> dict:
    """Run one command to completion; wall time, and peak RSS and CPU from wait4."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env={**env, **THREAD_PINS},
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux and covers the child and its reaped children
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rc": proc.returncode}


class Launcher:
    """Client side: starts the launcher process and sends it commands."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, env, cwd, log_path, timeout) -> dict:
        request = {"argv": list(argv), "env": env, "cwd": cwd, "log": log_path,
                   "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self._proc.wait()}")
        return json.loads(reply)

    def close(self):
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_measured(req["argv"], req["env"], req["cwd"], req["log"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(serve())
