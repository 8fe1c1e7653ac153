"""Reference figures: `rdsafe learn` wall time against sample size.

Usage, from the repository root:

    python3 perfbench/reference.py

Runs the learn-2g-32k operation (scenario B data, seed 1, M=1, C=0) three
times at each size in SIZES, in a fresh process each time, and prints the
median wall time, CPU time and peak RSS per size. The figures are quoted in
perfbench/README.md.
"""
from __future__ import annotations

import os
import shutil
import statistics
import sys

from launcher import Launcher

SIZES = (1000, 4000, 16000, 64000)
REPEATS = 3
SEED = 1


def main() -> int:
    # Start the launcher before this process imports numpy (launcher.py says why).
    with Launcher() as launcher:
        import bench
        import workloads

        base = os.path.join(bench.HERE, "work", "reference")
        shutil.rmtree(base, ignore_errors=True)
        print("n,wall_s,cpu_s,peak_rss_mb")
        for n in SIZES:
            work = os.path.join(base, str(n))
            os.makedirs(work)
            wl = workloads.Learn(n=n)
            wl.prepare(SEED, os.path.join(work, "inputs"))
            argv = [sys.executable, "-m", "rdsafe.cli", *wl.cli_args(os.path.join(work, "out"))]
            ops = [launcher.run(argv, bench.child_env(work), bench.ROOT,
                                os.path.join(work, "op.log"), bench.OP_TIMEOUT_S)
                   for _ in range(REPEATS)]
            if any(op["rc"] for op in ops):
                print(f"reference: learn at n={n} failed; see {work}/op.log", file=sys.stderr)
                return 1
            print(f"{n},{statistics.median(op['wall_s'] for op in ops):.3f},"
                  f"{statistics.median(op['cpu_s'] for op in ops):.3f},"
                  f"{statistics.median(op['rss_mb'] for op in ops):.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
