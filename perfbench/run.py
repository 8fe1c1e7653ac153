"""Benchmark of the `rdsafe` command line: learn, sensitivity and simulate.

Usage, from the repository root:

    python3 perfbench/run.py --workload learn-2g-32k --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones
(setup_s, op_s, peak_rss_mb); with --trace 1 the per-layer ones. See
perfbench/README.md for the workloads, metrics and output checks.
"""
from __future__ import annotations

import os
import sys

from launcher import THREAD_PINS, Launcher

os.environ.update(THREAD_PINS)  # also for the speed probe run in this process


def main() -> int:
    # Start the launcher before this process imports numpy (launcher.py says why).
    with Launcher() as launcher:
        import bench

        return bench.main(sys.argv[1:], launcher)


if __name__ == "__main__":
    sys.exit(main())
