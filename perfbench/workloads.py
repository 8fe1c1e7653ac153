"""The three benchmark workloads: inputs, `rdsafe` arguments and output checks.

Every workload makes its inputs from the seed in `prepare`, names the CLI
arguments of one operation in `cli_args`, and judges one operation's result
directory in `check`, which returns (operation failed, output errors).
"""
from __future__ import annotations

import json
import os

import checks
import inputs


def _read(directory: str, name: str) -> str:
    with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
        return fh.read()


class Learn:
    """One `rdsafe learn` on scenario B data, observed grid, M=1, C=0."""

    multiplier = 1.0
    cost = 0.0

    def __init__(self, n: int):
        self.n = n

    def prepare(self, seed: int, work: str):
        self.seed = seed
        self.arrays = inputs.scenario_b(self.n, seed)
        self.data, self.design = inputs.write_inputs(self.arrays, work)

    def cli_args(self, out: str) -> list[str]:
        return ["learn", "--input", self.data, "--design", self.design, "--out", out,
                "--seed", str(self.seed), "--grid", "observed",
                "--multiplier", repr(self.multiplier), "--cost", repr(self.cost)]

    def check(self, out: str):
        policy = json.loads(_read(out, "learned_policy.json"))
        curves = checks.objective_curves(_read(out, "objective_curves.csv"))
        a = self.arrays
        return False, checks.check_learn(policy, curves, a.y, a.w, self.cost, a.cutoffs)


class Sweep:
    """One `rdsafe sensitivity` on Q-group data over an M x C grid."""

    multipliers = (0.0, 0.5, 1.0, 2.0, 4.0)
    costs = (0.0, 0.25, 0.5, 1.0)

    def __init__(self, n: int, q: int):
        self.n, self.q = n, q

    def prepare(self, seed: int, work: str):
        self.seed = seed
        self.data, self.design = inputs.write_inputs(inputs.multi_group(self.n, self.q, seed), work)

    def cli_args(self, out: str) -> list[str]:
        return ["sensitivity", "--input", self.data, "--design", self.design, "--out", out,
                "--seed", str(self.seed),
                "--multipliers", *map(repr, self.multipliers), "--costs", *map(repr, self.costs)]

    def check(self, out: str):
        rows = checks.read_csv_rows(_read(out, "sweep.csv"))
        return False, checks.check_sweep(rows, self.q, self.multipliers, self.costs)


class Simulate:
    """One `rdsafe simulate` over scenarios A and B at one size and multiplier."""

    scenarios = ("A", "B")

    def __init__(self, size: int, reps: int):
        self.size, self.reps = size, reps

    def prepare(self, seed: int, work: str):
        self.seed = seed

    def cli_args(self, out: str) -> list[str]:
        return ["simulate", "--scenarios", *self.scenarios, "--sizes", str(self.size),
                "--multipliers", "1", "--reps", str(self.reps),
                "--seed", str(self.seed), "--out", out]

    def check(self, out: str):
        rows = checks.read_csv_rows(_read(out, "regret.csv"))
        if checks.failed_replications(rows):
            return True, []
        return False, checks.check_regret(rows, len(self.scenarios), self.reps)


WORKLOADS = {
    "learn-2g-32k": lambda: Learn(n=32_000),
    "sweep-4g-8k": lambda: Sweep(n=8_000, q=4),
    "mc-2g-1k": lambda: Simulate(size=1_000, reps=20),
}
