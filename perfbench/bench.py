"""Benchmark logic behind perfbench/run.py: set-up, operations, checks, metrics.

Set-up makes the workload's inputs from the seed, writes them under
perfbench/work/ and imports `rdsafe` once in a fresh process. Then rounds of
one operation -- one `rdsafe` command in a fresh process with `src` on
PYTHONPATH, spawned by perfbench/launcher.py -- and one speed probe run until
--seconds have passed (at least MIN_OPS operations), and every operation's
outputs are checked. With --trace 1 each round also runs one traced operation
(perfbench/tracer.py) and the per-layer metrics are reported instead of the
end-to-end ones.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import checks
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
MIN_OPS = 4  # untraced operations per run, so op_s is a median of at least 4
MIN_ROUNDS = 2  # untraced + traced pairs per traced run
RUN_BUDGET_S = 150.0  # no round starts that could end the run past this
OP_TIMEOUT_S = 120.0
# Duration of `probe()` on the reference machine (README.md). Each operation's
# wall time is rescaled to that speed by the probes around it, because the
# shared host's speed swings by up to 2.5x for minutes at a time.
PROBE_REF_S = 0.55

# Per-layer metrics: (name, unit, span name, statistic). Statistics are
# "incl" (time inside the span, nested spans of the same name counted once),
# "self" (minus the time of child spans), "calls", "work" (summed work
# counts) and "rate" (work per second of self time). The last five metrics
# come from the operations and probes themselves, not from spans.
LAYER_METRICS = [
    ("core.load_dataset.s", "s", "core.load_dataset", "incl"),
    ("core.load_dataset.rows_per_s", "1/s", "core.load_dataset", "rate"),
    ("smooth.curvefit_eval.s", "s", "smooth.curvefit_eval", "self"),
    ("smooth.curvefit_eval.calls", "count", "smooth.curvefit_eval", "calls"),
    ("smooth.curvefit_eval.queries", "count", "smooth.curvefit_eval", "work"),
    ("smooth.curvefit_eval.queries_per_s", "1/s", "smooth.curvefit_eval", "rate"),
    ("smooth.curvefit_init.s", "s", "smooth.curvefit_init", "incl"),
    ("smooth.curvefit_init.calls", "count", "smooth.curvefit_init", "calls"),
    ("smooth.boundary_limit.s", "s", "smooth.boundary_limit", "incl"),
    ("smooth.boundary_limit.calls", "count", "smooth.boundary_limit", "calls"),
    ("estimator.make_folds.s", "s", "estimator.make_folds", "incl"),
    ("estimator.fit_crossfit_nuisances.s", "s", "estimator.fit_crossfit_nuisances", "self"),
    ("estimator.cond_mean.s", "s", "estimator.cond_mean", "incl"),
    ("estimator.cond_mean.calls", "count", "estimator.cond_mean", "calls"),
    ("estimator.cond_mean.queries", "count", "estimator.cond_mean", "work"),
    ("estimator.propensity.s", "s", "estimator.propensity", "incl"),
    ("estimator.propensity.queries", "count", "estimator.propensity", "work"),
    ("estimator.compute_dr_scores.s", "s", "estimator.compute_dr_scores", "incl"),
    ("estimator.compute_dr_scores.calls", "count", "estimator.compute_dr_scores", "calls"),
    ("estimator.value_breakdown.s", "s", "estimator.value_breakdown", "incl"),
    ("idbounds.difference_pseudo_outcomes.s", "s", "idbounds.difference_pseudo_outcomes", "incl"),
    ("idbounds.difference_pseudo_outcomes.calls", "count",
     "idbounds.difference_pseudo_outcomes", "calls"),
    ("idbounds.fit_difference_curve.s", "s", "idbounds.fit_difference_curve", "incl"),
    ("idbounds.estimate_smoothness.s", "s", "idbounds.estimate_smoothness", "incl"),
    ("idbounds.build_bound_model.s", "s", "idbounds.build_bound_model", "incl"),
    ("idbounds.build_bound_model.calls", "count", "idbounds.build_bound_model", "calls"),
    ("idbounds.worst_case_xi2.s", "s", "idbounds.worst_case_xi2", "incl"),
    ("learner.prepare_components.s", "s", "learner.prepare_components", "incl"),
    ("learner.candidate_grid.s", "s", "learner.candidate_grid", "incl"),
    ("learner.candidates", "count", "learner.candidate_grid", "work"),
    ("learner.learn_from_components.s", "s", "learner.learn_from_components", "incl"),
    ("learner.learn_from_components.calls", "count", "learner.learn_from_components", "calls"),
    ("simlab.generate.s", "s", "simlab.generate", "incl"),
    ("simlab.generate.records_per_s", "1/s", "simlab.generate", "rate"),
    ("simlab.true_value.s", "s", "simlab.true_value", "incl"),
    ("simlab.true_value.calls", "count", "simlab.true_value", "calls"),
    ("simlab.oracle_policy.s", "s", "simlab.oracle_policy", "incl"),
    ("simlab.learn_policy.s", "s", "simlab.learn_policy", "incl"),
    ("cli.render_outputs.s", "s", "cli.render_outputs", "incl"),
    ("cli.output_bytes", "bytes", None, None),
    ("trace.overhead_s", "s", None, None),
    ("process.cpu_s", "s", None, None),
    ("process.wall_s", "s", None, None),
    ("machine.probe_s", "s", None, None),
]


@dataclass
class Op:
    wall_s: float
    rss_mb: float
    cpu_s: float
    rc: int


def process_age() -> float:
    """Seconds since this process started, from its start time in /proc."""
    with open("/proc/self/stat", "r", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def probe() -> float:
    """Wall seconds of a fixed computation that uses no rdsafe code.

    Kernel-window algebra with small solves, a sort, polynomials evaluated on
    large arrays and a Python loop: the mix an rdsafe operation runs, so it
    slows down with the machine the same way.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    x = np.sort(rng.uniform(-1000.0, 0.0, 50_000))
    for start in range(0, 2048, 256):
        q = x[start:start + 256]
        u = (x[None, :3000] - q[:, None]) / 30.0
        w = np.maximum(0.0, 1.0 - np.abs(u))
        b = np.stack([np.ones_like(u), u], axis=-1)
        gram = np.einsum("qpi,qp,qpj->qij", b, w, b) + np.eye(2)
        np.linalg.solve(gram, np.ones((256, 2, 1)))
    np.argsort(rng.normal(size=400_000))
    z = rng.uniform(-1000.0, -1.0, size=500_000)
    powers = np.stack([np.ones_like(z), z, z * z, z * z * z], axis=-1)
    np.where(z > -600.0, powers @ np.ones(4), powers @ np.full(4, 0.5))
    total = 0
    for i in range(1_000_000):
        total += i % 7
    return time.perf_counter() - t0


def child_env(work: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = work
    return env


def span_stats(spans: list) -> dict:
    """Per span name: incl, self, calls and work, from [name, start, end, parent, work]."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    stats = defaultdict(lambda: {"incl": 0.0, "self": 0.0, "calls": 0, "work": 0})
    for i, (name, _, _, parent, work) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["work"] += work
        st["self"] += dur[i] - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            st["incl"] += dur[i]
    return stats


def layer_values(stats: dict) -> dict:
    out = {}
    for name, _, span, stat in LAYER_METRICS:
        if span is None:
            continue
        st = stats.get(span, {"incl": 0.0, "self": 0.0, "calls": 0, "work": 0})
        if stat == "rate":
            out[name] = st["work"] / st["self"] if st["self"] > 0 else 0.0
        else:
            out[name] = st[stat]
    return out


def output_bytes(out: str) -> int:
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))


def _median(values: list, unit: str = "s"):
    """Median, or 0 when no operation succeeded; counts keep a member's value."""
    if not values:
        return 0
    if unit in ("count", "bytes"):
        return statistics.median_low(values)
    return statistics.median(values)


def layer_report(ops: list, sizes: list, traced: list, probes: list) -> dict:
    """Per-layer metrics: medians over traced operations of their span metrics,
    plus output size, CPU and wall time and tracing overhead from untraced
    operations, and the probe time."""
    metrics = {name: _median([layers[name] for _, layers in traced], unit)
               for name, unit, span, _ in LAYER_METRICS if span is not None}
    metrics["cli.output_bytes"] = _median(sizes, "bytes")
    metrics["trace.overhead_s"] = (_median([op.wall_s for op, _ in traced])
                                   - _median([op.wall_s for op in ops]))
    metrics["process.cpu_s"] = _median([op.cpu_s for op in ops])
    metrics["process.wall_s"] = _median([op.wall_s for op in ops])
    metrics["machine.probe_s"] = _median(probes)
    return {name: {"value": metrics[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}


class Runner:
    """Runs and judges the operations of one benchmark run."""

    def __init__(self, workload, work: str, launcher):
        self.workload = workload
        self.launcher = launcher
        self.work = work
        self.out = os.path.join(work, "out")
        self.env = child_env(work)
        self.first_digest = None
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _report(self, errors: list):
        self.correct = False
        for err in errors:
            print(f"perfbench: CHECK FAILED: {err}", file=sys.stderr)

    def operation(self, prefix: list) -> tuple:
        """One operation; returns (Op, whether it counts as successful)."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [sys.executable, *prefix, *self.workload.cli_args(self.out)]
        op = Op(**self.launcher.run(argv, self.env, ROOT, os.path.join(self.work, "op.log"),
                                    OP_TIMEOUT_S))
        self.attempted += 1
        print(f"perfbench: op {self.attempted}: {op.wall_s:.3f} s, cpu {op.cpu_s:.3f} s, "
              f"rss {op.rss_mb:.1f} MB, rc {op.rc}", file=sys.stderr)
        if op.rc != 0:
            self.failed += 1
            with open(os.path.join(self.work, "op.log"), "r", errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
            return op, False
        try:
            op_failed, errors = self.workload.check(self.out)
        except (OSError, ValueError, KeyError) as exc:
            op_failed, errors = False, [f"unreadable result files: {exc!r}"]
        if op_failed:
            self.failed += 1
            return op, False
        digest = checks.digest(self.out)
        if self.first_digest is None:
            self.first_digest = digest
        errors = errors + checks.check_same_bytes(self.first_digest, digest)
        if errors:
            self._report(errors)
        return op, True

    def untraced(self) -> tuple:
        return self.operation(["-m", "rdsafe.cli"])

    def traced(self) -> tuple:
        spans_path = os.path.join(self.work, "spans.json")
        op, ok = self.operation([os.path.join(HERE, "tracer.py"), spans_path])
        if not ok:
            return op, None
        with open(spans_path, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
        if trace["missing"]:
            print(f"perfbench: not traced (absent): {trace['missing']}", file=sys.stderr)
        if trace["spot_errors"]:
            self._report(trace["spot_errors"])
        print(f"perfbench: smoother spot-check: {trace['spot_checked']} queries", file=sys.stderr)
        op.wall_s -= trace["post_cli_s"]
        return op, layer_values(span_stats(trace["spans"]))


def parse_args(argv):
    p = argparse.ArgumentParser(prog="run.py", description="Benchmark of the rdsafe CLI")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv, launcher) -> int:
    """Run the benchmark; `launcher` spawns the operations."""
    args = parse_args(argv)
    cli_file = os.path.join(ROOT, "src", "rdsafe", "cli.py")
    if not os.path.isfile(cli_file):
        print(f"perfbench: no rdsafe sources at {os.path.dirname(cli_file)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed, os.path.join(work, "inputs"))
    runner = Runner(workload, work, launcher)
    warm = subprocess.run([sys.executable, "-c", "import rdsafe.cli; print(rdsafe.cli.__file__)"],
                          cwd=ROOT, env=runner.env, capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S)
    if warm.returncode != 0 or not os.path.samefile(warm.stdout.strip(), cli_file):
        print(f"perfbench: importing rdsafe from {cli_file} failed:\n{warm.stderr}",
              file=sys.stderr)
        return 2
    setup_s = process_age()
    budget = RUN_BUDGET_S - setup_s

    # A round is one untraced operation, followed by a traced one with --trace 1,
    # and a probe; each untraced operation is scaled by the mean of the probes
    # on either side of it. Rounds continue while the next one is expected to
    # end within --seconds.
    plain, traced, rounds, probes = [], [], [], [probe()]
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        op, ok = runner.untraced()
        size = output_bytes(runner.out) if ok else 0
        if args.trace:
            top, layers = runner.traced()
            if layers is not None:
                traced.append((top, layers))
        probes.append(probe())
        print(f"perfbench: probe {probes[-1]:.3f} s", file=sys.stderr)
        if ok:
            plain.append((op, size, PROBE_REF_S / (0.5 * (probes[-2] + probes[-1]))))
        rounds.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - start
        if elapsed + max(rounds) > budget:
            break
        if len(rounds) >= (MIN_ROUNDS if args.trace else MIN_OPS) and \
                elapsed + statistics.median(rounds) > args.seconds:
            break

    ops = [op for op, _, _ in plain]
    if args.trace:
        report = layer_report(ops, [size for _, size, _ in plain], traced, probes)
    else:
        report = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": _median([speed * op.wall_s for op, _, speed in plain]), "unit": "s"},
            "peak_rss_mb": {"value": _median([op.rss_mb for op in ops]), "unit": "MB"},
        }
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": report}))
    return 0

