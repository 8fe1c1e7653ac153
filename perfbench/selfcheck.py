"""Shows that every output check of the benchmark can fail.

Usage, from the repository root:

    python3 perfbench/selfcheck.py

Runs one operation of each workload on small inputs, confirms that its real
outputs pass the checks, then feeds each check a deliberately corrupted copy
(an objective moved by 1e-6, a cutoff moved one grid step, a sweep row
dropped, ...) and confirms the check reports an error. The smoother
spot-check is exercised the same way on a fit made here. Prints one line per
case and exits 1 if a clean output fails or a corruption goes unreported.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import numpy as np

import bench
import checks
import inputs
import tracer
import workloads
from launcher import Launcher


def _operation(wl, work: str, launcher) -> str:
    """Run one operation of `wl` and return its output directory."""
    os.makedirs(work, exist_ok=True)
    wl.prepare(7, os.path.join(work, "inputs"))
    out = os.path.join(work, "out")
    argv = [sys.executable, "-m", "rdsafe.cli", *wl.cli_args(out)]
    op = launcher.run(argv, bench.child_env(work), bench.ROOT, os.path.join(work, "op.log"),
                      bench.OP_TIMEOUT_S)
    if op["rc"] != 0:
        raise SystemExit(f"selfcheck: {argv[3]} exited with {op['rc']}; see {work}/op.log")
    return out


def learn_cases(work: str, launcher):
    wl = workloads.Learn(n=4000)
    out = _operation(wl, work, launcher)
    with open(os.path.join(out, "learned_policy.json"), encoding="utf-8") as fh:
        policy = json.load(fh)
    with open(os.path.join(out, "objective_curves.csv"), encoding="utf-8") as fh:
        curves = checks.objective_curves(fh.read())
    a = wl.arrays

    def check(p=policy, c=curves):
        return checks.check_learn(p, c, a.y, a.w, wl.cost, a.cutoffs)

    yield "learn: real output", check(), False

    def edited(path, change):
        p = copy.deepcopy(policy)
        node = p
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
        return p

    yield ("learn: baseline iden moved by 1e-6",
           check(edited(["objective", "baseline", "iden"], lambda v: v + 1e-6)), True)
    yield ("learn: baseline dr set to 1e-6",
           check(edited(["objective", "baseline", "dr"], lambda v: 1e-6)), True)
    yield ("learn: baseline xi2_worst set to -1e-6",
           check(edited(["objective", "baseline", "xi2_worst"], lambda v: -1e-6)), True)
    yield "learn: gain set to -1e-6", check(edited(["objective", "gain"], lambda v: -1e-6)), True
    yield ("learn: learned total moved by 1e-6",
           check(edited(["objective", "learned", "total"], lambda v: v + 1e-6)), True)
    for label in map(str, a.cutoffs):
        cand, vals = curves[label]
        i = int(np.flatnonzero(cand == policy["learned_cutoffs"][label])[0])
        moved = copy.deepcopy(curves)
        moved[label][1][i] += 1e-6
        yield f"learn: group {label} objective at its cutoff moved by 1e-6", check(c=moved), True
        for j in (i - 1, i + 1):
            if 0 <= j < cand.size:
                yield (f"learn: group {label} cutoff moved one grid step to {float(cand[j])!r}",
                       check(edited(["learned_cutoffs", label], lambda v: float(cand[j]))), True)
    top = max(a.cutoffs.values())
    yield ("learn: group 2 cutoff moved above c_Q",
           check(edited(["learned_cutoffs", "2"], lambda v: top + 1.0)), True)


def sweep_cases(work: str, launcher):
    wl = workloads.Sweep(n=4000, q=4)
    out = _operation(wl, work, launcher)
    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        rows = checks.read_csv_rows(fh.read())

    def check(r):
        return checks.check_sweep(r, wl.q, wl.multipliers, wl.costs)

    yield "sweep: real output", check(rows), False
    yield "sweep: one row dropped", check(rows[:-1]), True
    neg = copy.deepcopy(rows)
    neg[5]["objective_gain"] = "-1e-06"
    yield "sweep: one gain set to -1e-6", check(neg), True
    for c in wl.costs:
        rising = copy.deepcopy(rows)
        at_m0 = max(float(r["objective_gain"]) for r in rows
                    if float(r["C"]) == c and float(r["M"]) == min(wl.multipliers))
        row = next(r for r in rising if float(r["C"]) == c and float(r["M"]) == max(wl.multipliers))
        row["objective_gain"] = repr(at_m0 + 1e-6)
        yield f"sweep: gain at largest M raised above smallest M (C={c})", check(rising), True


def simulate_cases(work: str, launcher):
    wl = workloads.Simulate(size=1000, reps=2)
    out = _operation(wl, work, launcher)
    with open(os.path.join(out, "regret.csv"), encoding="utf-8") as fh:
        rows = checks.read_csv_rows(fh.read())

    def check(r):
        return checks.check_regret(r, len(wl.scenarios), wl.reps)

    yield "simulate: real output", check(rows), False
    yield "simulate: one cell dropped", check(rows[:-1]), True
    for key, value in (("reps", "1"), ("failures", "1")):
        bad = copy.deepcopy(rows)
        bad[0][key] = value
        yield f"simulate: {key} set to {value}", check(bad), True
    bad = copy.deepcopy(rows)
    bad[1]["regret_oracle_mean"] = repr(float(bad[1]["regret_baseline_mean"]) - 1e-6)
    yield "simulate: oracle regret 1e-6 below baseline regret", check(bad), True
    failed = os.path.join(work, "failed")
    os.makedirs(failed)
    with open(os.path.join(out, "regret.csv"), encoding="utf-8") as fh:
        text = fh.read()
    with open(os.path.join(failed, "regret.csv"), "w", encoding="utf-8") as fh:
        fh.write(text.replace(",2,0\n", ",1,1\n", 1))
    yield ("simulate: a failed replication fails the operation",
           ["operation counted as failed"] if wl.check(failed)[0] else [], True)

    first = checks.digest(out)
    flipped = os.path.join(work, "flipped")
    shutil.copytree(out, flipped)
    with open(os.path.join(flipped, "regret.csv"), "r+b") as fh:
        fh.seek(-2, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-2, os.SEEK_END)
        fh.write(b"0" if last != b"0" else b"1")
    yield "repeat: identical outputs", checks.check_same_bytes(first, checks.digest(out)), False
    yield ("repeat: one byte changed",
           checks.check_same_bytes(first, checks.digest(flipped)), True)


def smoother_cases():
    from rdsafe.smooth import CurveFit, LocalPolyConfig

    a = inputs.scenario_b(4000, 7)
    below = a.x < -600.0
    samples = []
    for degree in (1, 2):
        fit = CurveFit(a.x[below], a.y[below], LocalPolyConfig(degree=degree))
        queries = np.linspace(fit.support[0], fit.support[1], 150)
        samples.append((fit, queries, fit.values(queries)))
    yield "spot-check: real smoother values", tracer.spot_check(samples)[1], False
    fit, queries, values = samples[1]
    bad = values.copy()
    bad[75] *= 1.0 + 1e-6
    yield ("spot-check: one value moved by 1e-6 relative",
           tracer.spot_check([samples[0], (fit, queries, bad)])[1], True)
    yield ("spot-check: fewer than 200 queries",
           tracer.spot_check(samples[:1])[1], True)


def main() -> int:
    sys.path.insert(0, os.path.join(bench.ROOT, "src"))
    base = os.path.join(bench.HERE, "work", "selfcheck")
    shutil.rmtree(base, ignore_errors=True)
    bad = 0
    with Launcher() as launcher:
        groups = [learn_cases(os.path.join(base, "learn"), launcher),
                  sweep_cases(os.path.join(base, "sweep"), launcher),
                  simulate_cases(os.path.join(base, "simulate"), launcher),
                  smoother_cases()]
        for cases in groups:
            for name, errors, expect_errors in cases:
                ok = bool(errors) == expect_errors
                bad += not ok
                verdict = "ok" if ok else "WRONG"
                detail = errors[0] if errors else "no error reported"
                print(f"{verdict:5} {name}: {detail}")
    print(f"selfcheck: {bad} case(s) wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
