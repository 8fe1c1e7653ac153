"""Output checks for the benchmark operations.

Each check takes parsed program output plus what the benchmark itself knows
(its generated arrays, the requested grid) and returns a list of error
messages; an empty list means the output passed. The checks compare against
computations made apart from the program, or against properties the method
must have, never against a stored copy of today's output.
"""
from __future__ import annotations

import csv
import hashlib
import io
import os

import numpy as np

# Objective values agree to this tolerance when two code paths compute them.
SUM_TOL = 1e-9
# Safety and monotonicity hold up to float rounding of order 1e-16 per record.
ORDER_TOL = 1e-12


def read_csv_rows(text: str) -> list[dict]:
    """Rows of a result CSV, skipping the `# config_hash=...` provenance line."""
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def objective_curves(text: str) -> dict:
    """group label -> (candidates, objective values), from objective_curves.csv."""
    cand, vals = {}, {}
    for row in read_csv_rows(text):
        cand.setdefault(row["group"], []).append(float(row["candidate"]))
        vals.setdefault(row["group"], []).append(float(row["objective"]))
    return {g: (np.array(cand[g]), np.array(vals[g])) for g in cand}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_learn(policy: dict, curves: dict, y, w, cost: float, cutoffs: dict) -> list[str]:
    """`rdsafe learn`: learned_policy.json and objective_curves.csv.

    `y`, `w` and `cutoffs` are the benchmark's own generated arrays and design.
    """
    errors = []
    obj = policy["objective"]
    base = obj["baseline"]
    iden_ref = float(np.sum(np.asarray(y) - cost * np.asarray(w)) / len(y))
    if not _close(base["iden"], iden_ref, ORDER_TOL):
        errors.append(f"baseline iden {base['iden']!r} != mean(y - C w) {iden_ref!r}")
    for key in ("dr", "xi2_worst"):
        if abs(base[key]) > ORDER_TOL:
            errors.append(f"baseline {key} is {base[key]!r}, not 0")
    if obj["gain"] < -ORDER_TOL:
        errors.append(f"gain {obj['gain']!r} < 0: learned policy is worse than the baseline")
    lo, hi = min(cutoffs.values()), max(cutoffs.values())
    total = 0.0
    for label, base_cut in cutoffs.items():
        key = str(label)
        cut = policy["learned_cutoffs"][key]
        if not lo <= cut <= hi:
            errors.append(f"group {key}: cutoff {cut!r} outside [{lo}, {hi}]")
        cand, vals = curves[key]
        at = np.flatnonzero(cand == cut)
        if at.size != 1:
            errors.append(f"group {key}: cutoff {cut!r} is not a candidate in objective_curves.csv")
            continue
        value = float(vals[at[0]])
        total += value
        best = float(vals.max())
        if value < best - ORDER_TOL:
            errors.append(f"group {key}: objective {value!r} at cutoff {cut!r} "
                          f"is below the group maximum {best!r}")
        closer = np.abs(cand - base_cut) < abs(cut - base_cut)
        if (vals[closer] >= best - ORDER_TOL).any():
            errors.append(f"group {key}: a candidate nearer the baseline cutoff "
                          f"{base_cut} attains the maximum, but {cut!r} was chosen")
    learned_total = obj["learned"]["total"]
    if not _close(learned_total, total, SUM_TOL):
        errors.append(f"learned total {learned_total!r} != sum of group objectives "
                      f"at the learned cutoffs {total!r}")
    return errors


def check_sweep(rows: list[dict], q: int, multipliers, costs) -> list[str]:
    """`rdsafe sensitivity`: sweep.csv over the requested M x C grid."""
    errors = []
    expected = q * len(multipliers) * len(costs)
    if len(rows) != expected:
        errors.append(f"sweep has {len(rows)} rows, expected Q*|M|*|C| = {expected}")
    gain = {}
    for row in rows:
        g = float(row["objective_gain"])
        if g < -ORDER_TOL:
            errors.append(f"group {row['group']} M={row['M']} C={row['C']}: gain {g!r} < 0")
        gain.setdefault((float(row["C"]), float(row["M"])), []).append(g)
    for c in costs:
        ms = sorted(float(m) for m in multipliers)
        seq = [max(gain.get((float(c), m), [np.nan])) for m in ms]
        for (m0, g0), (m1, g1) in zip(zip(ms, seq), zip(ms[1:], seq[1:])):
            if g1 > g0 + ORDER_TOL:
                errors.append(f"C={c}: gain rises from {g0!r} at M={m0} to {g1!r} at M={m1}")
    return errors


def failed_replications(rows: list[dict]) -> int:
    """Replications `rdsafe simulate` excluded as failures, over all cells."""
    return sum(int(row["failures"]) for row in rows)


def check_regret(rows: list[dict], cells: int, reps: int) -> list[str]:
    """`rdsafe simulate`: regret.csv, one row per requested cell."""
    errors = []
    if len(rows) != cells:
        errors.append(f"regret.csv has {len(rows)} cells, expected {cells}")
    for row in rows:
        cell = f"{row['scenario']} n={row['n']} M={row['M']}"
        if int(row["reps"]) != reps or int(row["failures"]) != 0:
            errors.append(f"{cell}: reps={row['reps']} failures={row['failures']}, "
                          f"expected {reps} and 0")
        gap = float(row["regret_oracle_mean"]) - float(row["regret_baseline_mean"])
        if gap < -ORDER_TOL:
            errors.append(f"{cell}: oracle regret is below baseline regret by {-gap!r}")
    return errors


def digest(directory: str) -> dict:
    """SHA-256 of every file in a result directory, by file name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_same_bytes(first: dict, current: dict) -> list[str]:
    """Result files of a repeated operation must be byte-identical to the first."""
    if first == current:
        return []
    names = sorted(set(first) | set(current))
    return [f"{name} differs from the first operation's" for name in names
            if first.get(name) != current.get(name)]
