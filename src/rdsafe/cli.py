"""Command-line front end: learn, simulate, sensitivity, validate.

Configuration comes from an optional YAML file plus flags; flags win. Each
setting is declared once, in `SETTINGS`, and `COMMANDS` lists the settings
each command reads; a config key that the command does not read is an error,
and every setting is typed before any fit, draw or write. The library returns
data; this module alone writes the result files. All of them are written
atomically (temp file + rename) and embed the seed and a hash of the
effective configuration, so a failed run leaves nothing behind and a finished
one is traceable.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import yaml

from .core import (
    DataError,
    DesignError,
    EstimationError,
    StudyDesign,
    baseline_policy,
    load_dataset,
)
from .learner import LearnerConfig, learn_policy, sensitivity_sweep
from .simlab import regret_experiment

EXIT_OK = 0
EXIT_DATA = 3
EXIT_ESTIMATION = 4

# bound_curves.csv evaluates the envelopes on this many x points over [c_1, c_Q]
BOUND_GRID_SIZE = 101


def _atomic_write(path: str, content: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_hash(cfg: dict) -> str:
    # hash only computation-relevant keys, not where results are written
    slim = {k: v for k, v in cfg.items() if k != "out"}
    blob = json.dumps(slim, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_design(path: str) -> StudyDesign:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if isinstance(doc, dict) and "cutoffs" in doc:
        doc = doc["cutoffs"]
    if not isinstance(doc, dict):
        raise DataError(
            f"design file {path!r} must be a mapping of group label to cutoff"
        )
    return StudyDesign(doc)


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        loaded = yaml.safe_load(fh) or {}
    if not isinstance(loaded, dict):
        raise DataError(f"config file {path!r} must be a mapping")
    return loaded


_KINDS = {int: ("an integer", "a list of integers"), float: ("a number", "a list of numbers"),
          str: ("a string", "a list of strings")}


def _convert(kind, value):
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError("int() would truncate it")
    if kind is str and not isinstance(value, str):  # open(7) would read file descriptor 7
        raise TypeError
    return kind(value)


def _setting(cfg: dict, key: str):
    """cfg[key], or its default, as its kind, or as a list of them exactly
    when the default is a list. A value that does not convert is a DataError
    naming its key; the library checks the ranges."""
    kind, default, _ = SETTINGS[key]
    value = cfg.get(key, default)
    many = isinstance(default, list)
    try:
        if isinstance(value, list) != many:  # a string is no list of its characters
            raise TypeError
        return [_convert(kind, v) for v in value] if many else _convert(kind, value)
    except (TypeError, ValueError):
        raise DataError(f"config value {key!r} must be {_KINDS[kind][many]}, "
                        f"got {value!r}") from None


def _learner_config(s: dict) -> LearnerConfig:
    return LearnerConfig(n_folds=s["folds"], seed=s["seed"], grid_mode=s["grid"],
                         clamp_eps=s["clamp"])


def _write_csv(path: str, provenance: dict, header, rows):
    """A result CSV: the provenance line, the header, then one line per row.

    `csv` writes Python floats with `repr`, so every value round-trips.
    """
    out = io.StringIO()
    out.write(f"# config_hash={provenance['config_hash']} seed={provenance['seed']}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, out.getvalue())


def _write_json(path: str, doc: dict):
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _breakdown_dict(b) -> dict:
    return {"iden": b.iden, "dr": b.dr, "xi2_worst": b.xi2_worst, "total": b.total}


def cmd_learn(s: dict, provenance: dict) -> int:
    design = _load_design(s["design"])
    dataset = load_dataset(s["input"], design)
    learned = learn_policy(dataset, _learner_config(s), multiplier=s["multiplier"],
                           cost=s["cost"])
    base = baseline_policy(design)
    result = {
        "provenance": provenance,
        "learned_cutoffs": {str(k): v for k, v in learned.policy.cutoffs.items()},
        "baseline_cutoffs": {str(k): v for k, v in base.cutoffs.items()},
        "changes": {str(k): learned.policy.cutoffs[k] - base.cutoffs[k]
                    for k in design.groups},
        "objective": {
            "learned": _breakdown_dict(learned.breakdown),
            "baseline": _breakdown_dict(learned.baseline_breakdown),
            "gain": learned.objective_gain,
        },
        "diagnostics": {
            "multiplier": learned.bounds.multiplier,
            "cost": learned.cost,
            "lambda_base": {f"w={w},g={g},g'={gp}": v for (w, g, gp), v
                            in learned.bounds.lam.items()},
            "lipschitz_width": learned.lipschitz_width,
        },
    }
    out = s["out"]
    _write_json(os.path.join(out, "learned_policy.json"), result)
    curves = []
    for rank in sorted(learned.objective_tables):
        label = design.label_of(rank)
        cand, vals = learned.objective_tables[rank]
        curves += [(label, c, v) for c, v in zip(cand.tolist(), vals.tolist())]
    _write_csv(os.path.join(out, "objective_curves.csv"), provenance,
               ["group", "candidate", "objective"], curves)
    bounds = learned.bounds
    xs = np.linspace(design.c_min, design.c_max, BOUND_GRID_SIZE)
    envelopes = []
    for (w, g, gp) in sorted(bounds.boundary):
        g_col, gp_col = np.full(xs.size, g), np.full(xs.size, gp)
        lo = bounds.lower(w, xs, g_col, gp_col).tolist()
        hi = bounds.upper(w, xs, g_col, gp_col).tolist()
        envelopes += [(w, design.label_of(g), design.label_of(gp), *row)
                      for row in zip(xs.tolist(), lo, hi)]
    _write_csv(os.path.join(out, "bound_curves.csv"), provenance,
               ["w", "g", "g_ref", "x", "b_lower", "b_upper"], envelopes)
    print(f"learned policy written to {out} "
          f"(objective gain {learned.objective_gain:.6g})")
    return EXIT_OK


def cmd_simulate(s: dict, provenance: dict) -> int:
    cells = regret_experiment(s["scenarios"], s["sizes"], s["multipliers"], reps=s["reps"],
                              seed=s["seed"])
    out = s["out"]
    _write_csv(os.path.join(out, "regret.csv"), provenance,
               ["scenario", "n", "M", "regret_baseline_mean", "regret_baseline_se",
                "regret_oracle_mean", "regret_oracle_se", "reps", "failures"],
               [(c.scenario, c.n, c.multiplier, c.regret_baseline_mean,
                 c.regret_baseline_se, c.regret_oracle_mean, c.regret_oracle_se,
                 c.reps, c.failures) for c in cells])
    # replication seeds derive from the master seed through numpy's PCG64
    _write_json(os.path.join(out, "regret_meta.json"),
                {"generator": "PCG64", "version": 1, **provenance})
    print(f"regret report written to {out} ({len(cells)} cells)")
    return EXIT_OK


def cmd_sensitivity(s: dict, provenance: dict) -> int:
    design = _load_design(s["design"])
    dataset = load_dataset(s["input"], design)
    rows = sensitivity_sweep(dataset, s["multipliers"], s["costs"], _learner_config(s))
    out = s["out"]
    _write_csv(os.path.join(out, "sweep.csv"), provenance,
               ["group", "M", "C", "baseline_cutoff", "learned_cutoff", "change",
                "objective_gain"],
               [(r.group, r.multiplier, r.cost, r.baseline_cutoff, r.learned_cutoff,
                 r.change, r.objective_gain) for r in rows])
    print(f"sensitivity sweep written to {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_validate(s: dict, provenance: dict) -> int:
    # writes nothing, so it has no use for the provenance
    design = _load_design(s["design"])
    dataset = load_dataset(s["input"], design)
    counts = {str(label): int((dataset.rank == design.rank_of(label)).sum())
              for label in design.groups}
    print(f"ok: {len(dataset)} records, {design.q} groups {counts}, "
          f"cutoffs {[design.cutoff_of_rank(r) for r in range(1, design.q + 1)]}")
    return EXIT_OK


_FIT = LearnerConfig()

# key -> (kind, default, help). A setting takes a list exactly when its
# default is a list; one without a default must be given.
SETTINGS = {
    "input": (str, None, "CSV data file with columns x,g,w,y"),
    "design": (str, None, "YAML mapping of group label to baseline cutoff"),
    "out": (str, None, "output directory"),
    "seed": (int, _FIT.seed, "random seed"),
    "folds": (int, _FIT.n_folds, "cross-fitting folds"),
    "grid": (str, _FIT.grid_mode, "candidate grid: observed | uniform:N"),
    "multiplier": (float, 1.0, "smoothness multiplier M"),
    "cost": (float, 0.0, "treatment cost C"),
    "multipliers": (float, [1.0], "smoothness multipliers M"),
    "costs": (float, [0.0], "treatment costs C"),
    "clamp": (float, _FIT.clamp_eps, "propensity clamp epsilon"),
    "scenarios": (str, ["A"], "synthetic scenarios"),
    "sizes": (int, [1000], "sample sizes"),
    "reps": (int, 10, "replications per cell (>= 2)"),
}

# command -> (help, function, the settings it reads)
COMMANDS = {
    "learn": ("learn a safe threshold policy from data", cmd_learn,
              ("input", "design", "out", "seed", "folds", "grid", "multiplier", "cost", "clamp")),
    "simulate": ("run Monte Carlo regret experiments", cmd_simulate,
                 ("out", "seed", "scenarios", "sizes", "multipliers", "reps")),
    "sensitivity": ("sweep smoothness multipliers and treatment costs", cmd_sensitivity,
                    ("input", "design", "out", "seed", "folds", "grid", "multipliers", "costs",
                     "clamp")),
    "validate": ("parse and check data against a design", cmd_validate, ("input", "design")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdsafe",
        description="Safe threshold-policy learning from multi-cutoff "
                    "regression discontinuity data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="YAML config file; flags override its keys")
        for key in keys:
            kind, default, text = SETTINGS[key]
            note = "required" if default is None else f"default {default}"
            p.add_argument(f"--{key}", type=kind, nargs="+" if isinstance(default, list) else None,
                           help=f"{text} ({note})")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _, func, keys = COMMANDS[args.command]
    try:
        cfg = _load_config_file(args.config) if args.config else {}
        for key in cfg:
            if key not in keys:
                raise DataError(f"config key {key!r} is not a setting of "
                                f"{args.command!r}, which reads {', '.join(keys)}")
        cfg.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
        for key in keys:
            if SETTINGS[key][1] is None and key not in cfg:
                parser.error(f"--{key} is required (flag or config key)")
        settings = {key: _setting(cfg, key) for key in keys}
        return func(settings, {"config_hash": _config_hash(cfg), "seed": settings.get("seed")})
    except (DataError, DesignError) as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return EXIT_DATA
    except EstimationError as exc:
        print(f"error (estimation): {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
