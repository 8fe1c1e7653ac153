"""Command-line front end: learn, simulate, sensitivity, validate.

Configuration comes from an optional YAML file plus flags; flags win. The
library returns data; this module alone writes the result files. All of them
are written atomically (temp file + rename) and embed the seed and a hash of
the effective configuration, so a failed run leaves nothing behind and a
finished one is traceable.
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
    slim = {k: v for k, v in cfg.items() if k not in ("out", "command")}
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


def _merged_config(args, file_cfg: dict) -> dict:
    cfg = dict(file_cfg)
    for key, value in vars(args).items():
        if key in ("func", "config") or value is None:
            continue
        cfg[key] = value
    return cfg


_KINDS = {int: ("an integer", "a list of integers"), float: ("a number", "a list of numbers"),
          str: ("a string", "a list of strings")}


def _convert(kind, value):
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError("int() would truncate it")
    return kind(value)


def _setting(cfg: dict, key: str, default, kind):
    """cfg[key], or the default, as a `kind` (int, float or str), or as a list
    of them exactly when the default is a list. A value that does not convert
    is a DataError naming its key; the library checks the ranges."""
    value = cfg.get(key, default)
    many = isinstance(default, list)
    try:
        if isinstance(value, list) != many:  # a string is no list of its characters
            raise TypeError
        return [_convert(kind, v) for v in value] if many else _convert(kind, value)
    except (TypeError, ValueError):
        raise DataError(f"config value {key!r} must be {_KINDS[kind][many]}, "
                        f"got {value!r}") from None


def _learner_config(cfg: dict) -> LearnerConfig:
    return LearnerConfig(
        n_folds=_setting(cfg, "folds", 5, int),
        seed=_setting(cfg, "seed", 0, int),
        grid_mode=str(cfg.get("grid", "observed")),
        clamp_eps=_setting(cfg, "clamp", 0.01, float),
    )


def _provenance(cfg: dict) -> dict:
    return {"config_hash": _config_hash(cfg), "seed": _setting(cfg, "seed", 0, int)}


def _write_csv(path: str, cfg: dict, header, rows):
    """A result CSV: the provenance line, the header, then one line per row.

    `csv` writes Python floats with `repr`, so every value round-trips.
    """
    prov = _provenance(cfg)
    out = io.StringIO()
    out.write(f"# config_hash={prov['config_hash']} seed={prov['seed']}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, out.getvalue())


def _write_json(path: str, doc: dict):
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _breakdown_dict(b) -> dict:
    return {"iden": b.iden, "dr": b.dr, "xi2_worst": b.xi2_worst, "total": b.total}


def cmd_learn(cfg: dict) -> int:
    design = _load_design(cfg["design"])
    dataset = load_dataset(cfg["input"], design)
    learned = learn_policy(dataset, _learner_config(cfg),
                           multiplier=_setting(cfg, "multiplier", 1.0, float),
                           cost=_setting(cfg, "cost", 0.0, float))
    base = baseline_policy(design)
    result = {
        "provenance": _provenance(cfg),
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
    out = cfg["out"]
    _write_json(os.path.join(out, "learned_policy.json"), result)
    curves = []
    for rank in sorted(learned.objective_tables):
        label = design.label_of(rank)
        cand, vals = learned.objective_tables[rank]
        curves += [(label, c, v) for c, v in zip(cand.tolist(), vals.tolist())]
    _write_csv(os.path.join(out, "objective_curves.csv"), cfg,
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
    _write_csv(os.path.join(out, "bound_curves.csv"), cfg,
               ["w", "g", "g_ref", "x", "b_lower", "b_upper"], envelopes)
    print(f"learned policy written to {out} "
          f"(objective gain {learned.objective_gain:.6g})")
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    cells = regret_experiment(
        scenarios=_setting(cfg, "scenarios", ["A"], str),
        n_list=_setting(cfg, "sizes", [1000], int),
        multipliers=_setting(cfg, "multipliers", [1.0], float),
        reps=_setting(cfg, "reps", 10, int),
        seed=_setting(cfg, "seed", 0, int),
    )
    out = cfg["out"]
    _write_csv(os.path.join(out, "regret.csv"), cfg,
               ["scenario", "n", "M", "regret_baseline_mean", "regret_baseline_se",
                "regret_oracle_mean", "regret_oracle_se", "reps", "failures"],
               [(c.scenario, c.n, c.multiplier, c.regret_baseline_mean,
                 c.regret_baseline_se, c.regret_oracle_mean, c.regret_oracle_se,
                 c.reps, c.failures) for c in cells])
    # replication seeds derive from the master seed through numpy's PCG64
    _write_json(os.path.join(out, "regret_meta.json"),
                {"generator": "PCG64", "version": 1, **_provenance(cfg)})
    print(f"regret report written to {out} ({len(cells)} cells)")
    return EXIT_OK


def cmd_sensitivity(cfg: dict) -> int:
    design = _load_design(cfg["design"])
    dataset = load_dataset(cfg["input"], design)
    rows = sensitivity_sweep(dataset, _setting(cfg, "multipliers", [1.0], float),
                             _setting(cfg, "costs", [0.0], float), _learner_config(cfg))
    out = cfg["out"]
    _write_csv(os.path.join(out, "sweep.csv"), cfg,
               ["group", "M", "C", "baseline_cutoff", "learned_cutoff", "change",
                "objective_gain"],
               [(r.group, r.multiplier, r.cost, r.baseline_cutoff, r.learned_cutoff,
                 r.change, r.objective_gain) for r in rows])
    print(f"sensitivity sweep written to {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_validate(cfg: dict) -> int:
    design = _load_design(cfg["design"])
    dataset = load_dataset(cfg["input"], design)
    counts = {str(label): int((dataset.rank == design.rank_of(label)).sum())
              for label in design.groups}
    print(f"ok: {len(dataset)} records, {design.q} groups {counts}, "
          f"cutoffs {[design.cutoff_of_rank(r) for r in range(1, design.q + 1)]}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="YAML config file; flags override its keys")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument("--out", help="output directory")


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--input", help="CSV data file with columns x,g,w,y")
    p.add_argument("--design", help="YAML mapping of group label to baseline cutoff")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdsafe",
        description="Safe threshold-policy learning from multi-cutoff "
                    "regression discontinuity data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a safe threshold policy from data")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--folds", type=int, help="cross-fitting folds (default 5)")
    p.add_argument("--grid", help="candidate grid: observed | uniform:N")
    p.add_argument("--multiplier", type=float, help="smoothness multiplier M")
    p.add_argument("--cost", type=float, help="treatment cost C")
    p.add_argument("--clamp", type=float, help="propensity clamp epsilon")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("simulate", help="run Monte Carlo regret experiments")
    _add_common(p)
    p.add_argument("--scenarios", nargs="+", choices=["A", "B"])
    p.add_argument("--sizes", nargs="+", type=int, help="sample sizes")
    p.add_argument("--multipliers", nargs="+", type=float)
    p.add_argument("--reps", type=int, help="replications per cell (>= 2)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sensitivity",
                       help="sweep smoothness multipliers and treatment costs")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--folds", type=int)
    p.add_argument("--grid", help="candidate grid: observed | uniform:N")
    p.add_argument("--multipliers", nargs="+", type=float)
    p.add_argument("--costs", nargs="+", type=float)
    p.add_argument("--clamp", type=float)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("validate", help="parse and check data against a design")
    _add_common(p)
    _add_data_flags(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = _load_config_file(args.config) if args.config else {}
        for req in ("input", "design"):
            if hasattr(args, req) and getattr(args, req) is None and req not in file_cfg:
                parser.error(f"--{req} is required (flag or config key)")
        if args.out is None and args.command != "validate" and "out" not in file_cfg:
            parser.error("--out is required (flag or config key)")
        return args.func(_merged_config(args, file_cfg))
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
