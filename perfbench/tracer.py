"""Traced run of one `rdsafe` command, for the per-layer metrics.

Usage, from the repository root with `src` on PYTHONPATH:

    python3 perfbench/tracer.py SPANS.json <rdsafe arguments>

Wraps the public functions and methods listed in TARGETS in every `rdsafe`
module namespace that looks them up, so calls are timed from outside the
package. Each call becomes one span (name, start, end, parent, work count)
kept in memory. After the command, sampled `CurveFit.values` queries are
checked against a weighted least-squares solve written here, and the spans and
the check result are written to SPANS.json.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

# Spot-check: queries sampled per `CurveFit.values` call and in total, the
# minimum that must be checkable, and the relative tolerance.
SAMPLES_PER_CALL = 16
SAMPLE_CAP = 1000
MIN_CHECKED = 200
SPOT_TOL = 1e-8


def _rows(args, kwargs, result):
    return len(result)


def _queries(args, kwargs, result):
    return int(np.size(args[1]))


def _candidates(args, kwargs, result):
    return sum(len(c) for c in result.by_rank.values())


# (span name, module, attribute, work count from (args, kwargs, result) or None)
TARGETS = [
    ("core.load_dataset", "rdsafe.core", "load_dataset", _rows),
    ("smooth.curvefit_init", "rdsafe.smooth", "CurveFit.__init__", None),
    ("smooth.curvefit_eval", "rdsafe.smooth", "CurveFit.values", _queries),
    ("smooth.curvefit_eval", "rdsafe.smooth", "CurveFit.derivatives", _queries),
    ("smooth.boundary_limit", "rdsafe.smooth", "boundary_limit", None),
    ("estimator.make_folds", "rdsafe.estimator", "make_folds", None),
    ("estimator.fit_crossfit_nuisances", "rdsafe.estimator", "fit_crossfit_nuisances", None),
    ("estimator.cond_mean", "rdsafe.estimator", "CrossfitNuisances.cond_mean", _queries),
    ("estimator.propensity", "rdsafe.estimator", "CrossfitNuisances.propensity", _queries),
    ("estimator.compute_dr_scores", "rdsafe.estimator", "compute_dr_scores", None),
    ("estimator.value_breakdown", "rdsafe.estimator", "value_breakdown", None),
    ("idbounds.difference_pseudo_outcomes", "rdsafe.idbounds", "difference_pseudo_outcomes", None),
    ("idbounds.fit_difference_curve", "rdsafe.idbounds", "fit_difference_curve", None),
    ("idbounds.estimate_smoothness", "rdsafe.idbounds", "estimate_smoothness", None),
    ("idbounds.build_bound_model", "rdsafe.idbounds", "build_bound_model", None),
    ("idbounds.worst_case_xi2", "rdsafe.idbounds", "worst_case_xi2", None),
    ("learner.prepare_components", "rdsafe.learner", "prepare_components", None),
    ("learner.candidate_grid", "rdsafe.learner", "candidate_grid", _candidates),
    ("learner.learn_from_components", "rdsafe.learner", "learn_from_components", None),
    ("simlab.generate", "rdsafe.simlab", "generate", _rows),
    ("simlab.true_value", "rdsafe.simlab", "true_value", None),
    ("simlab.oracle_policy", "rdsafe.simlab", "oracle_policy", None),
    ("simlab.learn_policy", "rdsafe.learner", "learn_policy", None),
    ("cli.render_outputs", "rdsafe.learner", "objective_tables_csv", None),
    ("cli.render_outputs", "rdsafe.learner", "sweep_to_csv", None),
    ("cli.render_outputs", "rdsafe.idbounds", "BoundModel.export_curves_csv", None),
    ("cli.render_outputs", "rdsafe.simlab", "RegretReport.to_csv", None),
]


class Tracer:
    """In-memory spans of wrapped calls, plus sampled smoother queries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, work count]
        self.samples = []  # (CurveFit, queries, values)
        self.missing = []
        self._stack = []
        self._sampled = 0

    def wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if count is not None:
                spans[idx][4] = count(args, kwargs, result)
            return result

        return traced

    def sample_values(self, args, kwargs, result):
        """Work count for `CurveFit.values` that also keeps a few of its queries."""
        fit, queries = args[0], np.atleast_1d(np.asarray(args[1], dtype=float))
        if self._sampled < SAMPLE_CAP:
            pick = np.unique(np.linspace(0, queries.size - 1, SAMPLES_PER_CALL).astype(int))
            self.samples.append((fit, queries[pick], np.atleast_1d(result)[pick]))
            self._sampled += pick.size
        return int(queries.size)

    def install(self):
        """Wrap every target in its class, or in each rdsafe module binding it."""
        import rdsafe.cli  # noqa: F401  (loads every rdsafe module)

        modules = [m for n, m in sys.modules.items() if n == "rdsafe" or n.startswith("rdsafe.")]
        for name, module, attr, count in TARGETS:
            owner = importlib.import_module(module)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, meth, None)
            if orig is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if attr == "CurveFit.values":
                count = self.sample_values
            wrapper = self.wrap(name, orig, count)
            if cls_name:
                setattr(owner, meth, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)


def kernel_weights(u, kernel: str):
    a = np.abs(u)
    if kernel == "triangular":
        return np.clip(1.0 - a, 0.0, None)
    if kernel == "epanechnikov":
        return np.clip(0.75 * (1.0 - a * a), 0.0, None)
    if kernel == "uniform":
        return np.where(a <= 1.0, 0.5, 0.0)
    raise ValueError(f"unknown kernel {kernel!r}")


def reference_value(x, y, h: float, degree: int, kernel: str, q: float):
    """Local polynomial value at q by weighted least squares, with a scale.

    Returns (value, scale), where scale is max(|value|, RMS of y in the kernel
    window), or None when the window holds fewer than degree + 2 distinct x.
    """
    u = (x - q) / h
    k = kernel_weights(u, kernel)
    inside = k > 0
    if np.unique(x[inside]).size < degree + 2:
        return None
    sw = np.sqrt(k[inside])
    basis = u[inside][:, None] ** np.arange(degree + 1)
    beta = np.linalg.lstsq(basis * sw[:, None], y[inside] * sw, rcond=None)[0]
    scale = max(abs(beta[0]), float(np.sqrt(np.mean(y[inside] ** 2))))
    return float(beta[0]), scale


def spot_check(samples) -> tuple[int, list[str]]:
    """Compare sampled (fit, queries, values) with `reference_value`.

    Returns the number of queries checked and the error messages; fewer than
    MIN_CHECKED checkable queries is itself an error.
    """
    checked, errors = 0, []
    for fit, queries, values in samples:
        cfg = fit.config
        for q, v in zip(queries, values):
            ref = reference_value(fit.x, fit.y, fit.bandwidth, cfg.degree, cfg.kernel, float(q))
            if ref is None:
                continue
            checked += 1
            if not abs(v - ref[0]) <= SPOT_TOL * ref[1]:
                errors.append(f"CurveFit.values at x={float(q)!r} (degree {cfg.degree}, h="
                              f"{fit.bandwidth!r}) is {float(v)!r}; least squares gives {ref[0]!r}")
    if checked < MIN_CHECKED:
        errors.append(f"only {checked} smoother queries could be spot-checked, "
                      f"need {MIN_CHECKED}")
    return checked, errors


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from rdsafe.cli import main as cli_main

    try:
        rc = cli_main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    t_after = time.perf_counter()
    checked, errors = spot_check(tracer.samples)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "missing": tracer.missing,
                   "spot_checked": checked, "spot_errors": errors[:20],
                   "post_cli_s": time.perf_counter() - t_after}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
