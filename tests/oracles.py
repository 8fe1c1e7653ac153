"""Independent brute-force reference implementations used as test oracles.

Everything here is written with explicit per-record loops and its own interval
logic, deliberately sharing no code with the package internals.
"""
import math

import numpy as np

from rdsafe.core import AssignmentViolationError, DataError, Dataset, DesignError, StudyDesign


def bf_dataset_error(x, g, w, y, design, min_group_size):
    """(exception type, message) of the first `Dataset` check the columns fail, or None.

    Record by record: x finite, y finite, w in {0, 1}, a design group, the
    sharp rule; then the group sizes in rank order.
    """
    for i, (xi, gi, wi, yi) in enumerate(zip(x, g, w, y)):
        if not math.isfinite(xi):
            return DataError, f"running variable x must be finite, got {xi!r} (row {i})"
        if not math.isfinite(yi):
            return DataError, f"outcome y must be finite, got {yi!r} (row {i})"
        if wi not in (0, 1):
            return DataError, f"treatment w must be 0 or 1, got {wi!r} (row {i})"
        if gi not in design.cutoffs:
            return DesignError, f"unknown group {gi!r}"
        cut = design.cutoffs[gi]
        if wi != (1 if xi >= cut else 0):
            return AssignmentViolationError, (
                f"row {i}: group {gi!r} has cutoff {cut} and x={xi}, so the sharp rule "
                f"implies w={1 if xi >= cut else 0}, but w={wi} was observed")
    for label in design.groups:
        count = sum(1 for gi in g if gi == label)
        if count < min_group_size:
            return DataError, (f"group {label!r} has {count} records, fewer than "
                               f"the required minimum of {min_group_size}")
    return None


def bf_interval(x, cuts):
    """Index j (1-based rank) with cuts[j-1] <= x < cuts[j]; topmost closed."""
    q = len(cuts)
    if x == cuts[-1]:
        return q - 1
    for j in range(1, q):
        if cuts[j - 1] <= x < cuts[j]:
            return j
    raise AssertionError(f"x={x} outside [{cuts[0]}, {cuts[-1]}]")


def bf_components(dataset, policy, baseline, mean_fn, prop_fn, lower_fn, cost=0.0):
    """Brute-force (iden, dr, xi2) for a policy against a baseline.

    mean_fn(x, rank, side) -> float, prop_fn(x) -> length-Q list,
    lower_fn(w, x, g, gp) -> float.
    """
    design = dataset.design
    cuts = list(design.sorted_cutoffs)
    q = design.q
    n = len(dataset)
    iden = dr = xi2 = 0.0
    for i in range(n):
        x, y, w, gi = float(dataset.x[i]), float(dataset.y[i]), int(dataset.w[i]), int(dataset.rank[i])
        label = design.label_of(gi)
        pi_own = 1 if x >= policy.cutoffs[label] else 0
        tilde_own = 1 if x >= baseline.cutoffs[label] else 0
        if pi_own == tilde_own:
            iden += y - cost * w
        in_range = cuts[0] <= x <= cuts[-1]
        e = np.asarray(prop_fn(x), dtype=float).ravel() if in_range else None
        for g in range(1, q + 1):
            glabel = design.label_of(g)
            pi_g = 1 if x >= policy.cutoffs[glabel] else 0
            tp_g = 1 if x >= cuts[g - 1] else 0
            if pi_g and not tp_g and in_range:
                j = bf_interval(x, cuts)
                for gp in range(1, g):
                    if j != gp or not x < cuts[g - 1]:
                        continue
                    m = mean_fn(x, gp, "above")
                    if gi == g:
                        dr += m - cost
                    elif gi == gp:
                        dr += e[g - 1] / e[gp - 1] * (y - m)
            if (not pi_g) and tp_g and in_range:
                j = bf_interval(x, cuts)
                for gp in range(g + 1, q + 1):
                    if j != gp - 1:
                        continue
                    m = mean_fn(x, gp, "below")
                    if gi == g:
                        dr += m
                    elif gi == gp:
                        dr += e[g - 1] / e[gp - 1] * (y - m)
        if in_range:
            j = bf_interval(x, cuts)
            if pi_own and not tilde_own:
                xi2 += lower_fn(1, x, gi, j)
            elif tilde_own and not pi_own:
                xi2 += lower_fn(0, x, gi, j + 1)
    return iden / n, dr / n, xi2 / n


def bf_lower(boundary, lam, anchors):
    """Envelope evaluator from dicts keyed (w, g, gp)."""
    def lower(w, x, g, gp):
        key = (w, g, gp)
        return boundary[key] - lam[key] * abs(x - anchors[key])
    return lower


def random_toy(seed, q=None, n=None):
    """Small random dataset with oracle-style nuisance functions."""
    rng = np.random.default_rng(seed)
    q = q or int(rng.integers(2, 4))
    n = n or int(rng.integers(4 * q, 51))
    cuts = np.sort(rng.uniform(-5, 5, q))
    while np.min(np.diff(cuts)) < 0.5:
        cuts = np.sort(rng.uniform(-5, 5, q))
    design = StudyDesign({g: float(cuts[g - 1]) for g in range(1, q + 1)})
    # coefficients for smooth per-group per-side mean functions
    coef = rng.normal(size=(q, 2, 2))  # (group, side, [intercept, slope])

    def mean_fn(x, rank, side):
        s = 1 if side == "above" else 0
        a, b = coef[rank - 1, s]
        return a + b * np.asarray(x, dtype=float)

    raw = rng.uniform(0.2, 1.0, size=q)

    def prop_fn(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        logits = raw[None, :] + 0.05 * x[:, None] * np.arange(q)[None, :]
        p = np.exp(logits)
        return p / p.sum(axis=1, keepdims=True)

    records = []
    for _ in range(n):
        x = float(rng.uniform(cuts[0] - 2, cuts[-1] + 2))
        g = int(rng.integers(1, q + 1))
        w = int(x >= cuts[g - 1])
        records.append((x, g, w, float(rng.normal())))
    # ensure every group appears enough for rank bookkeeping
    for g in range(1, q + 1):
        for _ in range(3):
            x = float(rng.uniform(cuts[0] - 2, cuts[-1] + 2))
            records.append((x, g, int(x >= cuts[g - 1]), float(rng.normal())))
    dataset = Dataset(*zip(*records), design, min_group_size=1)
    return dataset, mean_fn, prop_fn


def random_bounds(design, seed):
    """Random envelope dicts for every required (w, g, gp) pair."""
    rng = np.random.default_rng(seed)
    q = design.q
    boundary, lam, anchors = {}, {}, {}
    pairs = [(1, g, gp) for g in range(2, q + 1) for gp in range(1, g)]
    pairs += [(0, g, gp) for g in range(1, q) for gp in range(g + 1, q + 1)]
    for (w, g, gp) in pairs:
        anchor_rank = max(g, gp) if w == 1 else min(g, gp)
        boundary[(w, g, gp)] = float(rng.normal())
        lam[(w, g, gp)] = float(rng.uniform(0, 0.5))
        anchors[(w, g, gp)] = design.cutoff_of_rank(anchor_rank)
    return boundary, lam, anchors


def direct_true_value(policy, spec, x, g, cost=0.0):
    """Ground-truth value from `spec.mean_outcome` evaluated at every draw.

    Each draw's treatment follows its own label's cutoff. `simlab.true_value`,
    which selects precomputed arm means instead, must equal this bit for bit.
    """
    pi = (x >= np.where(g == 1, policy.cutoffs[1], policy.cutoffs[2])).astype(int)
    m = spec.mean_outcome(pi, x, g)
    return float(np.mean(m) - cost * np.mean(pi))


def stable_oracle_search(pop, design, grid, cost=0.0):
    """Per-group grid search of `simlab.oracle_policy`, draw by draw in a stable
    sort order: label -> (suffix value at each grid point, chosen cutoff).

    A grid point c treats the group's draws with x >= c; its suffix value adds
    their treat-minus-control gains from the largest x down, as a running sum.
    Ties within 1e-12 of the best go to the point nearest the baseline cutoff,
    then to the smaller one.
    """
    out = {}
    for rank in range(1, design.q + 1):
        label = design.label_of(rank)
        own = sorted((i for i in range(len(pop.x)) if pop.g[i] == label),
                     key=lambda i: pop.x[i])
        suffix = [0.0] * (len(own) + 1)
        for k in range(len(own) - 1, -1, -1):
            i = own[k]
            suffix[k] = suffix[k + 1] + ((float(pop.treated[i]) - cost) - float(pop.control[i]))
        vals = []
        for c in grid:
            below = sum(1 for i in own if pop.x[i] < c)
            vals.append(suffix[below])
        best = max(vals)
        base = design.cutoff_of_rank(rank)
        tied = [float(c) for c, v in zip(grid, vals) if v >= best - 1e-12]
        nearest = min(abs(c - base) for c in tied)
        out[label] = (np.array(vals), min(c for c in tied if abs(c - base) == nearest))
    return out


def dense_kernel_weights(u, kernel):
    a = np.abs(u)
    if kernel == "triangular":
        return np.maximum(0.0, 1.0 - a)
    if kernel == "epanechnikov":
        return np.maximum(0.0, 0.75 * (1.0 - u * u))
    return np.where(a <= 1.0, 0.5, 0.0)


def dense_widened_solve(x, y, q, degree, kernel, h):
    """Single-query least squares, widening h by 1.5, 2.25 and 3 if rank deficient."""
    for factor in (1.0, 1.5, 2.25, 3.0):
        hh = h * factor
        u = (x - q) / hh
        wts = dense_kernel_weights(u, kernel)
        active = wts > 0
        if active.sum() < degree + 2 or np.unique(x[active]).size < degree + 1:
            continue
        sw = np.sqrt(wts[active])
        a = np.vander(u[active], degree + 1, increasing=True) * sw[:, None]
        try:
            beta = np.linalg.lstsq(a, y[active] * sw, rcond=None)[0]
            if np.linalg.cond(a.T @ a) > 1e12:
                continue
        except np.linalg.LinAlgError:
            continue
        return float(beta[0]), float(beta[1] / hh)
    return None


def dense_local_fit(x, y, queries, degree, kernel, h):
    """Local polynomial values and derivatives from dense kernel windows.

    For each chunk of 64 sorted queries, every training point within reach is
    weighted for every query of the chunk, and each query's normal equations
    are summed term by term, each sum along a contiguous row so that numpy
    sums it pairwise (a column sum adds row by row, and near the ends of the
    data that rounding error, amplified by the solve, reached 3e-10 of the
    derivative). A query with fewer than degree + 2 weighted
    points or with |det G| < 1e-12 G[0, 0]^p is solved by
    `dense_widened_solve`; a query that fails there gets NaN.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    queries = np.atleast_1d(np.asarray(queries, dtype=float))
    p = degree + 1
    values = np.full(queries.size, np.nan)
    derivs = np.full(queries.size, np.nan)
    qorder = np.argsort(queries, kind="stable")
    for start in range(0, queries.size, 64):
        idx = qorder[start : start + 64]
        q = queries[idx]
        lo = np.searchsorted(x, q.min() - h, side="left")
        hi = np.searchsorted(x, q.max() + h, side="right")
        u = (x[None, lo:hi] - q[:, None]) / h
        wts = dense_kernel_weights(u, kernel)
        counts = (wts > 0).sum(axis=1)
        basis = [np.ones_like(u)]
        for _ in range(1, p):
            basis.append(basis[-1] * u)
        gram = np.empty((q.size, p, p))
        rhs = np.empty((q.size, p))
        for i in range(p):
            rhs[:, i] = (basis[i] * wts * y[None, lo:hi]).sum(axis=1)
            for j in range(p):
                gram[:, i, j] = (basis[i] * wts * basis[j]).sum(axis=1)
        with np.errstate(all="ignore"):
            good = (counts >= degree + 2) & (
                np.abs(np.linalg.det(gram)) >= 1e-12 * np.abs(gram[:, 0, 0]) ** p)
            if good.any():
                beta = np.linalg.solve(gram[good], rhs[good][..., None])[..., 0]
                values[idx[good]] = beta[:, 0]
                derivs[idx[good]] = beta[:, 1] / h
        for i in np.flatnonzero(~good | ~np.isfinite(values[idx]) | ~np.isfinite(derivs[idx])):
            res = dense_widened_solve(x, y, float(q[i]), degree, kernel, h)
            values[idx[i]], derivs[idx[i]] = res if res is not None else (np.nan, np.nan)
    return values, derivs
