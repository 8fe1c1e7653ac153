"""Independent brute-force reference implementations used as test oracles.

Everything here is written with explicit per-record loops and its own interval
logic, deliberately sharing no code with the package internals.
"""
import numpy as np

from rdsafe.core import Dataset, Record, StudyDesign


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
        pi_own = policy.assign(x, label)
        tilde_own = baseline.assign(x, label)
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
        records.append(Record(x=x, g=g, w=w, y=float(rng.normal())))
    # ensure every group appears enough for rank bookkeeping
    for g in range(1, q + 1):
        for _ in range(3):
            x = float(rng.uniform(cuts[0] - 2, cuts[-1] + 2))
            records.append(Record(x=x, g=g, w=int(x >= cuts[g - 1]), y=float(rng.normal())))
    dataset = Dataset(records, design, min_group_size=1)
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
