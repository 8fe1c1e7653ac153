"""Worst-case policy learning by per-group grid search, plus sensitivity sweeps.

The empirical objective is a sum of per-record, per-group contributions, and
group g's contributions depend only on g's cutoff, so the joint argmax over
the product grid equals the per-group argmaxes. `_record_contributions` gives
each record's identified, DR and worst-case xi2 terms under treat/no-treat for
one group, net of the treatment cost, which it alone applies. The grid search
reduces every candidate to a suffix-sum lookup on them, and `value_breakdown`
picks each record's branch at a policy's cutoffs from the same arrays, so the
objective is computed in one place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, Dataset, ThresholdPolicy, _check_finite
from .estimator import (
    DRScores,
    _check_n_folds,
    compute_dr_scores,
    fit_crossfit_nuisances,
    interval_index,
    make_folds,
)
from .idbounds import BoundModel, _check_multiplier, fit_bound_model
from .smooth import _check_clamp

# Two candidates within this absolute objective tolerance count as tied and
# the one nearest the baseline cutoff wins: `_pick` applies it to the learner's
# search and to `simlab.oracle_policy`'s search of the true value.
TIE_TOL = 1e-12


def _check_cost(cost):
    """The treatment cost C of the utility u(y, w) = y - C*w: finite and >= 0."""
    _check_finite(cost, "treatment cost")
    if cost < 0:
        raise DataError(f"treatment cost must be nonnegative, got {cost}")


@dataclass(frozen=True)
class CandidateGrid:
    """Sorted, deduplicated candidate cutoffs per group rank."""

    by_rank: dict  # rank -> np.ndarray of candidates


def candidate_grid(dataset: Dataset, mode: str) -> CandidateGrid:
    """Candidate cutoffs inside [c_1, c_Q] of the dataset's design.

    Mode "observed" uses the distinct observed x values; "uniform:m" uses m
    equally spaced points. Every group's grid always contains its own baseline
    cutoff and both endpoints c_1 and c_Q.
    """
    design = dataset.design
    lo, hi = design.c_min, design.c_max
    m = _uniform_size(mode)
    if m is None:
        xs = dataset.x
        base = xs[(xs >= lo) & (xs <= hi)]
    else:
        base = np.linspace(lo, hi, m)
    by_rank = {}
    for rank in range(1, design.q + 1):
        cand = np.unique(np.concatenate([base, [lo, hi, design.cutoff_of_rank(rank)]]))
        cand.flags.writeable = False
        by_rank[rank] = cand
    return CandidateGrid(by_rank)


def _uniform_size(mode: str) -> int | None:
    """None for the "observed" grid mode, m for "uniform:m"; DataError otherwise."""
    if mode == "observed":
        return None
    kind, colon, body = mode.partition(":")
    if kind != "uniform" or not colon:
        raise DataError(f"unknown grid mode {mode!r}; use 'observed' or 'uniform:m'")
    try:
        m = int(body)
    except ValueError:
        raise DataError(f"bad uniform grid spec {mode!r}; expected 'uniform:m'") from None
    if m < 2:
        raise DataError(f"uniform grid needs at least 2 points, got {m}")
    return m


def _record_contributions(dataset: Dataset, rank: int, scores: DRScores, bounds: BoundModel,
                          cost: float):
    """Per-record objective contributions under pi_i=1 (a) and pi_i=0 (b).

    Each is a (3, n) array whose rows are the identified, DR and worst-case
    xi2 terms of the utility y - cost*w. Covers all records, not just group
    `rank`: other groups' records enter the DR term for this group through
    the reference-group IPW pieces, but their agreement and partially
    identified terms belong to their own group.
    """
    design = dataset.design
    x = dataset.x
    # group-`rank` baseline indicator, applied to every record's x: the DR
    # scores extrapolate group-`rank` outcomes at other groups' records
    tilde = x >= design.cutoff_of_rank(rank)
    own = dataset.rank == rank
    in_r = own & (x >= design.c_min) & (x <= design.c_max)
    a = np.zeros((3, len(dataset)))
    b = np.zeros((3, len(dataset)))
    # agreement term: own-group records where the candidate matches baseline;
    # under pi_i=1 they are treated, so they pay the cost
    a[0] = np.where(own & tilde, dataset.y - cost, 0.0)
    b[0] = np.where(own & ~tilde, dataset.y, 0.0)
    # DR disagreement term: all records carry group-`rank` scores; the
    # own-group records in [c_1, c_Q] that pi_i=1 newly treats pay the cost
    a[1] = np.where(~tilde, scores.gamma1[:, rank - 1] - np.where(in_r, cost, 0.0), 0.0)
    b[1] = np.where(tilde, scores.gamma0[:, rank - 1], 0.0)
    # partially identified term: own-group records only, via lower envelopes
    idx = np.flatnonzero(in_r)
    if idx.size:
        ref = interval_index(x[idx], design)
        gcol = np.full(idx.size, rank)
        newly_t = ~tilde[idx]
        if newly_t.any():
            sel = idx[newly_t]
            a[2, sel] = bounds.lower(1, x[sel], gcol[newly_t], ref[newly_t])
        # every candidate treats a record at c_Q, so it has no untreated
        # branch; at its own cutoff c_Q, group Q would need a pair (0, Q, Q)
        newly_u = tilde[idx] & (x[idx] < design.c_max)
        if newly_u.any():
            sel = idx[newly_u]
            b[2, sel] = bounds.lower(0, x[sel], gcol[newly_u], ref[newly_u] + 1)
    return a, b


def _candidate_values(dataset: Dataset, a: np.ndarray, b: np.ndarray, order: np.ndarray,
                      candidates: np.ndarray) -> np.ndarray:
    """Objective contribution of one group at each candidate cutoff, from its
    record contributions and the stable sort order of x.

    pi_i = 1(x_i >= c) flips a record from b_i to a_i, so suffix sums of
    (a - b) in x order evaluate the whole grid in O(n log n).
    """
    a = a.sum(axis=0)
    b = b.sum(axis=0)
    total_b = float(np.sum(b))
    return (total_b + _suffix_at(dataset.x[order], (a - b)[order], candidates)) / len(dataset)


def _suffix_at(xs: np.ndarray, diff: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """For each candidate c, the sum of `diff` over the entries with xs >= c.

    `xs` is sorted ascending and `diff` is in its order.
    """
    suffix = np.concatenate([np.cumsum(diff[::-1])[::-1], [0.0]])
    return suffix[np.searchsorted(xs, candidates, side="left")]


@dataclass(frozen=True)
class ValueBreakdown:
    """The three objective components and their sum."""

    iden: float
    dr: float
    xi2_worst: float

    @property
    def total(self) -> float:
        return self.iden + self.dr + self.xi2_worst


def _breakdown(acc: np.ndarray) -> ValueBreakdown:
    """Mean of each row of the policy's (3, n) record contributions."""
    n = acc.shape[1]
    return ValueBreakdown(*(float(np.sum(row) / n) for row in acc))


def value_breakdown(dataset: Dataset, policy: ThresholdPolicy, scores: DRScores,
                    bounds: BoundModel, cost: float = 0.0) -> ValueBreakdown:
    """Worst-case empirical objective of a policy against the status quo,
    term by term."""
    acc = np.zeros((3, len(dataset)))
    for rank in range(1, dataset.design.q + 1):
        a, b = _record_contributions(dataset, rank, scores, bounds, cost)
        acc += np.where(dataset.x >= policy.cutoff_by_rank[rank - 1], a, b)
    return _breakdown(acc)


def _pick(candidates: np.ndarray, values: np.ndarray, baseline_cut: float) -> float:
    best = np.max(values)
    tied = np.flatnonzero(values >= best - TIE_TOL)
    dist = np.abs(candidates[tied] - baseline_cut)
    nearest = tied[dist == dist.min()]
    return float(candidates[nearest].min())


@dataclass(frozen=True)
class LearnerConfig:
    """Fit settings; M and C are search arguments."""

    n_folds: int = 5
    seed: int = 0
    grid_mode: str = "observed"
    clamp_eps: float = 0.01

    def __post_init__(self):
        _uniform_size(self.grid_mode)
        _check_n_folds(self.n_folds)


@dataclass(frozen=True)
class LearnedPolicy:
    policy: ThresholdPolicy
    breakdown: ValueBreakdown
    baseline_breakdown: ValueBreakdown
    objective_tables: dict  # rank -> (candidates, objective values)
    bounds: BoundModel  # the envelopes the search maximized under, at its M
    cost: float
    lipschitz_width: float  # see `_lipschitz_diagnostic`

    @property
    def objective_gain(self) -> float:
        return self.breakdown.total - self.baseline_breakdown.total


@dataclass(frozen=True)
class PipelineComponents:
    """Pieces fitted once per dataset, before any M or C is known: the DR
    scores on the raw outcome, the bound envelopes at M = 1, the candidate
    grid and the stable sort order of x. `learn_from_components` applies M
    (by `BoundModel.with_multiplier`) and C (in `_record_contributions`)."""

    dataset: Dataset
    order: np.ndarray
    grid: CandidateGrid
    raw_scores: DRScores
    bounds: BoundModel


def prepare_components(dataset: Dataset, config: LearnerConfig | None = None) -> PipelineComponents:
    config = config or LearnerConfig()
    # the clamp's range depends on Q, so it is checked here rather than in the config
    _check_clamp(config.clamp_eps, dataset.design.q)
    folds = make_folds(dataset, config.n_folds, config.seed)
    nuisances = fit_crossfit_nuisances(dataset, folds, clamp_eps=config.clamp_eps)
    return PipelineComponents(
        dataset=dataset,
        order=np.argsort(dataset.x, kind="stable"),
        bounds=fit_bound_model(dataset, nuisances),
        grid=candidate_grid(dataset, config.grid_mode),
        raw_scores=compute_dr_scores(dataset, nuisances),
    )


def _lipschitz_diagnostic(dataset: Dataset, bounds: BoundModel) -> float:
    """Empirical width diagnostic: (2/n) sum_i max over pairs of
    M * lambda * |x_i - anchor cutoff|, an upper bound on how much the
    partially identified term can move the objective."""
    x = dataset.x
    in_r = (x >= dataset.design.c_min) & (x <= dataset.design.c_max)
    return float(2.0 * np.sum(bounds.max_half_width(x[in_r])) / len(dataset))


def learn_from_components(components: PipelineComponents,
                          multiplier: float = 1.0,
                          cost: float = 0.0) -> LearnedPolicy:
    """Grid search on prefitted components at smoothness multiplier M and
    treatment cost C, the only inputs that vary per call."""
    _check_cost(cost)
    dataset = components.dataset
    design = dataset.design
    n = len(dataset)
    bounds = components.bounds.with_multiplier(multiplier)
    cutoffs = {}
    tables = {}
    acc = np.zeros((3, n))
    for rank in range(1, design.q + 1):
        a, b = _record_contributions(dataset, rank, components.raw_scores, bounds, cost)
        cand = components.grid.by_rank[rank]
        vals = _candidate_values(dataset, a, b, components.order, cand)
        cut = _pick(cand, vals, design.cutoff_of_rank(rank))
        cutoffs[design.label_of(rank)] = cut
        tables[rank] = (cand, vals)
        acc += np.where(dataset.x >= cut, a, b)
    # the status quo never disagrees with itself: only the identified term
    iden = float(np.sum(dataset.y - cost * dataset.w) / n)
    return LearnedPolicy(
        policy=ThresholdPolicy(cutoffs, design),
        breakdown=_breakdown(acc),
        baseline_breakdown=ValueBreakdown(iden, 0.0, 0.0),
        objective_tables=tables,
        bounds=bounds,
        cost=cost,
        lipschitz_width=_lipschitz_diagnostic(dataset, bounds),
    )


def learn_policy(dataset: Dataset, config: LearnerConfig | None = None,
                 multiplier: float = 1.0, cost: float = 0.0) -> LearnedPolicy:
    """Full pipeline: cross-fit nuisances, bound the unidentified differences,
    and maximize the worst-case objective group by group at M and C."""
    _check_multiplier(multiplier)
    _check_cost(cost)
    components = prepare_components(dataset, config)
    return learn_from_components(components, multiplier=multiplier, cost=cost)


@dataclass(frozen=True)
class SweepRow:
    group: object
    multiplier: float
    cost: float
    baseline_cutoff: float
    learned_cutoff: float
    change: float
    objective_gain: float


def sensitivity_sweep(dataset: Dataset, multipliers, costs,
                      config: LearnerConfig | None = None):
    """Relearn the policy for every (M, C) cell, reusing one set of DR scores
    and bound envelopes. Rows are ordered by group rank, then the position of
    M and C in the input lists."""
    multipliers = list(multipliers)
    costs = list(costs)
    if not multipliers or not costs:
        raise DataError("sensitivity sweep needs at least one multiplier and one cost")
    for m in multipliers:
        _check_multiplier(m)
    for c in costs:
        _check_cost(c)
    components = prepare_components(dataset, config)
    design = dataset.design
    rows = []
    cells = {}
    for m in multipliers:
        for c in costs:
            cells[(m, c)] = learn_from_components(components, multiplier=m, cost=c)
    for rank in range(1, design.q + 1):
        label = design.label_of(rank)
        base_cut = design.cutoff_of_rank(rank)
        for m in multipliers:
            for c in costs:
                learned = cells[(m, c)]
                cut = learned.policy.cutoffs[label]
                rows.append(SweepRow(
                    group=label, multiplier=float(m), cost=float(c),
                    baseline_cutoff=base_cut, learned_cutoff=cut,
                    change=cut - base_cut,
                    objective_gain=learned.objective_gain,
                ))
    return rows

