"""Cross-fitting orchestration: folds, the nuisance table and the DR scores.

The doubly-robust scores feed the disagreement term of the empirical
objective; `learner` combines them with the agreement term and the partially
identified term (envelopes from `idbounds`) record by record.

Nuisance curves and DR scores are always built on the raw observed outcome.
The treatment is deterministic given (x, g), so a treatment cost C shifts the
utility u(y, w) = y - C*w by a known constant on treated records;
`learner._record_contributions` applies that shift, and a sensitivity sweep
reuses one set of fits and scores for every cost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, Dataset, EstimationError
from .smooth import CurveFit, LocalPolyConfig, _fit_propensity_arrays


@dataclass(frozen=True)
class FoldAssignment:
    """A stratified partition of record indices into K folds."""

    n_folds: int
    fold_of: np.ndarray

    def __post_init__(self):
        self.fold_of.flags.writeable = False


def _check_n_folds(k):
    if k < 2:
        raise DataError(f"need at least 2 folds, got {k}")


def make_folds(dataset: Dataset, k: int, seed: int) -> FoldAssignment:
    """Random K-fold split, stratified so per-group fold counts differ by <= 1."""
    _check_n_folds(k)
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(dataset), dtype=np.int64)
    for rank in range(1, dataset.design.q + 1):
        idx = np.flatnonzero(dataset.rank == rank)
        if idx.size < k:
            raise EstimationError(
                f"group {dataset.design.label_of(rank)!r} has {idx.size} records, "
                f"fewer than the {k} folds requested"
            )
        perm = rng.permutation(idx)
        fold_of[perm] = np.arange(perm.size) % k
    return FoldAssignment(k, fold_of)


@dataclass(frozen=True)
class NuisanceTable:
    """Out-of-fold nuisance predictions at every record, one column per rank.

    treated[i, r-1] is group r's above-cutoff mean curve at x_i, filled where
    x_i >= c_r; control[i, r-1] is its below-cutoff curve, filled where
    x_i <= c_r; other entries are NaN. propensity[i] holds the group
    probabilities at x_i. Cross-fitted entries come from fits that exclude
    record i's fold.
    """

    treated: np.ndarray
    control: np.ndarray
    propensity: np.ndarray

    def __post_init__(self):
        self.treated.flags.writeable = False
        self.control.flags.writeable = False
        self.propensity.flags.writeable = False


def _side_domains(dataset: Dataset, rank: int):
    """(side, records the side's curve is evaluated at) for one rank."""
    cut = dataset.design.cutoff_of_rank(rank)
    return (("below", dataset.x <= cut), ("above", dataset.x >= cut))


def oracle_nuisances(dataset: Dataset, mean_fn, propensity_fn) -> NuisanceTable:
    """A nuisance table from known functions, e.g. ground truth for verification.

    `mean_fn(x_array, rank, side)` must return the conditional mean of the raw
    outcome; `propensity_fn(x_array)` a (n, Q) matrix of group probabilities.
    """
    n, q = len(dataset), dataset.design.q
    table = {"above": np.full((n, q), np.nan), "below": np.full((n, q), np.nan)}
    for rank in range(1, q + 1):
        for side, domain in _side_domains(dataset, rank):
            table[side][domain, rank - 1] = mean_fn(dataset.x[domain], rank, side)
    propensity = np.asarray(propensity_fn(dataset.x), dtype=float)
    return NuisanceTable(table["above"], table["below"], propensity)


def fit_crossfit_nuisances(dataset: Dataset, folds: FoldAssignment,
                           clamp_eps: float = 0.01) -> NuisanceTable:
    """Fit K propensity models (cubic softmax) and K x Q per-side local-linear
    mean curves, each excluding its fold, and evaluate each on its fold's
    records."""
    design = dataset.design
    n, q = len(dataset), design.q
    x = dataset.x
    table = {"above": np.full((n, q), np.nan), "below": np.full((n, q), np.nan)}
    propensity = np.empty((n, q))
    for k in range(folds.n_folds):
        held = folds.fold_of == k
        train = ~held
        for rank in range(1, q + 1):
            cut = design.cutoff_of_rank(rank)
            in_group = train & (dataset.rank == rank)
            for side, domain in _side_domains(dataset, rank):
                rows = np.flatnonzero(held & domain)
                if rows.size == 0:
                    continue
                # the curves jump at the cutoff, so each side is fit on its own
                sel = in_group & ((x >= cut) if side == "above" else (x < cut))
                try:
                    fit = CurveFit(x[sel], dataset.y[sel], LocalPolyConfig(degree=1))
                    table[side][rows, rank - 1] = fit.values(x[rows])
                except EstimationError as exc:
                    raise EstimationError(
                        f"fold {k}, group {design.label_of(rank)!r}, conditional mean "
                        f"on the {side}-cutoff side: {exc}"
                    ) from exc
        try:
            prop = _fit_propensity_arrays(x[train], dataset.rank[train], q,
                                          clamp_eps=clamp_eps)
        except EstimationError as exc:
            raise EstimationError(f"fold {k}: {exc}") from exc
        propensity[held] = prop.probabilities(x[held])
    return NuisanceTable(table["above"], table["below"], propensity)


@dataclass(frozen=True)
class DRScores:
    """Per-record doubly-robust scores, one column per group rank.

    gamma1[i, g-1] extrapolates treated outcomes left of group g's cutoff;
    gamma0[i, g-1] extrapolates control outcomes to its right. Both are zero
    outside the extrapolation region of their group. The scores are on the
    raw outcome: they carry no treatment cost.
    """

    gamma1: np.ndarray
    gamma0: np.ndarray

    def __post_init__(self):
        self.gamma1.flags.writeable = False
        self.gamma0.flags.writeable = False


def interval_index(x: np.ndarray, design) -> np.ndarray:
    """Rank j of the cutoff interval [c_j, c_{j+1}) containing x.

    Intervals are half-open except the topmost, which includes c_Q, so they
    partition [c_1, c_Q]. Only valid for x inside that span.
    """
    cuts = design.sorted_cutoffs
    r = np.searchsorted(cuts, np.asarray(x, dtype=float), side="right")
    return np.minimum(r, design.q - 1)


def compute_dr_scores(dataset: Dataset, nuisances: NuisanceTable) -> DRScores:
    """Doubly-robust scores for every record and group on the raw outcome."""
    design = dataset.design
    cuts = design.sorted_cutoffs
    q = design.q
    n = len(dataset)
    gamma1 = np.zeros((n, q))
    gamma0 = np.zeros((n, q))
    in_r = (dataset.x >= cuts[0]) & (dataset.x <= cuts[-1])
    sub = np.flatnonzero(in_r)
    x = dataset.x[sub]
    y = dataset.y[sub]
    rank = dataset.rank[sub]
    j = interval_index(x, design)
    m_lo = nuisances.treated[sub, j - 1]  # rank j, above its cutoff
    m_hi = nuisances.control[sub, j]  # rank j+1, below its cutoff
    e = nuisances.propensity[sub]
    rows = np.arange(sub.size)
    e_j = e[rows, j - 1]
    e_jp = e[rows, j]  # rank j+1
    for g in range(2, q + 1):
        active = (j <= g - 1) & (x < cuts[g - 1])
        own = active & (rank == g)
        ref = active & (rank == j)
        vals = np.zeros(sub.size)
        vals[own] = m_lo[own]
        vals[ref] = (e[rows[ref], g - 1] / e_j[ref]) * (y[ref] - m_lo[ref])
        gamma1[sub, g - 1] = vals
    for g in range(1, q):
        active = j >= g
        own = active & (rank == g)
        ref = active & (rank == j + 1)
        vals = np.zeros(sub.size)
        vals[own] = m_hi[own]
        vals[ref] = (e[rows[ref], g - 1] / e_jp[ref]) * (y[ref] - m_hi[ref])
        gamma0[sub, g - 1] = vals
    return DRScores(gamma1, gamma0)
