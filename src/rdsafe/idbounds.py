"""Partial identification of cross-group difference functions.

For each treatment arm and ordered group pair, a two-stage pseudo-outcome
regression recovers the observable difference curve on the region where both
groups share that treatment status. Its one-sided value d0 at the nearest
baseline cutoff anchors Lipschitz envelopes d0 -/+ M * lambda * |x - anchor|,
whose base slope lambda is read off the curve's own first derivative.
`difference_bound` fits one pair's curve and returns both.

d0 and lambda depend only on the data, so `fit_bound_model` fits them once per
dataset. The multiplier M is the analyst's sensitivity choice and only scales
lambda (`BoundModel.with_multiplier`).
"""
from __future__ import annotations

import numpy as np

from .core import DataError, Dataset, EstimationError, StudyDesign
from .estimator import NuisanceTable
from .smooth import CurveFit, LocalPolyConfig, boundary_limit


def anchor_rank(w: int, g: int, gp: int) -> int:
    """The group whose cutoff bounds the identified region: max rank for the
    treated arm, min rank for the control arm."""
    return max(g, gp) if w == 1 else min(g, gp)


def required_pairs(design: StudyDesign):
    """All (w, g, g') triples appearing in the disagreement decomposition."""
    q = design.q
    pairs = [(1, g, gp) for g in range(2, q + 1) for gp in range(1, g)]
    pairs += [(0, g, gp) for g in range(1, q) for gp in range(g + 1, q + 1)]
    return pairs


def difference_pseudo_outcomes(dataset: Dataset, nuisances: NuisanceTable, w: int, g: int, gp: int):
    """Doubly-robust pseudo-outcomes for the difference m(w,x,g) - m(w,x,gp).

    Uses records with treatment w from groups g and gp inside the identified
    region, and each record's out-of-fold nuisance fits.
    """
    design = dataset.design
    anchor_cut = design.cutoff_of_rank(anchor_rank(w, g, gp))
    if w == 1:
        region = dataset.x >= anchor_cut
        means = nuisances.treated
    else:
        region = dataset.x <= anchor_cut
        means = nuisances.control
    mask = region & (dataset.w == w) & ((dataset.rank == g) | (dataset.rank == gp))
    if not mask.any():
        raise EstimationError(
            f"no records with w={w} from groups ranked {g} and {gp} inside the "
            f"identified region ({'x >= ' if w == 1 else 'x <= '}{anchor_cut})"
        )
    x = dataset.x[mask]
    y = dataset.y[mask]
    rank = dataset.rank[mask]
    m_g = means[mask, g - 1]
    m_gp = means[mask, gp - 1]
    e = nuisances.propensity[mask]
    is_g = rank == g
    is_gp = rank == gp
    phi = (
        m_g
        - m_gp
        + np.where(is_g, (y - m_g) / e[:, g - 1], 0.0)
        - np.where(is_gp, (y - m_gp) / e[:, gp - 1], 0.0)
    )
    return x, phi


# Fraction of the curve's support excluded at each end of the derivative grid;
# derivative estimates at the extreme edges of local fits are unstable.
LAMBDA_EDGE_BUFFER = 0.05
# Points of the grid on which the derivative is scanned.
LAMBDA_GRID_SIZE = 50


def difference_bound(x, phi, w: int, anchor_cut: float):
    """Boundary value d0 and base smoothness lambda of one difference curve.

    A local quadratic regression of the pseudo-outcomes on x, which all lie on
    the identified side of `anchor_cut`. lambda is its largest |first
    derivative| on a grid over the support; d0 is the one-sided local-linear
    value of the fitted points at the anchor cutoff.
    """
    if np.size(x) < 5:
        raise EstimationError(
            f"difference curve needs at least 5 pseudo-outcome pairs, got {np.size(x)}"
        )
    curve = CurveFit(x, phi, LocalPolyConfig(degree=2))
    lo, hi = curve.support
    buf = LAMBDA_EDGE_BUFFER * (hi - lo)
    derivs = curve.derivatives(np.linspace(lo + buf, hi - buf, LAMBDA_GRID_SIZE))
    lam = float(np.max(np.abs(derivs)))
    side = "from_above" if w == 1 else "from_below"
    # the fit's sorted points: the bandwidth's standard deviation depends on their order
    d0 = boundary_limit(curve.x, curve.y, anchor_cut, side)
    return d0, lam


def _check_multiplier(multiplier) -> None:
    """M scales the envelopes' slopes: a negative M would turn the worst case
    into a best case, and an infinite or NaN one makes the objective NaN."""
    if not 0.0 <= multiplier < np.inf:
        raise DataError(f"smoothness multiplier M must be finite and nonnegative, "
                        f"got {multiplier}")


class BoundModel:
    """Pointwise Lipschitz envelopes around the boundary difference estimates.

    lower/upper(w, x, g, g') = d0 -/+ multiplier * lam * |x - anchor cutoff|,
    with d0 = boundary[(w, g, g')] and lam = lam[(w, g, g')] the base
    smoothness parameter.
    """

    def __init__(self, design: StudyDesign, boundary: dict, lam: dict, multiplier: float = 1.0):
        missing = set(boundary) - set(lam)
        if missing:
            raise EstimationError(f"smoothness parameters missing for pairs {sorted(missing)}")
        _check_multiplier(multiplier)
        q = design.q
        self.design = design
        self.boundary = dict(boundary)
        self.lam = dict(lam)
        self.multiplier = multiplier
        # [0] d0, [1] multiplier * lam and [2] the anchor cutoff, indexed [w, g, g']
        self._table = np.full((3, 2, q + 1, q + 1), np.nan)
        for (w, g, gp), d0 in boundary.items():
            self._table[:, w, g, gp] = (d0, multiplier * lam[(w, g, gp)],
                                        design.cutoff_of_rank(anchor_rank(w, g, gp)))

    def with_multiplier(self, multiplier: float) -> "BoundModel":
        """The same envelopes with every base lambda scaled by `multiplier`."""
        return BoundModel(self.design, self.boundary, self.lam, multiplier)

    def _lookup(self, w, x, g, gp, sign):
        x = np.asarray(x, dtype=float)
        g = np.asarray(g, dtype=np.int64)
        gp = np.asarray(gp, dtype=np.int64)
        d0, lam, anchor = self._table[:, w, g, gp]
        if np.isnan(d0).any():
            bad_g = np.atleast_1d(g)[np.atleast_1d(np.isnan(d0))][0]
            bad_gp = np.atleast_1d(gp)[np.atleast_1d(np.isnan(d0))][0]
            raise EstimationError(f"no bound estimated for pair (w={w}, g={bad_g}, g'={bad_gp})")
        return d0 + sign * lam * np.abs(x - anchor)

    def lower(self, w: int, x, g, gp):
        out = self._lookup(w, x, g, gp, -1.0)
        return float(out) if np.ndim(x) == 0 and np.ndim(g) == 0 else out

    def upper(self, w: int, x, g, gp):
        out = self._lookup(w, x, g, gp, +1.0)
        return float(out) if np.ndim(x) == 0 and np.ndim(g) == 0 else out

    def max_half_width(self, x) -> np.ndarray:
        """Largest envelope half-width multiplier * lam * |x - anchor cutoff| over all
        bounded pairs, at each x."""
        x = np.asarray(x, dtype=float)
        worst = np.zeros(x.shape)
        for (w, g, gp) in self.boundary:
            _, lam, anchor = self._table[:, w, g, gp]
            worst = np.maximum(worst, lam * np.abs(x - anchor))
        return worst


def fit_bound_model(dataset: Dataset, nuisances: NuisanceTable) -> BoundModel:
    """Fit every required pair's difference curve once and read off its
    boundary value d0 and base smoothness lambda; the envelopes are at M = 1."""
    boundary, lam = {}, {}
    for (w, g, gp) in required_pairs(dataset.design):
        try:
            x, phi = difference_pseudo_outcomes(dataset, nuisances, w, g, gp)
            anchor_cut = dataset.design.cutoff_of_rank(anchor_rank(w, g, gp))
            boundary[(w, g, gp)], lam[(w, g, gp)] = difference_bound(x, phi, w, anchor_cut)
        except EstimationError as exc:
            raise EstimationError(
                f"could not estimate the difference curve for pair "
                f"(w={w}, g={g}, g'={gp}): {exc}"
            ) from exc
    return BoundModel(dataset.design, boundary, lam)
