import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bf_components, bf_lower, random_bounds, random_toy
from rdsafe.core import (
    DataError,
    Dataset,
    EstimationError,
    StudyDesign,
    ThresholdPolicy,
    baseline_policy,
)
from rdsafe.estimator import compute_dr_scores, oracle_nuisances
from rdsafe.idbounds import (
    BoundModel,
    anchor_rank,
    difference_bound,
    difference_pseudo_outcomes,
    fit_bound_model,
    required_pairs,
)
from rdsafe.learner import value_breakdown
from rdsafe.smooth import CurveFit, LocalPolyConfig


class TestAnchorRule:
    def test_treated_uses_max_rank(self):
        assert anchor_rank(1, 3, 2) == 3
        assert anchor_rank(1, 2, 3) == 3

    def test_control_uses_min_rank(self):
        assert anchor_rank(0, 3, 2) == 2
        assert anchor_rank(0, 2, 3) == 2

    def test_required_pairs_q3(self):
        design = StudyDesign({1: 0.0, 2: 1.0, 3: 2.0})
        pairs = set(required_pairs(design))
        assert pairs == {(1, 2, 1), (1, 3, 1), (1, 3, 2),
                         (0, 1, 2), (0, 1, 3), (0, 2, 3)}


def region_dataset(seed=0, n=400):
    """Two groups, plenty of shared-treatment records on both sides."""
    rng = np.random.default_rng(seed)
    design = StudyDesign({1: -5.0, 2: 5.0})
    recs = []
    for _ in range(n):
        x = float(rng.uniform(-12, 12))
        g = int(rng.integers(1, 3))
        w = int(x >= (-5.0 if g == 1 else 5.0))
        y = float(2.0 * g + 0.5 * x + rng.normal(0, 0.1))
        recs.append((x, g, w, y))
    return Dataset(*zip(*recs), design, min_group_size=1)


def subset(dataset, keep):
    """The records of a region_dataset where `keep` holds; labels equal ranks."""
    return Dataset(dataset.x[keep], dataset.rank[keep], dataset.w[keep], dataset.y[keep],
                   dataset.design, min_group_size=1)


def oracle_for(dataset, mean_fn=None, prop_fn=None):
    if mean_fn is None:
        def mean_fn(x, rank, side):
            return 2.0 * rank + 0.5 * np.asarray(x, dtype=float)
    if prop_fn is None:
        def prop_fn(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            return np.full((x.size, 2), 0.5)
    return oracle_nuisances(dataset, mean_fn, prop_fn)


class TestPseudoOutcomes:
    def test_residual_vanishes_when_outcome_matches_mean(self):
        design = StudyDesign({1: -5.0, 2: 5.0})
        # record of group 2, treated, y exactly at the model mean
        recs = [(6.0, 2, 1, 2.0 * 2 + 0.5 * 6.0)]
        recs += [(float(v), 1, 1, 0.0) for v in np.linspace(5.5, 11, 12)]
        recs += [(float(v), 2, 1, 0.0) for v in np.linspace(5.5, 11, 12)]
        recs += [(-6.0, 1, 0, 0.0), (-7.0, 2, 0, 0.0)]
        ds = Dataset(*zip(*recs), design, min_group_size=1)
        nus = oracle_for(ds)
        xs, phis = difference_pseudo_outcomes(ds, nus, 1, 2, 1)
        i = int(np.flatnonzero(xs == 6.0)[0])
        # phi = m(x,2) - m(x,1) when the residual vanishes
        assert phis[i] == pytest.approx(2.0)

    def test_hand_evaluated_pseudo_outcome(self):
        # y=5, G=g, e_g=0.5, m(x,g)=4, m(x,g')=1 -> phi = 3 + 2 = 5
        design = StudyDesign({1: -5.0, 2: 5.0})
        recs = [(6.0, 2, 1, 5.0)]
        recs += [(float(v), 1, 1, 0.0) for v in np.linspace(5.5, 11, 12)]
        recs += [(-6.0, 2, 0, 0.0)]
        ds = Dataset(*zip(*recs), design, min_group_size=1)

        def mean_fn(x, rank, side):
            val = 4.0 if rank == 2 else 1.0
            return np.full_like(np.asarray(x, dtype=float), val)

        def prop_fn(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            return np.full((x.size, 2), 0.5)

        nus = oracle_nuisances(ds, mean_fn, prop_fn)
        xs, phis = difference_pseudo_outcomes(ds, nus, 1, 2, 1)
        i = int(np.flatnonzero(xs == 6.0)[0])
        assert phis[i] == pytest.approx(5.0)

    def test_identical_laws_give_zero_mean(self):
        means = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            design = StudyDesign({1: -5.0, 2: 5.0})
            recs = []
            for _ in range(200):
                x = float(rng.uniform(5, 12))
                g = int(rng.integers(1, 3))
                recs.append((x, g, 1, float(rng.normal(1.0, 0.5))))
            recs += [(-6.0, 1, 0, 0.0), (-7.0, 2, 0, 0.0)]
            ds = Dataset(*zip(*recs), design, min_group_size=1)

            def mean_fn(x, rank, side):
                return np.ones_like(np.asarray(x, dtype=float))

            nus = oracle_for(ds, mean_fn=mean_fn)
            _, phis = difference_pseudo_outcomes(ds, nus, 1, 2, 1)
            means.append(float(np.mean(phis)))
        assert abs(np.mean(means)) < 0.02

    def test_empty_region_error(self):
        ds = region_dataset()
        nus = oracle_for(ds)
        # w=0 region is x <= -5 for pair (0,1,2); drop those records
        small = subset(ds, ~(ds.x <= -5.0))
        nus2 = oracle_for(small)
        with pytest.raises(EstimationError, match="w=0"):
            difference_pseudo_outcomes(small, nus2, 0, 1, 2)


def quadratic_fit(x, phi):
    """The local quadratic curve that `difference_bound` fits."""
    return CurveFit(x, phi, LocalPolyConfig(degree=2))


class TestDifferenceBound:
    def test_constant_pseudo_outcomes(self):
        x = np.linspace(5, 12, 60)
        phi = np.full_like(x, 3.25)
        grid = np.linspace(5.5, 11.5, 11)
        curve = quadratic_fit(x, phi)
        assert np.allclose(curve.values(grid), 3.25, atol=1e-8)
        assert np.allclose(curve.derivatives(grid), 0.0, atol=1e-8)
        d0, lam = difference_bound(x, phi, 1, 5.0)
        assert d0 == pytest.approx(3.25, abs=1e-8)
        assert lam == pytest.approx(0.0, abs=1e-8)

    def test_affine_pseudo_outcomes_derivative(self):
        x = np.linspace(5, 12, 60)
        phi = 1.0 + 0.4 * x
        grid = np.linspace(5.5, 11.5, 11)
        assert np.allclose(quadratic_fit(x, phi).derivatives(grid), 0.4, atol=1e-8)
        _, lam = difference_bound(x, phi, 1, 5.0)
        assert lam == pytest.approx(0.4, abs=1e-6)

    def test_too_few_pairs(self):
        with pytest.raises(EstimationError, match="at least 5"):
            difference_bound(np.arange(4.0) + 5, np.zeros(4), 1, 5.0)

    def test_multiplier_zero_gives_zero_lambda(self):
        x = np.linspace(5, 12, 60)
        phi = np.sin(x)
        design = StudyDesign({1: -5.0, 2: 5.0})
        d0, lam = difference_bound(x, phi, 1, 5.0)
        model = BoundModel(design, {(1, 2, 1): d0}, {(1, 2, 1): lam})
        assert model.lower(1, 8.0, 2, 1) < model.upper(1, 8.0, 2, 1)
        collapsed = model.with_multiplier(0.0)
        for x in (5.0, 8.0, 12.0):
            assert collapsed.lower(1, x, 2, 1) == collapsed.upper(1, x, 2, 1) == d0

    def test_boundary_value_on_linear_curve(self):
        x = np.linspace(5, 12, 80)
        phi = 2.0 - 0.1 * x
        design = StudyDesign({1: -5.0, 2: 5.0})
        anchor_cut = design.cutoff_of_rank(anchor_rank(1, 2, 1))
        assert anchor_cut == 5.0
        d0, _ = difference_bound(x, phi, 1, anchor_cut)
        assert d0 == pytest.approx(2.0 - 0.5, abs=1e-8)


class TestBoundModel:
    def test_hand_example(self):
        # lambda=0.1, d0=0.5 at anchor 1, query x=0.4 -> [0.44, 0.56]
        design = StudyDesign({1: 0.0, 2: 1.0})
        boundary = {(1, 2, 1): 0.5, (0, 1, 2): 0.0}
        lam = {(1, 2, 1): 0.1, (0, 1, 2): 0.0}
        model = BoundModel(design, boundary, lam)
        assert model.lower(1, 0.4, 2, 1) == pytest.approx(0.44)
        assert model.upper(1, 0.4, 2, 1) == pytest.approx(0.56)

    def test_zero_lambda_collapses(self):
        design = StudyDesign({1: 0.0, 2: 1.0})
        boundary = {(1, 2, 1): 0.5, (0, 1, 2): -0.2}
        lam = {(1, 2, 1): 0.0, (0, 1, 2): 0.0}
        model = BoundModel(design, boundary, lam)
        for x in (0.0, 0.3, 1.0):
            assert model.lower(1, x, 2, 1) == model.upper(1, x, 2, 1) == 0.5

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0, 10), x=st.floats(-100, 100), d0=st.floats(-5, 5),
           mult=st.floats(0, 4))
    def test_width_identity(self, lam, x, d0, mult):
        design = StudyDesign({1: 0.0, 2: 1.0})
        boundary = {(1, 2, 1): d0, (0, 1, 2): 0.0}
        lams = {(1, 2, 1): lam, (0, 1, 2): 0.0}
        for model in (BoundModel(design, boundary, lams, mult),
                      BoundModel(design, boundary, lams).with_multiplier(mult)):
            width = model.upper(1, x, 2, 1) - model.lower(1, x, 2, 1)
            assert width == pytest.approx(2 * mult * lam * abs(x - 1.0), abs=1e-14, rel=1e-12)

    def test_missing_pair_named(self):
        design = StudyDesign({1: 0.0, 2: 1.0})
        boundary = {(1, 2, 1): 0.5}
        lam = {(1, 2, 1): 0.1}
        model = BoundModel(design, boundary, lam)
        with pytest.raises(EstimationError, match="w=0"):
            model.lower(0, 0.5, 1, 2)

    @pytest.mark.parametrize("mult", [-1.0, np.inf, np.nan])
    def test_bad_multiplier_rejected(self, mult):
        design = StudyDesign({1: 0.0, 2: 1.0})
        model = BoundModel(design, {(1, 2, 1): 0.5}, {(1, 2, 1): 0.1})
        with pytest.raises(DataError, match="finite and nonnegative"):
            BoundModel(design, {(1, 2, 1): 0.5}, {(1, 2, 1): 0.1}, multiplier=mult)
        with pytest.raises(DataError, match="finite and nonnegative"):
            model.with_multiplier(mult)

    def test_missing_lambda_rejected(self):
        design = StudyDesign({1: 0.0, 2: 1.0})
        boundary = {(1, 2, 1): 0.5, (0, 1, 2): 0.0}
        with pytest.raises(EstimationError, match=r"missing for pairs \[\(0, 1, 2\)\]"):
            BoundModel(design, boundary, {(1, 2, 1): 0.1})

    def test_with_multiplier_keeps_base_estimates(self):
        design = StudyDesign({1: 0.0, 2: 1.0})
        boundary = {(1, 2, 1): 0.5, (0, 1, 2): -0.2}
        lam = {(1, 2, 1): 0.1, (0, 1, 2): 0.3}
        base = BoundModel(design, boundary, lam)
        scaled = base.with_multiplier(2.5)
        assert (scaled.boundary, scaled.lam, scaled.multiplier) == (boundary, lam, 2.5)
        assert base.multiplier == 1.0
        assert scaled.lower(0, 0.2, 1, 2) == -0.2 - 2.5 * 0.3 * 0.2
        assert base.lower(0, 0.2, 1, 2) == -0.2 - 0.3 * 0.2


class TestFitBoundModel:
    def test_recovers_linear_difference(self):
        # d(x) = m(x,2) - m(x,1) = 2 everywhere; average boundary estimates
        # over seeds to wash out the one-sided local-fit noise
        hi, lo = [], []
        for seed in range(8):
            ds = region_dataset(seed=seed, n=1200)
            nus = oracle_for(ds)
            model = fit_bound_model(ds, nus)
            hi.append(model.boundary[(1, 2, 1)])
            lo.append(model.boundary[(0, 1, 2)])
        assert np.mean(hi) == pytest.approx(2.0, abs=0.1)
        assert np.mean(lo) == pytest.approx(-2.0, abs=0.1)

    def test_missing_pair_error_from_data(self):
        ds = region_dataset(seed=3)
        small = subset(ds, ds.x > -5.0)
        nus = oracle_for(small)
        with pytest.raises(EstimationError, match=r"\(w=0, g=1, g'=2\)"):
            fit_bound_model(small, nus)


class TestWorstCaseXi2:
    def test_baseline_gives_zero(self):
        for seed in range(5):
            ds, mean_fn, prop_fn = random_toy(seed)
            scores = compute_dr_scores(ds, oracle_nuisances(ds, mean_fn, prop_fn))
            boundary, lam, anchors = random_bounds(ds.design, seed)
            model = BoundModel(ds.design, boundary, lam)
            base = baseline_policy(ds.design)
            assert value_breakdown(ds, base, scores, model).xi2_worst == 0.0

    def test_q3_toy_matches_brute_force(self):
        design = StudyDesign({1: 0.0, 2: 1.0, 3: 2.0})
        recs = [
            (0.5, 3, 0, 0.0),   # interval 1
            (1.5, 3, 0, 0.0),   # interval 2
            (0.5, 1, 1, 0.0),
            (1.5, 1, 1, 0.0),
            (2.0, 2, 1, 0.0),   # topmost point
        ]
        ds = Dataset(*zip(*recs), design, min_group_size=1)

        def mean_fn(x, rank, side):
            return np.zeros_like(np.asarray(x, dtype=float))

        def prop_fn(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            return np.full((x.size, 3), 1 / 3)

        scores = compute_dr_scores(ds, oracle_nuisances(ds, mean_fn, prop_fn))
        boundary, lam, anchors = random_bounds(design, 42)
        model = BoundModel(design, boundary, lam)
        base = baseline_policy(design)
        policy = ThresholdPolicy({1: 2.0, 2: 0.0, 3: 0.2}, design)
        got = value_breakdown(ds, policy, scores, model).xi2_worst
        _, _, want = bf_components(ds, policy, base, mean_fn, prop_fn,
                                   bf_lower(boundary, lam, anchors))
        assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_in_multiplier(self):
        ds, mean_fn, prop_fn = random_toy(11)
        design = ds.design
        scores = compute_dr_scores(ds, oracle_nuisances(ds, mean_fn, prop_fn))
        boundary, lam, anchors = random_bounds(design, 5)
        rng = np.random.default_rng(1)
        policy = ThresholdPolicy(
            {label: float(rng.uniform(design.c_min, design.c_max))
             for label in design.groups}, design)
        prev = np.inf
        for mult in (0.0, 0.5, 1.0, 2.0, 8.0):
            model = BoundModel(design, boundary, lam, multiplier=mult)
            val = value_breakdown(ds, policy, scores, model).xi2_worst
            assert val <= prev + 1e-12
            prev = val
