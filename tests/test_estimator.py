import numpy as np
import pytest

from oracles import bf_components, bf_lower, random_bounds, random_toy
from rdsafe.core import (
    DataError,
    Dataset,
    EstimationError,
    StudyDesign,
    ThresholdPolicy,
    baseline_policy,
)
from rdsafe.estimator import (
    compute_dr_scores,
    fit_crossfit_nuisances,
    interval_index,
    make_folds,
    oracle_nuisances,
)
from rdsafe.idbounds import BoundModel
from rdsafe.learner import value_breakdown
from rdsafe.smooth import CurveFit, LocalPolyConfig


def simple_dataset(n=200, seed=0, q=2):
    rng = np.random.default_rng(seed)
    cuts = {g: float(-5 + 10 * (g - 1) / max(q - 1, 1)) for g in range(1, q + 1)}
    design = StudyDesign(cuts)
    recs = []
    for _ in range(n):
        x = float(rng.uniform(-8, 8))
        g = int(rng.integers(1, q + 1))
        recs.append((x, g, int(x >= cuts[g]), float(rng.normal())))
    return Dataset(*zip(*recs), design, min_group_size=1)


class TestFolds:
    def test_per_group_balance(self):
        ds = simple_dataset(203, seed=1)
        folds = make_folds(ds, 5, seed=0)
        for rank in (1, 2):
            counts = np.bincount(folds.fold_of[ds.rank == rank], minlength=5)
            assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        ds = simple_dataset(100)
        a = make_folds(ds, 4, seed=9)
        b = make_folds(ds, 4, seed=9)
        assert np.array_equal(a.fold_of, b.fold_of)

    def test_group_smaller_than_k(self):
        design = StudyDesign({1: -5.0, 2: 5.0})
        recs = [(float(v), 1, int(v >= -5), 0.0) for v in range(-4, 4)]
        recs += [(6.0, 2, 1, 0.0), (7.0, 2, 1, 0.0)]
        ds = Dataset(*zip(*recs), design, min_group_size=1)
        with pytest.raises(EstimationError, match="fewer than"):
            make_folds(ds, 5, seed=0)

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_fewer_than_two_folds_is_a_data_error(self, k):
        with pytest.raises(DataError, match="at least 2 folds"):
            make_folds(simple_dataset(100), k, seed=0)


class TestIntervalIndex:
    def test_half_open_with_closed_top(self):
        design = StudyDesign({1: 0.0, 2: 1.0, 3: 2.0})
        x = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        assert list(interval_index(x, design)) == [1, 1, 2, 2, 2]


class TestDRScores:
    def test_sparsity_support(self):
        # gamma1 nonzero only for x in [c_1, c_g), gamma0 only for x in [c_g, c_Q]
        for seed in range(10):
            ds, mean_fn, prop_fn = random_toy(seed)
            nus = oracle_nuisances(ds, mean_fn, prop_fn)
            scores = compute_dr_scores(ds, nus)
            cuts = ds.design.sorted_cutoffs
            for g in range(1, ds.design.q + 1):
                nz1 = scores.gamma1[:, g - 1] != 0
                assert ((ds.x[nz1] >= cuts[0]) & (ds.x[nz1] < cuts[g - 1])).all()
                nz0 = scores.gamma0[:, g - 1] != 0
                assert ((ds.x[nz0] >= cuts[g - 1]) & (ds.x[nz0] <= cuts[-1])).all()

    def test_hand_computed_two_group_score(self):
        design = StudyDesign({1: 0.0, 2: 10.0})
        recs = [
            (4.0, 2, 0, 7.0),   # in [c_1, c_2), group 2
            (4.0, 1, 1, 3.0),   # same x, reference group 1
            (-1.0, 1, 0, 0.0),  # outside [c_1, c_2]
        ]
        ds = Dataset(*zip(*recs), design, min_group_size=1)

        def mean_fn(x, rank, side):
            return np.full_like(np.asarray(x, dtype=float), 2.0 if side == "above" else 5.0)

        def prop_fn(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            return np.column_stack([np.full(x.size, 0.25), np.full(x.size, 0.75)])

        nus = oracle_nuisances(ds, mean_fn, prop_fn)
        s = compute_dr_scores(ds, nus)
        # record 0 (G=2) in interval of group 1: own term of gamma1[.,2]
        assert s.gamma1[0, 1] == pytest.approx(2.0)
        # record 1 (G=1): reference correction (e_2/e_1)(y - m) = 3*(3-2)
        assert s.gamma1[1, 1] == pytest.approx(3.0)
        # gamma0 for group 1 at x=4 (interval j=1, ref rank 2):
        # record 0 is the reference group: (e_1/e_2)(y - m_below) = (1/3)(7-5)
        assert s.gamma0[0, 0] == pytest.approx(2.0 / 3.0)
        # record 1 is group 1 itself: own term m_below = 5
        assert s.gamma0[1, 0] == pytest.approx(5.0)
        # record 2 is outside the cutoff span: all zeros
        assert (s.gamma1[2] == 0).all() and (s.gamma0[2] == 0).all()

    def test_cost_lowers_the_objective_by_the_treated_share(self):
        # u(y, w) = y - C*w: at cost C a policy's objective drops by C times
        # the share of records it treats, and the envelope term does not move
        rng = np.random.default_rng(3)
        for seed in range(20):
            ds, mean_fn, prop_fn = random_toy(seed)
            design = ds.design
            scores = compute_dr_scores(ds, oracle_nuisances(ds, mean_fn, prop_fn))
            boundary, lam, _ = random_bounds(design, seed + 2000)
            bounds = BoundModel(design, boundary, lam)
            policy = ThresholdPolicy(
                {label: float(rng.uniform(design.c_min, design.c_max))
                 for label in design.groups}, design)
            treated = np.count_nonzero(policy.indicator(ds.x, ds.rank)) / len(ds)
            free = value_breakdown(ds, policy, scores, bounds, 0.0)
            for c in (0.3, 0.7):
                got = value_breakdown(ds, policy, scores, bounds, c)
                assert got.xi2_worst == free.xi2_worst
                assert got.total == pytest.approx(free.total - c * treated, abs=1e-12)


class TestComponentsAgainstBruteForce:
    def test_matches_brute_force_on_random_toys(self):
        rng = np.random.default_rng(99)
        for seed in range(20):
            ds, mean_fn, prop_fn = random_toy(seed)
            design = ds.design
            nus = oracle_nuisances(ds, mean_fn, prop_fn)
            cost = float(rng.choice([0.0, 0.3]))
            scores = compute_dr_scores(ds, nus)
            boundary, lam, anchors = random_bounds(design, seed + 1000)
            bounds = BoundModel(design, boundary, lam)
            base = baseline_policy(design)
            cutoffs = {label: float(rng.uniform(design.c_min, design.c_max))
                       for label in design.groups}
            policy = ThresholdPolicy(cutoffs, design)
            got = value_breakdown(ds, policy, scores, bounds, cost)
            want = bf_components(ds, policy, base, mean_fn, prop_fn,
                                 bf_lower(boundary, lam, anchors), cost=cost)
            assert got.iden == pytest.approx(want[0], abs=1e-12)
            assert got.dr == pytest.approx(want[1], abs=1e-12)
            assert got.xi2_worst == pytest.approx(want[2], abs=1e-12)

    def test_baseline_policy_components(self):
        ds, mean_fn, prop_fn = random_toy(7)
        nus = oracle_nuisances(ds, mean_fn, prop_fn)
        scores = compute_dr_scores(ds, nus)
        boundary, lam, _ = random_bounds(ds.design, 7)
        bounds = BoundModel(ds.design, boundary, lam)
        base = baseline_policy(ds.design)
        got = value_breakdown(ds, base, scores, bounds)
        assert got.iden == pytest.approx(float(np.mean(ds.y)))
        assert got.dr == 0.0
        assert got.xi2_worst == 0.0


def folded_dataset(n, seed, k, extra=()):
    ds = simple_dataset(n, seed=seed)
    if extra:
        x, g, w, y = zip(*extra)
        ds = Dataset(np.concatenate([ds.x, x]), np.concatenate([ds.rank, g]),
                     np.concatenate([ds.w, w]), np.concatenate([ds.y, y]),
                     ds.design, min_group_size=1)
    return ds, make_folds(ds, k, seed=seed)


class TestCrossfitNuisances:
    def test_entries_match_out_of_fold_curve_fits(self):
        ds, folds = folded_dataset(400, seed=5, k=4)
        nus = fit_crossfit_nuisances(ds, folds)
        config = LocalPolyConfig(degree=1)
        checked = 0
        for rank in (1, 2):
            cut = ds.design.cutoff_of_rank(rank)
            for table, fit_side, domain in ((nus.treated, ds.x >= cut, ds.x >= cut),
                                            (nus.control, ds.x < cut, ds.x <= cut)):
                for i in np.flatnonzero(domain):
                    train = (folds.fold_of != folds.fold_of[i]) & (ds.rank == rank) & fit_side
                    want = CurveFit(ds.x[train], ds.y[train], config).values(ds.x[i])
                    assert abs(table[i, rank - 1] - want) <= 1e-12
                    checked += 1
        assert checked == 2 * len(ds) + np.isin(ds.x, ds.design.sorted_cutoffs).sum()

    def test_entries_outside_domain_are_nan(self):
        ds, folds = folded_dataset(300, seed=2, k=3)
        nus = fit_crossfit_nuisances(ds, folds)
        for rank in (1, 2):
            cut = ds.design.cutoff_of_rank(rank)
            assert np.array_equal(np.isnan(nus.treated[:, rank - 1]), ds.x < cut)
            assert np.array_equal(np.isnan(nus.control[:, rank - 1]), ds.x > cut)

    def test_out_of_fold_evaluation_changes_with_fold(self):
        same_x = [(1.0, 2, 0, float(v)) for v in range(8)]
        ds, folds = folded_dataset(400, seed=5, k=4, extra=same_x)
        nus = fit_crossfit_nuisances(ds, folds)
        rows = np.flatnonzero(ds.x == 1.0)
        assert np.unique(folds.fold_of[rows]).size > 1
        # different folds, different fits
        assert np.unique(nus.control[rows, 1]).size > 1
        assert np.unique(nus.treated[rows, 0]).size > 1

    def test_propensity_rows_normalized(self):
        ds, folds = folded_dataset(300, seed=8, k=3)
        nus = fit_crossfit_nuisances(ds, folds)
        p = nus.propensity
        assert p.shape == (len(ds), 2)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all()

    def test_sparse_side_error_names_fold_group_and_side(self):
        design = StudyDesign({"a": -5.0, "b": 5.0})
        recs = [(float(v), "a", int(v >= -5), 0.0) for v in np.linspace(-8, 8, 60)]
        recs += [(float(v), "b", 1, 0.0) for v in np.linspace(5, 8, 30)]
        recs += [(0.0, "b", 0, 0.0), (1.0, "b", 0, 0.0)]
        ds = Dataset(*zip(*recs), design, min_group_size=1)
        with pytest.raises(EstimationError,
                           match=r"fold 0, group 'b', conditional mean on the below-cutoff side"):
            fit_crossfit_nuisances(ds, make_folds(ds, 2, seed=0))
