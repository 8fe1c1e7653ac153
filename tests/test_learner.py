import itertools

import numpy as np
import pytest

from oracles import bf_components, bf_lower, random_bounds, random_toy
from rdsafe import learner
from rdsafe.core import (
    DataError,
    Dataset,
    StudyDesign,
    ThresholdPolicy,
    baseline_policy,
)
from rdsafe.estimator import compute_dr_scores, oracle_nuisances
from rdsafe import idbounds
from rdsafe.idbounds import BoundModel, required_pairs
from rdsafe.learner import (
    LearnerConfig,
    ValueBreakdown,
    _candidate_values,
    _record_contributions,
    candidate_grid,
    learn_from_components,
    learn_policy,
    prepare_components,
    sensitivity_sweep,
    value_breakdown,
)
from rdsafe.simlab import ScenarioSpec, generate


def one_record_per_group(design):
    """A dataset of one record at x = 0.5 in each group of the design."""
    labels = design.groups
    w = [int(0.5 >= design.cutoffs[label]) for label in labels]
    return Dataset([0.5] * len(labels), labels, w, [0.0] * len(labels), design,
                   min_group_size=1)


class TestCandidateGrid:
    def test_observed_mode_example(self):
        design = StudyDesign({1: 0.0, 2: 1.0})
        recs = [(0.2, 1, 1, 0.0), (0.7, 1, 1, 0.0),
                (1.5, 1, 1, 0.0), (1.5, 2, 1, 0.0),
                (-0.5, 2, 0, 0.0)]
        ds = Dataset(*zip(*recs), design, min_group_size=1)
        grid = candidate_grid(ds, "observed")
        for rank in (1, 2):
            assert list(grid.for_rank(rank)) == [0.0, 0.2, 0.7, 1.0]

    def test_uniform_mode(self):
        design = StudyDesign({1: 0.0, 2: 1.0})
        grid = candidate_grid(one_record_per_group(design), "uniform:3")
        assert list(grid.for_rank(1)) == [0.0, 0.5, 1.0]

    def test_baseline_always_in_grid(self):
        design = StudyDesign({1: 0.0, 2: 0.37, 3: 1.0})
        grid = candidate_grid(one_record_per_group(design), "uniform:4")
        assert 0.37 in grid.for_rank(2)

    def test_bad_mode(self):
        ds = one_record_per_group(StudyDesign({1: 0.0, 2: 1.0}))
        with pytest.raises(DataError, match="grid mode"):
            candidate_grid(ds, "chebyshev")
        with pytest.raises(DataError, match="at least 2 points"):
            candidate_grid(ds, "uniform:1")


def toy_problem(seed):
    ds, mean_fn, prop_fn = random_toy(seed)
    design = ds.design
    nus = oracle_nuisances(ds, mean_fn, prop_fn)
    scores = compute_dr_scores(ds, nus)
    boundary, lam, _ = random_bounds(design, seed + 500)
    bounds = BoundModel(design, boundary, lam)
    return ds, scores, bounds


def group_values(ds, rank, grid, scores, bounds):
    """Group `rank`'s objective contribution at every cutoff of `grid`."""
    return _candidate_values(ds, *_record_contributions(ds, rank, scores, bounds, 0.0),
                             np.argsort(ds.x, kind="stable"), np.asarray(grid, dtype=float))


class TestGroupObjective:
    def test_baseline_candidate_is_group_mean(self):
        for seed in range(5):
            ds, scores, bounds = toy_problem(seed)
            design = ds.design
            for rank in range(1, design.q + 1):
                got = group_values(ds, rank, [design.cutoff_of_rank(rank)], scores, bounds)[0]
                want = float(np.sum(ds.y[ds.rank == rank])) / len(ds)
                assert got == pytest.approx(want, abs=1e-12)

    def test_sum_over_groups_equals_total(self):
        rng = np.random.default_rng(0)
        for seed in range(15):
            ds, scores, bounds = toy_problem(seed)
            design = ds.design
            cutoffs = {label: float(rng.uniform(design.c_min, design.c_max))
                       for label in design.groups}
            policy = ThresholdPolicy(cutoffs, design)
            total = sum(
                group_values(ds, design.rank_of(label), [cutoffs[label]], scores, bounds)[0]
                for label in design.groups
            )
            want = value_breakdown(ds, policy, scores, bounds).total
            assert total == pytest.approx(want, abs=1e-12)


class TestRecordsAtCutoffs:
    """Records with x exactly at c_1 and at c_Q, in every group. The sharp
    rule treats a record at its own cutoff, and so does a candidate equal to
    its x; a record at c_Q lies in the topmost interval."""

    @staticmethod
    def with_ties(ds, seed):
        """`ds` plus two records at c_1 and two at c_Q in every group."""
        design = ds.design
        rng = np.random.default_rng(seed)
        ties = [(c, label, int(c >= design.cutoffs[label]), float(rng.normal()))
                for c in (design.c_min, design.c_max) for label in design.groups
                for _ in range(2)]
        x, g, w, y = zip(*ties)
        return Dataset(np.concatenate([ds.x, x]), [*map(design.label_of, ds.rank.tolist()), *g],
                       np.concatenate([ds.w, w]), np.concatenate([ds.y, y]), design,
                       min_group_size=1)

    @pytest.mark.parametrize("seed", range(8))
    def test_breakdown_and_search_match_brute_force(self, seed):
        ds, mean_fn, prop_fn = random_toy(seed)
        ds = self.with_ties(ds, seed)
        design = ds.design
        cuts = design.sorted_cutoffs.tolist()
        scores = compute_dr_scores(ds, oracle_nuisances(ds, mean_fn, prop_fn))
        boundary, lam, anchors = random_bounds(design, seed + 300)
        bounds = BoundModel(design, boundary, lam)
        cost = 0.3 if seed % 2 else 0.0
        base = baseline_policy(design)
        order = np.argsort(ds.x, kind="stable")
        contributions = {rank: _record_contributions(ds, rank, scores, bounds, cost)
                         for rank in range(1, design.q + 1)}
        # the baseline and every policy whose cutoffs are baseline cutoffs
        for combo in itertools.product(cuts, repeat=design.q):
            policy = ThresholdPolicy(dict(zip(design.groups, combo)), design)
            got = value_breakdown(ds, policy, scores, bounds, cost)
            want = bf_components(ds, policy, base, mean_fn, prop_fn,
                                 bf_lower(boundary, lam, anchors), cost=cost)
            assert got.iden == pytest.approx(want[0], abs=1e-12)
            assert got.dr == pytest.approx(want[1], abs=1e-12)
            assert got.xi2_worst == pytest.approx(want[2], abs=1e-12)
            searched = sum(_candidate_values(ds, a, b, order, np.array([c]))[0]
                           for (a, b), c in zip(contributions.values(), combo))
            assert searched == pytest.approx(sum(want), abs=1e-12)
            if policy == base:
                assert (got.dr, got.xi2_worst) == (0.0, 0.0)

    def test_learn_runs_on_records_at_every_cutoff(self):
        ds = self.with_ties(generate(ScenarioSpec("B"), 2000, seed=4), seed=4)
        learned = learn_policy(ds, LearnerConfig(seed=1))
        comps = prepare_components(ds, LearnerConfig(seed=1))
        want = value_breakdown(ds, learned.policy, comps.raw_scores, comps.bounds)
        assert learned.breakdown == want
        assert learned.objective_gain >= 0.0


class TestSeparability:
    def test_joint_exhaustive_equals_per_group(self):
        for seed in range(8):
            ds, scores, bounds = toy_problem(seed + 100)
            design = ds.design
            if design.q != 2:
                continue
            grid = np.linspace(design.c_min, design.c_max, 8)
            per_group = {}
            for label in design.groups:
                vals = group_values(ds, design.rank_of(label), grid, scores, bounds)
                per_group[label] = float(grid[int(np.argmax(vals))])
            best_joint, best_val = None, -np.inf
            for combo in itertools.product(grid, repeat=design.q):
                p = ThresholdPolicy(dict(zip(design.groups, map(float, combo))), design)
                v = value_breakdown(ds, p, scores, bounds).total
                if v > best_val:
                    best_val, best_joint = v, p
            sep = ThresholdPolicy(per_group, design)
            sep_val = value_breakdown(ds, sep, scores, bounds).total
            assert sep_val == pytest.approx(best_val, abs=1e-12)


class TestLearnPolicy:
    def test_safety_invariant_and_baseline_in_tables(self):
        spec = ScenarioSpec("B")
        ds = generate(spec, 1200, seed=0)
        learned = learn_policy(ds, LearnerConfig(seed=1))
        assert learned.breakdown.total >= learned.baseline_breakdown.total
        for rank, (cand, _) in learned.objective_tables.items():
            assert spec.design.cutoff_of_rank(rank) in cand

    def test_huge_multiplier_returns_baseline(self):
        spec = ScenarioSpec("B")
        ds = generate(spec, 1200, seed=3)
        learned = learn_policy(ds, LearnerConfig(seed=1, multiplier=1e6))
        assert learned.policy.cutoffs == baseline_policy(spec.design).cutoffs

    def test_identical_outcomes_tie_break_to_baseline(self):
        rng = np.random.default_rng(2)
        design = StudyDesign({1: -1.0, 2: 1.0})
        recs = []
        for _ in range(400):
            x = float(rng.uniform(-3, 3))
            g = int(rng.integers(1, 3))
            recs.append((x, g, int(x >= (-1.0 if g == 1 else 1.0)), 1.0))
        ds = Dataset(*zip(*recs), design, min_group_size=1)
        learned = learn_policy(ds, LearnerConfig(seed=0, n_folds=2))
        assert learned.policy.cutoffs == {1: -1.0, 2: 1.0}

    def test_deterministic(self):
        spec = ScenarioSpec("A")
        ds = generate(spec, 1000, seed=5)
        a = learn_policy(ds, LearnerConfig(seed=7))
        b = learn_policy(ds, LearnerConfig(seed=7))
        assert a.policy.cutoffs == b.policy.cutoffs
        assert a.breakdown.total == b.breakdown.total


class TestAffineRunningVariable:
    """x -> a*x + b, with the design's cutoffs mapped the same way, maps the
    learned cutoffs: each is a baseline cutoff or an observed x, so the map
    holds exactly."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scenario", ["A", "B"])
    def test_learned_cutoffs_follow(self, scenario, seed):
        ds = generate(ScenarioSpec(scenario), 2000, seed=seed)
        want = learn_policy(ds, LearnerConfig(seed=seed)).policy.cutoffs
        for a, b in ((2.0, 0.0), (0.5, 0.0), (1.0, 300.0), (3.0, -50.0), (0.25, 1000.0)):
            design = StudyDesign({label: a * c + b for label, c in ds.design.cutoffs.items()})
            # the scenario's labels are its ranks
            moved = Dataset(a * ds.x + b, ds.rank, ds.w, ds.y, design)
            got = learn_policy(moved, LearnerConfig(seed=seed)).policy.cutoffs
            assert got == {label: a * c + b for label, c in want.items()}, (a, b)


@pytest.fixture(scope="module")
def components():
    spec = ScenarioSpec("B")
    ds = generate(spec, 1500, seed=10)
    return ds, prepare_components(ds, LearnerConfig(seed=2))


class TestSensitivitySweep:

    def test_row_ordering_and_shape(self, components):
        ds, comps = components
        rows = sensitivity_sweep(ds, [1.0, 0.0], [0.5, 0.0], components=comps)
        assert len(rows) == 2 * 2 * 2
        assert [r.group for r in rows] == [1, 1, 1, 1, 2, 2, 2, 2]
        assert [r.multiplier for r in rows[:4]] == [1.0, 1.0, 0.0, 0.0]

    def test_duplicate_multipliers_identical_rows(self, components):
        ds, comps = components
        rows = sensitivity_sweep(ds, [1.0, 1.0], [0.0], components=comps)
        assert rows[0] == rows[1] and rows[2] == rows[3]

    def test_empty_lists_rejected(self, components):
        ds, comps = components
        with pytest.raises(DataError, match="at least one multiplier and one cost"):
            sensitivity_sweep(ds, [], [0.0], components=comps)
        with pytest.raises(DataError, match="at least one multiplier and one cost"):
            sensitivity_sweep(ds, [1.0], [], components=comps)

    def test_reuse_matches_full_learn(self, components):
        ds, comps = components
        via_sweep = learn_from_components(comps, multiplier=1.0, cost=0.0)
        direct = learn_policy(ds, LearnerConfig(seed=2, multiplier=1.0))
        assert via_sweep.policy.cutoffs == direct.policy.cutoffs
        assert via_sweep.breakdown.total == pytest.approx(direct.breakdown.total)


def three_group_dataset(seed, n):
    """Three groups: a shared smooth outcome, group shifts and an effect growing in x."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.5, 2.5, n)
    g = rng.integers(1, 4, n)
    w = (x >= np.array([-1.0, 0.0, 1.0])[g - 1]).astype(int)
    y = (0.5 * x - 0.2 * x**2 + np.array([0.0, 0.3, -0.2])[g - 1]
         + w * (0.4 + 0.2 * x) + rng.normal(0, 0.3, n))
    return Dataset(x, g, w, y, StudyDesign({1: -1.0, 2: 0.0, 3: 1.0}))


@pytest.fixture(scope="module")
def three_groups():
    return three_group_dataset(seed=4, n=1800)


class TestConfigChecks:
    @pytest.mark.parametrize("mode", ["bogus", "uniform:1", "uniform(5)", "uniform5", "uniform:"])
    def test_bad_grid_mode_rejected_up_front(self, mode):
        with pytest.raises(DataError, match="grid"):
            LearnerConfig(grid_mode=mode)
        with pytest.raises(DataError, match="grid"):
            candidate_grid(one_record_per_group(StudyDesign({1: 0.0, 2: 1.0})), mode)

    @pytest.mark.parametrize("m", [-1.0, -1e-300, np.inf, np.nan])
    def test_bad_multiplier_rejected(self, m, three_groups, monkeypatch):
        with pytest.raises(DataError, match="finite and nonnegative"):
            LearnerConfig(multiplier=m)

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking the multipliers")

        monkeypatch.setattr(learner, "prepare_components", no_fit)
        with pytest.raises(DataError, match="finite and nonnegative"):
            sensitivity_sweep(three_groups, [1.0, m], [0.0])

    @pytest.mark.parametrize("c", [-0.1, np.nan, np.inf])
    def test_bad_cost_rejected_by_config(self, c):
        with pytest.raises(DataError, match="treatment cost"):
            LearnerConfig(cost=c)

    @pytest.mark.parametrize("c", [-1.0, np.nan, np.inf])
    def test_bad_cost_rejected_before_fitting(self, c, three_groups, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking the costs")

        monkeypatch.setattr(learner, "fit_crossfit_nuisances", no_fit)
        with pytest.raises(DataError, match="treatment cost"):
            sensitivity_sweep(three_groups, [1.0], [0.0, c])

    @pytest.mark.parametrize("k", [1, 0])
    def test_fewer_than_two_folds_rejected(self, k):
        with pytest.raises(DataError, match="at least 2 folds"):
            LearnerConfig(n_folds=k)

    @pytest.mark.parametrize("eps", [1 / 3, 0.4, 0.6, 0.0])
    def test_clamp_checked_against_q_before_fitting(self, eps, three_groups, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking the clamp")

        monkeypatch.setattr(learner, "fit_crossfit_nuisances", no_fit)
        with pytest.raises(DataError, match="1/Q"):
            learn_policy(three_groups, LearnerConfig(clamp_eps=eps))

    def test_learn_from_components_checks_multiplier(self, three_groups):
        comps = prepare_components(three_groups, LearnerConfig(seed=3))
        with pytest.raises(DataError, match="finite and nonnegative"):
            learn_from_components(comps, multiplier=-1.0)

    def test_learn_from_components_checks_cost(self, three_groups):
        comps = prepare_components(three_groups, LearnerConfig(seed=3))
        with pytest.raises(DataError, match="treatment cost must be nonnegative"):
            learn_from_components(comps, cost=-1.0)


class TestOneBoundModelPerDataset:
    def test_sweep_fits_each_boundary_once(self, three_groups, monkeypatch):
        calls = []
        real = idbounds.boundary_limit

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(idbounds, "boundary_limit", counting)
        rows = sensitivity_sweep(three_groups, [0.0, 1.0, 4.0], [0.0, 0.5], LearnerConfig(seed=3))
        assert len(rows) == 3 * 3 * 2
        assert len(calls) == len(required_pairs(three_groups.design))

    def test_every_cell_equals_a_fresh_learn(self, three_groups):
        comps = prepare_components(three_groups, LearnerConfig(seed=3))
        for m in (0.0, 1.0, 2.5):
            for c in (0.0, 0.4):
                got = learn_from_components(comps, multiplier=m, cost=c)
                want = learn_policy(three_groups, LearnerConfig(seed=3, multiplier=m, cost=c))
                assert got.policy.cutoffs == want.policy.cutoffs
                for field in ("iden", "dr", "xi2_worst"):
                    assert getattr(got.breakdown, field) == getattr(want.breakdown, field)
                    assert (getattr(got.baseline_breakdown, field)
                            == getattr(want.baseline_breakdown, field))
                assert got.diagnostics == want.diagnostics
                assert got.objective_tables.keys() == want.objective_tables.keys()
                for rank, (cand, vals) in want.objective_tables.items():
                    assert np.array_equal(got.objective_tables[rank][0], cand)
                    assert np.array_equal(got.objective_tables[rank][1], vals)


class TestOneObjectivePath:
    """The reported breakdowns come from the search's own record contributions."""

    CELLS = [(m, c) for m in (0.0, 2.0) for c in (0.0, 0.4)]

    @pytest.fixture(scope="class")
    def cells(self):
        ds = three_group_dataset(seed=9, n=1500)
        comps = prepare_components(ds, LearnerConfig(seed=1))
        return ds, comps, {(m, c): learn_from_components(comps, multiplier=m, cost=c)
                           for m, c in self.CELLS}

    def test_breakdown_equals_value_breakdown_of_learned_policy(self, cells):
        ds, comps, learned = cells
        for m, c in self.CELLS:
            got = learned[(m, c)]
            want = value_breakdown(ds, got.policy, comps.raw_scores,
                                   comps.bounds.with_multiplier(m), c)
            for field in ("iden", "dr", "xi2_worst"):
                assert getattr(got.breakdown, field) == getattr(want, field)

    def test_baseline_breakdown_is_identified_mean(self, cells):
        ds, _, learned = cells
        n = len(ds)
        for m, c in self.CELLS:
            want = ValueBreakdown(np.sum(ds.y - c * ds.w) / n, 0.0, 0.0)
            assert learned[(m, c)].baseline_breakdown == want

    def test_tables_at_learned_cutoffs_sum_to_total(self, cells):
        ds, _, learned = cells
        design = ds.design
        for m, c in self.CELLS:
            got = learned[(m, c)]
            total = 0.0
            for rank, (cand, vals) in got.objective_tables.items():
                at = np.flatnonzero(cand == got.policy.cutoffs[design.label_of(rank)])
                assert at.size == 1
                total += vals[at[0]]
            assert total == pytest.approx(got.breakdown.total, abs=1e-12)
