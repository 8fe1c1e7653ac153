import itertools

import numpy as np
import pytest

from oracles import random_bounds, random_toy
from rdsafe.core import (
    Dataset,
    StudyDesign,
    ThresholdPolicy,
    UtilityConfig,
    baseline_policy,
)
from rdsafe.estimator import compute_dr_scores, oracle_nuisances, value_breakdown
from rdsafe.idbounds import BoundModel, SmoothnessParams
from rdsafe.learner import (
    LearnerConfig,
    candidate_grid,
    group_objective,
    learn_from_components,
    learn_policy,
    prepare_components,
    sensitivity_sweep,
    sweep_to_csv,
)
from rdsafe.simlab import ScenarioSpec, generate


class TestCandidateGrid:
    def test_observed_mode_example(self):
        design = StudyDesign({1: 0.0, 2: 1.0})
        recs = [(0.2, 1, 1, 0.0), (0.7, 1, 1, 0.0),
                (1.5, 1, 1, 0.0), (1.5, 2, 1, 0.0),
                (-0.5, 2, 0, 0.0)]
        ds = Dataset(*zip(*recs), design, min_group_size=1)
        grid = candidate_grid(ds, design, "observed")
        for rank in (1, 2):
            assert list(grid.for_rank(rank)) == [0.0, 0.2, 0.7, 1.0]

    def test_uniform_mode(self):
        design = StudyDesign({1: 0.0, 2: 1.0})
        grid = candidate_grid(None, design, "uniform:3")
        assert list(grid.for_rank(1)) == [0.0, 0.5, 1.0]

    def test_baseline_always_in_grid(self):
        design = StudyDesign({1: 0.0, 2: 0.37, 3: 1.0})
        grid = candidate_grid(None, design, "uniform:4")
        assert 0.37 in grid.for_rank(2)

    def test_bad_mode(self):
        design = StudyDesign({1: 0.0, 2: 1.0})
        with pytest.raises(ValueError):
            candidate_grid(None, design, "chebyshev")
        with pytest.raises(ValueError):
            candidate_grid(None, design, "uniform:1")


def toy_problem(seed):
    ds, mean_fn, prop_fn = random_toy(seed)
    design = ds.design
    nus = oracle_nuisances(ds, mean_fn, prop_fn)
    scores = compute_dr_scores(ds, nus)
    boundary, lam, _ = random_bounds(design, seed + 500)
    bounds = BoundModel(design, boundary, SmoothnessParams(lam=lam))
    return ds, scores, bounds


class TestGroupObjective:
    def test_baseline_candidate_is_group_mean(self):
        for seed in range(5):
            ds, scores, bounds = toy_problem(seed)
            design = ds.design
            base = baseline_policy(design)
            for rank in range(1, design.q + 1):
                got = group_objective(ds, rank, design.cutoff_of_rank(rank),
                                      base, scores, bounds)
                want = float(np.sum(ds.y[ds.rank == rank])) / len(ds)
                assert got == pytest.approx(want, abs=1e-12)

    def test_sum_over_groups_equals_total(self):
        rng = np.random.default_rng(0)
        for seed in range(15):
            ds, scores, bounds = toy_problem(seed)
            design = ds.design
            base = baseline_policy(design)
            cutoffs = {label: float(rng.uniform(design.c_min, design.c_max))
                       for label in design.groups}
            policy = ThresholdPolicy(cutoffs, design)
            total = sum(
                group_objective(ds, design.rank_of(label), cutoffs[label],
                                base, scores, bounds)
                for label in design.groups
            )
            want = value_breakdown(ds, policy, base, scores, bounds).total
            assert total == pytest.approx(want, abs=1e-12)

    def test_out_of_span_candidate_rejected(self):
        ds, scores, bounds = toy_problem(0)
        with pytest.raises(ValueError):
            group_objective(ds, 1, ds.design.c_max + 1, baseline_policy(ds.design),
                            scores, bounds)


class TestSeparability:
    def test_joint_exhaustive_equals_per_group(self):
        for seed in range(8):
            ds, scores, bounds = toy_problem(seed + 100)
            design = ds.design
            if design.q != 2:
                continue
            base = baseline_policy(design)
            grid = np.linspace(design.c_min, design.c_max, 8)
            per_group = {}
            for label in design.groups:
                rank = design.rank_of(label)
                vals = [group_objective(ds, rank, float(c), base, scores, bounds)
                        for c in grid]
                per_group[label] = float(grid[int(np.argmax(vals))])
            best_joint, best_val = None, -np.inf
            for combo in itertools.product(grid, repeat=design.q):
                p = ThresholdPolicy(dict(zip(design.groups, map(float, combo))), design)
                v = value_breakdown(ds, p, base, scores, bounds).total
                if v > best_val:
                    best_val, best_joint = v, p
            sep = ThresholdPolicy(per_group, design)
            sep_val = value_breakdown(ds, sep, base, scores, bounds).total
            assert sep_val == pytest.approx(best_val, abs=1e-12)


class TestLearnPolicy:
    def test_safety_invariant_and_baseline_in_tables(self):
        spec = ScenarioSpec(scenario="B", n=1200)
        ds = generate(spec, seed=0)
        learned = learn_policy(ds, LearnerConfig(seed=1))
        assert learned.breakdown.total >= learned.baseline_breakdown.total
        for rank, (cand, _) in learned.objective_tables.items():
            assert spec.design.cutoff_of_rank(rank) in cand

    def test_huge_multiplier_returns_baseline(self):
        spec = ScenarioSpec(scenario="B", n=1200)
        ds = generate(spec, seed=3)
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
        spec = ScenarioSpec(scenario="A", n=1000)
        ds = generate(spec, seed=5)
        a = learn_policy(ds, LearnerConfig(seed=7))
        b = learn_policy(ds, LearnerConfig(seed=7))
        assert a.policy.cutoffs == b.policy.cutoffs
        assert a.breakdown.total == b.breakdown.total


@pytest.fixture(scope="module")
def components():
    spec = ScenarioSpec(scenario="B", n=1500)
    ds = generate(spec, seed=10)
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

    def test_csv_header(self, components):
        ds, comps = components
        rows = sensitivity_sweep(ds, [1.0], [0.0], components=comps)
        out = sweep_to_csv(rows)
        assert out.splitlines()[0] == ("group,M,C,baseline_cutoff,learned_cutoff,"
                                       "change,objective_gain")

    def test_empty_lists_rejected(self, components):
        ds, comps = components
        with pytest.raises(ValueError):
            sensitivity_sweep(ds, [], [0.0], components=comps)

    def test_reuse_matches_full_learn(self, components):
        ds, comps = components
        via_sweep = learn_from_components(comps, multiplier=1.0,
                                          utility=UtilityConfig(cost=0.0))
        direct = learn_policy(ds, LearnerConfig(seed=2, multiplier=1.0))
        assert via_sweep.policy.cutoffs == direct.policy.cutoffs
        assert via_sweep.breakdown.total == pytest.approx(direct.breakdown.total)
