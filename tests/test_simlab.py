import numpy as np
import pytest
from scipy.stats import norm

from oracles import direct_true_value, stable_oracle_search
from rdsafe import learner, simlab
from rdsafe.core import DataError, ThresholdPolicy, baseline_policy
from rdsafe.simlab import (
    Population,
    ScenarioSpec,
    draw_population,
    generate,
    oracle_policy,
    regret_experiment,
    true_value,
)


class TestGenerate:
    def test_sharp_rule_holds_by_construction(self):
        # Dataset construction itself validates the rule; also check directly
        spec = ScenarioSpec("A")
        ds = generate(spec, 3000, seed=0)
        cuts = np.array([-850.0, -571.0])
        assert np.array_equal(ds.w, (ds.x >= cuts[ds.rank - 1]).astype(int))

    def test_group_probability_at_minus_500(self):
        # latent index 0.01*(-500)+5 = 0 so P(G=2) = 0.5 exactly
        spec = ScenarioSpec("A")
        ds = generate(spec, 200_000, seed=1)
        near = np.abs(ds.x + 500) < 10
        frac = float(np.mean(ds.rank[near] == 2))
        assert abs(frac - 0.5) < 3 / np.sqrt(near.sum())

    def test_group_mechanism_matches_normal_cdf(self):
        spec = ScenarioSpec("A")
        ds = generate(spec, 200_000, seed=2)
        for center in (-900, -700, -300, -100):
            near = np.abs(ds.x - center) < 10
            want = norm.cdf((0.01 * center + 5) / 10)
            got = float(np.mean(ds.rank[near] == 2))
            assert abs(got - want) < 4 / np.sqrt(near.sum()) + 0.002

    def test_conditional_mean_at_cutoff(self):
        spec = ScenarioSpec("A")
        ds = generate(spec, 400_000, seed=3)
        sel = (ds.rank == 2) & (ds.w == 1) & (np.abs(ds.x + 571) < 5)
        want = float(spec.mean_outcome(1, -571.0, 2))
        got = float(np.mean(ds.y[sel]))
        assert abs(got - want) < 0.05

    def test_reproducible(self):
        spec = ScenarioSpec("B")
        a, b = generate(spec, 500, seed=9), generate(spec, 500, seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("scenario", ["A", "B"])
    @pytest.mark.parametrize("cutoffs", [{1: -850.0, 2: -571.0}, {1: -571.0, 2: -850.0}])
    @pytest.mark.parametrize("n", [
        1000, simlab._MEAN_CHUNK - 1, simlab._MEAN_CHUNK + 1, 2 * simlab._MEAN_CHUNK + 4321])
    def test_data_and_truth_come_from_one_process(self, scenario, cutoffs, n):
        # the draw order written out: uniform x, normal membership noise, the
        # group, then outcome noise around `mean_outcome`
        spec = ScenarioSpec(scenario, cutoffs=cutoffs)
        rng = np.random.default_rng(n)
        x = rng.uniform(-1000.0, -1.0, size=n)
        g = np.where(0.01 * x + 5.0 + rng.normal(0.0, 10.0, size=n) > 0, 2, 1)
        w = (x >= np.array([cutoffs[1], cutoffs[2]])[g - 1]).astype(int)
        y = spec.mean_outcome(w, x, g) + rng.normal(0.0, 0.3, size=n)
        ds = generate(spec, n, seed=n)
        labels = np.array([spec.design.label_of(rank) for rank in (1, 2)])[ds.rank - 1]
        for got, want in ((ds.x, x), (labels, g), (ds.w, w), (ds.y, y)):
            assert got.tobytes() == want.tobytes()
        # and the population of the same seed is the data's
        pop = draw_population(spec, n, seed=n)
        assert pop.x.tobytes() == ds.x.tobytes() and np.array_equal(pop.g, labels)

    @pytest.mark.parametrize("n", [0, -5])
    def test_size_below_one_rejected(self, n):
        with pytest.raises(DataError, match="sample size must be positive"):
            generate(ScenarioSpec("A"), n, seed=0)

    def test_bad_scenario(self):
        with pytest.raises(DataError, match="scenario must be"):
            ScenarioSpec("C")

    def test_unhashable_scenario_is_a_data_error(self):
        with pytest.raises(DataError, match="scenario must be"):
            ScenarioSpec(["A"])


class TestPopulation:
    @pytest.mark.parametrize("scenario", ["A", "B"])
    @pytest.mark.parametrize("cutoffs", [{1: -850.0, 2: -571.0}, {1: -571.0, 2: -850.0}])
    @pytest.mark.parametrize("mc_size", [
        1, simlab._MEAN_CHUNK - 1, simlab._MEAN_CHUNK + 1, 2 * simlab._MEAN_CHUNK + 4321])
    def test_arm_means_equal_mean_outcome_bitwise(self, scenario, cutoffs, mc_size):
        # mean_outcome on all draws at once: the blocks the arm means are
        # built in do not show, not even a last block of one draw
        spec = ScenarioSpec(scenario, cutoffs=cutoffs)
        pop = draw_population(spec, mc_size, seed=mc_size)
        for arm, got in ((1, pop.treated), (0, pop.control)):
            assert got.tobytes() == spec.mean_outcome(arm, pop.x, pop.g).tobytes()


class TestTrueValue:
    def test_identical_policies_bit_exact(self):
        spec = ScenarioSpec("A")
        draws = draw_population(spec, 50_000, seed=4)
        p1 = ThresholdPolicy({1: -700.0, 2: -600.0}, spec.design)
        p2 = ThresholdPolicy({1: -700.0, 2: -600.0}, spec.design)
        assert true_value(p1, draws) == true_value(p2, draws)

    def test_linear_in_cost(self):
        spec = ScenarioSpec("B")
        draws = draw_population(spec, 50_000, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = ThresholdPolicy(
                {1: float(rng.uniform(-850, -571)), 2: float(rng.uniform(-850, -571))},
                spec.design)
            v0 = true_value(p, draws, cost=0.0)
            c = float(rng.uniform(0, 1))
            vc = true_value(p, draws, cost=c)
            epi = float(np.mean(p.indicator(draws.x, draws.g)))
            assert vc == pytest.approx(v0 - c * epi, abs=1e-12)

    def test_cutoff_order_of_labels_does_not_matter(self):
        # label 1 holding the higher cutoff makes label 2 rank 1; a fixed
        # per-label policy must keep its value on the same draws
        spec = ScenarioSpec("B")
        swapped = ScenarioSpec("B", cutoffs={1: -571.0, 2: -850.0})
        draws = draw_population(spec, 200_000, seed=0)
        cutoffs = {1: -700.0, 2: -600.0}
        want = true_value(ThresholdPolicy(cutoffs, spec.design), draws)
        got = true_value(ThresholdPolicy(cutoffs, swapped.design), draws)
        assert got == want

    @pytest.mark.parametrize("scenario", ["A", "B"])
    @pytest.mark.parametrize("cutoffs", [{1: -850.0, 2: -571.0}, {1: -571.0, 2: -850.0}])
    @pytest.mark.parametrize("mc_size", [
        1, simlab._MEAN_CHUNK - 1, simlab._MEAN_CHUNK + 1, 2 * simlab._MEAN_CHUNK + 4321])
    def test_equals_direct_formula_bitwise(self, scenario, cutoffs, mc_size):
        spec = ScenarioSpec(scenario, cutoffs=cutoffs)
        draws = draw_population(spec, mc_size, seed=mc_size)
        rng = np.random.default_rng(mc_size)
        for cost in (0.0, 0.37, 1.0):
            p = ThresholdPolicy({1: float(rng.uniform(-850, -571)),
                                 2: float(rng.uniform(-850, -571))}, spec.design)
            want = direct_true_value(p, spec, draws.x, draws.g, cost=cost)
            assert true_value(p, draws, cost=cost) == want

    def test_scenario_a_baseline_near_optimal(self):
        spec = ScenarioSpec("A")
        draws = draw_population(spec, 400_000, seed=6)
        base = baseline_policy(spec.design)
        vb = true_value(base, draws)
        grid = np.linspace(-850, -571, 40)
        se = 2.0 / np.sqrt(400_000)  # conservative outcome-scale bound
        for c1 in grid[::13]:
            for c2 in grid:
                p = ThresholdPolicy({1: float(c1), 2: float(c2)}, spec.design)
                assert true_value(p, draws) <= vb + 2 * se + 1e-4

    def test_scenario_b_baseline_improvable(self):
        spec = ScenarioSpec("B")
        draws = draw_population(spec, 400_000, seed=7)
        base = baseline_policy(spec.design)
        vb = true_value(base, draws)
        grid = np.linspace(-850, -571, 100)
        best2 = max(true_value(ThresholdPolicy({1: -850.0, 2: float(c)}, spec.design), draws)
                    for c in grid)
        assert best2 > vb + 0.001  # lowering group 2's cutoff helps by itself
        orc = oracle_policy(spec.design, draws, grid_size=100)
        assert true_value(orc, draws) > vb + 0.005


class TestOraclePolicy:
    def test_grid_of_baselines_returns_baseline(self):
        spec = ScenarioSpec("B")
        # grid_size=2 gives only the endpoints {-850, -571}, both baselines
        orc = oracle_policy(spec.design, draw_population(spec, 50_000, seed=0), grid_size=2)
        assert set(orc.cutoffs.values()) <= {-850.0, -571.0}

    def test_scenario_b_oracle_differs_from_baseline(self):
        spec = ScenarioSpec("B")
        orc = oracle_policy(spec.design, draw_population(spec, 300_000, seed=1), grid_size=100)
        step = (850 - 571) / 99
        assert abs(orc.cutoffs[2] - (-571.0)) > step

    def test_cutoff_order_of_labels_does_not_matter(self):
        spec = ScenarioSpec("B")
        swapped = ScenarioSpec("B", cutoffs={1: -571.0, 2: -850.0})
        draws = draw_population(spec, 200_000, seed=0)
        want = oracle_policy(spec.design, draws).cutoffs
        got = oracle_policy(swapped.design, draws).cutoffs
        assert got == want
        assert want[1] == -571.0 and want[2] == pytest.approx(-667.74, abs=0.01)

    @pytest.mark.parametrize("cutoffs", [{1: -850.0, 2: -571.0}, {1: -571.0, 2: -850.0}])
    @pytest.mark.parametrize("scenario", ["A", "B"])
    @pytest.mark.parametrize("cost", [0.0, 0.3])
    def test_given_draws_match_own_draws(self, scenario, cutoffs, cost):
        # with one way to make draws, the oracle on a drawn population is checked
        # against the draw-by-draw search of `oracles.stable_oracle_search`
        spec = ScenarioSpec(scenario, cutoffs=cutoffs)
        draws = draw_population(spec, 4_000, seed=3)
        grid = np.linspace(-850.0, -571.0, 40)
        want = stable_oracle_search(draws, spec.design, grid, cost)
        got = oracle_policy(spec.design, draws, grid_size=grid.size, cost=cost)
        assert got.cutoffs == {label: cut for label, (_, cut) in want.items()}

    @pytest.mark.parametrize("cost", [0.0, 0.3])
    def test_repeated_x_match_a_stable_sort(self, cost, monkeypatch):
        # draws of one group with equal x have equal arm means, as in a drawn
        # population, so the search may sort them in any order; many sit
        # exactly on grid points
        spec = ScenarioSpec("B")
        grid = np.linspace(-850.0, -571.0, 40)
        rng = np.random.default_rng(7)
        levels = np.concatenate([grid[::3], rng.uniform(-1000.0, -1.0, 20)])
        pick = rng.integers(0, levels.size, 3000)
        g = rng.integers(1, 3, pick.size)
        means = rng.normal(0.0, 1.0, (2, levels.size, 3))
        pop = Population(levels[pick], g, means[0, pick, g] + 0.05, means[1, pick, g])
        searched = []

        class SpyNumpy:
            # the learner's numpy, recording the suffix values each group maximises
            def __getattr__(self, name):
                return getattr(np, name)

            def max(self, a, *args, **kwargs):
                searched.append(np.array(a))
                return np.max(a, *args, **kwargs)

        monkeypatch.setattr(learner, "np", SpyNumpy())
        got = oracle_policy(spec.design, pop, grid_size=grid.size, cost=cost)
        want = stable_oracle_search(pop, spec.design, grid, cost)
        assert got.cutoffs == {label: cut for label, (_, cut) in want.items()}
        assert len(searched) == 2
        for vals, label in zip(searched, (1, 2)):
            assert np.array_equal(vals, want[label][0])

    def test_scenario_a_group2_near_baseline_on_coarse_grid(self):
        # the scenario coefficients put the true optimum ~13 units below the
        # baseline cutoff; a coarse grid cannot resolve the difference
        spec = ScenarioSpec("A")
        orc = oracle_policy(spec.design, draw_population(spec, 300_000, seed=2), grid_size=15)
        step = (850 - 571) / 14
        assert abs(orc.cutoffs[2] - (-571.0)) <= step + 1e-9
        assert orc.cutoffs[1] == -850.0


class TestRegretExperiment:
    def test_report_shape_and_reproducibility(self):
        kwargs = dict(scenarios=["A"], n_list=[400], multipliers=[1.0, 4.0],
                      reps=3, seed=11, mc_size=20_000)
        a = regret_experiment(**kwargs)
        b = regret_experiment(**kwargs)
        assert len(a) == 2
        assert a == b

    def test_regret_identity(self):
        [cell] = regret_experiment(scenarios=["B"], n_list=[400], multipliers=[1.0],
                                   reps=3, seed=13, mc_size=20_000)
        spec = ScenarioSpec("B")
        draws = draw_population(spec, 20_000, seed=13)
        vb = true_value(baseline_policy(spec.design), draws)
        vo = true_value(oracle_policy(spec.design, draws), draws)
        gap = vo - vb
        assert cell.regret_oracle_mean == pytest.approx(
            cell.regret_baseline_mean + gap, abs=1e-12)

    def test_reps_validation(self):
        with pytest.raises(DataError, match="at least 2 replications"):
            regret_experiment(["A"], [100], [1.0], reps=1, seed=0)

    @pytest.mark.parametrize("scenarios, sizes, message", [
        (["A", "B"], [400, 0], "sample size must be positive"),
        (["A", "C"], [400], "scenario must be"),
    ], ids=["size", "scenario"])
    def test_bad_specs_rejected_before_drawing(self, monkeypatch, scenarios, sizes, message):
        def draw(*args, **kwargs):
            raise AssertionError("drew a population before checking the specs")

        monkeypatch.setattr(simlab, "draw_population", draw)
        with pytest.raises(DataError, match=message):
            regret_experiment(scenarios, sizes, [1.0], reps=2, seed=0, mc_size=1_000)

    @pytest.mark.parametrize("scenarios, sizes, multipliers, what", [
        ([], [400], [1.0], "scenario"),
        (["A"], [], [1.0], "sample size"),
        (["A"], [400], [], "multiplier"),
    ], ids=["scenarios", "sizes", "multipliers"])
    def test_empty_lists_rejected(self, scenarios, sizes, multipliers, what):
        with pytest.raises(DataError, match=f"needs at least one {what}"):
            regret_experiment(scenarios, sizes, multipliers, reps=2, seed=0, mc_size=1_000)

    @pytest.mark.parametrize("m", [-1.0, np.inf])
    def test_bad_multiplier_is_not_a_failed_replication(self, m):
        with pytest.raises(DataError, match="finite and nonnegative"):
            regret_experiment(["A"], [400], [1.0, m], reps=2, seed=0, mc_size=1_000)

    def test_programming_error_propagates(self, monkeypatch):
        # only estimation failures count as failed replications
        def broken(data, config):
            raise TypeError("bug inside a replication")

        monkeypatch.setattr(simlab, "learn_policy", broken)
        with pytest.raises(TypeError, match="bug inside"):
            regret_experiment(["A"], [400], [1.0], reps=2, seed=0, mc_size=1_000)
