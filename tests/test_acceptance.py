"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them live). The
statistical checks are Monte Carlo experiments against the synthetic
scenarios' known ground truth; the exactness checks compare the pipeline
against independent brute-force evaluations.
"""
import itertools
import warnings
import zlib

import conftest

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from oracles import bf_components, bf_lower, random_bounds, random_toy
from rdsafe.cli import main as cli_main
from rdsafe.core import (
    Dataset,
    StudyDesign,
    ThresholdPolicy,
    baseline_policy,
    serialize_dataset,
)
from rdsafe.estimator import compute_dr_scores, oracle_nuisances
from rdsafe.idbounds import BoundModel
from rdsafe.learner import (
    LearnerConfig,
    _candidate_values,
    _record_contributions,
    learn_from_components,
    prepare_components,
    value_breakdown,
)
from rdsafe.simlab import ScenarioSpec, draw_population, generate, oracle_policy, true_value
from rdsafe.smooth import CurveFit, LocalPolyConfig, _fit_propensity_arrays, boundary_limit


def report(num, ok, desc):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


def rep_seed(tag, rep):
    key = zlib.crc32(tag.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=1234, spawn_key=(key, rep))
    return int(ss.generate_state(1)[0])


def run_learn(ds, seed, multipliers):
    comps = prepare_components(ds, LearnerConfig(seed=seed))
    return {m: learn_from_components(comps, multiplier=m) for m in multipliers}


class TestCriterion1Safety:
    def test_safety_by_construction(self):
        worst = 0.0
        ok = True
        for scenario in ("A", "B"):
            for rep in range(50):
                ds = generate(ScenarioSpec(scenario), 2000,
                              seed=rep_seed("c1" + scenario, rep))
                for m, learned in run_learn(ds, seed=rep, multipliers=[0.0, 1.0, 4.0]).items():
                    gap = learned.breakdown.total - learned.baseline_breakdown.total
                    worst = min(worst, gap)
                    ok &= gap >= 0.0
        report(1, ok, "learned worst-case objective >= baseline on 100 datasets x "
                      f"M in {{0,1,4}} (worst gap {worst:.3e})")


@pytest.fixture(scope="module")
def scenario_a_truth():
    spec = ScenarioSpec("A")
    draws = draw_population(spec, 400_000, seed=77)
    vb = true_value(baseline_policy(spec.design), draws)
    return draws, vb


@pytest.fixture(scope="module")
def scenario_b_truth():
    spec = ScenarioSpec("B")
    draws = draw_population(spec, 400_000, seed=78)
    vb = true_value(baseline_policy(spec.design), draws)
    orc = oracle_policy(spec.design, draws, grid_size=400)
    vo = true_value(orc, draws)
    return draws, vb, vo


class TestCriterion2RegretTrend:
    def test_scenario_a_regret_shrinks_with_n(self, scenario_a_truth):
        draws, vb = scenario_a_truth
        stats = {}
        for n in (1000, 4000, 16000):
            regrets = []
            for rep in range(200):
                ds = generate(ScenarioSpec("A"), n, seed=rep_seed(f"c2-{n}", rep))
                learned = run_learn(ds, seed=rep, multipliers=[1.0])[1.0]
                regrets.append(vb - true_value(learned.policy, draws))
            r = np.asarray(regrets)
            stats[n] = (float(r.mean()), float(r.std(ddof=1) / np.sqrt(r.size)))
        nonneg = all(mean >= -2 * se for mean, se in stats.values())
        drop = stats[1000][0] - stats[16000][0]
        drop_se = float(np.hypot(stats[1000][1], stats[16000][1]))
        shrinks = drop >= drop_se
        detail = ", ".join(f"n={n}: {m:.2e}+-{s:.1e}" for n, (m, s) in stats.items())
        report(2, nonneg and shrinks,
               f"regret >= -2SE everywhere and drops by >=1SE from n=1000 to "
               f"n=16000 ({detail})")


class TestCriterion3Improvement:
    def test_scenario_b_beats_baseline(self, scenario_b_truth):
        draws, vb, vo = scenario_b_truth
        imp1, reg1, reg4 = [], [], []
        for rep in range(200):
            ds = generate(ScenarioSpec("B"), 8000, seed=rep_seed("c3", rep))
            learned = run_learn(ds, seed=rep, multipliers=[1.0, 4.0])
            v1 = true_value(learned[1.0].policy, draws)
            v4 = true_value(learned[4.0].policy, draws)
            imp1.append(v1 - vb)
            reg1.append(vo - v1)
            reg4.append(vo - v4)
        imp1, reg1, reg4 = map(np.asarray, (imp1, reg1, reg4))
        imp_mean = float(imp1.mean())
        imp_se = float(imp1.std(ddof=1) / np.sqrt(imp1.size))
        beats = imp_mean > 2 * imp_se
        d = reg4 - reg1
        d_se = float(d.std(ddof=1) / np.sqrt(d.size))
        oracle_pos = reg1.mean() > 0 and reg4.mean() > 0
        tighter_helps = float(d.mean()) >= d_se
        report(3, beats and oracle_pos and tighter_helps,
               f"V(learned)-V(baseline) = {imp_mean:.2e}+-{imp_se:.1e} > 0 at 2SE; "
               f"oracle regret positive and larger at M=4 by {d.mean():.2e}"
               f" (>= 1SE={d_se:.1e})")


class TestCriterion4Conservatism:
    def test_multiplier_shrinks_deviation(self):
        hits = total = 0
        for rep in range(20):
            ds = generate(ScenarioSpec("B"), 4000, seed=rep_seed("c4", rep))
            learned = run_learn(ds, seed=rep, multipliers=[1.0, 8.0])
            for label, base_cut in ds.design.cutoffs.items():
                d1 = abs(learned[1.0].policy.cutoffs[label] - base_cut)
                d8 = abs(learned[8.0].policy.cutoffs[label] - base_cut)
                hits += d8 <= d1 + 1e-12
                total += 1
        frac = hits / total
        report(4, frac >= 0.9,
               f"|learned - baseline| at M=8 <= at M=1 in {hits}/{total} "
               f"(seed, group) cells ({frac:.0%})")


class TestCriterion5BruteForceEquivalence:
    def test_components_and_search_match_brute_force(self):
        rng = np.random.default_rng(7)
        worst_err = 0.0
        search_ok = True
        for seed in range(100):
            ds, mean_fn, prop_fn = random_toy(seed)
            design = ds.design
            nus = oracle_nuisances(ds, mean_fn, prop_fn)
            cost = float(rng.choice([0.0, 0.4]))
            scores = compute_dr_scores(ds, nus)
            boundary, lam, anchors = random_bounds(design, seed + 10_000)
            bounds = BoundModel(design, boundary, lam)
            base = baseline_policy(design)
            policy = ThresholdPolicy(
                {label: float(rng.uniform(design.c_min, design.c_max))
                 for label in design.groups}, design)
            got = value_breakdown(ds, policy, scores, bounds, cost)
            want = bf_components(ds, policy, base, mean_fn, prop_fn,
                                 bf_lower(boundary, lam, anchors), cost=cost)
            worst_err = max(worst_err, abs(got.iden - want[0]),
                            abs(got.dr - want[1]), abs(got.xi2_worst - want[2]))
            # joint exhaustive search vs per-group argmax on a small grid
            grid = np.linspace(design.c_min, design.c_max, 5)
            per_group = {}
            order = np.argsort(ds.x, kind="stable")
            for label in design.groups:
                ab = _record_contributions(ds, design.rank_of(label), scores, bounds, cost)
                vals = _candidate_values(ds, *ab, order, grid)
                per_group[label] = float(grid[int(np.argmax(vals))])
            best = -np.inf
            for combo in itertools.product(grid, repeat=design.q):
                p = ThresholdPolicy(dict(zip(design.groups, map(float, combo))), design)
                best = max(best, value_breakdown(ds, p, scores, bounds, cost).total)
            sep_total = value_breakdown(
                ds, ThresholdPolicy(per_group, design), scores, bounds, cost).total
            search_ok &= abs(sep_total - best) <= 1e-12
        report(5, worst_err <= 1e-12 and search_ok,
               f"components match brute force on 100 toys (worst error "
               f"{worst_err:.2e}) and per-group search attains the joint optimum")


class TestCriterion6DoubleRobustness:
    def test_dr_component_consistent_under_single_nuisance(self):
        spec = ScenarioSpec("A")
        design = spec.design
        c2 = -700.0
        policy = ThresholdPolicy({1: -850.0, 2: c2}, design)
        # `.dr` does not read the envelopes; these only make the breakdown whole
        zero = {(1, 2, 1): 0.0, (0, 1, 2): 0.0}
        bounds = BoundModel(design, zero, zero)

        def xi1_integrand(x):
            return (1 / 999.0) * norm.cdf((0.01 * x + 5) / 10.0) \
                * float(spec.mean_outcome(1, x, 1))

        xi1, quad_err = integrate.quad(xi1_integrand, c2, -571.0, limit=200)

        def true_mean(x, rank, side):
            w = 1.0 if side == "above" else 0.0
            return spec.mean_outcome(w, x, rank)

        def true_prop(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            p2 = norm.cdf((0.01 * x + 5) / 10.0)
            return np.column_stack([1 - p2, p2])

        def garbage_prop(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            return np.column_stack([np.full(x.size, 0.7), np.full(x.size, 0.3)])

        def zero_mean(x, rank, side):
            return np.zeros_like(np.asarray(x, dtype=float))

        arms = {
            "true mean + garbage propensity": (true_mean, garbage_prop),
            "true propensity + zero mean": (zero_mean, true_prop),
        }
        ok = True
        details = []
        for name, (mean_fn, prop_fn) in arms.items():
            vals = []
            for rep in range(200):
                ds = generate(spec, 8000, seed=rep_seed("c6" + name, rep))
                nus = oracle_nuisances(ds, mean_fn, prop_fn)
                scores = compute_dr_scores(ds, nus)
                vals.append(value_breakdown(ds, policy, scores, bounds).dr)
            vals = np.asarray(vals)
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(vals.size))
            ok &= abs(mean - xi1) <= 2 * se + quad_err
            details.append(f"{name}: {mean:.5f}+-{se:.5f}")
        report(6, ok, f"DR disagreement term matches closed form {xi1:.5f} "
                      f"within 2SE in both arms ({'; '.join(details)})")


class TestCriterion7BoundIdentities:
    def test_width_and_collapse(self):
        rng = np.random.default_rng(123)
        design_cut = 1.0
        design = StudyDesign({1: 0.0, 2: design_cut})
        worst = 0.0
        collapse_ok = True
        for _ in range(1000):
            lam = float(rng.uniform(0, 2))
            x = float(rng.uniform(-3, 3))
            d0 = float(rng.uniform(-5, 5))
            model = BoundModel(design, {(1, 2, 1): d0, (0, 1, 2): 0.0},
                               {(1, 2, 1): lam, (0, 1, 2): 0.0})
            width = model.upper(1, x, 2, 1) - model.lower(1, x, 2, 1)
            worst = max(worst, abs(width - 2 * lam * abs(x - design_cut)))
            zero = BoundModel(design, {(1, 2, 1): d0, (0, 1, 2): 0.0},
                              {(1, 2, 1): 0.0, (0, 1, 2): 0.0})
            collapse_ok &= zero.lower(1, x, 2, 1) == zero.upper(1, x, 2, 1) == d0
        report(7, worst <= 1e-14 and collapse_ok,
               f"envelope width == 2*lambda*|x - anchor| (worst error {worst:.1e}) "
               "and lambda=0 collapses both bounds to the boundary estimate")


class TestCriterion8NonparametricExactness:
    def test_exactness_trio(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(-2, 3, 120))
        ok = True
        # polynomial reproduction at each degree
        for degree in (1, 2):
            coefs = rng.normal(size=degree + 1)
            y = np.polyval(coefs[::-1], x)
            fit = CurveFit(x, y, LocalPolyConfig(degree=degree))
            q = np.linspace(-1.5, 2.5, 30)
            ok &= bool(np.allclose(fit.values(q), np.polyval(coefs[::-1], q), atol=1e-8))
        # one-sided boundary limits ignore wrong-side data bit-exactly
        y = np.where(x >= 0, 1.0 + x, -100.0)
        right = x >= 0
        ok &= boundary_limit(x, y, 0.0, "from_above") == boundary_limit(
            x[right], y[right], 0.0, "from_above")
        # propensity clamp honored on perfectly separated groups
        design = StudyDesign({1: -5.0, 2: 5.0})
        x = np.linspace(-10, 10, 200)
        g = np.where(x < 0, 1, 2)
        ds = Dataset(x, g, (x >= np.where(x < 0, -5.0, 5.0)).astype(int), np.zeros(x.size),
                     design, min_group_size=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = _fit_propensity_arrays(ds.x, ds.rank, ds.design.q, clamp_eps=0.01)
        p = model.probabilities(np.linspace(-10, 10, 201))
        ok &= bool((p >= 0.01 - 1e-12).all() and np.allclose(p.sum(axis=1), 1.0))
        report(8, ok, "local polynomials reproduce polynomials to 1e-8, boundary "
                      "limits are one-sided bit-exactly, propensity clamp holds "
                      "on separated data")


class TestCriterion9Determinism:
    def test_byte_identical_pipeline_outputs(self, tmp_path):
        ds = generate(ScenarioSpec("B"), 1500, seed=33)
        data = tmp_path / "data.csv"
        data.write_text(serialize_dataset(ds))
        design = tmp_path / "design.yaml"
        design.write_text("1: -850\n2: -571\n")
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            rc = cli_main(["learn", "--input", str(data), "--design", str(design),
                           "--out", str(out), "--seed", "17"])
            assert rc == 0
            rc = cli_main(["sensitivity", "--input", str(data), "--design", str(design),
                           "--out", str(out), "--seed", "17",
                           "--multipliers", "0", "1", "4", "--costs", "0", "0.5"])
            assert rc == 0
            outs.append(out)
        files = ["learned_policy.json", "objective_curves.csv",
                 "bound_curves.csv", "sweep.csv"]
        same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                   for f in files)
        report(9, same, "two identically configured and seeded pipeline runs "
                        "produce byte-identical result files")
