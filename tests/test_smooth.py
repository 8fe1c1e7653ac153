import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdsafe.core import Dataset, EstimationError, Record, StudyDesign
from rdsafe.estimator import make_folds
from rdsafe.simlab import ScenarioSpec, generate
from rdsafe.smooth import (
    CurveFit,
    LocalPolyConfig,
    _fit_propensity_arrays,
    auto_bandwidth,
    boundary_limit,
    fit_group_propensity,
    fit_local_poly,
)


def poly_points(coeffs, n=80, lo=-2.0, hi=3.0, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(lo, hi, n))
    y = np.polyval(coeffs[::-1], x)
    return np.column_stack([x, y])


class TestLocalPoly:
    @pytest.mark.parametrize("kernel", ["triangular", "epanechnikov", "uniform"])
    def test_reproduces_linear_exactly(self, kernel):
        pts = poly_points([1.5, -2.0])
        fit = fit_local_poly(pts, LocalPolyConfig(degree=1, kernel=kernel))
        q = np.linspace(-1.5, 2.5, 40)
        assert np.allclose(fit.values(q), 1.5 - 2.0 * q, atol=1e-8)
        assert np.allclose(fit.derivatives(q), -2.0, atol=1e-8)

    def test_reproduces_quadratic_with_degree_2(self):
        pts = poly_points([0.3, 1.0, -0.5])
        fit = fit_local_poly(pts, LocalPolyConfig(degree=2))
        q = np.linspace(-1.5, 2.5, 40)
        truth = 0.3 + 1.0 * q - 0.5 * q * q
        assert np.allclose(fit.values(q), truth, atol=1e-8)
        assert np.allclose(fit.derivatives(q), 1.0 - 1.0 * q, atol=1e-8)

    def test_constant_curve(self):
        pts = poly_points([4.2])
        fit = fit_local_poly(pts, LocalPolyConfig(degree=1))
        assert abs(fit.value(0.7) - 4.2) < 1e-8
        assert abs(fit.derivative(0.7)) < 1e-8

    def test_too_few_distinct_points(self):
        with pytest.raises(EstimationError, match="distinct"):
            CurveFit(np.array([1.0, 1.0, 1.0, 2.0]), np.zeros(4), LocalPolyConfig(degree=2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CurveFit(np.array([1.0, 2.0, 3.0, np.nan]), np.zeros(4))

    def test_fixed_bandwidth_used(self):
        pts = poly_points([0.0, 1.0])
        fit = fit_local_poly(pts, LocalPolyConfig(bandwidth=0.5))
        assert fit.bandwidth == 0.5

    def test_scalar_query_returns_float(self):
        fit = fit_local_poly(poly_points([0.0, 1.0]))
        assert isinstance(fit.value(1.0), float)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_batch_equals_single_queries_bitwise(self, degree):
        rng = np.random.default_rng(4)
        x = rng.uniform(-3.0, 3.0, 3000)
        fit = CurveFit(x, np.sin(x) + rng.normal(0.0, 0.5, x.size), LocalPolyConfig(degree=degree))
        q = rng.uniform(-3.0, 3.0, 600)
        batch = fit.values(q)
        assert [float(v) for v in batch] == [fit.value(v) for v in q]
        assert fit.values(q[::-1]).tolist() == batch[::-1].tolist()

    def test_unsorted_queries_beyond_the_data_keep_their_order(self):
        x = np.linspace(0.0, 10.0, 50)
        fit = CurveFit(x, 2.0 * x, LocalPolyConfig(degree=1, bandwidth=1.0))
        assert np.allclose(fit.values([12.5, 11.2]), [fit.value(12.5), fit.value(11.2)])
        assert np.allclose(fit.values([12.5, 11.2]), [25.0, 22.4])

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-5, 5), b=st.floats(-5, 5), seed=st.integers(0, 1000))
    def test_affine_reproduction_property(self, a, b, seed):
        pts = poly_points([a, b], seed=seed)
        fit = fit_local_poly(pts, LocalPolyConfig(degree=1))
        q = np.linspace(-1.0, 2.0, 11)
        assert np.allclose(fit.values(q), a + b * q, atol=1e-7)


class TestAutoBandwidth:
    def test_matches_rule_of_thumb_with_coverage_floor(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=400)
        sd = np.std(xs)
        q75, q25 = np.percentile(xs, [75, 25])
        rot = 1.06 * min(sd, (q75 - q25) / 1.349) * 400 ** (-0.2)
        srt = np.sort(xs)
        floor = np.max(srt[2:] - srt[:-2])
        assert auto_bandwidth(xs) == pytest.approx(max(rot, floor))

    def test_rule_of_thumb_binds_on_evenly_spaced_data(self):
        xs = np.linspace(0.0, 1.0, 400)
        sd = np.std(xs)
        q75, q25 = np.percentile(xs, [75, 25])
        rot = 1.06 * min(sd, (q75 - q25) / 1.349) * 400 ** (-0.2)
        assert auto_bandwidth(xs) == pytest.approx(rot)

    def test_floor_covers_sparse_gaps(self):
        xs = np.array([0.0, 0.01, 0.02, 0.03, 10.0, 10.01, 10.02])
        h = auto_bandwidth(xs, min_points=3)
        # any query near x=5 must still see 3 points within one bandwidth
        assert h >= 10.0 - 0.02

    def test_identical_points_rejected(self):
        with pytest.raises(EstimationError):
            auto_bandwidth(np.ones(10))

    def test_too_few_points(self):
        with pytest.raises(EstimationError):
            auto_bandwidth(np.arange(4.0))


class TestBoundaryLimit:
    def test_wrong_side_data_cannot_leak(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(-1, 1, 300))
        y = np.where(x >= 0, 1.0 + x, -50.0 + x)  # huge jump at 0
        pts = np.column_stack([x, y])
        above = boundary_limit(pts, 0.0, "from_above")
        # bit-exact: same answer with the left side deleted entirely
        only_right = pts[pts[:, 0] >= 0]
        assert above == boundary_limit(only_right, 0.0, "from_above")
        assert abs(above - 1.0) < 0.1

    def test_sides_differ_across_jump(self):
        x = np.linspace(-1, 1, 400)  # even count: no point exactly at 0
        y = np.where(x > 0, 1.0, 0.0)
        pts = np.column_stack([x, y])
        hi = boundary_limit(pts, 0.0, "from_above")
        lo = boundary_limit(pts, 0.0, "from_below")
        assert hi == pytest.approx(1.0, abs=1e-6)
        assert lo == pytest.approx(0.0, abs=1e-6)

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            boundary_limit(poly_points([0.0, 1.0]), 0.0, "sideways")

    def test_too_few_points_on_side(self):
        pts = poly_points([0.0, 1.0], lo=-2.0, hi=-0.5)
        with pytest.raises(EstimationError, match="from_above"):
            boundary_limit(pts, 0.0, "from_above")


def two_group_dataset(n=300, seed=0, sep=False):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, n)
    if sep:
        g = np.where(x >= 0, 2, 1)  # perfectly separated
    else:
        g = np.where(rng.random(n) < 1 / (1 + np.exp(-0.3 * x)), 2, 1)
    design = StudyDesign({1: -5.0, 2: 5.0})
    cuts = {1: -5.0, 2: 5.0}
    recs = [Record(x=float(xi), g=int(gi), w=int(xi >= cuts[int(gi)]), y=0.0)
            for xi, gi in zip(x, g)]
    return Dataset(recs, design, min_group_size=10)


class TestPropensity:
    def test_probabilities_sum_to_one_and_respect_clamp(self):
        ds = two_group_dataset()
        model = fit_group_propensity(ds, clamp_eps=0.01)
        p = model.probabilities(np.linspace(-10, 10, 101))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p >= 0.01 - 1e-12).all() and (p <= 0.99 + 1e-12).all()

    def test_clamp_honored_on_separated_data(self):
        ds = two_group_dataset(sep=True)
        with warnings.catch_warnings():
            # divergent coefficients may or may not trip the convergence warning
            warnings.simplefilter("ignore", RuntimeWarning)
            model = fit_group_propensity(ds, clamp_eps=0.02)
        p = model.probabilities(np.array([-10.0, 10.0]))
        assert (p >= 0.02 - 1e-12).all()
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_loglik_path_monotone(self):
        ds = two_group_dataset()
        model = fit_group_propensity(ds)
        path = np.asarray(model.loglik_path)
        assert (np.diff(path) >= -1e-9).all()
        assert model.converged

    def test_converged_when_no_step_can_improve(self):
        # the acceptance regret data for n=4000, replication 6, fold 1: after
        # a last gain of 1e-5 no damped step raises the log-likelihood within
        # rounding, though the Newton decrement is about 1e-13
        ds = generate(ScenarioSpec(scenario="A", n=4000), seed=2957271786)
        train = make_folds(ds, 5, seed=6).fold_of != 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = _fit_propensity_arrays(ds.x[train], ds.rank[train], 2)
        assert model.converged

    def test_recovers_logistic_truth(self):
        ds = two_group_dataset(n=4000, seed=1)
        model = fit_group_propensity(ds)
        x = np.linspace(-8, 8, 41)
        truth = 1 / (1 + np.exp(-0.3 * x))
        est = model.probabilities(x)[:, 1]
        assert np.max(np.abs(est - truth)) < 0.06

    def test_tiny_group_rejected(self):
        design = StudyDesign({1: -5.0, 2: 5.0})
        recs = [Record(x=float(v), g=1, w=int(v >= -5), y=0.0)
                for v in np.linspace(-9, 9, 30)]
        recs += [Record(x=6.0, g=2, w=1, y=0.0), Record(x=7.0, g=2, w=1, y=0.0)]
        ds = Dataset(recs, design, min_group_size=2)
        with pytest.raises(EstimationError, match="fewer"):
            fit_group_propensity(ds)
