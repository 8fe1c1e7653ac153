import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dense_local_fit
from rdsafe import smooth
from rdsafe.core import Dataset, EstimationError, StudyDesign
from rdsafe.estimator import make_folds
from rdsafe.simlab import ScenarioSpec, generate
from rdsafe.smooth import (
    KERNELS,
    CurveFit,
    LocalPolyConfig,
    _fit_propensity_arrays,
    _kernel_weights,
    _windows,
    auto_bandwidth,
    boundary_limit,
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
        fit = CurveFit(pts[:, 0], pts[:, 1], LocalPolyConfig(degree=1, kernel=kernel))
        q = np.linspace(-1.5, 2.5, 40)
        assert np.allclose(fit.values(q), 1.5 - 2.0 * q, atol=1e-8)
        assert np.allclose(fit.derivatives(q), -2.0, atol=1e-8)

    def test_reproduces_quadratic_with_degree_2(self):
        pts = poly_points([0.3, 1.0, -0.5])
        fit = CurveFit(pts[:, 0], pts[:, 1], LocalPolyConfig(degree=2))
        q = np.linspace(-1.5, 2.5, 40)
        truth = 0.3 + 1.0 * q - 0.5 * q * q
        assert np.allclose(fit.values(q), truth, atol=1e-8)
        assert np.allclose(fit.derivatives(q), 1.0 - 1.0 * q, atol=1e-8)

    def test_constant_curve(self):
        pts = poly_points([4.2])
        fit = CurveFit(pts[:, 0], pts[:, 1], LocalPolyConfig(degree=1))
        assert abs(fit.value(0.7) - 4.2) < 1e-8
        assert abs(fit.derivatives(0.7)) < 1e-8

    def test_too_few_distinct_points(self):
        with pytest.raises(EstimationError, match="distinct"):
            CurveFit(np.array([1.0, 1.0, 1.0, 2.0]), np.zeros(4), LocalPolyConfig(degree=2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CurveFit(np.array([1.0, 2.0, 3.0, np.nan]), np.zeros(4))

    def test_fixed_bandwidth_used(self):
        pts = poly_points([0.0, 1.0])
        fit = CurveFit(pts[:, 0], pts[:, 1], LocalPolyConfig(bandwidth=0.5))
        assert fit.bandwidth == 0.5

    def test_scalar_query_returns_float(self):
        pts = poly_points([0.0, 1.0])
        fit = CurveFit(pts[:, 0], pts[:, 1])
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
        fit = CurveFit(pts[:, 0], pts[:, 1], LocalPolyConfig(degree=1))
        q = np.linspace(-1.0, 2.0, 11)
        assert np.allclose(fit.values(q), a + b * q, atol=1e-7)


def assert_matches_dense(fit, q):
    """Values and derivatives agree with the dense oracle within 1e-10 relative.

    The scale is max(|value|, RMS of y over the query's kernel window);
    derivatives are compared as derivative * bandwidth.
    """
    cfg, h = fit.config, fit.bandwidth
    want, want_d = dense_local_fit(fit.x, fit.y, q, cfg.degree, cfg.kernel, h)
    if np.isnan(want).any():
        with pytest.raises(EstimationError):
            fit.values(q)
        return
    got, got_d = fit.values(q), fit.derivatives(q)
    for i, qi in enumerate(q):
        inside = _kernel_weights((fit.x - qi) / h, cfg.kernel) > 0
        rms = float(np.sqrt(np.mean(fit.y[inside] ** 2))) if inside.any() else 0.0
        scale = max(abs(want[i]), rms)
        assert abs(got[i] - want[i]) <= 1e-10 * scale, (qi, got[i], want[i])
        assert abs(got_d[i] - want_d[i]) * h <= 1e-10 * scale, (qi, got_d[i], want_d[i])


def window_range(x, q, h, kernel):
    """[lo, hi) of the points the dense kernel weighs, checked to be contiguous."""
    inside = np.flatnonzero(_kernel_weights((x - q) / h, kernel) > 0)
    if inside.size == 0:
        return None
    assert inside.size == inside[-1] - inside[0] + 1
    return inside[0], inside[-1] + 1


class TestMomentEngine:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 20_000),
           degree=st.sampled_from([1, 2]), kernel=st.sampled_from(KERNELS),
           offset=st.sampled_from([0.0, -1000.0, 1e4]), spread=st.sampled_from([1.0, 40.0, 1e4]),
           ties=st.booleans(), auto=st.booleans(), n_queries=st.integers(1, 60))
    # a case that needs the running sums' error terms
    @example(seed=9890041, n=9422, degree=2, kernel="triangular", offset=0.0, spread=1.0,
             ties=False, auto=False, n_queries=31)
    def test_matches_dense_oracle(self, seed, n, degree, kernel, offset, spread, ties, auto,
                                  n_queries):
        rng = np.random.default_rng(seed)
        x = offset + spread * rng.uniform(0.0, 1.0, n)
        if ties:
            x = offset + np.round((x - offset) * (200.0 / spread)) * (spread / 200.0)
        y = np.sin(6.0 * (x - offset) / spread) + rng.normal(0.0, 0.3, n)
        if np.unique(x).size < max(degree + 2, 5):
            return
        bandwidth = "auto" if auto else float(spread * rng.uniform(0.02, 0.4))
        fit = CurveFit(x, y, LocalPolyConfig(degree=degree, kernel=kernel, bandwidth=bandwidth))
        # queries up to a quarter bandwidth beyond the data, in random order
        h = fit.bandwidth
        q = rng.uniform(fit.x[0] - h / 4, fit.x[-1] + h / 4, n_queries)
        assert_matches_dense(fit, q)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("start, step", [(-1000.0, 0.1), (-50.0, 0.25)])
    def test_grid_points_on_the_window_edge(self, kernel, degree, start, step):
        # h is three grid steps, so |u| = 1 at the points three steps from a
        # query: exactly on the dyadic grid, within rounding on the other
        h = 3 * step
        x = start + step * np.arange(400)
        y = np.cos(x) + 0.01 * (x - start) ** 2
        fit = CurveFit(x, y, LocalPolyConfig(degree=degree, kernel=kernel, bandwidth=h))
        q = x[::-7].copy()
        for qi in q:
            lo, hi, _ = _windows(fit.x, np.array([qi]), h, kernel)
            assert (int(lo[0]), int(hi[0])) == window_range(fit.x, qi, h, kernel)
        assert_matches_dense(fit, q)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tied_x_at_window_edges(self, kernel):
        # 25 points each at q - h, q + h and their neighbouring floats
        q, h = -1000.25, 0.5
        edges = [q - h, q + h]
        beside = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
        x = np.concatenate([np.repeat(edges, 25), np.repeat(beside, 25),
                            np.linspace(q - 0.4, q + 0.4, 40)])
        y = np.random.default_rng(0).normal(size=x.size)
        fit = CurveFit(x, y, LocalPolyConfig(degree=2, kernel=kernel, bandwidth=h))
        queries = np.array([q, np.nextafter(q, np.inf), q - 0.1, q + 0.17])
        for qi in queries:
            lo, hi, split = _windows(fit.x, np.array([qi]), h, kernel)
            assert (int(lo[0]), int(hi[0])) == window_range(fit.x, qi, h, kernel)
            assert int(split[0]) == int(np.searchsorted(fit.x, qi))
        assert_matches_dense(fit, queries)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kernel=st.sampled_from(KERNELS),
           scale=st.sampled_from([1e-3, 1.0, 1e4]), offset=st.sampled_from([0.0, -1000.0, 1e4]))
    def test_window_membership_is_the_dense_kernels(self, seed, kernel, scale, offset):
        # points one float away from q +- h on either side, with ties
        rng = np.random.default_rng(seed)
        q = offset + scale * rng.uniform(-1.0, 1.0, 8)
        h = scale * float(rng.uniform(0.05, 0.5))
        edges = np.concatenate([q - h, q + h])
        near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
        x = np.sort(np.concatenate([np.repeat(near, 3), edges,
                                    offset + scale * rng.uniform(-1.5, 1.5, 200)]))
        lo, hi, split = _windows(x, q, h, kernel)
        for i, qi in enumerate(q):
            want = window_range(x, qi, h, kernel) or (lo[i], lo[i])
            assert (lo[i], hi[i]) == want
            assert split[i] == np.searchsorted(x, qi)

    def test_queries_beyond_reach_raise(self):
        x = np.linspace(0.0, 1.0, 50)
        fit = CurveFit(x, x * x, LocalPolyConfig(degree=1, bandwidth=0.1))
        with pytest.raises(EstimationError, match="rank deficient"):
            fit.values([0.5, 1.5])
        assert_matches_dense(fit, np.array([1.05, -0.2, 0.5]))

    def test_singular_queries_alone_fall_back(self, monkeypatch):
        # more than h away from the other points: four tied points at 12,
        # whose query has an exactly singular Gram matrix, and four within
        # 3e-7 of -2, whose query fails the determinant test; the other 500
        # queries need no fallback
        x = np.concatenate([np.linspace(0.0, 10.0, 200), np.full(4, 12.0),
                            -2.0 + 1e-7 * np.arange(4)])
        fit = CurveFit(x, np.sin(x), LocalPolyConfig(degree=1, bandwidth=1.0))
        q = np.concatenate([np.linspace(0.5, 9.5, 500), [12.0, -2.0]])
        calls = []
        solve = smooth._local_solve

        def counted(*args):
            calls.append(args[2])
            return solve(*args)

        monkeypatch.setattr(smooth, "_local_solve", counted)
        fit.values(q)
        assert sorted(calls) == [-2.0, 12.0]
        assert_matches_dense(fit, q)


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
    w = (x >= np.where(g == 1, -5.0, 5.0)).astype(int)
    return Dataset(x, g, w, np.zeros(n), design, min_group_size=10)


class TestPropensity:
    def test_probabilities_sum_to_one_and_respect_clamp(self):
        ds = two_group_dataset()
        model = _fit_propensity_arrays(ds.x, ds.rank, ds.design.q, clamp_eps=0.01)
        p = model.probabilities(np.linspace(-10, 10, 101))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p >= 0.01 - 1e-12).all() and (p <= 0.99 + 1e-12).all()

    def test_clamp_honored_on_separated_data(self):
        ds = two_group_dataset(sep=True)
        with warnings.catch_warnings():
            # divergent coefficients may or may not trip the convergence warning
            warnings.simplefilter("ignore", RuntimeWarning)
            model = _fit_propensity_arrays(ds.x, ds.rank, ds.design.q, clamp_eps=0.02)
        p = model.probabilities(np.array([-10.0, 10.0]))
        assert (p >= 0.02 - 1e-12).all()
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_loglik_path_monotone(self):
        ds = two_group_dataset()
        model = _fit_propensity_arrays(ds.x, ds.rank, ds.design.q)
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
        model = _fit_propensity_arrays(ds.x, ds.rank, ds.design.q)
        x = np.linspace(-8, 8, 41)
        truth = 1 / (1 + np.exp(-0.3 * x))
        est = model.probabilities(x)[:, 1]
        assert np.max(np.abs(est - truth)) < 0.06

    def test_tiny_group_rejected(self):
        design = StudyDesign({1: -5.0, 2: 5.0})
        recs = [(float(v), 1, int(v >= -5), 0.0)
                for v in np.linspace(-9, 9, 30)]
        recs += [(6.0, 2, 1, 0.0), (7.0, 2, 1, 0.0)]
        ds = Dataset(*zip(*recs), design, min_group_size=2)
        with pytest.raises(EstimationError, match="fewer"):
            _fit_propensity_arrays(ds.x, ds.rank, ds.design.q)
