import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import log_softmax, softmax

from oracles import dense_kernel_weights, dense_local_fit
from rdsafe import smooth
from rdsafe.core import DataError, Dataset, EstimationError, StudyDesign
from rdsafe.estimator import make_folds
from rdsafe.simlab import ScenarioSpec, generate
from rdsafe.smooth import (
    CurveFit,
    LocalPolyConfig,
    _fit_propensity_arrays,
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
    def test_reproduces_linear_exactly(self):
        pts = poly_points([1.5, -2.0])
        fit = CurveFit(pts[:, 0], pts[:, 1], LocalPolyConfig(degree=1))
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
        assert abs(fit.values(0.7) - 4.2) < 1e-8
        assert abs(fit.derivatives(0.7)) < 1e-8

    def test_too_few_distinct_points(self):
        with pytest.raises(EstimationError, match="distinct"):
            CurveFit(np.array([1.0, 1.0, 1.0, 2.0]), np.zeros(4), LocalPolyConfig(degree=2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CurveFit(np.array([1.0, 2.0, 3.0, np.nan]), np.zeros(4))

    def test_triangular_is_the_only_kernel(self):
        assert [f.name for f in dataclasses.fields(LocalPolyConfig)] == ["degree", "bandwidth"]
        assert CurveFit(*poly_points([0.0, 1.0]).T).config.kernel == "triangular"
        with pytest.raises(TypeError):
            LocalPolyConfig(kernel="uniform")

    def test_fixed_bandwidth_used(self):
        pts = poly_points([0.0, 1.0])
        fit = CurveFit(pts[:, 0], pts[:, 1], LocalPolyConfig(bandwidth=0.5))
        assert fit.bandwidth == 0.5

    def test_scalar_query_returns_float(self):
        pts = poly_points([0.0, 1.0])
        fit = CurveFit(pts[:, 0], pts[:, 1])
        assert isinstance(fit.values(1.0), float)
        assert isinstance(fit.derivatives(1.0), float)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_batch_equals_single_queries_bitwise(self, degree):
        rng = np.random.default_rng(4)
        x = rng.uniform(-3.0, 3.0, 3000)
        fit = CurveFit(x, np.sin(x) + rng.normal(0.0, 0.5, x.size), LocalPolyConfig(degree=degree))
        q = rng.uniform(-3.0, 3.0, 600)
        batch = fit.values(q)
        assert [float(v) for v in batch] == [fit.values(v) for v in q]
        assert fit.values(q[::-1]).tolist() == batch[::-1].tolist()

    def test_unsorted_queries_beyond_the_data_keep_their_order(self):
        x = np.linspace(0.0, 10.0, 50)
        fit = CurveFit(x, 2.0 * x, LocalPolyConfig(degree=1, bandwidth=1.0))
        assert np.allclose(fit.values([12.5, 11.2]), [fit.values(12.5), fit.values(11.2)])
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
    want, want_d = dense_local_fit(fit.x, fit.y, q, cfg.degree, h)
    if np.isnan(want).any():
        with pytest.raises(EstimationError):
            fit.values(q)
        return
    got, got_d = fit.values(q), fit.derivatives(q)
    for i, qi in enumerate(q):
        inside = dense_kernel_weights((fit.x - qi) / h) > 0
        rms = float(np.sqrt(np.mean(fit.y[inside] ** 2))) if inside.any() else 0.0
        scale = max(abs(want[i]), rms)
        assert abs(got[i] - want[i]) <= 1e-10 * scale, (qi, got[i], want[i])
        assert abs(got_d[i] - want_d[i]) * h <= 1e-10 * scale, (qi, got_d[i], want_d[i])


def window_range(x, q, h):
    """[lo, hi) of the points the dense kernel weighs, checked to be contiguous."""
    inside = np.flatnonzero(dense_kernel_weights((x - q) / h) > 0)
    if inside.size == 0:
        return None
    assert inside.size == inside[-1] - inside[0] + 1
    return inside[0], inside[-1] + 1


class TestMomentEngine:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 20_000),
           degree=st.sampled_from([1, 2]),
           offset=st.sampled_from([0.0, -1000.0, 1e4]), spread=st.sampled_from([1.0, 40.0, 1e4]),
           ties=st.booleans(), auto=st.booleans(), n_queries=st.integers(1, 60))
    # a case that needs the running sums' error terms
    @example(seed=9890041, n=9422, degree=2, offset=0.0, spread=1.0,
             ties=False, auto=False, n_queries=31)
    # a query beyond the data where an oracle summing row by row was 3e-10 off
    @example(seed=1419, n=18318, degree=2, offset=0.0, spread=1.0,
             ties=True, auto=False, n_queries=13)
    # a query h/4 beyond four clustered points: the normal equations in
    # powers of t are too ill-conditioned for the engine's 1e-10
    @example(seed=671, n=5, degree=2, offset=0.0, spread=1.0,
             ties=True, auto=True, n_queries=1)
    def test_matches_dense_oracle(self, seed, n, degree, offset, spread, ties, auto, n_queries):
        rng = np.random.default_rng(seed)
        x = offset + spread * rng.uniform(0.0, 1.0, n)
        if ties:
            x = offset + np.round((x - offset) * (200.0 / spread)) * (spread / 200.0)
        y = np.sin(6.0 * (x - offset) / spread) + rng.normal(0.0, 0.3, n)
        if np.unique(x).size < max(degree + 2, 5):
            return
        bandwidth = "auto" if auto else float(spread * rng.uniform(0.02, 0.4))
        fit = CurveFit(x, y, LocalPolyConfig(degree=degree, bandwidth=bandwidth))
        # queries up to a quarter bandwidth beyond the data, in random order
        h = fit.bandwidth
        q = rng.uniform(fit.x[0] - h / 4, fit.x[-1] + h / 4, n_queries)
        assert_matches_dense(fit, q)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("start, step", [(-1000.0, 0.1), (-50.0, 0.25)])
    def test_grid_points_on_the_window_edge(self, degree, start, step):
        # h is three grid steps, so |u| = 1 at the points three steps from a
        # query: exactly on the dyadic grid, within rounding on the other
        h = 3 * step
        x = start + step * np.arange(400)
        y = np.cos(x) + 0.01 * (x - start) ** 2
        fit = CurveFit(x, y, LocalPolyConfig(degree=degree, bandwidth=h))
        q = x[::-7].copy()
        for qi in q:
            lo, hi, _ = _windows(fit.x, np.array([qi]), h)
            assert (int(lo[0]), int(hi[0])) == window_range(fit.x, qi, h)
        assert_matches_dense(fit, q)

    def test_tied_x_at_window_edges(self):
        # 25 points each at q - h, q + h and their neighbouring floats
        q, h = -1000.25, 0.5
        edges = [q - h, q + h]
        beside = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
        x = np.concatenate([np.repeat(edges, 25), np.repeat(beside, 25),
                            np.linspace(q - 0.4, q + 0.4, 40)])
        y = np.random.default_rng(0).normal(size=x.size)
        fit = CurveFit(x, y, LocalPolyConfig(degree=2, bandwidth=h))
        queries = np.array([q, np.nextafter(q, np.inf), q - 0.1, q + 0.17])
        for qi in queries:
            lo, hi, split = _windows(fit.x, np.array([qi]), h)
            assert (int(lo[0]), int(hi[0])) == window_range(fit.x, qi, h)
            assert int(split[0]) == int(np.searchsorted(fit.x, qi))
        assert_matches_dense(fit, queries)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e4]),
           offset=st.sampled_from([0.0, -1000.0, 1e4]))
    def test_window_membership_is_the_dense_kernels(self, seed, scale, offset):
        # points one float away from q +- h on either side, with ties
        rng = np.random.default_rng(seed)
        q = offset + scale * rng.uniform(-1.0, 1.0, 8)
        h = scale * float(rng.uniform(0.05, 0.5))
        edges = np.concatenate([q - h, q + h])
        near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
        x = np.sort(np.concatenate([np.repeat(near, 3), edges,
                                    offset + scale * rng.uniform(-1.5, 1.5, 200)]))
        lo, hi, split = _windows(x, q, h)
        for i, qi in enumerate(q):
            want = window_range(x, qi, h) or (lo[i], lo[i])
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

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 5000),
           exponent=st.floats(-6, 6), offset=st.sampled_from([0.0, 1.0, -1e3]),
           levels=st.sampled_from([None, 2, 3, 7, 50]))
    @example(seed=0, n=5, exponent=0.0, offset=0.0, levels=None)
    # an upper quartile where a + (b - a) t and b - (b - a) (1 - t) round apart
    @example(seed=34, n=8, exponent=0.0, offset=0.0, levels=None)
    @example(seed=1, n=4001, exponent=6.0, offset=-1e3, levels=2)
    def test_quartiles_are_numpys_linear_percentiles(self, seed, n, exponent, offset, levels):
        # the bandwidth reads its quartiles off the sorted x; they must be
        # np.percentile's bit for bit, ties and all
        rng = np.random.default_rng(seed)
        scale = 10.0 ** exponent
        z = rng.normal(size=n) if levels is None else rng.integers(0, levels, n).astype(float)
        xs = (z + offset) * scale
        srt = np.sort(xs)
        q75, q25 = np.percentile(srt, [75, 25])
        assert smooth._sorted_quantile(srt, 0.75) == q75
        assert smooth._sorted_quantile(srt, 0.25) == q25
        if srt[0] < srt[-1]:
            sd = float(np.std(xs))
            spread = min(sd, (q75 - q25) / 1.349) if q75 > q25 else sd
            floor = float(np.max(srt[2:] - srt[:-2]))
            assert auto_bandwidth(xs) == max(1.06 * spread * n ** (-0.2), floor)

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
        above = boundary_limit(x, y, 0.0, "from_above")
        # bit-exact: same answer with the left side deleted entirely
        right = x >= 0
        assert above == boundary_limit(x[right], y[right], 0.0, "from_above")
        assert abs(above - 1.0) < 0.1

    def test_sides_differ_across_jump(self):
        x = np.linspace(-1, 1, 400)  # even count: no point exactly at 0
        y = np.where(x > 0, 1.0, 0.0)
        hi = boundary_limit(x, y, 0.0, "from_above")
        lo = boundary_limit(x, y, 0.0, "from_below")
        assert hi == pytest.approx(1.0, abs=1e-6)
        assert lo == pytest.approx(0.0, abs=1e-6)

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            boundary_limit(*poly_points([0.0, 1.0]).T, 0.0, "sideways")

    def test_too_few_points_on_side(self):
        pts = poly_points([0.0, 1.0], lo=-2.0, hi=-0.5)
        with pytest.raises(EstimationError, match="from_above"):
            boundary_limit(*pts.T, 0.0, "from_above")


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

    @pytest.mark.parametrize("q, eps", [(2, 0.5), (3, 1 / 3), (3, 0.4), (4, 0.25), (4, 0.3)])
    def test_clamp_at_or_above_one_over_q_rejected(self, q, eps):
        rng = np.random.default_rng(q)
        x = rng.uniform(-1.0, 1.0, 400)
        with pytest.raises(DataError, match=r"1/Q"):
            _fit_propensity_arrays(x, rng.integers(1, q + 1, x.size), q, clamp_eps=eps)

    def test_clamp_below_one_over_q_keeps_order(self):
        # 1 - Q*eps > 0, so the clamp keeps each row's ranking of the groups
        rng = np.random.default_rng(7)
        x = rng.uniform(-3.0, 3.0, 800)
        rank = np.where(rng.random(x.size) < 0.5, 1 + (x > -1) + (x > 0) + (x > 1),
                        rng.integers(1, 5, x.size))
        q = np.linspace(-3.0, 3.0, 61)
        loose = _fit_propensity_arrays(x, rank, 4, clamp_eps=0.01).probabilities(q)
        tight = _fit_propensity_arrays(x, rank, 4, clamp_eps=0.24).probabilities(q)
        assert (np.argsort(loose, axis=1) == np.argsort(tight, axis=1)).all()
        assert (tight >= 0.24).all() and np.allclose(tight.sum(axis=1), 1.0, atol=1e-12)

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
        ds = generate(ScenarioSpec("A"), 4000, seed=2957271786)
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

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_matches_an_independent_optimiser(self, q):
        # the multinomial logit on the cubic basis of the standardized x, rank Q
        # the reference class, maximised by BFGS from scipy
        rng = np.random.default_rng(20 + q)
        x = rng.uniform(-3.0, 5.0, 1500)
        truth = softmax(np.outer(x, np.linspace(-0.8, 0.8, q)) + np.sin(x)[:, None]
                        * np.arange(q), axis=1)
        rank = 1 + (rng.random(x.size)[:, None] > np.cumsum(truth, axis=1)[:, :-1]).sum(axis=1)
        z = (x - x.mean()) / x.std()
        basis = np.stack([np.ones_like(z), z, z * z, z * z * z], axis=1)
        onehot = np.eye(q)[rank - 1]

        def logits(theta, b):
            return np.column_stack([b @ theta.reshape(q - 1, 4).T, np.zeros(len(b))])

        def negloglik(theta):
            eta = logits(theta, basis)
            resid = onehot - softmax(eta, axis=1)
            return -np.sum(onehot * log_softmax(eta, axis=1)), -(resid[:, :-1].T @ basis).ravel()

        fit = minimize(negloglik, np.zeros(4 * (q - 1)), jac=True, method="BFGS",
                       options={"gtol": 1e-9, "maxiter": 10_000})
        # BFGS may stop on precision loss a little short of a zero gradient
        assert np.linalg.norm(fit.jac) < 1e-4
        eps = 0.01
        queries = np.linspace(-3.0, 5.0, 81)
        zq = (queries - x.mean()) / x.std()
        want = eps + (1 - q * eps) * softmax(
            logits(fit.x, np.stack([np.ones_like(zq), zq, zq * zq, zq * zq * zq], axis=1)),
            axis=1)
        got = _fit_propensity_arrays(x, rank, q, clamp_eps=eps).probabilities(queries)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_tiny_group_rejected(self):
        design = StudyDesign({1: -5.0, 2: 5.0})
        recs = [(float(v), 1, int(v >= -5), 0.0)
                for v in np.linspace(-9, 9, 30)]
        recs += [(6.0, 2, 1, 0.0), (7.0, 2, 1, 0.0)]
        ds = Dataset(*zip(*recs), design, min_group_size=2)
        with pytest.raises(EstimationError, match="fewer"):
            _fit_propensity_arrays(ds.x, ds.rank, ds.design.q)
