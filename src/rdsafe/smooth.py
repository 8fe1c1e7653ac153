"""One-dimensional nonparametric estimation.

Kernel-weighted local polynomial regression (values and first derivatives,
including one-sided boundary limits) and a multinomial-logistic group
membership model on a polynomial basis of the standardized running variable.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import Dataset, EstimationError

KERNELS = ("triangular", "epanechnikov", "uniform")

# Bandwidth widening schedule for rank-deficient local fits: x1.5 steps, capped at 3x.
_WIDEN_FACTORS = (1.5, 2.25, 3.0)


def _kernel_weights(u: np.ndarray, kernel: str) -> np.ndarray:
    a = np.abs(u)
    if kernel == "triangular":
        return np.maximum(0.0, 1.0 - a)
    if kernel == "epanechnikov":
        return np.maximum(0.0, 0.75 * (1.0 - u * u))
    if kernel == "uniform":
        return np.where(a <= 1.0, 0.5, 0.0)
    raise ValueError(f"unknown kernel {kernel!r}; choose one of {KERNELS}")


@dataclass(frozen=True)
class LocalPolyConfig:
    degree: int = 1
    kernel: str = "triangular"
    bandwidth: float | Literal["auto"] = "auto"

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {self.degree}")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; choose one of {KERNELS}")
        if self.bandwidth != "auto":
            bw = float(self.bandwidth)
            if not np.isfinite(bw) or bw <= 0:
                raise ValueError(f"bandwidth must be positive, got {self.bandwidth!r}")


def auto_bandwidth(xs, min_points: int = 3) -> float:
    """Rule-of-thumb bandwidth 1.06 * min(sd, IQR/1.349) * n^(-1/5).

    Floored so that any query inside the support finds at least `min_points`
    points within one bandwidth (guaranteed by covering the support with
    windows of `min_points` consecutive order statistics).
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    if n < 5:
        raise EstimationError(f"auto bandwidth needs at least 5 points, got {n}")
    sd = float(np.std(xs))
    q75, q25 = np.percentile(xs, [75, 25])
    spread = min(sd, (q75 - q25) / 1.349) if q75 > q25 else sd
    if spread <= 0:
        raise EstimationError("cannot pick a bandwidth: all x values are identical")
    h = 1.06 * spread * n ** (-0.2)
    srt = np.sort(xs)
    k = min_points
    if n >= k:
        floor = float(np.max(srt[k - 1 :] - srt[: n - k + 1]))
        h = max(h, floor)
    return float(h)


def _local_solve(xtr, ytr, q, degree, kernel, h):
    """Single-query weighted polynomial fit centered at q; returns (value, deriv)."""
    for factor in (1.0,) + _WIDEN_FACTORS:
        hh = h * factor
        u = (xtr - q) / hh
        wts = _kernel_weights(u, kernel)
        active = wts > 0
        if active.sum() < degree + 2 or np.unique(xtr[active]).size < degree + 1:
            continue
        basis = np.vander(u[active], degree + 1, increasing=True)
        sw = np.sqrt(wts[active])
        a = basis * sw[:, None]
        b = ytr[active] * sw
        try:
            beta, *_ = np.linalg.lstsq(a, b, rcond=None)
            gram = a.T @ a
            if np.linalg.cond(gram) > 1e12:
                continue
        except np.linalg.LinAlgError:
            continue
        return float(beta[0]), float(beta[1] / hh)
    raise EstimationError(
        f"local fit at x={q} is rank deficient: fewer than {degree + 2} usable "
        f"points even after widening the bandwidth to {h * _WIDEN_FACTORS[-1]:g}"
    )


def _window_sum(terms: np.ndarray) -> np.ndarray:
    """Column sums of a (window, queries) array, each added in row order.

    Zero-weight rows then add exact zeros, so a query's normal equations do
    not depend on which other queries share its window. A single column is
    accumulated explicitly: reducing it directly would sum it pairwise.
    """
    if terms.shape[1] == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


def _local_batch(xtr, ytr, queries, degree, kernel, h, chunk=256):
    """Vectorized local fits; falls back to per-query widening where needed.

    Queries are processed in sorted chunks so each chunk only sees the
    training window its kernels can reach (support is |x - q| <= h, and the
    widening fallback handles the rare windows that come up short).
    """
    nq = queries.size
    values = np.empty(nq)
    derivs = np.empty(nq)
    p = degree + 1
    order = np.argsort(queries, kind="stable")
    sq = queries[order]
    for start in range(0, nq, chunk):
        q = sq[start : start + chunk]
        lo = np.searchsorted(xtr, q[0] - h, side="left")
        hi = np.searchsorted(xtr, q[-1] + h, side="right")
        xw = xtr[lo:hi]
        yw = ytr[lo:hi]
        if xw.size == 0:
            for i in range(q.size):
                values[order[start + i]], derivs[order[start + i]] = _local_solve(
                    xtr, ytr, float(q[i]), degree, kernel, h
                )
            continue
        # window points run down axis 0, one query per column
        u = (xw[:, None] - q[None, :]) / h
        wts = _kernel_weights(u, kernel)
        counts = (wts > 0).sum(axis=0)
        powers = [u]
        for _ in range(2, p):
            powers.append(powers[-1] * u)
        weighted = [wts] + [b * wts for b in powers]  # basis_i * w
        gram = np.empty((q.size, p, p))
        rhs = np.empty((q.size, p))
        for i, bw in enumerate(weighted):
            rhs[:, i] = _window_sum(bw * yw[:, None])
            gram[:, i, 0] = _window_sum(bw)
            for j, b in enumerate(powers, start=1):
                gram[:, i, j] = _window_sum(bw * b)
        ok = counts >= degree + 2
        beta = np.full((q.size, p), np.nan)
        if ok.any():
            with np.errstate(all="ignore"):
                try:
                    sol = np.linalg.solve(gram[ok], rhs[ok][..., None])[..., 0]
                except np.linalg.LinAlgError:
                    sol = None
            if sol is not None:
                beta[ok] = sol
        bad = ~np.isfinite(beta).all(axis=1)
        # near-singular solves can sneak through np.linalg.solve; re-check magnitude
        with np.errstate(all="ignore"):
            cond_bad = np.abs(np.linalg.det(gram)) < 1e-12 * np.abs(gram[:, 0, 0]) ** p
        bad |= cond_bad
        for i in np.flatnonzero(bad):
            values[order[start + i]], derivs[order[start + i]] = _local_solve(
                xtr, ytr, float(q[i]), degree, kernel, h
            )
        good = np.flatnonzero(~bad)
        values[order[start + good]] = beta[~bad, 0]
        derivs[order[start + good]] = beta[~bad, 1] / h
    return values, derivs


class CurveFit:
    """A kernel-weighted local polynomial regression, evaluated lazily.

    Stores the training points; each query solves the weighted least-squares
    polynomial centered there. `values` returns the intercept, `derivatives`
    the linear coefficient.
    """

    def __init__(self, x, y, config: LocalPolyConfig | None = None):
        config = config or LocalPolyConfig()
        x = np.ascontiguousarray(x, dtype=float)
        y = np.ascontiguousarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be equal-length 1-d arrays")
        if np.unique(x).size < config.degree + 2:
            raise EstimationError(
                f"need at least {config.degree + 2} distinct x values for a "
                f"degree-{config.degree} local fit, got {np.unique(x).size}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("training points must be finite")
        if config.bandwidth == "auto":
            h = auto_bandwidth(x, min_points=config.degree + 2)
        else:
            h = float(config.bandwidth)
        order = np.argsort(x, kind="stable")
        self.x = x[order]
        self.y = y[order]
        self.x.flags.writeable = False
        self.y.flags.writeable = False
        self.config = config
        self.bandwidth = h
        self.support = (float(self.x[0]), float(self.x[-1]))

    def _eval(self, queries):
        q = np.atleast_1d(np.asarray(queries, dtype=float))
        return _local_batch(self.x, self.y, q, self.config.degree, self.config.kernel, self.bandwidth)

    def values(self, queries) -> np.ndarray:
        vals, _ = self._eval(queries)
        return vals if np.ndim(queries) else float(vals[0])

    def derivatives(self, queries) -> np.ndarray:
        _, der = self._eval(queries)
        return der if np.ndim(queries) else float(der[0])

    def value(self, q: float) -> float:
        return self.values(float(q))

    def derivative(self, q: float) -> float:
        return self.derivatives(float(q))


def fit_local_poly(points, config: LocalPolyConfig | None = None) -> CurveFit:
    """Fit a local polynomial smoother to (x, y) pairs."""
    pts = np.asarray(points, dtype=float)
    return CurveFit(pts[:, 0], pts[:, 1], config)


def boundary_limit(points, target: float, side: str, config: LocalPolyConfig | None = None) -> float:
    """One-sided local estimate of the curve value at `target`.

    Uses only points with x >= target (`from_above`) or x <= target
    (`from_below`); data on the other side cannot influence the result.
    """
    if side not in ("from_above", "from_below"):
        raise ValueError(f"side must be 'from_above' or 'from_below', got {side!r}")
    pts = np.asarray(points, dtype=float)
    mask = pts[:, 0] >= target if side == "from_above" else pts[:, 0] <= target
    config = config or LocalPolyConfig()
    kept = pts[mask]
    n_distinct = np.unique(kept[:, 0]).size if kept.size else 0
    if n_distinct < config.degree + 2:
        raise EstimationError(
            f"boundary limit at {target} ({side}): only {n_distinct} distinct x values "
            f"on that side, need at least {config.degree + 2}"
        )
    fit = CurveFit(kept[:, 0], kept[:, 1], config)
    return fit.value(target)


class PropensityModel:
    """Softmax group-membership probabilities on a polynomial basis of x.

    Rank Q is the reference class. Raw probabilities are shrunk toward the
    uniform vector, eps + (1 - Q*eps) * p, which keeps every component in
    [eps, 1 - eps] and the sum exactly 1.
    """

    def __init__(self, coefficients, basis_degree, clamp_eps, x_center, x_scale, n_groups,
                 loglik_path=None, converged=True):
        self.coefficients = np.asarray(coefficients, dtype=float)  # (Q-1, degree+1)
        self.basis_degree = basis_degree
        self.clamp_eps = float(clamp_eps)
        self.x_center = float(x_center)
        self.x_scale = float(x_scale)
        self.n_groups = int(n_groups)
        self.loglik_path = tuple(loglik_path or ())
        self.converged = bool(converged)

    def _basis(self, x):
        z = (np.asarray(x, dtype=float) - self.x_center) / self.x_scale
        return np.vander(np.atleast_1d(z), self.basis_degree + 1, increasing=True)

    def raw_probabilities(self, x) -> np.ndarray:
        """Unclamped probability matrix, one row per query, columns = ranks 1..Q."""
        b = self._basis(x)
        logits = np.column_stack([b @ self.coefficients.T, np.zeros(b.shape[0])])
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        return expl / expl.sum(axis=1, keepdims=True)

    def probabilities(self, x) -> np.ndarray:
        eps = self.clamp_eps
        p = self.raw_probabilities(x)
        return eps + (1.0 - self.n_groups * eps) * p


def _multinomial_loglik(b, t, coef):
    logits = np.column_stack([b @ coef.T, np.zeros(b.shape[0])])
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    picked = logits[np.arange(b.shape[0]), t]
    return float(np.sum(picked - lse))


def _fit_propensity_arrays(x, rank, n_groups, basis_degree=3, clamp_eps=0.01,
                           tol=1e-8, max_iter=200):
    """Damped Newton maximization of the multinomial log-likelihood.

    The log-likelihood is nondecreasing across iterations by construction
    (step halving); the path is recorded on the returned model.
    """
    x = np.asarray(x, dtype=float)
    rank = np.asarray(rank, dtype=np.int64)
    if not 0.0 < clamp_eps < 0.5:
        raise ValueError(f"clamp eps must be in (0, 0.5), got {clamp_eps}")
    q = int(n_groups)
    counts = np.bincount(rank, minlength=q + 1)[1:]
    if (counts < basis_degree + 2).any():
        small = int(np.argmin(counts)) + 1
        raise EstimationError(
            f"group rank {small} has {counts[small - 1]} observations, fewer than "
            f"basis degree + 2 = {basis_degree + 2}"
        )
    center = float(np.mean(x))
    scale = float(np.std(x)) or 1.0
    b = np.vander((x - center) / scale, basis_degree + 1, increasing=True)
    n, p = b.shape
    k = q - 1
    t = rank - 1  # classes 0..q-1, reference q-1
    onehot = np.zeros((n, k))
    inclass = t < k
    onehot[np.arange(n)[inclass], t[inclass]] = 1.0

    coef = np.zeros((k, p))
    ll = _multinomial_loglik(b, t, coef)
    path = [ll]
    converged = False
    for _ in range(max_iter):
        logits = np.column_stack([b @ coef.T, np.zeros(n)])
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        probs = expl / expl.sum(axis=1, keepdims=True)
        pk = probs[:, :k]
        grad = ((onehot - pk)[:, :, None] * b[:, None, :]).sum(axis=0).ravel()
        hess = np.zeros((k * p, k * p))
        for a in range(k):
            for c in range(k):
                wab = pk[:, a] * ((a == c) - pk[:, c])
                block = (b * wab[:, None]).T @ b
                hess[a * p : (a + 1) * p, c * p : (c + 1) * p] = block
        hess[np.diag_indices_from(hess)] += 1e-10  # ridge for separated data
        try:
            step = np.linalg.solve(hess, grad).reshape(k, p)
        except np.linalg.LinAlgError:
            break
        scale_step = 1.0
        improved = False
        for _ in range(30):
            cand = coef + scale_step * step
            ll_new = _multinomial_loglik(b, t, cand)
            if ll_new >= ll:
                improved = True
                break
            scale_step *= 0.5
        if not improved:
            # no step raises the log-likelihood within rounding: at the optimum
            # exactly when the Newton decrement g'H^-1g/2 is negligible
            converged = 0.5 * float(grad @ step.ravel()) < tol
            break
        coef = cand
        path.append(ll_new)
        if ll_new - ll < tol:
            ll = ll_new
            converged = True
            break
        ll = ll_new
    if not converged:
        warnings.warn(
            "group-propensity fit did not converge; returning the best iterate "
            "(clamping still bounds the output probabilities)",
            RuntimeWarning,
            stacklevel=3,
        )
    return PropensityModel(coef, basis_degree, clamp_eps, center, scale, q,
                           loglik_path=path, converged=converged)


def fit_group_propensity(dataset: Dataset, basis_degree: int = 3, clamp_eps: float = 0.01) -> PropensityModel:
    """Fit P(G = g | X = x) by multinomial logistic regression on standardized x."""
    return _fit_propensity_arrays(dataset.x, dataset.rank, dataset.design.q,
                                  basis_degree=basis_degree, clamp_eps=clamp_eps)
