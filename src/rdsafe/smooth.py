"""One-dimensional nonparametric estimation.

Triangular-kernel local polynomial regression (values and first derivatives,
including one-sided boundary limits) and a multinomial-logistic group
membership model on a polynomial basis of the standardized running variable.

The one kernel is the triangular K(u) = max(0, 1 - |u|): every fit the
pipeline makes is a value or slope at or next to a boundary, where it is the
MSE-optimal kernel (Cheng, Fan & Marron 1997) and the RD default.

Local fits are evaluated from running sums (the updating idea of Seifert,
Brockmann, Engel & Gasser 1994 and Fan & Marron 1994). The kernel weight is
linear in x on either side of the query, so a query's normal equations
follow from sums of t^k and y t^k over its window, t = (x - centre) / h. The
sums are kept per frame of three blocks one bandwidth wide, measured from the
frame's own centre, so they stay small and precise wherever x lies (x near
-1000 would make raw fourth powers near 1e12). A fit costs O(n) for the sums
and O(log n) per query; windows the sums cannot serve are solved one by one
by `_local_solve`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .core import DataError, EstimationError

# Bandwidth widening schedule for rank-deficient local fits: x1.5 steps, capped at 3x.
_WIDEN_FACTORS = (1.5, 2.25, 3.0)


@dataclass(frozen=True)
class LocalPolyConfig:
    degree: int = 1
    bandwidth: float | Literal["auto"] = "auto"
    # the one kernel; a class attribute, not a field, kept because
    # perfbench/tracer.py reads `fit.config.kernel`
    kernel = "triangular"

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {self.degree}")
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
    return _bandwidth(xs, np.sort(xs), min_points)


def _bandwidth(xs, srt, min_points):
    """`auto_bandwidth` of xs given srt = np.sort(xs). The standard deviation
    stays in the caller's order: summed in sorted order it can move a last bit."""
    n = xs.size
    if n < 5:
        raise EstimationError(f"auto bandwidth needs at least 5 points, got {n}")
    sd = float(np.std(xs))
    q75, q25 = _sorted_quantile(srt, 0.75), _sorted_quantile(srt, 0.25)
    spread = min(sd, (q75 - q25) / 1.349) if q75 > q25 else sd
    if spread <= 0:
        raise EstimationError("cannot pick a bandwidth: all x values are identical")
    h = 1.06 * spread * n ** (-0.2)
    k = min_points
    if n >= k:
        floor = float(np.max(srt[k - 1 :] - srt[: n - k + 1]))
        h = max(h, floor)
    return float(h)


def _sorted_quantile(srt, p):
    """`np.quantile(srt, p)` of sorted, finite srt with at least 2 points, read
    off the order statistics with numpy's linear method and its rounding."""
    v = (srt.size - 1) * p
    i = int(v)
    t = v - i
    a, b = srt[i], srt[i + 1]
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def _local_solve(xtr, ytr, q, degree, h):
    """Single-query weighted polynomial fit centered at q; returns (value, deriv)."""
    for factor in (1.0,) + _WIDEN_FACTORS:
        hh = h * factor
        u = (xtr - q) / hh
        wts = np.maximum(0.0, 1.0 - np.abs(u))
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


# Relative half-width of the bands around q - h and q + h whose points are
# tested with the dense kernel's own arithmetic: 2^-50 (max |q| + h) is at
# least twice what rounding in x - q, in the division by h and in the band
# edges can move a point.
_EDGE_MARGIN = 2.0 ** -50

# Largest condition number of a window's normal equations in powers of t that
# `_moment_solve` accepts; other windows go to `_local_solve`. The solution's
# error grows with it: on random windows of few or clustered points, those
# below 1e5 stayed within 2e-11 of max(|value|, RMS of the window's y), and
# those above 1e6 reached 1e-9.
_MAX_CONDITION = 1e5


class _MomentTable(NamedTuple):
    """Running sums of t^k and y t^k over frames of three blocks.

    Block b holds the training points with floor((x - x[0]) / h) = b. Frame b
    lists the points of blocks b - 1, b and b + 1, with t = (x - centre) / h
    measured from the centre of block b, so |t| <= 1.5 wherever x lies. The
    frames follow each other in one table whose first row is zero; the sums
    over the points i..j-1 of a frame are `sums[:, :, base + j] - sums[:, :,
    base + i]` with that frame's `base`. Each running sum is kept with the
    exact rounding error it has accumulated, so a window's sums are accurate
    to their own size, not to the size of everything summed before them.
    """

    frames: np.ndarray  # sorted block numbers of the frames held
    base: np.ndarray    # per frame: row of the sums before point i is base + i
    centre: np.ndarray  # per frame: x at the centre of its block
    sums: np.ndarray    # (2, columns, rows): running sums, then their errors,
                        # of t^0..t^top and y t^0..y t^ytop


def _moment_table(x, y, h, block, frames, top, ytop) -> _MomentTable:
    first = np.searchsorted(block, frames - 1)
    size = np.searchsorted(block, frames + 1, side="right") - first
    base = np.cumsum(size) - size - first
    centre = x[0] + (frames + 0.5) * h
    point = np.arange(size.sum()) - np.repeat(base, size)
    terms = np.zeros((top + ytop + 2, point.size + 1))
    terms[0, 1:] = 1.0
    terms[1 : top + 1, 1:] = (x[point] - np.repeat(centre, size)) / h
    np.cumprod(terms[: top + 1], axis=0, out=terms[: top + 1])
    np.multiply(terms[: ytop + 1, 1:], y[point], out=terms[top + 1 :, 1:])
    sums = np.empty((2,) + terms.shape)
    total = np.cumsum(terms, axis=1, out=sums[0])
    # the exact rounding error of each addition (Knuth's two-sum), accumulated
    step = total[:, 1:] - total[:, :-1]
    sums[1, :, 0] = 0.0
    sums[1, :, 1:] = (total[:, :-1] - (total[:, 1:] - step)) + (terms[:, 1:] - step)
    np.cumsum(sums[1], axis=1, out=sums[1])
    return _MomentTable(frames, base, centre, sums)


def _band_count(x, q, h, start, stop, test):
    """Per query, the points of x[start:stop] whose (x - q) / h pass `test`."""
    rows = np.flatnonzero(stop > start)
    size = stop[rows] - start[rows]
    owner = np.repeat(rows, size)
    point = np.arange(size.sum()) + np.repeat(start[rows] - (np.cumsum(size) - size), size)
    inside = test((x[point] - q[owner]) / h)
    return np.bincount(owner, weights=inside, minlength=q.size).astype(np.intp)


def _windows(x, q, h):
    """Rows lo, hi and split: the points with triangular weight > 0 are lo..hi-1.

    A point counts exactly when max(0, 1 - |u|) > 0 with u = (x - q) / h,
    that is |u| < 1. Points outside the narrow bands around q - h and q + h
    are placed by comparing x with the band edges; points inside a band are
    tested with the kernel's own arithmetic. split is the first point with
    x >= q; lo <= split <= hi, since u < 0 < 1 left of q and u >= 0 > -1 from
    q on.
    """
    m = _EDGE_MARGIN * (float(np.abs(q).max(initial=0.0)) + h)
    cut = np.searchsorted(x, q + np.array([[-h + m], [h - m], [0.0], [-h - m], [h + m]]))
    ends = cut[:3]
    if (cut[3:] != cut[:2]).any():
        ends[0] -= _band_count(x, q, h, cut[3], cut[0], lambda u: u > -1.0)
        ends[1] += _band_count(x, q, h, cut[1], cut[4], lambda u: u < 1.0)
    return ends


def _moment_solve(table: _MomentTable, q, ends, frame, degree, h):
    """Local fits from a frame's sums between the window ends of each query.

    `ends` holds the rows lo, hi and split of each query's window. The
    triangular-weighted sums of t^k follow from the plain ones, since the
    weight 1 - |t + s|, with s = (centre - q) / h, is linear in t on either
    side of the query. The normal equations are solved in powers of t and
    the fitted polynomial is shifted binomially to the query, t = -s. Queries
    whose equations in t may have a condition number above `_MAX_CONDITION`
    get NaN.
    """
    p = degree + 1
    top = 2 * degree + 1
    rows = table.sums[:, :, ends + table.base[frame]]  # (sum or error, column, end, query)
    diff = rows[:, :, 1:] - rows[:, :, :1]
    sums = diff[0] + diff[1]
    d = sums[:, 0]
    with np.errstate(all="ignore"):
        s = (table.centre[frame] - q) / h
        # kernel-weighted sums of t^k (first rows) and y t^k (from row top + 1):
        # 1 - |u| = (1 - s) - t, plus 2 (s + t) where u < 0
        left = sums[:, 1]
        w = (1.0 - s) * d[:-1] - d[1:] + 2.0 * (s * left[:-1] + left[1:])
        # G c = r with G[i, j] = m[i + j], solved through G = L D L' (positive
        # definite once the window holds p distinct points)
        m, r = w[: 2 * degree + 1], w[top + 1 : top + 1 + p]
        l1 = m[1] / m[0]
        d1 = m[2] - m[1] * l1
        z1 = r[1] - l1 * r[0]
        if p == 2:
            det = m[0] * d1
            slope = z1 / d1
            # the line's value at t = -s
            value = r[0] / m[0] - (l1 + s) * slope
        else:
            l2 = m[2] / m[0]
            l21 = (m[3] - m[2] * l1) / d1
            d2 = m[4] - m[2] * l2 - l21 * l21 * d1
            det = m[0] * d1 * d2
            curve = (r[2] - l2 * r[0] - l21 * z1) / d2
            slope = z1 / d1 - l21 * curve
            value = r[0] / m[0] - l1 * slope - l2 * curve
            # the parabola and its slope at t = -s
            value = value - s * (slope - s * curve)
            slope = slope - 2.0 * s * curve
        # trace^p / det bounds the condition number of G
        trace = m[0] + m[2] + (m[4] if p == 3 else 0.0)
        good = det * _MAX_CONDITION >= trace * trace * (trace if p == 3 else 1.0)
        value = np.where(good, value, np.nan)
        slope = np.where(good, slope, np.nan)
    return value, slope / h


class CurveFit:
    """A triangular-kernel local polynomial regression, evaluated lazily.

    Stores the training points; each query solves the weighted least-squares
    polynomial centered there. `values` returns the intercept, `derivatives`
    the linear coefficient. The first evaluation builds the running sums of
    the frames its queries need (`_MomentTable`); later queries reuse them.
    """

    def __init__(self, x, y, config: LocalPolyConfig | None = None):
        config = config or LocalPolyConfig()
        x = np.ascontiguousarray(x, dtype=float)
        y = np.ascontiguousarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be equal-length 1-d arrays")
        order = np.argsort(x, kind="stable")
        xs = x[order]
        distinct = np.count_nonzero(np.diff(xs)) + min(xs.size, 1)
        if distinct < config.degree + 2:
            raise EstimationError(
                f"need at least {config.degree + 2} distinct x values for a "
                f"degree-{config.degree} local fit, got {distinct}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("training points must be finite")
        if config.bandwidth == "auto":
            h = _bandwidth(x, xs, config.degree + 2)
        else:
            h = float(config.bandwidth)
        self.x = xs
        self.y = y[order]
        self.x.flags.writeable = False
        self.y.flags.writeable = False
        self.config = config
        self.bandwidth = h
        self.support = (float(self.x[0]), float(self.x[-1]))
        # block numbers of the points, and running sums built on first use
        self._block = np.minimum((self.x - self.x[0]) / h, 2.0 ** 62).astype(np.int64)
        self._moments = None

    def _eval(self, queries):
        """Values and derivatives at the queries, each independent of the others.

        A query falls back to `_local_solve` if its window has fewer than
        degree + 2 points, spans more than three blocks, or fails the
        condition test.
        """
        queries = np.atleast_1d(np.asarray(queries, dtype=float))
        # in sorted order the binary searches and table reads run faster
        order = np.argsort(queries)
        q = queries[order]
        x, h = self.x, self.bandwidth
        degree = self.config.degree
        block = self._block
        ends = _windows(x, q, h)
        lo, hi = ends[0], ends[1]
        b_lo, b_mid, b_hi = block[np.minimum(np.stack([lo, (lo + hi) // 2, hi - 1]), x.size - 1)]
        ok = (hi - lo >= degree + 2) & (b_hi - b_lo <= 2)
        # the frame of the block holding the window's middle point, moved
        # inwards when the window reaches into both neighbouring blocks
        frame = np.minimum(np.maximum(b_mid, b_hi - 1), b_lo + 1)
        values = np.full(q.size, np.nan)
        derivs = np.full(q.size, np.nan)
        if ok.any():
            sel = slice(None) if ok.all() else np.flatnonzero(ok)
            frame = frame[sel]
            table = self._moments
            if table is None or (table.frames[np.minimum(np.searchsorted(table.frames, frame),
                                                         table.frames.size - 1)] != frame).any():
                held = frame if table is None else np.concatenate([table.frames, frame])
                table = self._moments = _moment_table(x, self.y, h, block, np.unique(held),
                                                      2 * degree + 1, degree + 1)
            values[sel], derivs[sel] = _moment_solve(table, q[sel], ends[:, sel],
                                                     np.searchsorted(table.frames, frame),
                                                     degree, h)
        for i in np.flatnonzero(~(np.isfinite(values) & np.isfinite(derivs))):
            values[i], derivs[i] = _local_solve(x, self.y, float(q[i]), degree, h)
        fits = np.empty((2, q.size))
        fits[:, order] = values, derivs
        return fits[0], fits[1]

    def values(self, queries) -> np.ndarray:
        vals, _ = self._eval(queries)
        return vals if np.ndim(queries) else float(vals[0])

    def derivatives(self, queries) -> np.ndarray:
        _, der = self._eval(queries)
        return der if np.ndim(queries) else float(der[0])


def boundary_limit(x, y, target: float, side: str) -> float:
    """One-sided local-linear estimate of the curve through (x, y) at `target`.

    Uses only points with x >= target (`from_above`) or x <= target
    (`from_below`); data on the other side cannot influence the result.
    """
    if side not in ("from_above", "from_below"):
        raise ValueError(f"side must be 'from_above' or 'from_below', got {side!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = x >= target if side == "from_above" else x <= target
    try:
        fit = CurveFit(x[keep], y[keep])
    except EstimationError as exc:
        raise EstimationError(f"boundary limit at {target} ({side}): {exc}") from exc
    return fit.values(target)


class PropensityModel:
    """Softmax group-membership probabilities on a polynomial basis of x.

    `coefficients` has one row per rank 1..Q-1 and one column per basis power
    0..degree; rank Q is the reference class. Raw probabilities p are shrunk
    toward the uniform vector, eps + (1 - Q*eps) * p. For 0 < eps < 1/Q,
    which the fit requires, this keeps every component in [eps, 1 - (Q-1)*eps],
    keeps the order of the raw probabilities and keeps the sum exactly 1.
    """

    def __init__(self, coefficients, clamp_eps, x_center, x_scale, loglik_path, converged):
        self.coefficients = np.asarray(coefficients, dtype=float)  # (Q-1, degree+1)
        self.clamp_eps = float(clamp_eps)
        self.x_center = float(x_center)
        self.x_scale = float(x_scale)
        self.loglik_path = tuple(loglik_path)
        self.converged = bool(converged)

    def probabilities(self, x) -> np.ndarray:
        """Clamped probability matrix, one row per query, columns = ranks 1..Q."""
        k, p = self.coefficients.shape
        z = (np.asarray(x, dtype=float) - self.x_center) / self.x_scale
        _, _, probs = _softmax(np.vander(np.atleast_1d(z), p, increasing=True), self.coefficients)
        eps = self.clamp_eps
        return eps + (1.0 - (k + 1) * eps) * probs


def _softmax(b, coef):
    """Class logits on the basis b (the reference class's is 0), their
    log-sum-exp and the class probabilities."""
    logits = np.column_stack([b @ coef.T, np.zeros(b.shape[0])])
    m = logits.max(axis=1, keepdims=True)
    expl = np.exp(logits - m)
    total = expl.sum(axis=1, keepdims=True)
    return logits, m[:, 0] + np.log(total[:, 0]), expl / total


def _multinomial_loglik(b, t, coef):
    """Log-likelihood at `coef` and the class probabilities it was computed from."""
    logits, lse, probs = _softmax(b, coef)
    picked = logits[np.arange(b.shape[0]), t]
    return float(np.sum(picked - lse)), probs


# The membership model's polynomial degree in the standardized x, and the
# Newton iteration's stopping rule: a log-likelihood gain below _TOL, or
# _MAX_ITER steps.
_BASIS_DEGREE = 3
_TOL = 1e-8
_MAX_ITER = 200


def _check_clamp(clamp_eps, q):
    # from 1/Q on, the clamp's slope 1 - Q*eps is <= 0 and reverses the probabilities
    if not 0.0 < clamp_eps < 1.0 / q:
        raise DataError(f"clamp eps must be in (0, 1/Q) = (0, {1.0 / q:.6g}) for "
                        f"Q = {q} groups, got {clamp_eps}")


def _fit_propensity_arrays(x, rank, n_groups, clamp_eps=0.01):
    """Damped Newton maximization of the multinomial log-likelihood on the
    cubic basis of the standardized x.

    The log-likelihood is nondecreasing across iterations by construction
    (step halving); the path is recorded on the returned model.
    """
    x = np.asarray(x, dtype=float)
    rank = np.asarray(rank, dtype=np.int64)
    q = int(n_groups)
    _check_clamp(clamp_eps, q)
    counts = np.bincount(rank, minlength=q + 1)[1:]
    if (counts < _BASIS_DEGREE + 2).any():
        small = int(np.argmin(counts)) + 1
        raise EstimationError(
            f"group rank {small} has {counts[small - 1]} observations, fewer than "
            f"basis degree + 2 = {_BASIS_DEGREE + 2}"
        )
    center = float(np.mean(x))
    scale = float(np.std(x)) or 1.0
    b = np.vander((x - center) / scale, _BASIS_DEGREE + 1, increasing=True)
    n, p = b.shape
    k = q - 1
    t = rank - 1  # classes 0..q-1, reference q-1
    onehot = np.zeros((n, k))
    inclass = t < k
    onehot[np.arange(n)[inclass], t[inclass]] = 1.0

    coef = np.zeros((k, p))
    ll, probs = _multinomial_loglik(b, t, coef)
    path = [ll]
    converged = False
    for _ in range(_MAX_ITER):
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
            ll_new, probs_new = _multinomial_loglik(b, t, cand)
            if ll_new >= ll:
                improved = True
                break
            scale_step *= 0.5
        if not improved:
            # no step raises the log-likelihood within rounding: at the optimum
            # exactly when the Newton decrement g'H^-1g/2 is negligible
            converged = 0.5 * float(grad @ step.ravel()) < _TOL
            break
        coef, probs = cand, probs_new
        path.append(ll_new)
        if ll_new - ll < _TOL:
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
    return PropensityModel(coef, clamp_eps, center, scale, path, converged)
