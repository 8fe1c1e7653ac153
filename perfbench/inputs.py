"""Input generators for the benchmark workloads.

The data-generating processes are written here from their formulas (see
README.md), not taken from `rdsafe.simlab`, so the output checks can compare
the program against arrays it never produced.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

X_LO, X_HI = -1000.0, -1.0
NOISE_SD = 0.3

# Scenario B outcome polynomials in raw powers of x, by treatment arm.
GAMMA1 = np.array([0.96, 5.31e-4, 1.10e-6, 1.15e-9])
GAMMA0 = np.array([-1.94, -1.00e-2, -1.20e-5, -4.59e-9])


@dataclass(frozen=True)
class Arrays:
    """One generated dataset: running variable, group label, treatment, outcome."""

    x: np.ndarray
    g: np.ndarray
    w: np.ndarray
    y: np.ndarray
    cutoffs: dict  # group label -> baseline cutoff


def _poly(w, x):
    powers = np.stack([np.ones_like(x), x, x * x, x * x * x], axis=-1)
    return np.where(w == 1, powers @ GAMMA1, powers @ GAMMA0)


def scenario_b(n: int, seed: int) -> Arrays:
    """Two groups, cutoffs -850 / -571; group 2 iff 0.01 x + 5 + N(0, 10^2) > 0."""
    rng = np.random.default_rng([seed, 1])
    cutoffs = {1: -850.0, 2: -571.0}
    x = rng.uniform(X_LO, X_HI, size=n)
    g = np.where(0.01 * x + 5.0 + rng.normal(0.0, 10.0, size=n) > 0, 2, 1)
    w = (x >= np.where(g == 2, cutoffs[2], cutoffs[1])).astype(np.int64)
    d = 0.2 + np.exp(0.01 * x) - 0.1 * (1 - w)
    y = _poly(w, x) - np.where(g == 1, d, 0.0) + rng.normal(0.0, NOISE_SD, size=n)
    return Arrays(x, g, w, y, cutoffs)


def multi_group(n: int, q: int, seed: int) -> Arrays:
    """Q groups with cutoffs evenly spaced over -850..-571.

    Membership is a multinomial logit in z = (x + 500) / 250 with slopes
    evenly spaced over -0.6..0.6; outcomes are the scenario B polynomial plus
    the smooth group shift (k - 1) (0.1 + 0.05 sin(x / 200)) - 0.03 k w.
    """
    rng = np.random.default_rng([seed, 2])
    cuts = np.linspace(-850.0, -571.0, q)
    cutoffs = {k + 1: float(c) for k, c in enumerate(cuts)}
    x = rng.uniform(X_LO, X_HI, size=n)
    slopes = np.linspace(-0.6, 0.6, q)
    logits = ((x + 500.0) / 250.0)[:, None] * slopes[None, :]
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    u = rng.uniform(size=n)
    g = np.minimum((u[:, None] > np.cumsum(p, axis=1)).sum(axis=1), q - 1) + 1
    w = (x >= cuts[g - 1]).astype(np.int64)
    shift = (g - 1) * (0.1 + 0.05 * np.sin(x / 200.0)) - 0.03 * g * w
    y = _poly(w, x) + shift + rng.normal(0.0, NOISE_SD, size=n)
    return Arrays(x, g, w, y, cutoffs)


def write_inputs(arrays: Arrays, directory: str):
    """Write data.csv (x,g,w,y with round-trip floats) and design.yaml."""
    os.makedirs(directory, exist_ok=True)
    rows = [f"{xi!r},{gi},{wi},{yi!r}" for xi, gi, wi, yi in
            zip(arrays.x.tolist(), arrays.g.tolist(), arrays.w.tolist(), arrays.y.tolist())]
    data = os.path.join(directory, "data.csv")
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("x,g,w,y\n" + "\n".join(rows) + "\n")
    design = os.path.join(directory, "design.yaml")
    with open(design, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k}: {c!r}\n" for k, c in arrays.cutoffs.items()))
    return data, design
