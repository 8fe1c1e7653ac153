"""Synthetic two-group benchmark generators and ground-truth evaluation.

Two scenarios share the same covariate and group mechanism and differ only in
the outcome polynomial and the cross-group difference function. In scenario A
the status-quo cutoffs are already optimal in the threshold class; in scenario
B lowering the upper group's cutoff is genuinely beneficial. The data
(`generate`) and the ground truth are drawn by one process, `draw_population`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (MIN_GROUP_SIZE, DataError, Dataset, RdsafeError, StudyDesign,
                   ThresholdPolicy, baseline_policy)
from .idbounds import _check_multiplier
from .learner import LearnerConfig, _pick, _suffix_at, learn_policy

_CUTOFFS = {1: -850.0, 2: -571.0}
_SIGMA_EPS = 10.0
_NOISE_SD = 0.3
_X_LO, _X_HI = -1000.0, -1.0
# draws per block when the arm means are built, which bounds the temporaries
_MEAN_CHUNK = 32_768

# treated-arm coefficients, shared by the scenarios
_GAMMA1 = np.array([0.96, 5.31e-4, 1.10e-6, 1.15e-9])


class _Scenario(NamedTuple):
    x_center: float  # centre of the outcome basis
    gamma0: np.ndarray  # control-arm coefficients
    shift: float  # the untreated arm's extra cross-group difference


# one row of constants per scenario; its position is its spawn key (A -> 0)
_SCENARIOS = {
    "A": _Scenario(164.43, np.array([-1.99, -1.00e-2, -1.20e-5, -4.59e-9]), 0.3),
    "B": _Scenario(0.0, np.array([-1.94, -1.00e-2, -1.20e-5, -4.59e-9]), -0.1),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario's data-generating process and the cutoffs it assigns by."""

    scenario: str  # a key of _SCENARIOS
    cutoffs: dict = field(default_factory=lambda: dict(_CUTOFFS))

    def __post_init__(self):
        if not isinstance(self.scenario, str) or self.scenario not in _SCENARIOS:
            raise DataError(f"scenario must be one of {list(_SCENARIOS)}, got {self.scenario!r}")

    @property
    def design(self) -> StudyDesign:
        return StudyDesign(self.cutoffs)

    @property
    def _row(self) -> _Scenario:
        return _SCENARIOS[self.scenario]

    def basis(self, x) -> np.ndarray:
        z = np.asarray(x, dtype=float) - self._row.x_center
        # products, not `z ** 3`: numpy's power calls libm pow for the cube
        z2 = z * z
        return np.stack([np.ones_like(z), z, z2, z2 * z], axis=-1)

    def difference(self, w, x) -> np.ndarray:
        """True cross-group difference d(w, x) = m(w,x,2) - m(w,x,1)."""
        w = np.asarray(w, dtype=float)
        x = np.asarray(x, dtype=float)
        return 0.2 + np.exp(0.01 * x) + self._row.shift * (1.0 - w)

    def mean_outcome(self, w, x, g) -> np.ndarray:
        """True E[Y | W=w, X=x, G=g] (noise is mean zero)."""
        w = np.asarray(w, dtype=float)
        x = np.asarray(x, dtype=float)
        g = np.asarray(g)
        b = self.basis(x)
        poly = np.where(w == 1, b @ _GAMMA1, b @ self._row.gamma0)
        return poly - np.where(g == 1, self.difference(w, x), 0.0)


def _check_size(n):
    if n < 1:
        raise DataError(f"sample size must be positive, got {n}")


class Population(NamedTuple):
    """Monte Carlo (X, G) draws of one scenario with each draw's two arm means.

    `treated[i]` and `control[i]` are `mean_outcome(1, x[i], g[i])` and
    `mean_outcome(0, x[i], g[i])`; outcome noise integrates out. The draws
    carry the whole data-generating process: a policy is valued on them from
    its cutoffs alone.
    """

    x: np.ndarray
    g: np.ndarray
    treated: np.ndarray
    control: np.ndarray


def draw_population(spec: ScenarioSpec, size: int, seed) -> Population:
    """`size` (X, G) draws of the spec's scenario, with both arms' mean outcomes.

    `seed` is anything `np.random.default_rng` takes; a Generator is drawn
    from in place. The draws and their means depend on the scenario, not on
    the cutoffs.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(_X_LO, _X_HI, size=size)
    eps = rng.normal(0.0, _SIGMA_EPS, size=size)
    # group 2 where the latent membership index 0.01x + 5 + eps is positive
    g = np.where(0.01 * x + 5.0 + eps > 0, 2, 1)
    treated = np.empty(size)
    control = np.empty(size)
    # never a block of one draw, whose matrix-vector product numpy rounds differently
    for start in range(0, max(size - 1, 1), _MEAN_CHUNK):
        stop = start + _MEAN_CHUNK
        block = slice(start, stop if stop < size - 1 else size)
        # mean_outcome(w, x, g) for both arms from one basis: only label-1
        # draws carry the difference term
        b = spec.basis(x[block])
        treated[block] = b @ _GAMMA1
        control[block] = b @ spec._row.gamma0
        del b  # freed before the difference terms: held on, it raised peak RSS by 2 MB
        one = start + np.flatnonzero(g[block] == 1)
        treated[one] -= spec.difference(1, x[one])
        control[one] -= spec.difference(0, x[one])
    return Population(x, g, treated, control)


def generate(spec: ScenarioSpec, n: int, seed) -> Dataset:
    """n records of the spec's process, reproducible from the seed: the
    population's draws, their sharp assignment, and outcome noise drawn after
    them from the same stream."""
    _check_size(n)
    rng = np.random.default_rng(seed)
    draws = draw_population(spec, n, rng)
    cuts = np.array([spec.cutoffs[1], spec.cutoffs[2]])
    w = (draws.x >= cuts[draws.g - 1]).astype(int)
    y = np.where(w == 1, draws.treated, draws.control) + rng.normal(0.0, _NOISE_SD, size=n)
    return Dataset(draws.x, draws.g, w, y, spec.design)


def true_value(policy: ThresholdPolicy, draws: Population, cost: float = 0.0) -> float:
    """Ground-truth value V(pi) = E[m(pi(X,G), X, G)] - cost * E[pi(X,G)] on
    the draws: each draw's precomputed arm mean is selected, so every policy
    is valued on the same sample, bit-exactly."""
    # draws carry the labels 1 and 2, which need not be the cutoff ranks; the
    # mask is boolean algebra because np.where of two scalars costs as much as
    # the rest of the call
    one = draws.g == 1
    pi = ((draws.x >= policy.cutoffs[1]) & one) | ((draws.x >= policy.cutoffs[2]) & ~one)
    m = np.where(pi, draws.treated, draws.control)
    return float(np.mean(m) - cost * (np.count_nonzero(pi) / pi.size))


def oracle_policy(design: StudyDesign, draws: Population, grid_size: int = 200,
                  cost: float = 0.0) -> ThresholdPolicy:
    """Grid argmax of the true value on the draws, searched per group."""
    grid = np.linspace(design.c_min, design.c_max, grid_size)
    cutoffs = {}
    for rank in range(1, design.q + 1):
        label = design.label_of(rank)
        own = np.flatnonzero(draws.g == label)
        # any sort order will do: draws of one group with equal x have equal
        # arm means, so every order sums the same sequence of numbers
        own = own[np.argsort(draws.x[own])]
        # value contribution of this group at cutoff c, via suffix sums of the
        # per-draw treat-minus-control gain
        diff = (draws.treated[own] - cost) - draws.control[own]
        vals = _suffix_at(draws.x[own], diff, grid)
        cutoffs[label] = _pick(grid, vals, design.cutoff_of_rank(rank))
    return ThresholdPolicy(cutoffs, design)


@dataclass(frozen=True)
class RegretCell:
    scenario: str
    n: int
    multiplier: float
    regret_baseline_mean: float
    regret_baseline_se: float
    regret_oracle_mean: float
    regret_oracle_se: float
    reps: int
    failures: int


def _replication_seed(master: int, scenario: str, n: int, m_index: int, rep: int):
    # documented derivation scheme: one spawn key per (cell, replication)
    key = (list(_SCENARIOS).index(scenario), n, m_index, rep)
    return np.random.SeedSequence(entropy=master, spawn_key=key)


def _mean_se(values) -> tuple[float, float]:
    """Mean and standard error of the values; NaN for fewer than two."""
    if len(values) < 2:
        return float("nan"), float("nan")
    v = np.asarray(values)
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(v.size))


def regret_experiment(scenarios, n_list, multipliers, reps: int, seed: int,
                      mc_size: int = 500_000) -> list[RegretCell]:
    """Monte Carlo regret of the learned policy against baseline and oracle,
    one cell per (scenario, n, M), with the truth taken on `mc_size` draws.

    A size too small for MIN_GROUP_SIZE records per group is a DataError.
    Replications that fail with a package error or a singular linear solve,
    as a larger size can by chance, are excluded and counted. Any other
    exception propagates. Deterministic given the master seed.
    """
    if reps < 2:
        raise DataError(f"need at least 2 replications, got {reps}")
    scenarios, n_list, multipliers = list(scenarios), list(n_list), list(multipliers)
    for values, what in ((scenarios, "scenario"), (n_list, "sample size"),
                         (multipliers, "multiplier")):
        if not values:
            raise DataError(f"regret experiment needs at least one {what}")
    # checked here, or every replication would count a bad M as a failure
    for m in multipliers:
        _check_multiplier(m)
    # every scenario and size is checked before the first population is drawn
    specs = [ScenarioSpec(scenario) for scenario in scenarios]
    for n in n_list:
        _check_size(n)
        if n < len(_CUTOFFS) * MIN_GROUP_SIZE:
            raise DataError(f"sample size {n} is below {len(_CUTOFFS) * MIN_GROUP_SIZE}: "
                            f"{MIN_GROUP_SIZE} records for each of {len(_CUTOFFS)} groups")
    if mc_size < 1:
        raise DataError(f"Monte Carlo population size must be positive, got {mc_size}")
    cells = []
    for spec in specs:
        # the ground truth depends on the scenario, not on n or M
        draws = draw_population(spec, mc_size, seed)
        v_base = true_value(baseline_policy(spec.design), draws)
        v_star = true_value(oracle_policy(spec.design, draws), draws)
        for n in n_list:
            for m_index, m in enumerate(multipliers):
                reg_base, reg_star = [], []
                failures = 0
                for rep in range(reps):
                    ss = _replication_seed(seed, spec.scenario, n, m_index, rep)
                    child = ss.generate_state(2)
                    try:
                        data = generate(spec, n, ss)
                        learned = learn_policy(data, LearnerConfig(seed=int(child[0] % 2**31)),
                                               multiplier=float(m))
                        v_hat = true_value(learned.policy, draws)
                    except (RdsafeError, np.linalg.LinAlgError):
                        failures += 1
                        continue
                    reg_base.append(v_base - v_hat)
                    reg_star.append(v_star - v_hat)
                cells.append(RegretCell(spec.scenario, n, float(m), *_mean_se(reg_base),
                                        *_mean_se(reg_star), len(reg_base), failures))
    return cells
