"""Synthetic two-group benchmark generators and ground-truth evaluation.

Two scenarios share the same covariate and group mechanism and differ only in
the outcome polynomial and the cross-group difference function. In scenario A
the status-quo cutoffs are already optimal in the threshold class; in scenario
B lowering the upper group's cutoff is genuinely beneficial.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import DataError, Dataset, RdsafeError, StudyDesign, ThresholdPolicy, baseline_policy
from .idbounds import _check_multiplier
from .learner import LearnerConfig, learn_policy

_CUTOFFS = {1: -850.0, 2: -571.0}
_SIGMA_EPS = 10.0
_NOISE_SD = 0.3
_X_LO, _X_HI = -1000.0, -1.0
# draws per block when the arm means are built, which bounds the temporaries
_MEAN_CHUNK = 32_768

_GAMMA1 = np.array([0.96, 5.31e-4, 1.10e-6, 1.15e-9])
_GAMMA0_A = np.array([-1.99, -1.00e-2, -1.20e-5, -4.59e-9])
_GAMMA0_B = np.array([-1.94, -1.00e-2, -1.20e-5, -4.59e-9])


@dataclass(frozen=True)
class ScenarioSpec:
    """Fully specified synthetic data-generating process."""

    scenario: str  # "A" or "B"
    n: int
    cutoffs: dict = field(default_factory=lambda: dict(_CUTOFFS))
    sigma_eps: float = _SIGMA_EPS
    noise_sd: float = _NOISE_SD

    def __post_init__(self):
        if self.scenario not in ("A", "B"):
            raise DataError(f"scenario must be 'A' or 'B', got {self.scenario!r}")
        if self.n < 1:
            raise DataError(f"sample size must be positive, got {self.n}")

    @property
    def design(self) -> StudyDesign:
        return StudyDesign(self.cutoffs)

    @property
    def x_center(self) -> float:
        # scenario A's polynomial basis is shifted; B uses the raw powers
        return 164.43 if self.scenario == "A" else 0.0

    @property
    def gamma0(self) -> np.ndarray:
        return _GAMMA0_A if self.scenario == "A" else _GAMMA0_B

    @property
    def gamma1(self) -> np.ndarray:
        return _GAMMA1

    def basis(self, x) -> np.ndarray:
        z = np.asarray(x, dtype=float) - self.x_center
        # products, not `z ** 3`: numpy's power calls libm pow for the cube
        z2 = z * z
        return np.stack([np.ones_like(z), z, z2, z2 * z], axis=-1)

    def difference(self, w, x) -> np.ndarray:
        """True cross-group difference d(w, x) = m(w,x,2) - m(w,x,1)."""
        w = np.asarray(w, dtype=float)
        x = np.asarray(x, dtype=float)
        shift = 0.3 if self.scenario == "A" else -0.1
        return 0.2 + np.exp(0.01 * x) + shift * (1.0 - w)

    def mean_outcome(self, w, x, g) -> np.ndarray:
        """True E[Y | W=w, X=x, G=g] (noise is mean zero)."""
        w = np.asarray(w, dtype=float)
        x = np.asarray(x, dtype=float)
        g = np.asarray(g)
        b = self.basis(x)
        poly = np.where(w == 1, b @ self.gamma1, b @ self.gamma0)
        return poly - np.where(g == 1, self.difference(w, x), 0.0)

    def group_prob_latent(self, x) -> np.ndarray:
        """Latent index whose positive part selects group 2: 0.01x + 5 + eps."""
        return 0.01 * np.asarray(x, dtype=float) + 5.0


def generate(spec: ScenarioSpec, seed: int) -> Dataset:
    """Draw n records from the scenario's process; reproducible from the seed."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(_X_LO, _X_HI, size=spec.n)
    eps = rng.normal(0.0, spec.sigma_eps, size=spec.n)
    g = np.where(spec.group_prob_latent(x) + eps > 0, 2, 1)
    cuts = np.array([spec.cutoffs[1], spec.cutoffs[2]])
    w = (x >= cuts[g - 1]).astype(int)
    y = spec.mean_outcome(w, x, g) + rng.normal(0.0, spec.noise_sd, size=spec.n)
    return Dataset(x, g, w, y, spec.design)


class Population(NamedTuple):
    """Monte Carlo (X, G) draws of one scenario with each draw's two arm means.

    `treated[i]` and `control[i]` are `mean_outcome(1, x[i], g[i])` and
    `mean_outcome(0, x[i], g[i])`; outcome noise integrates out. The draws and
    their means depend on the scenario and `sigma_eps`, not on n or the cutoffs.
    """

    scenario: str
    sigma_eps: float
    x: np.ndarray
    g: np.ndarray
    treated: np.ndarray
    control: np.ndarray


def _draw_population(spec: ScenarioSpec, mc_size: int, seed: int) -> Population:
    """Shared (X, G) draws for value evaluation, with both arms' mean outcomes."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(_X_LO, _X_HI, size=mc_size)
    eps = rng.normal(0.0, spec.sigma_eps, size=mc_size)
    g = np.where(spec.group_prob_latent(x) + eps > 0, 2, 1)
    treated = np.empty(mc_size)
    control = np.empty(mc_size)
    for start in range(0, mc_size, _MEAN_CHUNK):
        block = slice(start, start + _MEAN_CHUNK)
        # mean_outcome(w, x, g) for both arms from one basis: only label-1
        # draws carry the difference term
        b = spec.basis(x[block])
        treated[block] = b @ spec.gamma1
        control[block] = b @ spec.gamma0
        del b  # freed before the difference terms: held on, it raised peak RSS by 2 MB
        one = start + np.flatnonzero(g[block] == 1)
        treated[one] -= spec.difference(1, x[one])
        control[one] -= spec.difference(0, x[one])
    return Population(spec.scenario, spec.sigma_eps, x, g, treated, control)


def _population_for(spec: ScenarioSpec, draws, mc_size: int, seed: int) -> Population:
    if draws is None:
        return _draw_population(spec, mc_size, seed)
    if (draws.scenario, draws.sigma_eps) != (spec.scenario, spec.sigma_eps):
        raise ValueError(
            f"draws were made for scenario {draws.scenario!r} (sigma_eps={draws.sigma_eps}), "
            f"not {spec.scenario!r} (sigma_eps={spec.sigma_eps})")
    return draws


def true_value(policy: ThresholdPolicy, spec: ScenarioSpec,
               mc_size: int = 1_000_000, seed: int = 0,
               cost: float = 0.0, draws: Population | None = None) -> float:
    """Ground-truth value V(pi) = E[m(pi(X,G), X, G)] - cost * E[pi(X,G)].

    `draws` is a `Population` from `_draw_population` for this spec's scenario;
    passing one values every policy on the same sample, bit-exactly, by
    selecting each draw's precomputed arm mean. Without it, `mc_size` draws
    are made from `seed`. Draws made for another scenario raise `ValueError`.
    """
    pop = _population_for(spec, draws, mc_size, seed)
    # draws carry the labels 1 and 2, which need not be the cutoff ranks; the
    # mask is boolean algebra because np.where of two scalars costs as much as
    # the rest of the call
    one = pop.g == 1
    pi = ((pop.x >= policy.cutoffs[1]) & one) | ((pop.x >= policy.cutoffs[2]) & ~one)
    m = np.where(pi, pop.treated, pop.control)
    return float(np.mean(m) - cost * (np.count_nonzero(pi) / pi.size))


def oracle_policy(spec: ScenarioSpec, grid_size: int = 200,
                  mc_size: int = 1_000_000, seed: int = 0,
                  cost: float = 0.0, draws: Population | None = None) -> ThresholdPolicy:
    """Grid argmax of the true value, searched per group on shared draws.

    `draws` is a `Population` as in `true_value`; without it, `mc_size` draws
    are made from `seed`. Draws made for another scenario raise `ValueError`.
    """
    design = spec.design
    pop = _population_for(spec, draws, mc_size, seed)
    grid = np.linspace(design.c_min, design.c_max, grid_size)
    cutoffs = {}
    for rank in range(1, design.q + 1):
        label = design.label_of(rank)
        own = np.flatnonzero(pop.g == label)
        # any sort order will do: draws of one group with equal x have equal
        # arm means, so every order sums the same sequence of numbers
        own = own[np.argsort(pop.x[own])]
        xo = pop.x[own]
        # value contribution of this group at cutoff c, via suffix sums of the
        # per-draw treat-minus-control gain
        diff = (pop.treated[own] - cost) - pop.control[own]
        suffix = np.concatenate([np.cumsum(diff[::-1])[::-1], [0.0]])
        pos = np.searchsorted(xo, grid, side="left")
        vals = suffix[pos]
        best = np.max(vals)
        tied = np.flatnonzero(vals >= best - 1e-12)
        base = design.cutoff_of_rank(rank)
        dist = np.abs(grid[tied] - base)
        cutoffs[label] = float(grid[tied[dist == dist.min()]].min())
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
    key = (0 if scenario == "A" else 1, n, m_index, rep)
    return np.random.SeedSequence(entropy=master, spawn_key=key)


def regret_experiment(scenarios, n_list, multipliers, reps: int, seed: int,
                      mc_size: int = 500_000) -> list[RegretCell]:
    """Monte Carlo regret of the learned policy against baseline and oracle,
    one cell per (scenario, n, M).

    Replications that fail with a package error or a singular linear solve
    are excluded and counted. Any other exception propagates. Deterministic
    given the master seed.
    """
    if reps < 2:
        raise DataError(f"need at least 2 replications, got {reps}")
    # checked here, or every replication would count a bad M as a failure
    for m in multipliers:
        _check_multiplier(m)
    # every spec is checked before the first population is drawn
    specs = {(scenario, n): ScenarioSpec(scenario=scenario, n=n)
             for scenario in scenarios for n in n_list}
    cells = []
    for scenario in scenarios:
        # the ground truth depends on the scenario, not on n or M
        truth = ScenarioSpec(scenario=scenario, n=1)
        draws = _draw_population(truth, mc_size, seed)
        v_base = true_value(baseline_policy(truth.design), truth, draws=draws)
        v_star = true_value(oracle_policy(truth, draws=draws), truth, draws=draws)
        for n in n_list:
            spec = specs[(scenario, n)]
            for m_index, m in enumerate(multipliers):
                reg_base, reg_star = [], []
                failures = 0
                for rep in range(reps):
                    ss = _replication_seed(seed, scenario, n, m_index, rep)
                    child = ss.generate_state(2)
                    try:
                        data = generate(spec, seed=ss)
                        learned = learn_policy(data, LearnerConfig(
                            seed=int(child[0] % 2**31), multiplier=float(m)))
                        v_hat = true_value(learned.policy, spec, draws=draws)
                    except (RdsafeError, np.linalg.LinAlgError):
                        failures += 1
                        continue
                    reg_base.append(v_base - v_hat)
                    reg_star.append(v_star - v_hat)
                done = len(reg_base)
                if done >= 2:
                    rb = np.asarray(reg_base)
                    ro = np.asarray(reg_star)
                    cell = RegretCell(
                        scenario=scenario, n=n, multiplier=float(m),
                        regret_baseline_mean=float(rb.mean()),
                        regret_baseline_se=float(rb.std(ddof=1) / np.sqrt(done)),
                        regret_oracle_mean=float(ro.mean()),
                        regret_oracle_se=float(ro.std(ddof=1) / np.sqrt(done)),
                        reps=done, failures=failures,
                    )
                else:
                    cell = RegretCell(scenario, n, float(m), float("nan"),
                                      float("nan"), float("nan"), float("nan"),
                                      done, failures)
                cells.append(cell)
    return cells
