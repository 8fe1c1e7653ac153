"""Synthetic two-group benchmark generators and ground-truth evaluation.

Two scenarios share the same covariate and group mechanism and differ only in
the outcome polynomial and the cross-group difference function. In scenario A
the status-quo cutoffs are already optimal in the threshold class; in scenario
B lowering the upper group's cutoff is genuinely beneficial.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Dataset, RdsafeError, Record, StudyDesign, ThresholdPolicy, baseline_policy
from .learner import LearnerConfig, learn_policy

_CUTOFFS = {1: -850.0, 2: -571.0}
_SIGMA_EPS = 10.0
_NOISE_SD = 0.3
_X_LO, _X_HI = -1000.0, -1.0

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
            raise ValueError(f"scenario must be 'A' or 'B', got {self.scenario!r}")
        if self.n < 1:
            raise ValueError(f"sample size must be positive, got {self.n}")

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
        return np.stack([np.ones_like(z), z, z ** 2, z ** 3], axis=-1)

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
    records = [Record(x=float(xi), g=int(gi), w=int(wi), y=float(yi))
               for xi, gi, wi, yi in zip(x, g, w, y)]
    return Dataset(records, spec.design)


def _draw_population(spec: ScenarioSpec, mc_size: int, seed: int):
    """Shared (X, G) draws for value evaluation; outcome noise integrates out."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(_X_LO, _X_HI, size=mc_size)
    eps = rng.normal(0.0, spec.sigma_eps, size=mc_size)
    g = np.where(spec.group_prob_latent(x) + eps > 0, 2, 1)
    return x, g


def true_value(policy: ThresholdPolicy, spec: ScenarioSpec,
               mc_size: int = 1_000_000, seed: int = 0,
               cost: float = 0.0, draws=None) -> float:
    """Ground-truth value V(pi) = E[m(pi(X,G), X, G)] - cost * E[pi(X,G)].

    Pass precomputed `draws` = (x, g) for bit-exact comparisons across
    policies evaluated on the same population sample.
    """
    x, g = draws if draws is not None else _draw_population(spec, mc_size, seed)
    # draws carry the labels 1 and 2, which need not be the cutoff ranks
    pi = (x >= np.where(g == 1, policy.cutoffs[1], policy.cutoffs[2])).astype(int)
    m = spec.mean_outcome(pi, x, g)
    return float(np.mean(m) - cost * np.mean(pi))


def oracle_policy(spec: ScenarioSpec, grid_size: int = 200,
                  mc_size: int = 1_000_000, seed: int = 0,
                  cost: float = 0.0) -> ThresholdPolicy:
    """Grid argmax of the true value, searched per group on shared draws."""
    design = spec.design
    x, g = _draw_population(spec, mc_size, seed)
    grid = np.linspace(design.c_min, design.c_max, grid_size)
    cutoffs = {}
    for rank in range(1, design.q + 1):
        label = design.label_of(rank)
        xo = np.sort(x[g == label])
        # value contribution of this group at cutoff c, via suffix sums of the
        # per-draw treat-minus-control gain
        m1 = spec.mean_outcome(np.ones_like(xo), xo, np.full(xo.shape, label)) - cost
        m0 = spec.mean_outcome(np.zeros_like(xo), xo, np.full(xo.shape, label))
        diff = m1 - m0
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
    valid: bool


@dataclass(frozen=True)
class RegretReport:
    cells: list
    seed: int
    generator: str = "PCG64"

    def to_csv(self) -> str:
        lines = ["scenario,n,M,regret_baseline_mean,regret_baseline_se,"
                 "regret_oracle_mean,regret_oracle_se,reps,failures"]
        for c in self.cells:
            lines.append(",".join([
                c.scenario, str(c.n), repr(c.multiplier),
                repr(c.regret_baseline_mean), repr(c.regret_baseline_se),
                repr(c.regret_oracle_mean), repr(c.regret_oracle_se),
                str(c.reps), str(c.failures),
            ]))
        return "\n".join(lines) + "\n"

    def metadata(self) -> str:
        return json.dumps({"seed": self.seed, "generator": self.generator,
                           "version": 1}, sort_keys=True)


def _replication_seed(master: int, scenario: str, n: int, m_index: int, rep: int):
    # documented derivation scheme: one spawn key per (cell, replication)
    key = (0 if scenario == "A" else 1, n, m_index, rep)
    return np.random.SeedSequence(entropy=master, spawn_key=key)


def regret_experiment(scenarios, n_list, multipliers, reps: int, seed: int,
                      mc_size: int = 500_000,
                      learner_config: LearnerConfig | None = None) -> RegretReport:
    """Monte Carlo regret of the learned policy against baseline and oracle.

    Replications that fail with a package error or a singular linear solve
    are excluded and counted; a cell with 5% or more failures is marked
    invalid. Any other exception propagates. Deterministic given the master
    seed.
    """
    if reps < 2:
        raise ValueError(f"need at least 2 replications, got {reps}")
    cells = []
    for scenario in scenarios:
        oracle_cache = {}
        for n in n_list:
            for m_index, m in enumerate(multipliers):
                spec = ScenarioSpec(scenario=scenario, n=n)
                if scenario not in oracle_cache:
                    oracle_cache[scenario] = oracle_policy(spec, mc_size=mc_size, seed=seed)
                oracle = oracle_cache[scenario]
                baseline = baseline_policy(spec.design)
                draws = _draw_population(spec, mc_size, seed)
                v_base = true_value(baseline, spec, draws=draws)
                v_star = true_value(oracle, spec, draws=draws)
                reg_base, reg_star = [], []
                failures = 0
                for rep in range(reps):
                    ss = _replication_seed(seed, scenario, n, m_index, rep)
                    child = ss.generate_state(2)
                    try:
                        data = generate(spec, seed=ss)
                        cfg = replace(learner_config or LearnerConfig(),
                                      seed=int(child[0] % 2**31),
                                      multiplier=float(m))
                        learned = learn_policy(data, cfg)
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
                        valid=failures < 0.05 * reps,
                    )
                else:
                    cell = RegretCell(scenario, n, float(m), float("nan"),
                                      float("nan"), float("nan"), float("nan"),
                                      done, failures, False)
                cells.append(cell)
    return RegretReport(cells=cells, seed=seed)
