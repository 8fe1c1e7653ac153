"""Safe threshold-policy learning from multi-cutoff regression discontinuity data."""

from .core import (
    AssignmentViolationError,
    DataError,
    Dataset,
    DesignError,
    EstimationError,
    RdsafeError,
    StudyDesign,
    ThresholdPolicy,
    baseline_policy,
    load_dataset,
    serialize_dataset,
)
from .estimator import (
    DRScores,
    NuisanceTable,
    compute_dr_scores,
    fit_crossfit_nuisances,
    make_folds,
    oracle_nuisances,
)
from .idbounds import (
    BoundModel,
    fit_bound_model,
)
from .learner import (
    CandidateGrid,
    LearnedPolicy,
    LearnerConfig,
    ValueBreakdown,
    candidate_grid,
    learn_policy,
    sensitivity_sweep,
    value_breakdown,
)
from .simlab import ScenarioSpec, generate, oracle_policy, true_value
from .smooth import CurveFit, LocalPolyConfig, auto_bandwidth, boundary_limit

__version__ = "0.1.0"
