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
    UtilityConfig,
    baseline_policy,
    load_dataset,
    serialize_dataset,
)
from .estimator import (
    DRScores,
    NuisanceTable,
    ValueBreakdown,
    compute_dr_scores,
    fit_crossfit_nuisances,
    make_folds,
    oracle_nuisances,
    value_breakdown,
)
from .idbounds import (
    BoundModel,
    DifferenceCurve,
    SmoothnessParams,
    build_bound_model,
    worst_case_xi2,
)
from .learner import (
    CandidateGrid,
    LearnedPolicy,
    LearnerConfig,
    candidate_grid,
    learn_policy,
    sensitivity_sweep,
)
from .simlab import RegretReport, ScenarioSpec, generate, oracle_policy, true_value
from .smooth import CurveFit, LocalPolyConfig, auto_bandwidth, boundary_limit

__version__ = "0.1.0"
