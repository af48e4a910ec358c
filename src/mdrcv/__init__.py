"""Cross-validated prediction-error estimation for discrete factor models,
with exact oracles and a Monte Carlo harness verifying the estimator's
limit behaviour."""

from .errors import ValidationError
from .estimator import (
    DEFAULT_SCHEDULE,
    EpsilonSchedule,
    asymptotic_covariance_estimate,
    asymptotic_sd_estimate,
    cv_prediction_error,
    influence_values,
)
from .model import (
    Dataset,
    FactorSpace,
    FactorSubset,
    JointDistribution,
    PenaltyFunction,
    label_marginal,
    load_distribution,
    sample,
    save_distribution,
)
from .oracle import (
    asymptotic_covariance,
    asymptotic_moments,
    asymptotic_variance,
    balanced_penalty,
    high_risk_set,
    optimal_predictor,
    prediction_error,
    significance,
    subset_oracle,
)
from .scenarios import PRESETS, generate_scenario, scenario_a
from .search import SearchReport, enumerate_subsets, rank_subsets

__version__ = "0.1.0"
