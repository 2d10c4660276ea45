"""Deployed coupon pipeline: structured demand model, myopic assignment,
budget tuning, sensitivity estimation, population simulation, diagnostics."""

from .analytics import (
    CorrelationRow,
    EmptyCellError,
    MonotonicityRow,
    monotonicity_table,
    reference_correlations,
)
from .budget import BudgetConfig, InfeasibleBudgetError, tune_lambda
from .fitting import (
    FitConvergenceError,
    fit_beta,
    likelihood_gradient,
)
from .model import (
    AllocationModel,
    DiscountSet,
    feature_matrix,
    myopic_assign,
    projected_redemption,
    purchase_prob,
    purchase_prob_table,
)
from .population import (
    ConstantPolicy,
    CouponDataset,
    MyopicPolicy,
    PopulationSpec,
    STATIC_FEATURES,
    UniformPolicy,
    default_ground_truth,
    reference_feature_name,
    simulate_population,
)

__all__ = [
    "AllocationModel",
    "BudgetConfig",
    "ConstantPolicy",
    "CorrelationRow",
    "CouponDataset",
    "DiscountSet",
    "EmptyCellError",
    "FitConvergenceError",
    "InfeasibleBudgetError",
    "MonotonicityRow",
    "MyopicPolicy",
    "PopulationSpec",
    "STATIC_FEATURES",
    "UniformPolicy",
    "default_ground_truth",
    "feature_matrix",
    "fit_beta",
    "likelihood_gradient",
    "monotonicity_table",
    "myopic_assign",
    "projected_redemption",
    "purchase_prob",
    "purchase_prob_table",
    "reference_correlations",
    "reference_feature_name",
    "simulate_population",
    "tune_lambda",
]
