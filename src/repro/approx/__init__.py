"""Approximation layer: Monte-Carlo estimators, positivity bounds, FPRASes."""

from .adaptive import (
    AdaptiveResult,
    SequentialEstimator,
    adaptive_estimate,
    confidence_sequence_radius,
    empirical_bernstein_radius,
    hoeffding_radius,
)
from .composition import (
    composed_estimate,
    count_independent_sets_composed,
    count_repairs_composed,
    per_component_budget,
)
from .bounds import (
    E_UPPER,
    pathological_upper_bound,
    rrfreq_lower_bound,
    singleton_frequency_lower_bound,
    srfreq_lower_bound,
    uo_keys_local_lower_bound,
    uo_keys_lower_bound,
    uo_singleton_fd_lower_bound,
)
from .fpras import AUTO_FIXED_BUDGET, FPRASUnavailable, fixed_budget_estimate, fpras_ocqa
from .intervals import (
    ConfidenceInterval,
    clopper_pearson_interval,
    interval_for,
    wilson_interval,
)
from .montecarlo import (
    EstimateResult,
    additive_estimate,
    bernoulli_stream,
    chernoff_sample_size,
    empirical_mean,
    fixed_estimate_from_total,
    fixed_sample_estimate,
    hoeffding_sample_size,
    stopping_rule_estimate,
    zero_detection_sample_size,
)

__all__ = [
    "AUTO_FIXED_BUDGET",
    "AdaptiveResult",
    "SequentialEstimator",
    "adaptive_estimate",
    "confidence_sequence_radius",
    "empirical_bernstein_radius",
    "hoeffding_radius",
    "composed_estimate",
    "count_independent_sets_composed",
    "count_repairs_composed",
    "per_component_budget",
    "ConfidenceInterval",
    "clopper_pearson_interval",
    "interval_for",
    "wilson_interval",
    "E_UPPER",
    "EstimateResult",
    "FPRASUnavailable",
    "additive_estimate",
    "bernoulli_stream",
    "chernoff_sample_size",
    "empirical_mean",
    "fixed_budget_estimate",
    "fixed_estimate_from_total",
    "fixed_sample_estimate",
    "fpras_ocqa",
    "hoeffding_sample_size",
    "pathological_upper_bound",
    "rrfreq_lower_bound",
    "singleton_frequency_lower_bound",
    "srfreq_lower_bound",
    "stopping_rule_estimate",
    "uo_keys_local_lower_bound",
    "uo_keys_lower_bound",
    "uo_singleton_fd_lower_bound",
    "zero_detection_sample_size",
]
