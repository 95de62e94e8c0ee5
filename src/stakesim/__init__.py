"""Simulator and analytics for stake evolution under proof-of-stake reward schemes."""

from .analytics import (
    AnalyticPrediction,
    BetaParams,
    SampleStats,
    beta_limit_params,
    empirical_stats,
    exact_stake_moments,
    ks_distance,
    limiting_mean_fraction,
    predict,
    predict_mean_stake,
    predict_var_stake,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentResult,
    RecordPolicy,
    RunningMoments,
    TimeSeries,
    merge_results,
    run_experiment,
)
from .schemes import (
    BalancedParams,
    Regime,
    RewardMatrix,
    classify_regime,
    constant_matrix,
    custom_matrix,
    frd_matrix,
)
from .urn import recorded_steps, stake_vector

__version__ = "0.1.0"

__all__ = [
    "AnalyticPrediction",
    "BalancedParams",
    "BetaParams",
    "ExperimentConfig",
    "ExperimentResult",
    "RecordPolicy",
    "Regime",
    "RewardMatrix",
    "RunningMoments",
    "SampleStats",
    "TimeSeries",
    "beta_limit_params",
    "classify_regime",
    "constant_matrix",
    "custom_matrix",
    "empirical_stats",
    "exact_stake_moments",
    "frd_matrix",
    "ks_distance",
    "limiting_mean_fraction",
    "merge_results",
    "predict",
    "predict_mean_stake",
    "predict_var_stake",
    "recorded_steps",
    "run_experiment",
    "stake_vector",
]
