"""Goal-based multi-period portfolio optimization and reward inference.

The package solves an entropy-regularized linear-quadratic control problem
with Gaussian policies for a defined-contribution investment plan, and
recovers the reward parameters of such an agent from observed state-action
trajectories by maximum likelihood.
"""

from .market import (
    MarketSpec,
    ReturnCovariance,
    ReturnPaths,
    mean_expected_returns,
    residual_covariance,
    simulate,
)
from .rewards import (
    BenchmarkPath,
    RewardCoeffs,
    RewardParams,
    build_coeffs,
    exponential_benchmark,
    reward_value,
    target_portfolio,
)
from .glearner import (
    GaussianPolicy,
    PolicyPrior,
    SolvedPlan,
    SolverConfig,
    Trajectories,
    Trajectory,
    backward_pass,
    cash_installment,
    default_prior,
    free_energy,
    g_value,
    policy_mean,
    rollout,
    sample_action,
    solve_plan,
    terminal_action,
)
from .girl import (
    FitConfig,
    FitReport,
    GirlParams,
    fit,
    loss_slices,
    transition_log_prob,
)
from .metrics import (
    PerformanceSummary,
    equal_weight_baseline,
    investment_returns,
    mean_wealth,
    performance_summary,
    sharpe,
)

__all__ = [
    "MarketSpec", "ReturnPaths", "ReturnCovariance",
    "simulate", "residual_covariance", "mean_expected_returns",
    "RewardParams", "BenchmarkPath", "RewardCoeffs",
    "build_coeffs", "reward_value", "target_portfolio", "exponential_benchmark",
    "SolverConfig", "PolicyPrior", "GaussianPolicy", "SolvedPlan", "Trajectory",
    "Trajectories", "backward_pass", "solve_plan", "terminal_action", "free_energy",
    "g_value", "policy_mean", "sample_action", "rollout", "cash_installment", "default_prior",
    "GirlParams", "FitConfig", "FitReport",
    "transition_log_prob", "fit", "loss_slices",
    "PerformanceSummary", "equal_weight_baseline", "investment_returns",
    "mean_wealth", "performance_summary", "sharpe",
]

__version__ = "0.1.0"
