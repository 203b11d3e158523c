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
    exponential_benchmark,
)
from .glearner import (
    GaussianPolicy,
    PolicyPrior,
    SolverConfig,
    Trajectories,
    Trajectory,
    backward_pass,
    cash_installment,
    default_prior,
    rollout,
    solve_plan,
)
from .girl import (
    FitConfig,
    FitReport,
    GirlParams,
    fit,
    loss_slices,
)
from .metrics import (
    PerformanceSummary,
    equal_weight_baseline,
    performance_summary,
    sharpe,
)

__all__ = [
    "MarketSpec", "ReturnPaths", "ReturnCovariance",
    "simulate", "residual_covariance", "mean_expected_returns",
    "RewardParams", "BenchmarkPath", "RewardCoeffs", "exponential_benchmark",
    "SolverConfig", "PolicyPrior", "GaussianPolicy", "Trajectory",
    "Trajectories", "backward_pass", "solve_plan", "rollout", "cash_installment",
    "default_prior",
    "GirlParams", "FitConfig", "FitReport", "fit", "loss_slices",
    "PerformanceSummary", "equal_weight_baseline", "performance_summary", "sharpe",
]

__version__ = "0.1.0"
