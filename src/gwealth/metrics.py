"""Performance evaluation: investment returns, Sharpe ratios, baselines.

Cash installments are external contributions, not investment performance, so
per-period returns are time-weighted: wealth change net of the same-period
contribution divided by beginning-of-period wealth plus the contribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UndefinedSharpeError
from .glearner import Trajectory
from .market import ReturnPaths
from .rewards import BenchmarkPath, RewardParams


@dataclass(frozen=True)
class PerformanceSummary:
    """Path-averaged per-period returns, annualized Sharpe, terminal-wealth
    statistics, and (when reward parameters are supplied) the path-averaged
    rectified shortfall against the wealth target."""

    mean_returns: np.ndarray
    sharpe: float
    terminal_wealth_stats: dict
    shortfall: np.ndarray | None = None


def _returns(wealth: np.ndarray, cash: np.ndarray) -> np.ndarray:
    """Time-weighted returns along the last axis of wealth (T+1) and cash (T)."""
    base = wealth[..., :-1] + cash
    return (wealth[..., 1:] - base) / base


def _wealth_and_cash(trajs: list[Trajectory]) -> tuple[np.ndarray, np.ndarray]:
    """Total wealth (M, T+1) and cash installments (M, T) of M trajectories,
    without stacking their (M, T+1, N) positions."""
    wealth = np.stack([traj.x.sum(axis=1) for traj in trajs])
    cash = np.stack([traj.cash for traj in trajs])
    return wealth, cash


def _sharpe(rets: np.ndarray, r_f: float, dt: float) -> float:
    """Annualized Sharpe ratio of (M, T) returns pooled over paths and periods."""
    if rets.shape[1] < 2:
        raise UndefinedSharpeError("need at least two periods for a Sharpe ratio")
    excess = rets.ravel() - r_f * dt
    std = float(excess.std(ddof=1))
    mean = float(excess.mean())
    if std == 0.0 or std < 1e-12 * abs(mean):
        raise UndefinedSharpeError("return variance is zero; Sharpe ratio undefined")
    return mean / std * float(np.sqrt(1.0 / dt))


def investment_returns(traj: Trajectory) -> np.ndarray:
    """Per-period portfolio returns net of external cashflows."""
    return _returns(traj.x.sum(axis=1), traj.cash)


def mean_wealth(trajs: list[Trajectory]) -> np.ndarray:
    """Path-averaged total wealth, length horizon + 1."""
    return np.stack([traj.x.sum(axis=1) for traj in trajs]).mean(axis=0)


def equal_weight_baseline(
    paths: ReturnPaths, x0: np.ndarray, r_f: float, dt: float
) -> list[Trajectory]:
    """Buy-and-hold benchmark: initial positions evolve at realized returns
    (bond at r_f * dt per period) with no trades and no cashflows.

    All paths advance together, one in-place product per period; the
    returned trajectories hold views into shared position, trade and cash
    arrays (the trades and cash all zero).
    """
    x0 = np.asarray(x0, dtype=float)
    n = paths.n_risky + 1
    if x0.shape != (n,):
        raise ShapeError(f"x0 must cover the bond plus {paths.n_risky} risky assets")
    m, t_len = paths.n_paths, paths.horizon
    x = np.empty((m, t_len + 1, n))
    x[:, 0] = x0
    bond = 1.0 + r_f * dt
    for t in range(t_len):
        np.multiply(x[:, t, 0], bond, out=x[:, t + 1, 0])
        np.multiply(x[:, t, 1:], 1.0 + paths.realized[:, t], out=x[:, t + 1, 1:])
    u = np.zeros((m, t_len, n))
    cash = np.zeros((m, t_len))
    return [Trajectory(x=x[p], u=u[p], cash=cash[p]) for p in range(m)]


def sharpe(trajs: list[Trajectory], r_f: float, dt: float) -> float:
    """Annualized Sharpe ratio of per-period investment returns pooled over
    paths and periods: mean excess over r_f * dt divided by the standard
    deviation, scaled by sqrt(1 / dt)."""
    if not trajs:
        raise UndefinedSharpeError("need at least two periods for a Sharpe ratio")
    return _sharpe(_returns(*_wealth_and_cash(trajs)), r_f, dt)


def performance_summary(
    trajs: list[Trajectory],
    r_f: float,
    dt: float,
    params: RewardParams | None = None,
    benchmark: BenchmarkPath | None = None,
) -> PerformanceSummary:
    """Summarize a strategy's trajectories.

    Total wealth (M, T+1) and cash (M, T) are gathered once; the returns,
    the Sharpe ratio (the same pooled returns as ``sharpe``), the
    terminal-wealth statistics and the shortfall all come from them.  The
    shortfall diagnostic (positive part of target minus next-period wealth,
    path-averaged per period, with the target of
    ``rewards.target_portfolio``) requires the reward parameters and the
    benchmark path and is omitted when they are not given.
    """
    wealth, cash = _wealth_and_cash(trajs)
    rets = _returns(wealth, cash)
    terminal = wealth[:, -1]
    stats = {
        "mean": float(terminal.mean()),
        "std": float(terminal.std(ddof=1)) if terminal.size > 1 else 0.0,
        "q05": float(np.quantile(terminal, 0.05)),
        "q25": float(np.quantile(terminal, 0.25)),
        "q50": float(np.quantile(terminal, 0.50)),
        "q75": float(np.quantile(terminal, 0.75)),
        "q95": float(np.quantile(terminal, 0.95)),
    }
    shortfall = None
    if params is not None and benchmark is not None:
        if benchmark.horizon != rets.shape[1]:
            raise ShapeError("benchmark horizon does not match trajectories")
        # rewards.target_portfolio for every path and period at once
        target = (1.0 - params.rho) * benchmark.b + params.rho * params.eta * wealth[:, :-1]
        shortfall = np.maximum(target - wealth[:, 1:], 0.0).mean(axis=0)
    return PerformanceSummary(
        mean_returns=rets.mean(axis=0),
        sharpe=_sharpe(rets, r_f, dt),
        terminal_wealth_stats=stats,
        shortfall=shortfall,
    )
