"""Performance evaluation: investment returns, Sharpe ratios, baselines.

Cash installments are external contributions, not investment performance, so
per-period returns are time-weighted: wealth change net of the same-period
contribution divided by beginning-of-period wealth plus the contribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, UndefinedSharpeError
from .glearner import Trajectories
from .market import ReturnPaths
from .rewards import BenchmarkPath, RewardParams


@dataclass(frozen=True)
class PerformanceSummary:
    """Path-averaged per-period returns, annualized Sharpe, terminal-wealth
    statistics, and the path-averaged rectified shortfall against the
    reward's wealth target."""

    mean_returns: np.ndarray
    sharpe: float
    terminal_wealth_stats: dict
    shortfall: np.ndarray


def _check_rates(r_f: float, dt: float) -> None:
    """The risk-free rate must be finite and the period length finite and positive."""
    if not math.isfinite(r_f):
        raise ParameterError(f"r_f must be finite, got {r_f!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ParameterError(f"dt must be finite and positive, got {dt!r}")


def _returns(wealth: np.ndarray, cash: np.ndarray) -> np.ndarray:
    """Time-weighted returns along the last axis of wealth (T+1) and cash (T)."""
    base = wealth[..., :-1] + cash
    return (wealth[..., 1:] - base) / base


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


def equal_weight_baseline(
    paths: ReturnPaths, x0: np.ndarray, r_f: float, dt: float
) -> Trajectories:
    """Buy-and-hold benchmark: initial positions evolve at realized returns
    (bond at r_f * dt per period) with no trades and no cashflows.

    The gross returns are written into the positions of the returned batch
    (its trades all zero) after x0, and one ``np.multiply.accumulate``
    along the periods compounds them in place: position t+1 is position t
    times period t's gross return, for all paths at once.
    """
    _check_rates(r_f, dt)
    x0 = np.asarray(x0, dtype=float)
    n = paths.n_risky + 1
    if x0.shape != (n,):
        raise ShapeError(f"x0 must cover the bond plus {paths.n_risky} risky assets")
    if not np.isfinite(x0).all():
        raise ParameterError("x0 has non-finite entries")
    m, t_len = paths.n_paths, paths.horizon
    x = np.empty((m, t_len + 1, n))
    x[:, 0] = x0
    x[:, 1:, 0] = 1.0 + r_f * dt
    np.add(paths.realized, 1.0, out=x[:, 1:, 1:])
    np.multiply.accumulate(x, axis=1, out=x)
    return Trajectories(x=x, u=np.zeros((m, t_len, n)))


def sharpe(trajs: Trajectories, r_f: float, dt: float) -> float:
    """Annualized Sharpe ratio of per-period investment returns pooled over
    paths and periods: mean excess over r_f * dt divided by the standard
    deviation, scaled by sqrt(1 / dt)."""
    _check_rates(r_f, dt)
    return _sharpe(_returns(trajs.x.sum(axis=2), trajs.cash), r_f, dt)


def performance_summary(
    trajs: Trajectories,
    r_f: float,
    dt: float,
    params: RewardParams,
    benchmark: BenchmarkPath,
) -> PerformanceSummary:
    """Summarize a strategy's trajectories.

    Total wealth (M, T+1) is summed once from the batch's positions; with
    its cash (M, T) it gives the returns, the Sharpe ratio (the same pooled
    returns as ``sharpe``), the terminal-wealth statistics and the
    shortfall: the positive part of target minus next-period wealth,
    path-averaged per period, with the wealth target (1 - rho) B_t + rho eta
    W_t of the reward ``params`` on the ``benchmark`` path.
    """
    _check_rates(r_f, dt)
    wealth = trajs.x.sum(axis=2)
    rets = _returns(wealth, trajs.cash)
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
    if benchmark.horizon != rets.shape[1]:
        raise ShapeError("benchmark horizon does not match trajectories")
    # the reward's next-period target for every path and period at once
    target = (1.0 - params.rho) * benchmark.b + params.rho * params.eta * wealth[:, :-1]
    shortfall = np.maximum(target - wealth[:, 1:], 0.0).mean(axis=0)
    return PerformanceSummary(
        mean_returns=rets.mean(axis=0),
        sharpe=_sharpe(rets, r_f, dt),
        terminal_wealth_stats=stats,
        shortfall=shortfall,
    )
