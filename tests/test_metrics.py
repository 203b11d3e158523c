"""Performance-metric tests: baselines, Sharpe conventions, cashflow handling."""

import numpy as np
import pytest

from gwealth.errors import ParameterError, UndefinedSharpeError
from gwealth.glearner import Trajectory, cash_installment
from gwealth.market import ReturnPaths
from gwealth.metrics import _returns, equal_weight_baseline, performance_summary, sharpe
from gwealth.rewards import BenchmarkPath, RewardParams

from conftest import batch
from oracles import equal_weight_loop, shortfall_loop


def flat_paths(n_paths, horizon, n_risky, value=0.0):
    shape = (n_paths, horizon, n_risky)
    return ReturnPaths(
        expected=np.full(shape, value), realized=np.full(shape, value),
        market=np.zeros((n_paths, horizon)),
    )


def single_asset_trajectory(wealth_path, cash=None):
    w = np.asarray(wealth_path, dtype=float)
    t_len = w.shape[0] - 1
    cash = np.zeros(t_len) if cash is None else np.asarray(cash, dtype=float)
    x = w[:, None].copy()
    u = cash[:, None].copy()
    # positions live in one slot; trades equal the cash injections
    return Trajectory(x=x, u=u, cash=cash)


class TestEqualWeightBaseline:
    def test_zero_returns_constant_wealth(self):
        paths = flat_paths(4, 5, 3)
        trajs = equal_weight_baseline(paths, np.full(4, 25.0), r_f=0.0, dt=0.25)
        for traj in trajs:
            assert np.allclose(traj.x.sum(axis=1), 100.0, atol=1e-12)
            assert np.array_equal(traj.u, np.zeros((5, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0_rejected(self, bad):
        paths = flat_paths(2, 3, 3)
        with pytest.raises(ParameterError, match="x0"):
            equal_weight_baseline(paths, np.array([bad, 1.0, 1.0, 1.0]), r_f=0.02, dt=0.25)

    def test_bond_only_compounds_deterministically(self):
        paths = flat_paths(2, 6, 2, value=0.123)  # risky returns ignored by bond slot
        x0 = np.array([1000.0, 0.0, 0.0])
        trajs = equal_weight_baseline(paths, x0, r_f=0.02, dt=0.25)
        for traj in trajs:
            assert traj.x[6, 0] == pytest.approx(1000.0 * 1.005**6, rel=1e-14)
            assert traj.x[6, 1:].sum() == 0.0

    def test_pure_function_of_paths(self):
        rng = np.random.default_rng(5)
        shape = (3, 4, 2)
        paths = ReturnPaths(
            expected=np.zeros(shape), realized=rng.normal(0.01, 0.05, shape),
            market=np.zeros((3, 4)),
        )
        a = equal_weight_baseline(paths, np.full(3, 10.0), 0.02, 0.25)
        b = equal_weight_baseline(paths, np.full(3, 10.0), 0.02, 0.25)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.x, tb.x)

    def test_matches_per_path_loop(self):
        rng = np.random.default_rng(6)
        shape = (7, 5, 4)
        paths = ReturnPaths(
            expected=np.zeros(shape), realized=rng.normal(0.01, 0.08, shape),
            market=np.zeros(shape[:2]),
        )
        x0 = rng.uniform(10.0, 300.0, size=5)
        got = equal_weight_baseline(paths, x0, 0.02, 0.25)
        want = equal_weight_loop(paths, x0, 0.02, 0.25)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g.x, w.x)
            assert np.array_equal(g.u, w.u)
            assert np.array_equal(g.cash, w.cash)


class TestSharpe:
    def test_constant_positive_excess_is_undefined(self):
        # wealth doubles every period: returns are exactly 1.0 each
        traj = single_asset_trajectory([1.0, 2.0, 4.0, 8.0, 16.0])
        with pytest.raises(UndefinedSharpeError):
            sharpe(batch([traj]), r_f=0.0, dt=0.25)

    def test_alternating_returns_zero_sharpe(self):
        a = 0.125
        rets = np.array([a, -a, a, -a, a, -a])
        w = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + rets]))
        traj = single_asset_trajectory(w)
        got = sharpe(batch([traj]), r_f=0.0, dt=0.25)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_hand_built_series_matches_direct_formula(self):
        rets = np.array([0.02, -0.01, 0.03, 0.005])
        w = 50.0 * np.cumprod(np.concatenate([[1.0], 1.0 + rets]))
        traj = single_asset_trajectory(w)
        r_f, dt = 0.02, 0.25
        excess = rets - r_f * dt
        want = excess.mean() / excess.std(ddof=1) * np.sqrt(1.0 / dt)
        assert sharpe(batch([traj]), r_f, dt) == pytest.approx(want, rel=1e-12)

    def test_too_few_periods(self):
        traj = single_asset_trajectory([1.0, 2.0])
        with pytest.raises(UndefinedSharpeError):
            sharpe(batch([traj]), r_f=0.0, dt=0.25)


class TestCashflowNeutrality:
    def test_contributions_change_wealth_not_returns(self):
        # zero-return environment: wealth grows by each installment while the
        # computed investment return stays exactly zero
        cash = np.array([10.0, 20.0, 0.0, 5.0])
        w = np.concatenate([[100.0], 100.0 + np.cumsum(cash)])
        traj = single_asset_trajectory(w, cash=cash)
        rets = _returns(traj.x.sum(axis=1), traj.cash)
        assert np.array_equal(rets, np.zeros(4))
        assert traj.x[-1, 0] == 135.0

    def test_cash_column_consistent_with_trades(self):
        cash = np.array([3.0, -2.0])
        traj = single_asset_trajectory([10.0, 13.5, 12.0], cash=cash)
        for t in range(2):
            assert traj.cash[t] == cash_installment(traj.u[t])


class TestPerformanceSummary:
    def test_shapes_and_finiteness(self, rng):
        w = np.abs(rng.normal(100.0, 10.0, size=(6,))).cumsum() + 50.0
        trajs = [single_asset_trajectory(w * (1.0 + 0.01 * k)) for k in range(3)]
        summary = performance_summary(batch(trajs), r_f=0.02, dt=0.25)
        assert summary.mean_returns.shape == (5,)
        assert np.isfinite(summary.mean_returns).all()
        assert np.isfinite(summary.sharpe)
        assert summary.terminal_wealth_stats["q05"] <= summary.terminal_wealth_stats["q95"]
        assert summary.shortfall is None

    def test_shortfall_diagnostic(self):
        params = RewardParams(lam=0.001, eta=1.0, rho=1.0, omega=0.1)
        # target = eta * wealth = wealth; wealth falls each period, so the
        # shortfall is the previous-period wealth minus the new one
        w = np.array([100.0, 90.0, 80.0])
        traj = single_asset_trajectory(w)
        bench = BenchmarkPath(b=np.array([1.0, 1.0]))
        summary = performance_summary(batch([traj]), 0.0, 0.25, params=params, benchmark=bench)
        assert summary.shortfall == pytest.approx([10.0, 10.0])

    def test_pooled_results_match_per_path_definitions(self):
        rng = np.random.default_rng(8)
        t_len = 6
        trajs = []
        for _ in range(9):
            x = rng.uniform(50.0, 150.0, size=(t_len + 1, 3))
            u = rng.normal(0.0, 5.0, size=(t_len, 3))
            trajs.append(Trajectory(x=x, u=u, cash=cash_installment(u)))
        params = RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15)
        bench = BenchmarkPath(b=rng.uniform(200.0, 400.0, size=t_len))
        summary = performance_summary(batch(trajs), 0.02, 0.25, params=params, benchmark=bench)
        assert np.array_equal(summary.shortfall, shortfall_loop(trajs, params, bench))
        assert summary.shortfall.max() > 0.0
        assert summary.sharpe == sharpe(batch(trajs), 0.02, 0.25)
        want_returns = np.mean([_returns(t.x.sum(axis=1), t.cash) for t in trajs], axis=0)
        assert np.array_equal(summary.mean_returns, want_returns)
        terminal = [t.x[-1].sum() for t in trajs]
        assert summary.terminal_wealth_stats["mean"] == pytest.approx(np.mean(terminal), rel=1e-15)


BAD_RATES = [("r_f", np.nan, 0.25), ("r_f", np.inf, 0.25), ("dt", 0.02, -0.25),
             ("dt", 0.02, 0.0), ("dt", 0.02, np.nan), ("dt", 0.02, np.inf)]


class TestRateArguments:
    # a bad dt or a non-finite r_f is a ParameterError naming the argument,
    # not a NaN, a RuntimeWarning or a ZeroDivisionError

    @pytest.mark.parametrize("name, r_f, dt", BAD_RATES)
    def test_equal_weight_baseline(self, name, r_f, dt):
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            equal_weight_baseline(flat_paths(2, 3, 3), np.full(4, 25.0), r_f=r_f, dt=dt)

    @pytest.mark.parametrize("name, r_f, dt", BAD_RATES)
    def test_sharpe(self, name, r_f, dt):
        traj = single_asset_trajectory([100.0, 102.0, 101.0, 104.0])
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            sharpe(batch([traj]), r_f=r_f, dt=dt)

    @pytest.mark.parametrize("name, r_f, dt", BAD_RATES)
    def test_performance_summary(self, name, r_f, dt):
        traj = single_asset_trajectory([100.0, 102.0, 101.0, 104.0])
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            performance_summary(batch([traj]), r_f=r_f, dt=dt)
