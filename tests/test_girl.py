"""Likelihood and fit tests for the inverse problem."""

import numpy as np
import pytest

import gwealth.girl as girl_mod
from gwealth.errors import (
    DegenerateTransitionError,
    DivergenceError,
    ParameterError,
)
from gwealth.girl import (
    FitConfig,
    GirlParams,
    default_slice_grids,
    fit,
    loss_slices,
    nll_from_stats,
    nll_gradient,
    pack_reward,
    prepare_stats,
    scaled_start,
    transition_log_prob,
    unpack_reward,
)
from gwealth.glearner import policy_mean, rollout, solve_plan
from gwealth.market import ReturnCovariance, ReturnPaths
from gwealth.rewards import RewardParams

from conftest import random_problem, random_spd
from oracles import action_log_prob, mvn_logpdf, trajectory_nll


def make_setup(rng, n=3, t_len=3, n_paths=40, beta=50.0, gamma=0.95, lam=None):
    """Ground-truth parameters, a solved plan, and synthetic trajectories whose
    transition residuals follow the plan's return covariance exactly."""
    params, rbar_path, sigma_r, benchmark, prior0, _ = random_problem(
        rng, n, t_len, zero_prior_mean=True
    )
    if lam is not None:
        params = RewardParams(lam=lam, eta=params.eta, rho=params.rho, omega=params.omega)
    theta = GirlParams(
        reward=params, sigma_r=sigma_r, sigma_p=prior0.sigma_p,
        u_bar=np.zeros(n), beta=beta, gamma=gamma, benchmark=benchmark,
    )
    plan = solve_plan(params, rbar_path, sigma_r, benchmark, theta.prior(),
                      theta.solver_config())
    eps = rng.multivariate_normal(
        np.zeros(n - 1), sigma_r.sigma_r, size=(n_paths, t_len)
    )
    expected = np.tile(rbar_path[None, :, 1:], (n_paths, 1, 1))
    paths = ReturnPaths(
        expected=expected, realized=expected + eps,
        market=np.zeros((n_paths, t_len)),
    )
    trajs = rollout(plan, paths, np.full(n, 30.0), np.random.default_rng(901))
    return theta, plan, trajs, rbar_path


class TestTransitionLogProb:
    def test_zero_residual(self, rng):
        sigma_r = ReturnCovariance(sigma_r=random_spd(rng, 3, scale=0.05))
        rbar = np.concatenate([[0.005], rng.uniform(0.0, 0.05, size=3)])
        x = rng.uniform(5.0, 20.0, size=4)
        u = rng.uniform(-1.0, 1.0, size=4)
        x_next = (1.0 + rbar) * (x + u)
        got = transition_log_prob(x_next, x, u, rbar, sigma_r)
        _, logdet = np.linalg.slogdet(sigma_r.sigma_r)
        assert got == pytest.approx(-0.5 * logdet, rel=1e-12)

    def test_scalar_density(self, rng):
        from scipy import stats

        sigma_r = ReturnCovariance(sigma_r=np.array([[0.003]]))
        rbar = np.array([0.005, 0.02])
        x = np.array([10.0, 12.0])
        u = np.array([0.5, -0.3])
        x_next = np.array([10.05, 12.3])
        got = transition_log_prob(x_next, x, u, rbar, sigma_r)
        delta = x_next[1] / (x[1] + u[1]) - 1.02
        want = stats.norm(0.0, np.sqrt(0.003)).logpdf(delta) + 0.5 * np.log(2 * np.pi)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_independent_mvn_logpdf(self, rng):
        n_risky = 3
        sigma_r = ReturnCovariance(sigma_r=random_spd(rng, n_risky, scale=0.05))
        rbar = np.concatenate([[0.005], rng.uniform(0.0, 0.05, size=n_risky)])
        x = rng.uniform(5.0, 20.0, size=n_risky + 1)
        u = rng.uniform(-1.0, 1.0, size=n_risky + 1)
        x_next = (1.0 + rbar + 0.01 * rng.standard_normal(n_risky + 1)) * (x + u)
        got = transition_log_prob(x_next, x, u, rbar, sigma_r)
        delta = x_next[1:] / (x[1:] + u[1:]) - (1.0 + rbar[1:])
        want = mvn_logpdf(delta, np.zeros(n_risky), sigma_r.sigma_r) \
            + 0.5 * n_risky * np.log(2.0 * np.pi)
        assert got == pytest.approx(want, abs=1e-12)

    def test_all_positions_degenerate(self, rng):
        sigma_r = ReturnCovariance(sigma_r=np.eye(2) * 0.01)
        x = np.array([10.0, 1e-12, -1e-12])
        u = np.zeros(3)
        with pytest.raises(DegenerateTransitionError):
            transition_log_prob(np.ones(3), x, u, np.full(3, 0.01), sigma_r)

    def test_subblock_exclusion(self, rng):
        sigma = random_spd(rng, 2, scale=0.05)
        sigma_r = ReturnCovariance(sigma_r=sigma)
        rbar = np.array([0.005, 0.02, 0.03])
        x = np.array([10.0, 8.0, 1e-12])  # third asset excluded
        u = np.zeros(3)
        x_next = np.array([10.05, 8.4, 0.0])
        got = transition_log_prob(x_next, x, u, rbar, sigma_r)
        delta = np.array([x_next[1] / 8.0 - 1.02])
        sub = sigma[:1, :1]
        want = -0.5 * np.log(np.linalg.det(sub)) - 0.5 * delta @ np.linalg.solve(sub, delta)
        assert got == pytest.approx(float(want), rel=1e-12)


class TestActionLogProb:
    def test_vanishing_beta_gives_prior(self, rng):
        theta, plan, trajs, rbar_path = make_setup(rng, beta=1e-12)
        x = trajs[0].x[0]
        u = trajs[0].u[0]
        got = action_log_prob(plan, 0, x, u, beta=1e-12)
        want = mvn_logpdf(u, theta.u_bar, theta.sigma_p)
        assert got == pytest.approx(want, abs=1e-8)

    def test_equals_posterior_gaussian_density(self, rng):
        theta, plan, trajs, rbar_path = make_setup(rng, beta=20.0)
        for _ in range(20):
            t = int(rng.integers(0, plan.horizon))
            x = rng.normal(20.0, 10.0, size=3)
            u = rng.normal(0.0, 2.0, size=3)
            got = action_log_prob(plan, t, x, u, beta=theta.beta)
            want = mvn_logpdf(u, policy_mean(plan, t, x), plan.policy.sigma_tilde[t])
            assert got == pytest.approx(want, abs=1e-8)

    def test_value_at_posterior_mean(self, rng):
        theta, plan, trajs, _ = make_setup(rng, beta=20.0)
        t = 1
        x = rng.normal(20.0, 5.0, size=3)
        mean = policy_mean(plan, t, x)
        got = action_log_prob(plan, t, x, mean, beta=theta.beta)
        want = -0.5 * np.log(
            (2.0 * np.pi) ** 3 * np.linalg.det(plan.policy.sigma_tilde[t])
        )
        assert got == pytest.approx(float(want), rel=1e-10)


class TestTrajectoryNLL:
    def test_empty_list(self, rng):
        theta, _, _, rbar_path = make_setup(rng)
        assert trajectory_nll(theta, [], rbar_path) == 0.0

    def test_single_step_additivity_base_case(self, rng):
        theta, plan, trajs, rbar_path = make_setup(rng, t_len=1)
        traj = trajs[0]
        got = trajectory_nll(theta, [traj], rbar_path)
        want = -(
            action_log_prob(plan, 0, traj.x[0], traj.u[0], theta.beta)
            + transition_log_prob(traj.x[1], traj.x[0], traj.u[0], rbar_path[0], theta.sigma_r)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_likelihood_additivity(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=8)
        whole = trajectory_nll(theta, trajs, rbar_path)
        parts = trajectory_nll(theta, trajs[:3], rbar_path) + trajectory_nll(
            theta, trajs[3:], rbar_path
        )
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_fast_path_matches_direct(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=12)
        direct = trajectory_nll(theta, trajs, rbar_path)
        stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
        fast = nll_from_stats(theta, stats, rbar_path)
        assert fast == pytest.approx(direct, rel=1e-9)

    def test_truth_beats_grid_neighbors(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=60, beta=100.0)
        base = trajectory_nll(theta, trajs, rbar_path)
        for name, factor in (("lam", 1.5), ("eta", 1.01), ("rho", 1.3), ("omega", 1.5)):
            reward = theta.reward
            bumped = {
                "lam": reward.lam, "eta": reward.eta,
                "rho": reward.rho, "omega": float(reward.omega),
            }
            bumped[name] = bumped[name] * factor
            other = theta.with_reward(RewardParams(**bumped))
            assert trajectory_nll(other, trajs, rbar_path) > base


class TestReparameterization:
    def test_roundtrip_identity(self, rng):
        for _ in range(20):
            reward = RewardParams(
                lam=float(rng.uniform(1e-4, 0.1)),
                eta=float(rng.uniform(1.0, 1.2)),
                rho=float(rng.uniform(0.05, 0.95)),
                omega=float(rng.uniform(0.01, 1.0)),
            )
            back = unpack_reward(pack_reward(reward))
            assert back.lam == pytest.approx(reward.lam, rel=1e-12)
            assert back.eta == pytest.approx(reward.eta, rel=1e-12)
            assert back.rho == pytest.approx(reward.rho, rel=1e-12)
            assert float(back.omega) == pytest.approx(float(reward.omega), rel=1e-12)

    def test_scaled_start_never_at_truth(self):
        reward = RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15)
        start = scaled_start(reward, 2.0)
        assert start.lam == pytest.approx(0.002)
        assert start.eta == pytest.approx(1.02)
        assert start.rho == pytest.approx(0.8)
        assert float(start.omega) == pytest.approx(0.3)
        with pytest.raises(ParameterError):
            scaled_start(reward, 1.0)


class TestGradient:
    def test_richardson_order_two(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=20, beta=20.0)
        h = 2e-3
        grads = {}
        for mult in (1.0, 2.0, 4.0):
            cfg = FitConfig(fd_step=h * mult)
            grads[mult] = nll_gradient(theta, trajs, rbar_path, cfg)
        num = grads[4.0] - grads[2.0]
        den = grads[2.0] - grads[1.0]
        ratio = num / den
        assert np.all(np.abs(ratio - 4.0) < 0.2)  # 5% of the exact factor 4

    def test_forward_backward_bracket_central(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=20, beta=20.0)
        stats = prepare_stats(trajs, rbar_path, theta.sigma_r)

        def nll_fn(vec):
            return nll_from_stats(theta.with_reward(unpack_reward(vec)), stats, rbar_path)

        vec = pack_reward(theta.reward)
        h_rel = 1e-3
        for i in range(4):
            h = h_rel * max(abs(vec[i]), 1.0)
            up = vec.copy()
            up[i] += h
            down = vec.copy()
            down[i] -= h
            f0, fu, fd = nll_fn(vec), nll_fn(up), nll_fn(down)
            forward = (fu - f0) / h
            backward = (f0 - fd) / h
            central = (fu - fd) / (2.0 * h)
            assert min(forward, backward) <= central <= max(forward, backward)

    def test_step_size_consistency(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=20, beta=20.0)
        base = theta.reward
        probes = [base] + [
            RewardParams(
                lam=base.lam * float(rng.uniform(0.7, 1.4)),
                eta=1.0 + (base.eta - 1.0) * float(rng.uniform(0.7, 1.4)),
                rho=min(0.9, base.rho * float(rng.uniform(0.8, 1.2))),
                omega=float(base.omega) * float(rng.uniform(0.7, 1.4)),
            )
            for _ in range(2)
        ]
        for reward in probes:
            at = theta.with_reward(reward)
            g4 = nll_gradient(at, trajs, rbar_path, FitConfig(fd_step=1e-4))
            g5 = nll_gradient(at, trajs, rbar_path, FitConfig(fd_step=1e-5))
            assert np.all(np.abs(g4 - g5) <= 0.01 * np.maximum(np.abs(g5), 1e-6))

    def test_gradient_small_at_slice_minimum(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=60, beta=100.0)
        slices = loss_slices(theta, trajs, rbar_path)
        grid, vals = slices["lam"]
        i = int(np.argmin(vals))
        assert 0 < i < len(grid) - 1  # interior minimum
        cell = grid[1] - grid[0]
        curvature = (vals[i + 1] - 2.0 * vals[i] + vals[i - 1]) / cell**2
        at_min = theta.with_reward(
            RewardParams(lam=float(grid[i]), eta=theta.reward.eta,
                         rho=theta.reward.rho, omega=theta.reward.omega)
        )
        grad = nll_gradient(at_min, trajs, rbar_path, FitConfig(fd_step=1e-5))
        # d/d(ln lam) = lam * d/d(lam); bound is curvature * one cell
        grad_lam = grad[0] / float(grid[i])
        assert abs(grad_lam) <= 1.5 * curvature * cell


class TestFit:
    def test_start_at_truth_stays_at_truth(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=40, beta=50.0)
        cfg = FitConfig(learning_rate=1e-4, max_iters=10)
        report = fit(trajs, rbar_path, theta, cfg)
        assert report.iterations <= 10
        got = report.params.reward
        assert got.lam == pytest.approx(theta.reward.lam, rel=1e-3)
        assert got.eta == pytest.approx(theta.reward.eta, rel=1e-3)
        assert got.rho == pytest.approx(theta.reward.rho, rel=1e-3)
        assert float(got.omega) == pytest.approx(float(theta.reward.omega), rel=1e-3)

    def test_empty_trajectories_rejected(self, rng):
        theta, _, _, rbar_path = make_setup(rng)
        with pytest.raises(ParameterError):
            fit([], rbar_path, theta, FitConfig())

    def test_divergence_detector(self, rng, monkeypatch):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=5)
        calls = {"n": 0}

        def increasing_nll(*args, **kwargs):
            calls["n"] += 1
            return float(calls["n"])

        monkeypatch.setattr(girl_mod, "nll_from_stats", increasing_nll)
        with pytest.raises(DivergenceError):
            fit(trajs, rbar_path, theta, FitConfig(max_iters=200))

    def test_uninformative_data_flat_lambda_slice(self, rng):
        # with beta -> 0 the agent ignores the reward, so the likelihood
        # carries no signal about lam
        theta, plan, trajs, rbar_path = make_setup(rng, n_paths=20, beta=1e-12)
        slices = loss_slices(theta, trajs, rbar_path,
                             {"lam": default_slice_grids(theta.reward)["lam"]})
        _, vals = slices["lam"]
        assert vals.max() - vals.min() < 1e-6

    def test_fit_recovers_on_small_instance(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=80, beta=200.0)
        start = theta.with_reward(scaled_start(theta.reward, 2.0))
        report = fit(trajs, rbar_path, start, FitConfig(max_iters=400))
        got = report.params.reward
        assert got.rho == pytest.approx(theta.reward.rho, abs=0.08)
        assert got.lam == pytest.approx(theta.reward.lam, rel=0.35)
        assert got.eta == pytest.approx(theta.reward.eta, abs=0.05)
        assert float(got.omega) == pytest.approx(float(theta.reward.omega), rel=0.15)
