"""Likelihood and fit tests for the inverse problem."""

import numpy as np
import pytest

import gwealth.girl as girl_mod
from gwealth.errors import (
    DegenerateTransitionError,
    InfeasibleError,
    ParameterError,
)
from gwealth.girl import (
    LINE_SEARCH_TRIALS,
    FitConfig,
    GirlParams,
    default_slice_grids,
    fit,
    loss_slices,
    nll_from_stats,
    pack_reward,
    prepare_stats,
    scaled_start,
    transition_log_prob,
    unpack_reward,
)
from gwealth.glearner import default_prior, policy_mean, rollout, solve_plan
from gwealth.market import (
    MarketSpec,
    ReturnCovariance,
    ReturnPaths,
    mean_expected_returns,
    residual_covariance,
    simulate,
)
from gwealth.rewards import RewardParams, exponential_benchmark, reward_basis

from conftest import random_problem, random_spd
from oracles import (
    action_log_prob, fd_gradient, mvn_logpdf, nll_gradient, sigma_tilde, trajectory_nll,
)


def make_setup(rng, n=3, t_len=3, n_paths=40, beta=50.0, gamma=0.95, lam=None,
               u_bar=None):
    """Ground-truth parameters, a solved plan, and synthetic trajectories whose
    transition residuals follow the plan's return covariance exactly.  The
    prior mean is ``u_bar`` (zero by default)."""
    params, rbar_path, sigma_r, benchmark, prior0, _ = random_problem(
        rng, n, t_len, zero_prior_mean=True
    )
    if lam is not None:
        params = RewardParams(lam=lam, eta=params.eta, rho=params.rho, omega=params.omega)
    theta = GirlParams(
        reward=params, sigma_r=sigma_r, sigma_p=prior0.sigma_p,
        u_bar=np.zeros(n) if u_bar is None else u_bar, beta=beta, gamma=gamma,
        benchmark=benchmark,
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
            want = mvn_logpdf(u, policy_mean(plan, t, x), sigma_tilde(plan, t))
            assert got == pytest.approx(want, abs=1e-8)

    def test_value_at_posterior_mean(self, rng):
        theta, plan, trajs, _ = make_setup(rng, beta=20.0)
        t = 1
        x = rng.normal(20.0, 5.0, size=3)
        mean = policy_mean(plan, t, x)
        got = action_log_prob(plan, t, x, mean, beta=theta.beta)
        want = -0.5 * np.log(
            (2.0 * np.pi) ** 3 * np.linalg.det(sigma_tilde(plan, t))
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
            grads[mult] = nll_gradient(theta, trajs, rbar_path, h * mult)
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
            g4 = nll_gradient(at, trajs, rbar_path, 1e-4)
            g5 = nll_gradient(at, trajs, rbar_path, 1e-5)
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
        grad = nll_gradient(at_min, trajs, rbar_path, 1e-5)
        # d/d(ln lam) = lam * d/d(lam); bound is curvature * one cell
        grad_lam = grad[0] / float(grid[i])
        assert abs(grad_lam) <= 1.5 * curvature * cell


def solve_at(theta, rbar_path):
    """The market terms of theta and rbar_path, and the plan solved on them."""
    basis = reward_basis(rbar_path, theta.sigma_r, theta.benchmark)
    return basis, girl_mod._solve_for(theta, basis, theta.prior())


def exact_gradient(theta, trajs, rbar_path):
    """The fit's gradient: one tangent pass over the plan solved at theta."""
    stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
    return girl_mod._plan_gradient(theta, *solve_at(theta, rbar_path), stats)


def richardson_gradient(theta, trajs, rbar_path):
    """The finite-difference oracle at relative steps 1e-4 and 5e-5,
    Richardson-extrapolated to fourth order."""
    coarse = nll_gradient(theta, trajs, rbar_path, 1e-4)
    fine = nll_gradient(theta, trajs, rbar_path, 5e-5)
    return (4.0 * fine - coarse) / 3.0


def gradient_error(got, want):
    """Per-component relative error, floored at 1e-8 of the largest component."""
    floor = 1e-8 * np.max(np.abs(want))
    return np.abs(got - want) / np.maximum(np.abs(want), floor)


class TestExactGradient:
    def test_matches_richardson_oracle(self, rng):
        worst = 0.0
        for case in range(24):
            n = int(rng.integers(2, 6))
            u_bar = rng.normal(0.0, 2.0, size=n) if case % 2 else None
            theta, _, trajs, rbar_path = make_setup(
                rng, n=n, t_len=int(rng.integers(1, 6)), n_paths=30,
                beta=float(10.0 ** rng.uniform(0.0, 3.0)), u_bar=u_bar,
            )
            if case % 4 >= 2:  # off the generating parameters
                theta = theta.with_reward(scaled_start(theta.reward, 1.3))
            err = gradient_error(exact_gradient(theta, trajs, rbar_path),
                                 richardson_gradient(theta, trajs, rbar_path))
            worst = max(worst, float(err.max()))
        assert worst <= 1e-5

    @pytest.mark.slow
    def test_matches_richardson_oracle_on_reference_market(self):
        # the acceptance market (seed 7, 100 assets, 30 periods, 1000 paths) at the truth
        spec = MarketSpec(seed=7)
        paths = simulate(spec)
        sigma_r = residual_covariance(paths)
        rbar_path = np.concatenate(
            [np.full((spec.horizon, 1), spec.r_f * spec.dt), mean_expected_returns(paths)],
            axis=1)
        prior = default_prior(spec.n_risky + 1, sigma_p_scale=10.0)
        theta = GirlParams(
            reward=RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15), sigma_r=sigma_r,
            sigma_p=prior.sigma_p, u_bar=prior.u_bar, beta=1000.0, gamma=0.95,
            benchmark=exponential_benchmark(1000.0, 0.5, spec.horizon, spec.dt),
        )
        _, plan = solve_at(theta, rbar_path)
        x0 = np.full(spec.n_risky + 1, 1000.0 / (spec.n_risky + 1))
        trajs = rollout(plan, paths, x0, np.random.default_rng(
            np.random.SeedSequence(entropy=7, spawn_key=(1,))))
        err = gradient_error(exact_gradient(theta, trajs, rbar_path),
                             richardson_gradient(theta, trajs, rbar_path))
        assert err.max() <= 1e-5


class TestFit:
    def test_restart_at_fit_stays_there(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=80, beta=200.0)
        start = theta.with_reward(scaled_start(theta.reward, 2.0))
        first = fit(trajs, rbar_path, start, FitConfig(max_iters=400))
        assert first.converged
        again = fit(trajs, rbar_path, first.params, FitConfig(max_iters=400))
        assert again.stop_reason == "converged"
        assert again.iterations <= 2
        moved = pack_reward(again.params.reward) - pack_reward(first.params.reward)
        assert np.max(np.abs(moved)) < 1e-4

    def test_final_loss_is_the_likelihood_of_the_fit(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=60, beta=100.0)
        start = theta.with_reward(scaled_start(theta.reward, 2.0))
        report = fit(trajs, rbar_path, start, FitConfig(max_iters=400))
        assert report.converged and report.iterations > 0
        stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
        assert report.loss_path[-1] == nll_from_stats(report.params, stats, rbar_path)
        # one solve per trial, no solve for a gradient
        assert report.iterations + 1 <= report.solves <= 2 * report.iterations + 1

    def test_one_reward_basis_per_fit(self, rng, monkeypatch):
        # the market terms are built once, and every trial and gradient of
        # the fit runs on them
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=40, beta=50.0)
        start = theta.with_reward(scaled_start(theta.reward, 2.0))
        built = []

        def counted_basis(*args):
            built.append(reward_basis(*args))
            return built[-1]

        monkeypatch.setattr(girl_mod, "reward_basis", counted_basis)
        report = fit(trajs, rbar_path, start, FitConfig(max_iters=5))
        assert report.iterations > 0 and report.solves > report.iterations
        assert len(built) == 1

    def test_empty_trajectories_rejected(self, rng):
        theta, _, _, rbar_path = make_setup(rng)
        with pytest.raises(ParameterError):
            fit([], rbar_path, theta, FitConfig())

    def test_rising_loss_ends_in_line_search(self, rng, monkeypatch):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=5)
        calls = {"n": 0}

        def increasing_nll(*args, **kwargs):
            calls["n"] += 1
            return float(calls["n"])

        monkeypatch.setattr(girl_mod, "_nll_on_plan", increasing_nll)
        report = fit(trajs, rbar_path, theta, FitConfig(max_iters=200))
        assert report.stop_reason == "line_search" and not report.converged
        assert report.iterations == 0
        assert np.array_equal(report.loss_path, [1.0])
        np.testing.assert_allclose(pack_reward(report.params.reward),
                                   pack_reward(theta.reward), rtol=1e-12)
        # the start, then every trial of one line search; the exact gradient
        # evaluates no loss
        assert calls["n"] == 1 + LINE_SEARCH_TRIALS
        assert report.solves == calls["n"]

    def test_infeasible_trials_are_backtracked(self, rng, monkeypatch):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=40, beta=50.0)
        start = theta.with_reward(scaled_start(theta.reward, 2.0))
        vec0 = pack_reward(start.reward)
        solve = girl_mod._solve_for
        tangent_pass = girl_mod.tangent_pass
        rejected = {"n": 0}
        tangent_passes = {"n": 0}

        def walled_solve(at, *args, **kwargs):
            if np.linalg.norm(pack_reward(at.reward) - vec0) > 0.3:
                rejected["n"] += 1
                raise InfeasibleError("trial beyond the wall")
            return solve(at, *args, **kwargs)

        def counted_tangent_pass(*args, **kwargs):
            tangent_passes["n"] += 1
            return tangent_pass(*args, **kwargs)

        monkeypatch.setattr(girl_mod, "_solve_for", walled_solve)
        monkeypatch.setattr(girl_mod, "tangent_pass", counted_tangent_pass)
        report = fit(trajs, rbar_path, start, FitConfig(max_iters=1))
        # the unit-length first trial and its first halving hit the wall
        assert rejected["n"] == 2
        # the start and the accepted trial solve as well; only the start,
        # where the one iteration began, gets a tangent pass
        assert report.solves == 2 + rejected["n"]
        assert tangent_passes["n"] == 1
        assert report.stop_reason == "budget" and report.iterations == 1
        assert report.loss_path[1] < report.loss_path[0]
        assert np.linalg.norm(pack_reward(report.params.reward) - vec0) <= 0.3

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
        assert report.converged
        assert np.all(np.diff(report.loss_path) < 0.0)
        got = report.params.reward
        assert got.rho == pytest.approx(theta.reward.rho, abs=0.08)
        assert got.lam == pytest.approx(theta.reward.lam, rel=0.35)
        assert got.eta == pytest.approx(theta.reward.eta, abs=0.05)
        assert float(got.omega) == pytest.approx(float(theta.reward.omega), rel=0.15)

    def test_fit_matches_scipy_bfgs(self, rng):
        from scipy.optimize import minimize

        theta, _, trajs, rbar_path = make_setup(rng, n_paths=80, beta=200.0)
        start = theta.with_reward(scaled_start(theta.reward, 2.0))
        cfg = FitConfig(max_iters=400)
        report = fit(trajs, rbar_path, start, cfg)
        stats = prepare_stats(trajs, rbar_path, theta.sigma_r)

        def nll_fn(vec):
            return nll_from_stats(start.with_reward(unpack_reward(vec)), stats, rbar_path)

        ref = minimize(nll_fn, pack_reward(start.reward), method="BFGS",
                       jac=lambda vec: fd_gradient(nll_fn, vec, 1e-5))
        assert report.converged
        assert abs(report.loss_path[-1] - ref.fun) <= 2.0 * cfg.stop_tol
        np.testing.assert_allclose(pack_reward(report.params.reward), ref.x, atol=1e-3)
