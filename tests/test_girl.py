"""Likelihood and fit tests for the inverse problem."""

import math
import os
import re
import sys
import threading
import time
import types
from dataclasses import replace

import numpy as np
import pytest

import gwealth.girl as girl_mod
import gwealth.glearner as glearner_mod
import gwealth.rewards as rewards_mod
from gwealth.errors import GradientError, InfeasibleError, ParameterError, ShapeError
from gwealth.girl import (
    DAMPING_TRIALS,
    PARAM_NAMES,
    STOP_TOL,
    FitConfig,
    GirlParams,
    default_slice_grids,
    fit,
    loss_slices,
    nll_from_stats,
    pack_reward,
    prepare_stats,
    scaled_start,
    unpack_reward,
)
from gwealth.glearner import Trajectories, backward_pass, default_prior, rollout, solve_plan
from gwealth.market import (
    MarketSpec,
    ReturnCovariance,
    ReturnPaths,
    mean_expected_returns,
    residual_covariance,
    simulate,
)
from gwealth.rewards import RewardBasis, RewardParams, exponential_benchmark, reward_basis

from conftest import random_problem, random_spd
from oracles import (
    action_log_prob, adjoint_gradient, fd_gradient, mvn_logpdf, nll_gradient, plan_g,
    policy_mean, sigma_tilde, tangent_gradient, trajectory_nll,
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


def theta_g(theta, plan, rbar_path):
    """G at every step of the plan solved under ``theta`` (``plan_g``)."""
    return plan_g(plan, theta.prior(), reward_basis(rbar_path, theta.sigma_r, theta.benchmark)
                  .coeffs(theta.reward), theta.solver_config())


class TestActionLogProb:
    def test_vanishing_beta_gives_prior(self, rng):
        theta, plan, trajs, rbar_path = make_setup(rng, beta=1e-12)
        x = trajs[0].x[0]
        u = trajs[0].u[0]
        got = action_log_prob(theta.prior(), theta_g(theta, plan, rbar_path)[0], x, u,
                              beta=1e-12)
        want = mvn_logpdf(u, theta.u_bar, theta.sigma_p)
        assert got == pytest.approx(want, abs=1e-8)

    def test_equals_posterior_gaussian_density(self, rng):
        theta, plan, trajs, rbar_path = make_setup(rng, beta=20.0)
        g = theta_g(theta, plan, rbar_path)
        for _ in range(20):
            t = int(rng.integers(0, plan.horizon))
            x = rng.normal(20.0, 10.0, size=3)
            u = rng.normal(0.0, 2.0, size=3)
            got = action_log_prob(theta.prior(), g[t], x, u, beta=theta.beta)
            want = mvn_logpdf(u, policy_mean(plan, t, x), sigma_tilde(plan, t))
            assert got == pytest.approx(want, abs=1e-8)

    def test_value_at_posterior_mean(self, rng):
        theta, plan, trajs, rbar_path = make_setup(rng, beta=20.0)
        t = 1
        x = rng.normal(20.0, 5.0, size=3)
        mean = policy_mean(plan, t, x)
        got = action_log_prob(theta.prior(), theta_g(theta, plan, rbar_path)[t], x, mean,
                              beta=theta.beta)
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
        want = -action_log_prob(theta.prior(), theta_g(theta, plan, rbar_path)[0],
                                traj.x[0], traj.u[0], theta.beta)
        assert got == pytest.approx(want, rel=1e-12)

    def test_likelihood_additivity(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=8)
        whole = trajectory_nll(theta, trajs, rbar_path)
        parts = trajectory_nll(theta, list(trajs)[:3], rbar_path) + trajectory_nll(
            theta, list(trajs)[3:], rbar_path
        )
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_fast_path_matches_direct(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=12)
        direct = trajectory_nll(theta, trajs, rbar_path)
        stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
        fast = nll_from_stats(theta, stats, rbar_path)
        assert fast == pytest.approx(direct, rel=1e-9)

    def test_driver_gives_the_same_bits_on_policy_rows_and_step_buffers(self, rng):
        # the fit scores each step in the rows of its trial's policy, the
        # slices and nll_from_stats in one set of step buffers
        theta, _, trajs, rbar_path = make_setup(rng, n=5, t_len=6)
        stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
        basis = reward_basis(rbar_path, theta.sigma_r, theta.benchmark)
        prior = theta.prior()
        for scale in (None, 2.0, 0.5):
            at = theta if scale is None else theta.with_reward(scaled_start(theta.reward, scale))
            policy, rows = glearner_mod._policy_rows(basis.rbar)
            on_rows = girl_mod._nll(at, basis, prior, stats, rows)
            assert on_rows == girl_mod._nll(at, basis, prior, stats, girl_mod._step_buffers(5))
            assert on_rows == nll_from_stats(at, stats, rbar_path)
            want = backward_pass(basis.coeffs(at.reward), prior, at.solver_config(), basis.rbar)
            for name in ("rbar", "u_tilde", "v_tilde", "chol_tilde"):
                assert np.array_equal(getattr(policy, name), getattr(want, name)), name

    def test_terminal_positions_are_not_read(self, rng):
        # the loss is of the actions given the states: the positions after
        # the last trade enter no action density
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=12)
        before = nll_from_stats(theta, prepare_stats(trajs, rbar_path, theta.sigma_r), rbar_path)
        x = trajs.x.copy()
        x[:, -1] *= rng.uniform(0.5, 2.0, size=x[:, -1].shape)
        moved = Trajectories(x=x, u=trajs.u, cash=trajs.cash)
        after = nll_from_stats(theta, prepare_stats(moved, rbar_path, theta.sigma_r), rbar_path)
        assert after == before

    def test_stats_reject_a_market_of_another_width(self, rng):
        theta, _, trajs, rbar_path = make_setup(rng, n=3)
        wide = ReturnCovariance(sigma_r=random_spd(rng, 3, scale=0.05))
        with pytest.raises(ShapeError):
            prepare_stats(trajs, rbar_path, wide)
        with pytest.raises(ShapeError):
            prepare_stats(trajs, np.pad(rbar_path, ((0, 0), (0, 1))), theta.sigma_r)

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

    @pytest.mark.parametrize("name, value, start", [
        ("eta", 0.5, "eta=0 lies outside (0, inf)"),
        ("eta", 0.3, "eta=-0.4 lies outside (0, inf)"),
        ("lam", 1e308, "lam=inf lies outside (0, inf)"),
        ("omega", 1e308, "omega=inf lies outside (0, inf)"),
    ])
    def test_scaled_start_outside_the_domain_names_it(self, name, value, start):
        reward = replace(RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15),
                         **{name: value})
        message = f"start {start}: it is {name}={value:g} moved by the scale 2"
        with pytest.raises(ParameterError, match=re.escape(message) + "$"):
            scaled_start(reward, 2.0)


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
    """The market terms of theta and rbar_path, and the policy solved on them."""
    basis = reward_basis(rbar_path, theta.sigma_r, theta.benchmark)
    return basis, backward_pass(basis.coeffs(theta.reward), theta.prior(),
                                theta.solver_config(), basis.rbar)


def exact_gradient(theta, trajs, rbar_path):
    """The fit's gradient: one tangent pass over the plan solved at theta."""
    stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
    return girl_mod._plan_score(theta, *solve_at(theta, rbar_path), stats)[0]


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


def reference_market_theta(seed, n_paths):
    """The acceptance market (100 assets, 30 periods) of ``seed`` at the
    reference reward, the data rolled out from the plan solved there, and
    the return path."""
    spec = MarketSpec(seed=seed, n_paths=n_paths)
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
        np.random.SeedSequence(entropy=seed, spawn_key=(1,))))
    return theta, trajs, rbar_path


def oracle_errors(theta, trajs, rbar_path):
    """Per-component relative errors of the exact gradient against the
    forward-mode and the adjoint oracles on the same plan."""
    stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
    basis, plan = solve_at(theta, rbar_path)
    got = girl_mod._plan_score(theta, basis, plan, stats)[0]
    return np.maximum(gradient_error(got, tangent_gradient(theta, basis, plan, stats)),
                      gradient_error(got, adjoint_gradient(theta, basis, plan, stats)))


class TestExactGradient:
    def test_matches_forward_mode_oracle(self, rng):
        worst = 0.0
        for case in range(24):
            n = int(rng.integers(2, 6))
            u_bar = rng.normal(0.0, 2.0, size=n) if case % 2 else None
            theta, _, trajs, rbar_path = make_setup(
                rng, n=n, t_len=1 + case % 6, n_paths=30,
                beta=float(10.0 ** rng.uniform(0.0, 3.0)), u_bar=u_bar,
            )
            if case % 4 >= 2:  # off the generating parameters
                theta = theta.with_reward(scaled_start(theta.reward, 1.3))
            worst = max(worst, float(oracle_errors(theta, trajs, rbar_path).max()))
        assert worst <= 1e-10

    def test_matches_forward_mode_oracle_on_reference_market(self):
        theta, trajs, rbar_path = reference_market_theta(seed=1, n_paths=200)
        assert oracle_errors(theta, trajs, rbar_path).max() <= 1e-10

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
        # the acceptance market (seed 7, 1000 paths) at the truth
        theta, trajs, rbar_path = reference_market_theta(seed=7, n_paths=1000)
        err = gradient_error(exact_gradient(theta, trajs, rbar_path),
                             richardson_gradient(theta, trajs, rbar_path))
        assert err.max() <= 1e-5


def expected_stats(stats, plan):
    """The data moments with the actions replaced by their expectations
    under ``plan``'s policy given the observed states: the likelihood of
    these moments is the expected likelihood, so its Hessian at the plan's
    parameters is the Fisher information."""
    v, m = plan.v_tilde, stats.count
    cov = plan.chol_tilde @ np.swapaxes(plan.chol_tilde, 1, 2)
    cux = v @ stats.cxx
    return replace(stats, u_mean=plan.u_tilde + np.einsum("tij,tj->ti", v, stats.x_mean),
                   cux=cux, cuu=cux @ np.swapaxes(v, 1, 2) + m * cov)


class TestInformation:
    def test_matches_fd_jacobian_of_the_gradient(self, rng):
        # at the truth, with the expected moments, the central-difference
        # Jacobian of the exact gradient is the information
        worst = 0.0
        for case in range(12):
            n = int(rng.integers(2, 6))
            u_bar = rng.normal(0.0, 2.0, size=n) if case % 2 else None
            theta, _, trajs, rbar_path = make_setup(
                rng, n=n, t_len=1 + case % 6, n_paths=30,
                beta=float(10.0 ** rng.uniform(0.0, 3.0)), u_bar=u_bar,
            )
            basis, plan = solve_at(theta, rbar_path)
            stats = expected_stats(prepare_stats(trajs, rbar_path, theta.sigma_r), plan)
            grad, info = girl_mod._plan_score(theta, basis, plan, stats)
            vec = pack_reward(theta.reward)
            jac = np.empty((4, 4))
            for i in range(4):
                probes = []
                for d in (1e-5, -1e-5):
                    at = vec.copy()
                    at[i] += d
                    moved = theta.with_reward(unpack_reward(at))
                    probes.append(girl_mod._plan_score(moved, *solve_at(moved, rbar_path),
                                                       stats)[0])
                jac[:, i] = (probes[0] - probes[1]) / 2e-5
            scale = np.sqrt(np.outer(np.diag(info), np.diag(info)))
            worst = max(worst, float(np.max(np.abs(jac - info) / scale)))
            # the truth maximizes the expected likelihood
            assert np.max(np.abs(grad)) <= 1e-8 * np.sqrt(np.max(np.diag(info)))
        assert worst <= 1e-6

    def test_symmetric_positive_semidefinite(self, rng):
        for case in range(12):
            n = int(rng.integers(2, 6))
            theta, _, trajs, rbar_path = make_setup(
                rng, n=n, t_len=1 + case % 6, n_paths=30,
                beta=float(10.0 ** rng.uniform(0.0, 3.0)),
            )
            if case % 2:  # off the generating parameters
                theta = theta.with_reward(scaled_start(theta.reward, 1.5))
            stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
            _, info = girl_mod._plan_score(theta, *solve_at(theta, rbar_path), stats)
            assert np.array_equal(info, info.T)
            eig = np.linalg.eigvalsh(info)
            assert eig[0] >= -1e-12 * eig[-1]

    def test_indefinite_information_never_converges(self, rng, monkeypatch):
        # g'I^{-1}g is negative here, far below STOP_TOL; through a Cholesky
        # factor the decrement of an indefinite I is inf instead
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=5)
        losses = iter(-np.arange(1.0, 100.0))
        monkeypatch.setattr(girl_mod, "_nll", lambda *args: next(losses))
        monkeypatch.setattr(girl_mod, "_plan_score", lambda *args: (
            np.array([0.0, 0.0, 1e-3, 0.0]), np.diag([1.0, 1.0, -1.0, 1.0])))
        report = fit(trajs, rbar_path, theta, FitConfig(max_iters=3))
        assert report.stop_reason == "budget" and report.iterations == 3
        assert report.decrement == np.inf

    @pytest.mark.parametrize("scale", [0.5, 2.0, 3.0, 5.0, 8.0])
    def test_far_starts_converge_or_stop_with_a_reason(self, rng, scale):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=80, beta=200.0)
        cfg = FitConfig(max_iters=400)
        near = fit(trajs, rbar_path, theta.with_reward(scaled_start(theta.reward, 1.5)), cfg)
        report = fit(trajs, rbar_path, theta.with_reward(scaled_start(theta.reward, scale)), cfg)
        assert report.stop_reason in ("converged", "budget", "damping")
        assert np.all(np.diff(report.loss_path) < 0.0)
        report.params.validate()
        if report.converged:  # at the optimum, not where the information went singular
            assert near.converged
            assert abs(report.loss_path[-1] - near.loss_path[-1]) <= 2.0 * STOP_TOL


def small_market(n_paths):
    """A market of 3 assets over 8 periods at the reference reward and
    beta=100, the data rolled out from the plan solved there, and the
    return path."""
    spec = MarketSpec(n_risky=2, horizon=8, n_paths=n_paths)
    paths = simulate(spec)
    rbar_path = np.concatenate(
        [np.full((spec.horizon, 1), spec.r_f * spec.dt), mean_expected_returns(paths)],
        axis=1)
    prior = default_prior(spec.n_risky + 1, sigma_p_scale=10.0)
    theta = GirlParams(
        reward=RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15),
        sigma_r=residual_covariance(paths), sigma_p=prior.sigma_p, u_bar=prior.u_bar,
        beta=100.0, gamma=0.95,
        benchmark=exponential_benchmark(1000.0, 0.5, spec.horizon, spec.dt),
    )
    trajs = rollout(solve_at(theta, rbar_path)[1], paths, np.full(3, 1000.0 / 3),
                    np.random.default_rng(1))
    return theta, trajs, rbar_path


class TestFit:
    @pytest.mark.parametrize("name, value", [
        ("max_iters", 2.5), ("max_iters", True), ("max_iters", 0), ("max_iters", np.int64(0)),
    ])
    def test_fit_config_out_of_range_names_the_field(self, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            FitConfig(**{name: value}).validate()
        FitConfig(max_iters=np.int64(3)).validate()  # a numpy int is an int

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
        # the batch of zero paths that fit would be given is rejected on construction
        theta, _, trajs, rbar_path = make_setup(rng)
        with pytest.raises(ShapeError):
            fit(Trajectories(x=trajs.x[:0], u=trajs.u[:0], cash=trajs.cash[:0]), rbar_path,
                theta, FitConfig())

    def test_non_finite_start_names_its_parameters(self):
        # a lam at the edge of the float range overflows the start's loss,
        # without a warning; the error names the start, not a symptom further down
        theta, trajs, rbar_path = small_market(n_paths=10)
        start = theta.with_reward(replace(theta.reward, lam=1e300))
        with pytest.raises(GradientError, match=r"starting parameters lam=1e\+300, eta=1.01, "
                                                r"rho=0.4, omega=0.15"):
            fit(trajs, rbar_path, start, FitConfig())

    def test_overflowing_score_is_a_clean_error(self):
        # on data from the plan at lam=1e300, the loss at the start lam=2e300
        # is finite but its score is not: a GradientError, without a warning
        theta, _, rbar_path = small_market(n_paths=25)
        at = theta.with_reward(replace(theta.reward, lam=1e300))
        paths = simulate(MarketSpec(n_risky=2, horizon=8, n_paths=25))
        trajs = rollout(solve_at(at, rbar_path)[1], paths, np.full(3, 1000.0 / 3),
                        np.random.default_rng(1))
        start = at.with_reward(replace(at.reward, lam=2e300))
        with pytest.raises(GradientError, match="^non-finite likelihood gradient or information$"):
            fit(trajs, rbar_path, start, FitConfig(max_iters=3))

    def test_rising_loss_ends_in_damping(self, rng, monkeypatch):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=5)
        calls = {"n": 0}
        scores = {"n": 0}
        nll, plan_score = girl_mod._nll, girl_mod._plan_score

        def increasing_nll(*args, **kwargs):
            nll(*args, **kwargs)  # solves the policy that the score reads
            calls["n"] += 1
            return float(calls["n"])

        def counted_score(*args, **kwargs):
            scores["n"] += 1
            return plan_score(*args, **kwargs)

        monkeypatch.setattr(girl_mod, "_nll", increasing_nll)
        monkeypatch.setattr(girl_mod, "_plan_score", counted_score)
        report = fit(trajs, rbar_path, theta, FitConfig(max_iters=200))
        assert report.stop_reason == "damping" and not report.converged
        assert report.iterations == 0
        assert np.array_equal(report.loss_path, [1.0])
        np.testing.assert_allclose(pack_reward(report.params.reward),
                                   pack_reward(theta.reward), rtol=1e-12)
        # the start, then the trials that passed the step cap, each solved
        # once; none of the rejected ones is scored
        assert report.solves == calls["n"]
        assert 1 < report.solves <= 1 + DAMPING_TRIALS
        assert scores["n"] == 1

    def test_infeasible_trials_are_backtracked(self, rng, monkeypatch):
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=40, beta=50.0)
        start = theta.with_reward(scaled_start(theta.reward, 2.0))
        vec0 = pack_reward(start.reward)
        nll = girl_mod._nll
        plan_score = girl_mod._plan_score
        rejected = {"n": 0}
        scores = {"n": 0}

        def walled_solve(at, *args, **kwargs):
            if np.linalg.norm(pack_reward(at.reward) - vec0) > 0.05:
                rejected["n"] += 1
                raise InfeasibleError("trial beyond the wall")
            return nll(at, *args, **kwargs)

        def counted_score(*args, **kwargs):
            scores["n"] += 1
            return plan_score(*args, **kwargs)

        monkeypatch.setattr(girl_mod, "_nll", walled_solve)
        monkeypatch.setattr(girl_mod, "_plan_score", counted_score)
        report = fit(trajs, rbar_path, start, FitConfig(max_iters=1))
        # the damping grows until a step stays inside the wall
        assert rejected["n"] >= 1
        # the start and the accepted trial solve as well; only the start,
        # where the one iteration began, is scored
        assert report.solves == 2 + rejected["n"]
        assert scores["n"] == 1
        assert report.stop_reason == "budget" and report.iterations == 1
        assert report.loss_path[1] < report.loss_path[0]
        assert np.linalg.norm(pack_reward(report.params.reward) - vec0) <= 0.05

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_trials_outside_float_range_are_backtracked(self, rng, monkeypatch, sign):
        # from ln(lam) at the edge of the float range, a unit step makes lam
        # underflow to 0.0 (sign 1) or exp overflow (sign -1); those trials
        # are rejected before any solve, and the damping shortens the step
        # until it stays inside
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=5)
        edge = math.log(5e-324) if sign > 0 else 709.0
        start = theta.with_reward(replace(theta.reward, lam=math.exp(edge)))
        losses = iter(-np.arange(1.0, 100.0))
        scores = {"n": 0}

        def unit_score(*args):
            scores["n"] += 1
            return np.array([sign, 0.0, 0.0, 0.0]), np.eye(4)

        # no trial is solved: the score is given
        monkeypatch.setattr(girl_mod, "_nll", lambda *args: next(losses))
        monkeypatch.setattr(girl_mod, "_plan_score", unit_score)
        report = fit(trajs, rbar_path, start, FitConfig(max_iters=2))
        assert report.stop_reason == "budget" and report.iterations == 2
        lam = report.params.reward.lam
        assert 0.0 < lam < np.inf and (lam > 1e307 if sign < 0 else lam < 1e-323)
        report.params.validate()
        # the start and two accepted steps; no rejected trial was solved
        assert report.solves == 3 and scores["n"] == 2

    @pytest.mark.parametrize("name", ["lam", "rho", "omega"])
    def test_trials_outside_the_domain_are_rejected(self, rng, monkeypatch, name):
        # a unit step from the edge of the domain makes lam or omega underflow
        # to 0.0, or rho round to 1.0: such a trial is rejected before its
        # solve, so the fit returns parameters that a restart accepts
        theta, _, trajs, rbar_path = make_setup(rng, n_paths=5)
        i = PARAM_NAMES.index(name)
        vec = pack_reward(theta.reward)
        vec[i] = 36.0 if name == "rho" else math.log(5e-324)
        start = theta.with_reward(unpack_reward(vec))
        start.validate()
        grad = np.zeros(4)
        grad[i] = -1.0 if name == "rho" else 1.0
        losses = iter(-np.arange(1.0, 100.0))
        monkeypatch.setattr(girl_mod, "_nll", lambda *args: next(losses))
        monkeypatch.setattr(girl_mod, "_plan_score", lambda *args: (grad, np.eye(4)))
        report = fit(trajs, rbar_path, start, FitConfig(max_iters=3))
        assert report.stop_reason == "budget" and report.iterations == 3
        report.params.validate()
        fit(trajs, rbar_path, report.params, FitConfig(max_iters=1))
        assert report.solves == 4  # the start and the accepted steps

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
        assert abs(report.loss_path[-1] - ref.fun) <= 2.0 * STOP_TOL
        np.testing.assert_allclose(pack_reward(report.params.reward), ref.x, atol=1e-3)


def serial_slices(theta, trajs, rbar_path, grids):
    """The slices as a serial loop of ``nll_from_stats``, one point at a time."""
    stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
    return {name: np.array([nll_from_stats(theta.with_reward(
                replace(theta.reward, **{name: float(g)})), stats, rbar_path) for g in grid])
            for name, grid in grids.items()}


class TestLossSlices:
    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("n", [5, 20])
    def test_equals_serial_loop(self, rng, monkeypatch, n, workers):
        # more workers than cores, switching threads often
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        theta, _, trajs, rbar_path = make_setup(rng, n=n)
        grids = default_slice_grids(theta.reward)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            slices = loss_slices(theta, trajs, rbar_path)
        finally:
            sys.setswitchinterval(interval)
        want = serial_slices(theta, trajs, rbar_path, grids)
        assert list(slices) == list(grids)
        for name, (grid, vals) in slices.items():
            assert np.array_equal(grid, grids[name])
            assert vals.tolist() == want[name].tolist(), name

    def test_infeasible_point_raises_as_the_serial_loop(self, rng, monkeypatch):
        # the curvature turns convex from the 13th lam point on: the error is
        # that of the first failing point in grid order, as in a serial loop,
        # though that point is the slowest to fail
        theta, _, trajs, rbar_path = make_setup(rng, n=5)
        grids = default_slice_grids(theta.reward)
        wall = float(grids["lam"][12])
        coeffs = RewardBasis.coeffs

        def convex_past_wall(basis, params):
            at = coeffs(basis, params)
            if params.lam < wall:
                return at
            if params.lam == wall:
                time.sleep(0.2)
            return lambda t: replace(at(t), r_uu=-at(t).r_uu)

        monkeypatch.setattr(RewardBasis, "coeffs", convex_past_wall)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with pytest.raises(InfeasibleError) as serial:
            serial_slices(theta, trajs, rbar_path, grids)
        with pytest.raises(InfeasibleError) as pooled:
            loss_slices(theta, trajs, rbar_path, grids)
        assert str(pooled.value) == str(serial.value)
        assert f"lam={wall:g}," in str(pooled.value)

    def test_overflowing_loss_is_inf_or_names_its_point_without_a_warning(self):
        # at lam=1e300 every step's term overflows: nll_from_stats gives inf
        # and the slices raise at their first point in grid order, on any
        # worker, without a RuntimeWarning (which fails the test)
        theta, trajs, rbar_path = small_market(n_paths=40)
        at = theta.with_reward(replace(theta.reward, lam=1e300))
        stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
        assert nll_from_stats(at, stats, rbar_path) == np.inf
        with pytest.raises(GradientError, match=r"non-finite loss under reward parameters "
                                                r"lam=5e\+299, eta=1.01, rho=0.4, omega=0.15$"):
            loss_slices(at, trajs, rbar_path)

    def test_default_grids_are_centred_unless_rho_is_clipped(self):
        reward = RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15)
        grids = default_slice_grids(reward)
        for name, grid in grids.items():
            value = float(getattr(reward, name))
            assert len(grid) == 21 and grid[10] == pytest.approx(value, rel=1e-12), name
            assert grid[0] + grid[-1] == pytest.approx(2.0 * value, rel=1e-12), name
        rho = default_slice_grids(replace(reward, rho=0.97))["rho"]
        assert rho[0] == pytest.approx(0.77, rel=1e-12) and rho[-1] == 0.98
        assert rho[10] == pytest.approx(0.875, rel=1e-12)  # not the configured 0.97

    @pytest.mark.parametrize("eta, span", [(0.01, 0.005), (0.05, 0.025), (1.01, 0.06)])
    def test_eta_grid_is_centred_and_positive(self, eta, span):
        # +- 0.06 around eta, narrowed to +- eta / 2 where that would reach 0
        reward = RewardParams(lam=0.001, eta=eta, rho=0.4, omega=0.15)
        grid = default_slice_grids(reward)["eta"]
        assert np.array_equal(grid, np.linspace(eta - span, eta + span, 21))
        assert grid[0] > 0.0 and grid[10] == pytest.approx(eta, rel=1e-12)

    def test_workers_call_no_public_function(self, rng, monkeypatch):
        # a tracer that wraps the package's public functions sees every call
        # on the calling thread
        theta, _, trajs, rbar_path = make_setup(rng, n=5)
        threads = set()
        for mod in (girl_mod, glearner_mod, rewards_mod):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("gwealth.")):
                    continue

                def recorded(*args, _func=obj, **kwargs):
                    threads.add(threading.get_ident())
                    return _func(*args, **kwargs)

                monkeypatch.setattr(mod, attr, recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        girl_mod.loss_slices(theta, trajs, rbar_path)
        assert threads == {threading.get_ident()}
