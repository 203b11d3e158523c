"""Solver tests: terminal step, backward recursion, Gaussian integration,
Bayesian policy update, limits in the inverse temperature, and rollouts."""

from dataclasses import replace

import numpy as np
import pytest

from gwealth.errors import InfeasibleError, ShapeError
from gwealth.glearner import (
    SolverConfig,
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
    tangent_pass,
    terminal_action,
)
from gwealth.market import (
    MarketSpec,
    ReturnPaths,
    mean_expected_returns,
    residual_covariance,
    simulate,
)
from gwealth.rewards import (
    RewardCoeffs,
    RewardParams,
    build_coeffs,
    exponential_benchmark,
    reward_basis,
    reward_value,
)

from conftest import random_problem, random_spd
from oracles import (
    brute_force_argmax,
    dp_solve,
    expected_next_value,
    expected_reward,
    mc_log_partition,
    pad,
    quad_fit,
    rollout_loop,
    sigma_tilde,
)


def build_plan(rng, n=3, t_len=3, **kwargs):
    params, rbar_path, sigma_r, benchmark, prior, cfg = random_problem(rng, n, t_len, **kwargs)
    plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior, cfg)
    return plan, params, rbar_path, sigma_r, benchmark, prior, cfg


def market_plan(n_risky, n_paths, horizon=30, seed=11):
    """A plan solved at the reference reward on a simulated market, with the
    market's return paths."""
    spec = MarketSpec(n_risky=n_risky, horizon=horizon, n_paths=n_paths, seed=seed)
    paths = simulate(spec)
    rbar = np.concatenate(
        [np.full((horizon, 1), spec.r_f * spec.dt), mean_expected_returns(paths)], axis=1)
    plan = solve_plan(
        RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15), rbar,
        residual_covariance(paths), exponential_benchmark(1000.0, 0.5, horizon, spec.dt),
        default_prior(n_risky + 1, 10.0), SolverConfig(),
    )
    return plan, paths


def reward_fn_for(params, rbar_t, sigma_r, b_t, n):
    om = params.omega_matrix(n)
    sig_pad = pad(sigma_r.sigma_r)

    def fn(x, u):
        return expected_reward(params.lam, params.eta, params.rho, om,
                               rbar_t, sig_pad, b_t, x, u)

    return fn


class TestTerminalAction:
    def test_stationary_point_is_zero(self, rng):
        params, rbar_path, sigma_r, benchmark, _, _ = random_problem(rng, n=3)
        rc = build_coeffs(params, rbar_path[0], sigma_r, float(benchmark.b[0]))
        x_star = -np.linalg.solve(rc.r_ux, rc.r_u)
        u = terminal_action(rc, x_star)
        assert np.abs(u).max() < 1e-8

    def test_matches_brute_force_maximizer(self, rng):
        params, rbar_path, sigma_r, benchmark, _, _ = random_problem(rng, n=2)
        rc = build_coeffs(params, rbar_path[0], sigma_r, float(benchmark.b[0]))
        x = rng.normal(0.0, 20.0, size=2)
        u_star = terminal_action(rc, x)
        u_brute = brute_force_argmax(lambda u: reward_value(rc, x, u), dim=2)
        assert np.abs(u_star - u_brute).max() < 1e-8

    def test_growing_cost_shrinks_action(self, rng):
        from gwealth.rewards import RewardParams

        params, rbar_path, sigma_r, benchmark, _, _ = random_problem(rng, n=3)
        x = rng.normal(0.0, 20.0, size=3)
        norms = []
        for kappa in (1.0, 10.0, 100.0, 1000.0):
            scaled = RewardParams(
                lam=params.lam, eta=params.eta, rho=params.rho,
                omega=kappa * params.omega_matrix(3),
            )
            rc = build_coeffs(scaled, rbar_path[0], sigma_r, float(benchmark.b[0]))
            norms.append(np.linalg.norm(terminal_action(rc, x)))
        assert norms[0] > norms[1] > norms[2] > norms[3]


class TestBackwardPass:
    def test_single_period_matches_terminal_conditions(self, rng):
        params, rbar_path, sigma_r, benchmark, prior, cfg = random_problem(rng, n=3, t_len=1)
        rc = build_coeffs(params, rbar_path[0], sigma_r, float(benchmark.b[0]))
        plan = backward_pass(lambda t: rc, prior, cfg, rbar_path)

        # published closed form: sigma_tilde = sigma_hat + omega / lam
        lam = params.lam
        sti = np.linalg.inv(rc.sigma_hat + params.omega_matrix(3) / lam)
        f_xx = (
            rc.r_xx
            + rc.r_ux.T @ sti.T @ rc.r_ux / (2.0 * lam)
            + rc.r_ux.T @ sti.T @ rc.r_uu @ sti @ rc.r_ux / (4.0 * lam**2)
        )
        f_x = (
            rc.r_x
            + rc.r_ux.T @ sti.T @ rc.r_u / lam
            + rc.r_ux.T @ sti.T @ rc.r_uu @ sti @ rc.r_u / (2.0 * lam**2)
        )
        f_0 = (
            rc.r_0
            + rc.r_u @ sti.T @ rc.r_u / (2.0 * lam)
            + rc.r_u @ sti.T @ rc.r_uu @ sti @ rc.r_u / (4.0 * lam**2)
        )
        assert np.allclose(plan.f_xx[0], 0.5 * (f_xx + f_xx.T), rtol=1e-10, atol=1e-12)
        assert np.allclose(plan.f_x[0], f_x, rtol=1e-10, atol=1e-12)
        assert plan.f_0[0] == pytest.approx(f_0, rel=1e-10)

    def test_terminal_value_is_plugged_in_argmax(self, rng):
        plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(rng, n=3, t_len=2)
        rc = build_coeffs(params, rbar_path[-1], sigma_r, float(benchmark.b[-1]))
        for _ in range(5):
            x = rng.normal(0.0, 30.0, size=3)
            u_star = terminal_action(rc, x)
            assert free_energy(plan, 1, x) == pytest.approx(
                reward_value(rc, x, u_star), rel=1e-10
            )

    def test_near_deterministic_limit_matches_dp_oracle(self, rng):
        params, rbar_path, sigma_r, benchmark, prior, cfg0 = random_problem(
            rng, n=2, t_len=3, sigma_p_scale=1.0
        )
        cfg = SolverConfig(beta=1e6, gamma=cfg0.gamma)
        plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior, cfg)

        sig_pad = pad(sigma_r.sigma_r)
        reward_fns = [
            reward_fn_for(params, rbar_path[t], sigma_r, float(benchmark.b[t]), 2)
            for t in range(3)
        ]
        policies, _ = dp_solve(reward_fns, 1.0 + rbar_path, sig_pad, cfg.gamma, 2)
        for t in range(3):
            k_mat, k_vec = policies[t]
            for _ in range(3):
                x = rng.normal(0.0, 20.0, size=2)
                mean = policy_mean(plan, t, x)
                want = k_mat @ x + k_vec
                assert np.abs(mean - want).max() <= 1e-4 * max(1.0, np.abs(want).max())

    def test_zero_temperature_limit_posterior_equals_prior(self, rng):
        params, rbar_path, sigma_r, benchmark, prior, _ = random_problem(rng, n=3, t_len=3)
        cfg = SolverConfig(beta=1e-12, gamma=0.95)
        plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior, cfg)
        for t in range(3):
            assert np.abs(plan.u_tilde[t] - prior.u_bar).max() < 1e-8
            assert np.abs(plan.v_tilde[t] - prior.v_bar).max() < 1e-8
            assert np.abs(sigma_tilde(plan, t) - prior.sigma_p).max() < 1e-8

    def test_monotone_convergence_to_dp_in_beta(self, rng):
        params, rbar_path, sigma_r, benchmark, prior, cfg0 = random_problem(
            rng, n=2, t_len=3, sigma_p_scale=1.0
        )
        sig_pad = pad(sigma_r.sigma_r)
        reward_fns = [
            reward_fn_for(params, rbar_path[t], sigma_r, float(benchmark.b[t]), 2)
            for t in range(3)
        ]
        policies, _ = dp_solve(reward_fns, 1.0 + rbar_path, sig_pad, cfg0.gamma, 2)
        x = rng.normal(0.0, 20.0, size=2)
        k_mat, k_vec = policies[0]
        target = k_mat @ x + k_vec
        gaps = []
        for beta in (10.0, 100.0, 1000.0, 10000.0):
            plan = solve_plan(
                params, rbar_path, sigma_r, benchmark, prior,
                SolverConfig(beta=beta, gamma=cfg0.gamma),
            )
            gaps.append(np.linalg.norm(policy_mean(plan, 0, x) - target))
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]

    def test_infeasible_curvature_names_step(self, rng):
        n = 3
        eye = np.eye(n)
        convex = RewardCoeffs(
            r_xx=-eye, r_ux=np.zeros((n, n)), r_uu=+0.5 * eye,  # wrong-sign curvature
            r_x=np.zeros(n), r_u=np.zeros(n), r_0=0.0,
            sigma_hat=eye, sigma_r_padded=np.zeros((n, n)),
        )
        prior = default_prior(n, sigma_p_scale=10.0)
        with pytest.raises(InfeasibleError, match="t=0"):
            backward_pass(lambda t: convex, prior, SolverConfig(beta=10.0, gamma=0.95),
                          np.zeros((1, n)))


class TestTangentPass:
    def test_matches_central_differences_of_the_solve(self, rng):
        # a prior with non-zero u_bar and v_bar, every step's G coefficients
        names = ("lam", "eta", "rho", "omega")
        fields = ("q_xx", "q_ux", "q_uu", "q_x", "q_u", "q_0")
        for beta in (0.5, 5.0):
            plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(
                rng, n=3, t_len=4, beta=beta)
            steps = dict(tangent_pass(
                plan, reward_basis(rbar_path, sigma_r, benchmark).tangents(params)))
            assert sorted(steps) == list(range(plan.horizon))
            for i, name in enumerate(names):
                h = 1e-6 * float(getattr(params, name))
                up, down = (
                    solve_plan(replace(params, **{name: float(getattr(params, name)) + d}),
                               rbar_path, sigma_r, benchmark, prior, cfg)
                    for d in (h, -h)
                )
                for k, field in enumerate(fields):
                    want = (getattr(up, field) - getattr(down, field)) / (2.0 * h)
                    got = np.stack([steps[t][k][i] for t in range(plan.horizon)])
                    scale = np.max(np.abs(want), axis=tuple(range(1, want.ndim)))
                    err = np.abs(got - want).reshape(plan.horizon, -1).max(axis=1)
                    assert np.all(err <= 1e-6 * np.maximum(scale, 1e-9)), (name, field)


class TestFreeEnergy:
    def test_matches_monte_carlo_gaussian_integral(self, rng):
        from oracles import logweight_spread

        # soft F at an interior step equals the log-partition of exp(beta*G)
        accepted = 0
        while accepted < 3:
            plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(
                rng, n=2, t_len=2, beta=float(rng.uniform(0.5, 2.0))
            )
            x = rng.normal(0.0, 5.0, size=2)

            def g_batch(u_draws, plan=plan, x=x):
                lin = u_draws @ (plan.q_ux[0] @ x + plan.q_u[0])
                quad = np.einsum("si,ij,sj->s", u_draws, plan.q_uu[0], u_draws)
                return float(x @ plan.q_xx[0] @ x + x @ plan.q_x[0] + plan.q_0[0]) + lin + quad

            mean0 = prior.u_bar + prior.v_bar @ x
            # keep the importance sampler healthy so 3 sigma means 3 sigma
            if logweight_spread(g_batch, plan.beta, mean0, prior.sigma_p, rng) > 3.5:
                continue
            accepted += 1
            est, se = mc_log_partition(
                g_batch, plan.beta, mean0, prior.sigma_p,
                n_draws=1_000_000, rng=rng,
            )
            assert abs(free_energy(plan, 0, x) - est) < 3.0 * se

    def test_state_zero_gives_constant(self, rng):
        plan, *_ = build_plan(rng, n=3, t_len=2)
        assert free_energy(plan, 0, np.zeros(3)) == plan.f_0[0]

    def test_large_beta_terminal_equals_max_reward(self, rng):
        params, rbar_path, sigma_r, benchmark, prior, _ = random_problem(rng, n=2, t_len=2)
        cfg = SolverConfig(beta=1e6, gamma=0.95)
        plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior, cfg)
        rc = build_coeffs(params, rbar_path[-1], sigma_r, float(benchmark.b[-1]))
        x = rng.normal(0.0, 20.0, size=2)
        val = free_energy(plan, 1, x)
        best = reward_value(rc, x, terminal_action(rc, x))
        assert val == pytest.approx(best, rel=1e-3)

    def test_step_out_of_range(self, rng):
        plan, *_ = build_plan(rng, n=3, t_len=2)
        with pytest.raises(ShapeError):
            free_energy(plan, 2, np.zeros(3))


class TestGValue:
    def test_myopic_limit_equals_reward(self, rng):
        params, rbar_path, sigma_r, benchmark, prior, _ = random_problem(rng, n=3, t_len=3)
        cfg = SolverConfig(beta=5.0, gamma=1e-300)  # gamma must stay positive
        plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior, cfg)
        rc = build_coeffs(params, rbar_path[0], sigma_r, float(benchmark.b[0]))
        x = rng.normal(0.0, 20.0, size=3)
        u = rng.normal(0.0, 5.0, size=3)
        assert g_value(plan, 0, x, u) == pytest.approx(reward_value(rc, x, u), rel=1e-9)

    def test_bellman_identity_closed_form(self, rng):
        for _ in range(10):
            plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(
                rng, n=2, t_len=3
            )
            sig_pad = pad(sigma_r.sigma_r)
            t = int(rng.integers(0, 2))
            x = rng.normal(0.0, 20.0, size=2)
            u = rng.normal(0.0, 5.0, size=2)
            rc = build_coeffs(params, rbar_path[t], sigma_r, float(benchmark.b[t]))
            ev = expected_next_value(
                (plan.f_xx[t + 1], plan.f_x[t + 1], plan.f_0[t + 1]), 1.0 + rbar_path[t],
                sig_pad, x + u
            )
            want = reward_value(rc, x, u) + cfg.gamma * ev
            got = g_value(plan, t, x, u)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_bellman_identity_monte_carlo(self, rng):
        plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(rng, n=2, t_len=2)
        x = rng.normal(0.0, 10.0, size=2)
        u = rng.normal(0.0, 3.0, size=2)
        rc = build_coeffs(params, rbar_path[0], sigma_r, float(benchmark.b[0]))
        z = x + u
        n_draws = 100_000
        eps = rng.multivariate_normal(np.zeros(1), sigma_r.sigma_r, size=n_draws)
        x_next = np.empty((n_draws, 2))
        x_next[:, 0] = (1.0 + rbar_path[0, 0]) * z[0]
        x_next[:, 1] = (1.0 + rbar_path[0, 1]) * z[1] + z[1] * eps[:, 0]
        vals = (
            np.einsum("si,ij,sj->s", x_next, plan.f_xx[1], x_next)
            + x_next @ plan.f_x[1] + plan.f_0[1]
        )
        est = reward_value(rc, x, u) + cfg.gamma * vals.mean()
        se = cfg.gamma * vals.std(ddof=1) / np.sqrt(n_draws)
        assert abs(g_value(plan, 0, x, u) - est) < 3.0 * se


class TestPosterior:
    def test_black_box_completion_of_square(self, rng):
        # posterior moments from completing the square in log pi0 + beta G,
        # with the quadratic extracted by black-box probing
        for _ in range(5):
            plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(
                rng, n=2, t_len=2, beta=float(rng.uniform(0.5, 5.0))
            )
            t = int(rng.integers(0, 2))
            x = rng.normal(0.0, 10.0, size=2)
            mean0 = prior.u_bar + prior.v_bar @ x
            p0_inv = np.linalg.inv(prior.sigma_p)

            def log_joint(u):
                lp0 = -0.5 * (u - mean0) @ p0_inv @ (u - mean0)
                return lp0 + cfg.beta * g_value(plan, t, x, u)

            c_mat, b_vec, _ = quad_fit(log_joint, 2)
            cov = np.linalg.inv(-2.0 * c_mat)
            mean = cov @ b_vec
            assert np.allclose(cov, sigma_tilde(plan, t), rtol=1e-9, atol=1e-12)
            assert np.allclose(mean, policy_mean(plan, t, x), rtol=1e-9, atol=1e-10)

    def test_posterior_covariance_never_wider_than_prior(self, rng):
        plan, *_, prior, _ = build_plan(rng, n=3, t_len=3, beta=50.0)
        for t in range(3):
            gap = prior.sigma_p - sigma_tilde(plan, t)
            assert np.linalg.eigvalsh(0.5 * (gap + gap.T))[0] > -1e-10

    def test_contraction_spectral_radius(self, rng):
        plan, *_, prior, _ = build_plan(rng, n=3, t_len=4, beta=100.0)
        p_inv = np.linalg.inv(prior.sigma_p)
        for t in range(4):
            rad = np.max(np.abs(np.linalg.eigvals(sigma_tilde(plan, t) @ p_inv)))
            assert rad < 1.0

    def test_factor_inverse_and_logdet_consistent(self, rng):
        # the sampling factor, the stored precision and log|sigma_tilde| all
        # describe the same posterior covariance at every step
        for beta in (0.5, 50.0, 1000.0):
            plan, *_ = build_plan(rng, n=4, t_len=4, beta=beta)
            for t in range(4):
                chol = plan.chol_tilde[t]
                sig = chol @ chol.T
                assert np.allclose(chol, np.tril(chol))
                assert np.allclose(plan.sigma_bar[t] @ sig, np.eye(4), rtol=0.0, atol=1e-10)
                sign, logdet = np.linalg.slogdet(sig)
                assert sign == 1.0
                assert plan.logdet_tilde[t] == pytest.approx(logdet, rel=1e-12, abs=1e-12)

    def test_stored_matrices_symmetric(self, rng):
        plan, *_ = build_plan(rng, n=3, t_len=3)
        for t in range(3):
            for m in (plan.q_xx[t], plan.q_uu[t], plan.f_xx[t], sigma_tilde(plan, t)):
                assert np.abs(m - m.T).max() < 1e-12


class TestSampleAction:
    def test_degenerate_covariance_returns_mean(self, rng):
        plan, *_ = build_plan(rng, n=2, t_len=2)
        plan_tiny = replace(
            plan,
            chol_tilde=np.tile(1e-10 * np.eye(2), (2, 1, 1)),
            logdet_tilde=np.full(2, 2 * np.log(1e-20)),
        )
        x = rng.normal(size=2)
        u = sample_action(plan_tiny, 0, x, np.random.default_rng(0))
        assert np.abs(u - policy_mean(plan_tiny, 0, x)).max() < 1e-8

    def test_sample_mean_matches_policy_mean(self, rng):
        plan, *_ = build_plan(rng, n=2, t_len=2, beta=5.0)
        x = rng.normal(0.0, 5.0, size=2)
        n_draws = 100_000
        draws_rng = np.random.default_rng(7)
        draws = np.array([sample_action(plan, 0, x, draws_rng) for _ in range(n_draws)])
        mean = policy_mean(plan, 0, x)
        sig = np.sqrt(np.diag(sigma_tilde(plan, 0)))
        bound = 4.0 * sig / np.sqrt(n_draws)
        assert (np.abs(draws.mean(axis=0) - mean) < bound).all()

    def test_sample_covariance_matches(self, rng):
        plan, *_ = build_plan(rng, n=2, t_len=2, beta=5.0)
        x = rng.normal(0.0, 5.0, size=2)
        draws_rng = np.random.default_rng(13)
        draws = np.array([sample_action(plan, 0, x, draws_rng) for _ in range(100_000)])
        cov = np.cov(draws, rowvar=False)
        target = sigma_tilde(plan, 0)
        rel = np.linalg.norm(cov - target) / np.linalg.norm(target)
        assert rel < 0.05


class TestRollout:
    def _zero_policy_plan(self, plan):
        t_len, n = plan.u_tilde.shape
        return replace(
            plan,
            u_tilde=np.zeros((t_len, n)),
            v_tilde=np.zeros((t_len, n, n)),
            chol_tilde=np.tile(1e-15 * np.eye(n), (t_len, 1, 1)),
            logdet_tilde=np.full(t_len, n * np.log(1e-30)),
        )

    def _flat_paths(self, n_paths, horizon, n_risky):
        shape = (n_paths, horizon, n_risky)
        return ReturnPaths(
            expected=np.zeros(shape), realized=np.zeros(shape),
            market=np.zeros((n_paths, horizon)),
        )

    def test_zero_policy_zero_returns_static(self, rng):
        plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(rng, n=3, t_len=4)
        frozen = self._zero_policy_plan(plan)
        # force zero expected returns so the bond earns nothing
        frozen = replace(frozen, rbar=np.zeros_like(frozen.rbar))
        paths = self._flat_paths(5, 4, 2)
        x0 = np.array([100.0, 50.0, 25.0])
        trajs = rollout(frozen, paths, x0, np.random.default_rng(0))
        for traj in trajs:
            assert np.allclose(traj.x, x0[None, :], atol=1e-12)
            assert np.allclose(traj.cash, 0.0, atol=1e-12)

    def test_bond_only_compounding(self, rng):
        plan, *_ = build_plan(rng, n=3, t_len=4)
        frozen = self._zero_policy_plan(plan)
        rbar = np.zeros_like(frozen.rbar)
        rbar[:, 0] = 0.02 * 0.25  # annual rate at quarterly periods
        frozen = replace(frozen, rbar=rbar)
        paths = self._flat_paths(3, 4, 2)
        x0 = np.array([1000.0, 0.0, 0.0])
        trajs = rollout(frozen, paths, x0, np.random.default_rng(0))
        for traj in trajs:
            for t in range(5):
                assert traj.x[t, 0] == pytest.approx(1000.0 * (1.0 + 0.005) ** t, rel=1e-14)

    def test_cash_identity_exact(self, rng):
        plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(rng, n=3, t_len=3)
        paths = self._flat_paths(4, 3, 2)
        trajs = rollout(plan, paths, np.full(3, 10.0), np.random.default_rng(5))
        for traj in trajs:
            for t in range(traj.horizon):
                assert traj.cash[t] == cash_installment(traj.u[t])

    def test_horizon_mismatch(self, rng):
        plan, *_ = build_plan(rng, n=3, t_len=3)
        paths = self._flat_paths(2, 5, 2)
        with pytest.raises(ShapeError):
            rollout(plan, paths, np.full(3, 10.0), np.random.default_rng(0))

    def test_rollout_reproducible(self, rng):
        plan, *_ = build_plan(rng, n=3, t_len=3)
        paths = self._flat_paths(4, 3, 2)
        a = rollout(plan, paths, np.full(3, 10.0), np.random.default_rng(42))
        b = rollout(plan, paths, np.full(3, 10.0), np.random.default_rng(42))
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.u, tb.u)

    @pytest.mark.parametrize("n_risky", [2, 99])
    def test_matches_per_path_loop(self, n_risky):
        plan, paths = market_plan(n_risky, n_paths=40)
        x0 = np.full(n_risky + 1, 1000.0 / (n_risky + 1))
        got = rollout(plan, paths, x0, np.random.default_rng(42))
        want = rollout_loop(plan, paths, x0, np.random.default_rng(42))
        scale = max(np.abs(t.x).max() for t in want)
        for g, w in zip(got, want, strict=True):
            assert np.abs(g.x - w.x).max() <= 1e-12 * scale
            assert np.abs(g.u - w.u).max() <= 1e-12 * scale
            assert np.array_equal(g.cash, cash_installment(g.u))
        # views into one batch per field, no per-path copies
        for field in ("x", "u", "cash"):
            assert len({id(getattr(t, field).base) for t in got}) == 1

    def test_path_independent_of_other_paths(self):
        plan, paths = market_plan(9, n_paths=40)
        few = ReturnPaths(expected=paths.expected[:5], realized=paths.realized[:5],
                          market=paths.market[:5])
        x0 = np.full(10, 100.0)
        many_trajs = rollout(plan, paths, x0, np.random.default_rng(7))
        few_trajs = rollout(plan, few, x0, np.random.default_rng(7))
        scale = max(np.abs(t.x).max() for t in few_trajs)
        for a, b in zip(few_trajs, many_trajs[:5]):
            assert np.abs(a.x - b.x).max() <= 1e-12 * scale
            assert np.abs(a.u - b.u).max() <= 1e-12 * scale


class TestExpectationIdentity:
    def test_hadamard_expectation_against_monte_carlo(self, rng):
        # E[V(a*z + z*eps)] with the quadratic-expectation identity vs MC
        n = 3
        vxx = random_spd(rng, n, scale=0.7) * -1.0
        vx = rng.normal(size=n)
        v0 = float(rng.normal())
        a_vec = 1.0 + np.concatenate([[0.005], rng.uniform(-0.02, 0.06, size=n - 1)])
        sig_pad = pad(random_spd(rng, n - 1, scale=0.08))
        z = rng.normal(0.0, 10.0, size=n)

        want = expected_next_value((vxx, vx, v0), a_vec, sig_pad, z)
        n_draws = 400_000
        eps = rng.multivariate_normal(np.zeros(n), sig_pad, size=n_draws)
        x_next = a_vec * z + z * eps
        vals = np.einsum("si,ij,sj->s", x_next, vxx, x_next) + x_next @ vx + v0
        assert abs(want - vals.mean()) < 3.0 * vals.std(ddof=1) / np.sqrt(n_draws)


class TestTrajectoryType:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            Trajectory(x=np.zeros((3, 2)), u=np.zeros((3, 2)), cash=np.zeros(3))
