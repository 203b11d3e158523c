"""Solver tests: terminal step, backward recursion, Gaussian integration,
Bayesian policy update, limits in the inverse temperature, and rollouts."""

import re
from dataclasses import fields, replace

import numpy as np
import pytest

from gwealth.errors import InfeasibleError, ParameterError, ShapeError
from gwealth.glearner import (
    GaussianPolicy,
    PolicyPrior,
    SolverConfig,
    Trajectories,
    _terminal_f,
    backward_pass,
    cash_installment,
    default_prior,
    rollout,
    solve_plan,
    tangent_pass as package_tangent_pass,
)
from gwealth.market import (
    MarketSpec,
    ReturnPaths,
    mean_expected_returns,
    residual_covariance,
    simulate,
)
from gwealth.rewards import (
    BenchmarkPath, RewardCoeffs, RewardParams, exponential_benchmark, reward_basis,
)

from conftest import random_problem, random_spd
from oracles import (
    argmax_policy,
    brute_force_argmax,
    coeffs_of,
    dp_solve,
    expected_next_value,
    expected_reward,
    mc_log_partition,
    pad,
    plan_f,
    plan_g,
    policy_mean,
    posterior_step,
    quad_fit,
    quad_value,
    rollout_loop,
    sigma_tilde,
    solve_with_precision,
    tangent_pass,
)


def build_plan(rng, n=3, t_len=3, **kwargs):
    params, rbar_path, sigma_r, benchmark, prior, cfg = random_problem(rng, n, t_len, **kwargs)
    plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior, cfg)
    return plan, params, rbar_path, sigma_r, benchmark, prior, cfg


G_NAMES = ("q_xx", "q_ux", "q_uu", "q_x", "q_u", "q_0")


def replay_g(plan, prior, params, rbar_path, sigma_r, benchmark, cfg):
    """G at every step of a plan solved from ``prior`` under ``params`` and
    the solver settings ``cfg`` on this market."""
    return plan_g(plan, prior, reward_basis(rbar_path, sigma_r, benchmark).coeffs(params), cfg)


def precision(params, rbar_path, sigma_r, benchmark, prior, cfg):
    """Every step's posterior precision of the plan ``solve_plan`` solves on
    these inputs, stacked (``solve_with_precision``)."""
    basis = reward_basis(rbar_path, sigma_r, benchmark)
    return solve_with_precision(basis.coeffs(params), prior, cfg, basis.rbar)[1]


def chol_logdet(plan, t):
    """log|sigma_tilde_t| from the diagonal of the plan's Cholesky factor, as
    the likelihood forms it."""
    return 2.0 * np.log(np.diagonal(plan.chol_tilde[t])).sum()


def g_stacks(g):
    """{name: G's coefficient stacked over the steps}, like the plan's fields."""
    return {name: np.stack(c) for name, c in zip(G_NAMES, zip(*g))}


MARKET_REWARD = RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15)


def market_basis(n_risky, n_paths, horizon=30, seed=11):
    """The reward basis of a simulated market, with the market's return paths."""
    spec = MarketSpec(n_risky=n_risky, horizon=horizon, n_paths=n_paths, seed=seed)
    paths = simulate(spec)
    rbar = np.concatenate(
        [np.full((horizon, 1), spec.r_f * spec.dt), mean_expected_returns(paths)], axis=1)
    return reward_basis(rbar, residual_covariance(paths),
                        exponential_benchmark(1000.0, 0.5, horizon, spec.dt)), paths


def market_plan(n_risky, n_paths, horizon=30, seed=11):
    """A plan solved at ``MARKET_REWARD`` on a simulated market, with the
    market's return paths."""
    basis, paths = market_basis(n_risky, n_paths, horizon, seed)
    plan = backward_pass(basis.coeffs(MARKET_REWARD), default_prior(n_risky + 1, 10.0),
                         SolverConfig(), basis.rbar)
    return plan, paths


def period_coeffs(params, rbar_path, sigma_r, benchmark, t):
    return reward_basis(rbar_path, sigma_r, benchmark).coeffs(params)(t)


def terminal_action(rc, x):
    """The reward's maximizer in the trades u at state x."""
    gain, offset = argmax_policy(coeffs_of(rc))
    return gain @ x + offset


def flat_paths(n_paths, horizon, n_risky):
    shape = (n_paths, horizon, n_risky)
    return ReturnPaths(
        expected=np.zeros(shape), realized=np.zeros(shape),
        market=np.zeros((n_paths, horizon)),
    )


def first_trades(plan, x, n_draws, seed):
    """The rollout's first-period trades from state x on n_draws flat paths."""
    paths = flat_paths(n_draws, plan.horizon, plan.n_assets - 1)
    return rollout(plan, paths, x, np.random.default_rng(seed)).u[:, 0]


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
        rc = period_coeffs(params, rbar_path, sigma_r, benchmark, 0)
        x_star = -np.linalg.solve(rc.r_ux, rc.r_u)
        u = terminal_action(rc, x_star)
        assert np.abs(u).max() < 1e-8

    def test_matches_brute_force_maximizer(self, rng):
        params, rbar_path, sigma_r, benchmark, _, _ = random_problem(rng, n=2)
        rc = period_coeffs(params, rbar_path, sigma_r, benchmark, 0)
        x = rng.normal(0.0, 20.0, size=2)
        u_star = terminal_action(rc, x)
        u_brute = brute_force_argmax(lambda u: quad_value(coeffs_of(rc), x, u), dim=2)
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
            rc = period_coeffs(scaled, rbar_path, sigma_r, benchmark, 0)
            norms.append(np.linalg.norm(terminal_action(rc, x)))
        assert norms[0] > norms[1] > norms[2] > norms[3]


class TestBackwardPass:
    def test_single_period_matches_terminal_conditions(self, rng):
        params, rbar_path, sigma_r, benchmark, prior, cfg = random_problem(rng, n=3, t_len=1)
        rc = period_coeffs(params, rbar_path, sigma_r, benchmark, 0)
        plan = backward_pass(lambda t: rc, prior, cfg, rbar_path)
        # the package's F carries no constant: its terms in x
        plan_fxx, plan_fx = _terminal_f(plan_g(plan, prior, lambda t: rc, cfg)[0][:5])

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
        assert np.allclose(plan_fxx, 0.5 * (f_xx + f_xx.T), rtol=1e-10, atol=1e-12)
        assert np.allclose(plan_fx, f_x, rtol=1e-10, atol=1e-12)

    def test_terminal_value_is_plugged_in_argmax(self, rng):
        plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(rng, n=3, t_len=2)
        rc = period_coeffs(params, rbar_path, sigma_r, benchmark, 1)
        # the recursion's F at T-1: the package's terms in x, the oracle's constant
        g = replay_g(plan, prior, params, rbar_path, sigma_r, benchmark, cfg)
        f_last = (*_terminal_f(g[1][:5]), plan_f(plan, prior, g, 1, cfg.beta)[2])
        for _ in range(5):
            x = rng.normal(0.0, 30.0, size=3)
            u_star = terminal_action(rc, x)
            assert quad_value(f_last, x) == pytest.approx(
                quad_value(coeffs_of(rc), x, u_star), rel=1e-10
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
            sigma_hat=eye,
        )
        prior = default_prior(n, sigma_p_scale=10.0)
        with pytest.raises(InfeasibleError, match="t=0"):
            backward_pass(lambda t: convex, prior, SolverConfig(beta=10.0, gamma=0.95),
                          np.zeros((1, n)))


    def test_asymmetric_reward_solves_as_its_symmetric_part(self, rng):
        # x' r_xx x and u' r_uu u see only the symmetric parts, and so must the
        # solve: the same plan and G, with symmetric q_xx, q_uu and sigma_bar
        plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(rng, n=4, t_len=4)
        coeffs = reward_basis(rbar_path, sigma_r, benchmark).coeffs(params)
        skews = [a - a.T for a in rng.normal(size=(2, 4, 4))]

        def skewed(t):
            rc = coeffs(t)
            return replace(rc, r_xx=rc.r_xx + np.abs(rc.r_xx).max() * skews[0],
                           r_uu=rc.r_uu + np.abs(rc.r_uu).max() * skews[1])

        got, got_bar = solve_with_precision(skewed, prior, cfg, plan.rbar)
        arrays = {name: (getattr(got, name), getattr(plan, name))
                  for name in ("u_tilde", "v_tilde", "chol_tilde")}
        arrays["sigma_bar"] = (got_bar, precision(params, rbar_path, sigma_r, benchmark, prior, cfg))
        g_got = g_stacks(plan_g(got, prior, skewed, cfg))
        g_want = g_stacks(plan_g(plan, prior, coeffs, cfg))
        arrays.update({name: (g_got[name], g_want[name]) for name in G_NAMES})
        for name in ("q_xx", "q_uu", "sigma_bar"):
            m = arrays[name][0]
            assert np.array_equal(m, np.swapaxes(m, -1, -2)), name
        for name, (m, want) in arrays.items():
            assert np.max(np.abs(m - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_solve_returns_the_policy(self, rng):
        # the precision is read at its own step only: no solve stores it
        assert [f.name for f in fields(GaussianPolicy)] == [
            "rbar", "u_tilde", "v_tilde", "chol_tilde"]
        assert type(build_plan(rng)[0]) is GaussianPolicy


class TestTangentPass:
    def test_matches_central_differences_of_the_solve(self, rng):
        # the forward-mode oracle of the exact gradient: a prior with non-zero
        # u_bar and v_bar, every step's G coefficients
        names = ("lam", "eta", "rho", "omega")
        for beta in (0.5, 5.0):
            plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(
                rng, n=3, t_len=4, beta=beta)
            steps = tangent_pass(plan, reward_basis(rbar_path, sigma_r, benchmark), params,
                                 cfg.gamma)
            assert len(steps) == plan.horizon
            for i, name in enumerate(names):
                h = 1e-6 * float(getattr(params, name))
                shifted = []
                for d in (h, -h):
                    p = replace(params, **{name: float(getattr(params, name)) + d})
                    plan_d = solve_plan(p, rbar_path, sigma_r, benchmark, prior, cfg)
                    shifted.append(g_stacks(
                        replay_g(plan_d, prior, p, rbar_path, sigma_r, benchmark, cfg)))
                up, down = shifted
                for k, field in enumerate(G_NAMES):
                    want = (up[field] - down[field]) / (2.0 * h)
                    got = np.stack([steps[t][k][i] for t in range(plan.horizon)])
                    scale = np.max(np.abs(want), axis=tuple(range(1, want.ndim)))
                    err = np.abs(got - want).reshape(plan.horizon, -1).max(axis=1)
                    assert np.all(err <= 1e-6 * np.maximum(scale, 1e-9)), (name, field)


def policy_tangents(plan, basis, params, gamma):
    """The package's tangent pass at every step: {t: (dq_uu, a_ux, a_u)}, in
    the order the contract is called."""
    steps = {}
    package_tangent_pass(plan, gamma, basis.coeffs(params), basis.tangents(params),
                         lambda t, *tangents: steps.update({t: tangents}))
    return steps


def solved_fields(basis, params, prior, cfg):
    """{name: stack} of the precision, gain and offset solved under ``params``
    on ``basis`` (``solve_with_precision``)."""
    policy, sigma_bar = solve_with_precision(basis.coeffs(params), prior, cfg, basis.rbar)
    return {"sigma_bar": sigma_bar, "v_tilde": policy.v_tilde, "u_tilde": policy.u_tilde}


class TestPackageTangentPass:
    def test_matches_the_oracle(self, rng):
        # the oracle holds every step's G tangents; the package hands over
        # the policy's, one step at a time from T-1 down to 0
        for beta in (0.5, 5.0):
            for t_len in (1, 2, 5):
                plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(
                    rng, n=3, t_len=t_len, beta=beta)
                basis = reward_basis(rbar_path, sigma_r, benchmark)
                steps = policy_tangents(plan, basis, params, cfg.gamma)
                assert list(steps) == list(range(t_len - 1, -1, -1))
                for t, dq in enumerate(tangent_pass(plan, basis, params, cfg.gamma)):
                    want = (dq[2], dq[1] + 2.0 * dq[2] @ plan.v_tilde[t],
                            dq[4] + 2.0 * dq[2] @ plan.u_tilde[t])
                    for got, exact in zip(steps[t], want):
                        assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(exact))

    def test_policy_tangents_match_central_differences(self, rng):
        # the posterior precision changes by -2 beta dq_uu, the gain by
        # beta C a_ux and the offset by beta C a_u
        names = ("lam", "eta", "rho", "omega")
        for beta in (0.5, 5.0):
            plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(
                rng, n=3, t_len=4, beta=beta)
            basis = reward_basis(rbar_path, sigma_r, benchmark)
            steps = policy_tangents(plan, basis, params, cfg.gamma)
            for i, name in enumerate(names):
                h = 1e-6 * float(getattr(params, name))
                up, down = (
                    solved_fields(basis, replace(params, **{name: float(getattr(params, name)) + d}),
                                  prior, cfg)
                    for d in (h, -h)
                )
                for t, (dq_uu, a_ux, a_u) in steps.items():
                    cov = sigma_tilde(plan, t)
                    for field, got in (("sigma_bar", -2.0 * beta * dq_uu[i]),
                                       ("v_tilde", beta * cov @ a_ux[i]),
                                       ("u_tilde", beta * cov @ a_u[i])):
                        want = (up[field][t] - down[field][t]) / (2.0 * h)
                        scale = max(np.max(np.abs(want)), 1e-9)
                        assert np.max(np.abs(got - want)) <= 1e-6 * scale, (name, field, t)


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

            g = replay_g(plan, prior, params, rbar_path, sigma_r, benchmark, cfg)

            def g_batch(u_draws, q=g[0], x=x):
                q_xx, q_ux, q_uu, q_x, q_u, q_0 = q
                lin = u_draws @ (q_ux @ x + q_u)
                quad = np.einsum("si,ij,sj->s", u_draws, q_uu, u_draws)
                return float(x @ q_xx @ x + x @ q_x + q_0) + lin + quad

            mean0 = prior.u_bar + prior.v_bar @ x
            # keep the importance sampler healthy so 3 sigma means 3 sigma
            if logweight_spread(g_batch, cfg.beta, mean0, prior.sigma_p, rng) > 3.5:
                continue
            accepted += 1
            est, se = mc_log_partition(
                g_batch, cfg.beta, mean0, prior.sigma_p,
                n_draws=1_000_000, rng=rng,
            )
            assert abs(quad_value(plan_f(plan, prior, g, 0, cfg.beta), x) - est) < 3.0 * se

    def test_large_beta_terminal_equals_max_reward(self, rng):
        params, rbar_path, sigma_r, benchmark, prior, _ = random_problem(rng, n=2, t_len=2)
        cfg = SolverConfig(beta=1e6, gamma=0.95)
        plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior, cfg)
        rc = period_coeffs(params, rbar_path, sigma_r, benchmark, 1)
        x = rng.normal(0.0, 20.0, size=2)
        # the soft log-partition of G at T-1, which tends to the hard max
        g = replay_g(plan, prior, params, rbar_path, sigma_r, benchmark, cfg)
        val = quad_value(posterior_step(*g[1], prior, cfg.beta)[-1], x)
        best = quad_value(coeffs_of(rc), x, terminal_action(rc, x))
        assert val == pytest.approx(best, rel=1e-3)


class TestGValue:
    def test_myopic_limit_equals_reward(self, rng):
        params, rbar_path, sigma_r, benchmark, prior, _ = random_problem(rng, n=3, t_len=3)
        cfg = SolverConfig(beta=5.0, gamma=1e-300)  # gamma must stay positive
        plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior, cfg)
        rc = period_coeffs(params, rbar_path, sigma_r, benchmark, 0)
        x = rng.normal(0.0, 20.0, size=3)
        u = rng.normal(0.0, 5.0, size=3)
        g = replay_g(plan, prior, params, rbar_path, sigma_r, benchmark, cfg)
        assert quad_value(g[0], x, u) == pytest.approx(quad_value(coeffs_of(rc), x, u), rel=1e-9)

    def test_bellman_identity_closed_form(self, rng):
        for _ in range(10):
            plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(
                rng, n=2, t_len=3
            )
            sig_pad = pad(sigma_r.sigma_r)
            t = int(rng.integers(0, 2))
            x = rng.normal(0.0, 20.0, size=2)
            u = rng.normal(0.0, 5.0, size=2)
            rc = period_coeffs(params, rbar_path, sigma_r, benchmark, t)
            g = replay_g(plan, prior, params, rbar_path, sigma_r, benchmark, cfg)
            # F_{t+1} from G_{t+1}: soft before T-1, the hard max at T-1
            ev = expected_next_value(plan_f(plan, prior, g, t + 1, cfg.beta), 1.0 + rbar_path[t],
                                     sig_pad,
                                     x + u)
            want = quad_value(coeffs_of(rc), x, u) + cfg.gamma * ev
            got = quad_value(g[t], x, u)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_bellman_identity_monte_carlo(self, rng):
        plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(rng, n=2, t_len=2)
        x = rng.normal(0.0, 10.0, size=2)
        u = rng.normal(0.0, 3.0, size=2)
        rc = period_coeffs(params, rbar_path, sigma_r, benchmark, 0)
        g = replay_g(plan, prior, params, rbar_path, sigma_r, benchmark, cfg)
        f_xx, f_x, f_0 = plan_f(plan, prior, g, 1, cfg.beta)
        z = x + u
        n_draws = 100_000
        eps = rng.multivariate_normal(np.zeros(1), sigma_r.sigma_r, size=n_draws)
        x_next = np.empty((n_draws, 2))
        x_next[:, 0] = (1.0 + rbar_path[0, 0]) * z[0]
        x_next[:, 1] = (1.0 + rbar_path[0, 1]) * z[1] + z[1] * eps[:, 0]
        vals = np.einsum("si,ij,sj->s", x_next, f_xx, x_next) + x_next @ f_x + f_0
        est = quad_value(coeffs_of(rc), x, u) + cfg.gamma * vals.mean()
        se = cfg.gamma * vals.std(ddof=1) / np.sqrt(n_draws)
        assert abs(quad_value(g[0], x, u) - est) < 3.0 * se


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
            q = replay_g(plan, prior, params, rbar_path, sigma_r, benchmark, cfg)[t]

            def log_joint(u):
                lp0 = -0.5 * (u - mean0) @ p0_inv @ (u - mean0)
                return lp0 + cfg.beta * quad_value(q, x, u)

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
            plan, *inputs = build_plan(rng, n=4, t_len=4, beta=beta)
            sigma_bar = precision(*inputs)
            for t in range(4):
                chol = plan.chol_tilde[t]
                sig = chol @ chol.T
                assert np.allclose(chol, np.tril(chol))
                assert np.allclose(sigma_bar[t] @ sig, np.eye(4), rtol=0.0, atol=1e-10)
                sign, logdet = np.linalg.slogdet(sig)
                assert sign == 1.0
                assert chol_logdet(plan, t) == pytest.approx(logdet, rel=1e-12, abs=1e-12)

    def test_every_row_matches_the_solve_based_step(self, rng):
        # each policy row of the plan against one solve against sigma_bar, from
        # the solve's own G coefficients: random instances with a non-zero prior
        # mean and gain, and the seed-1 market at N=100, T=30
        cases = []
        for _ in range(12):
            plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(
                rng, n=int(rng.integers(2, 7)), t_len=int(rng.integers(1, 6)),
                beta=float(10.0 ** rng.uniform(-0.5, 3.0)))
            cases.append((plan, precision(params, rbar_path, sigma_r, benchmark, prior, cfg),
                          prior, cfg,
                          replay_g(plan, prior, params, rbar_path, sigma_r, benchmark, cfg)))
        basis = market_basis(99, 200, seed=1)[0]
        prior, cfg = default_prior(100, 10.0), SolverConfig()  # market_plan's
        plan, sigma_bar = solve_with_precision(basis.coeffs(MARKET_REWARD), prior, cfg,
                                               basis.rbar)
        cases.append((plan, sigma_bar, prior, cfg,
                      plan_g(plan, prior, basis.coeffs(MARKET_REWARD), cfg)))
        for plan, sigma_bar, prior, cfg, steps in cases:
            for t in range(plan.horizon):
                *want, _ = posterior_step(*steps[t], prior, cfg.beta)
                got = (sigma_bar[t], plan.u_tilde[t], plan.v_tilde[t],
                       plan.chol_tilde[t], chol_logdet(plan, t))
                for g, w in zip(got, want):
                    assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    def test_stored_matrices_symmetric(self, rng):
        plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(rng, n=3, t_len=3)
        g = replay_g(plan, prior, params, rbar_path, sigma_r, benchmark, cfg)
        for t in range(3):
            for m in (g[t][0], g[t][2], sigma_tilde(plan, t)):
                assert np.abs(m - m.T).max() < 1e-12


class TestSampleAction:
    def test_degenerate_covariance_returns_mean(self, rng):
        plan, *_ = build_plan(rng, n=2, t_len=2)
        plan_tiny = replace(
            plan,
            chol_tilde=np.tile(1e-10 * np.eye(2), (2, 1, 1)),
        )
        x = rng.normal(size=2)
        u = first_trades(plan_tiny, x, 1, seed=0)[0]
        assert np.abs(u - policy_mean(plan_tiny, 0, x)).max() < 1e-8

    def test_sample_mean_matches_policy_mean(self, rng):
        plan, *_ = build_plan(rng, n=2, t_len=2, beta=5.0)
        x = rng.normal(0.0, 5.0, size=2)
        n_draws = 100_000
        draws = first_trades(plan, x, n_draws, seed=7)
        mean = policy_mean(plan, 0, x)
        sig = np.sqrt(np.diag(sigma_tilde(plan, 0)))
        bound = 4.0 * sig / np.sqrt(n_draws)
        assert (np.abs(draws.mean(axis=0) - mean) < bound).all()

    def test_sample_covariance_matches(self, rng):
        plan, *_ = build_plan(rng, n=2, t_len=2, beta=5.0)
        x = rng.normal(0.0, 5.0, size=2)
        draws = first_trades(plan, x, 100_000, seed=13)
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
        )

    def test_zero_policy_zero_returns_static(self, rng):
        plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(rng, n=3, t_len=4)
        frozen = self._zero_policy_plan(plan)
        # force zero expected returns so the bond earns nothing
        frozen = replace(frozen, rbar=np.zeros_like(frozen.rbar))
        paths = flat_paths(5, 4, 2)
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
        paths = flat_paths(3, 4, 2)
        x0 = np.array([1000.0, 0.0, 0.0])
        trajs = rollout(frozen, paths, x0, np.random.default_rng(0))
        for traj in trajs:
            for t in range(5):
                assert traj.x[t, 0] == pytest.approx(1000.0 * (1.0 + 0.005) ** t, rel=1e-14)

    def test_cash_identity_exact(self, rng):
        plan, params, rbar_path, sigma_r, benchmark, prior, cfg = build_plan(rng, n=3, t_len=3)
        paths = flat_paths(4, 3, 2)
        trajs = rollout(plan, paths, np.full(3, 10.0), np.random.default_rng(5))
        for traj in trajs:
            for t in range(plan.horizon):
                assert traj.cash[t] == cash_installment(traj.u[t])

    def test_paths_are_views_of_the_batch(self, rng):
        # trajs[p] and iteration give path p as views into the batch's arrays
        plan, *_ = build_plan(rng, n=3, t_len=4)
        trajs = rollout(plan, flat_paths(5, 4, 2), np.full(3, 10.0),
                        np.random.default_rng(3))
        assert len(trajs) == len(list(trajs)) == 5
        for p, traj in enumerate(trajs):
            for path in (traj, trajs[p]):
                for field in ("x", "u", "cash"):
                    got, whole = getattr(path, field), getattr(trajs, field)
                    assert np.shares_memory(got, whole) and np.array_equal(got, whole[p])
        with pytest.raises(TypeError):
            trajs[1:3]

    def test_horizon_mismatch(self, rng):
        plan, *_ = build_plan(rng, n=3, t_len=3)
        paths = flat_paths(2, 5, 2)
        with pytest.raises(ShapeError):
            rollout(plan, paths, np.full(3, 10.0), np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0_rejected(self, rng, bad):
        plan, *_ = build_plan(rng, n=4, t_len=3)
        with pytest.raises(ParameterError, match="x0"):
            rollout(plan, flat_paths(2, 3, 3), np.array([bad, 1.0, 1.0, 1.0]),
                    np.random.default_rng(0))

    def test_rollout_reproducible(self, rng):
        plan, *_ = build_plan(rng, n=3, t_len=3)
        paths = flat_paths(4, 3, 2)
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

    def test_one_draw_from_the_callers_generator(self):
        # the noise is one block from the generator given, not a stream per path
        class NoSpawn:
            def __init__(self, rng):
                self.rng, self.draws = rng, []

            def spawn(self, n_children):
                raise AssertionError("rollout spawned a generator")

            def standard_normal(self, *args, **kwargs):
                self.draws.append(kwargs["out"].shape)
                return self.rng.standard_normal(*args, **kwargs)

        plan, paths = market_plan(3, n_paths=40)
        rng = NoSpawn(np.random.default_rng(5))
        got = rollout(plan, paths, np.full(4, 250.0), rng)
        assert rng.draws == [(40, plan.horizon, 4)]
        want = rollout(plan, paths, np.full(4, 250.0), np.random.default_rng(5))
        assert np.array_equal(got.u, want.u) and np.array_equal(got.x, want.x)

    def test_path_independent_of_other_paths(self):
        plan, paths = market_plan(9, n_paths=40)
        few = ReturnPaths(expected=paths.expected[:5], realized=paths.realized[:5],
                          market=paths.market[:5])
        x0 = np.full(10, 100.0)
        many_trajs = rollout(plan, paths, x0, np.random.default_rng(7))
        few_trajs = rollout(plan, few, x0, np.random.default_rng(7))
        scale = max(np.abs(t.x).max() for t in few_trajs)
        for a, b in zip(few_trajs, list(many_trajs)[:5]):
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


class TestSolverInputs:
    @pytest.mark.parametrize("beta, gamma", [
        (np.inf, 0.95), (-np.inf, 0.95), (np.nan, 0.95), (1.0, np.inf), (1.0, np.nan),
    ])
    def test_non_finite_temperature_or_discount_rejected(self, rng, beta, gamma):
        params, rbar_path, sigma_r, benchmark, prior, _ = random_problem(rng)
        with pytest.raises(ParameterError, match="beta" if gamma == 0.95 else "gamma"):
            solve_plan(params, rbar_path, sigma_r, benchmark, prior,
                       SolverConfig(beta=beta, gamma=gamma))

    @pytest.mark.parametrize("member, index, value", [
        ("u_bar", (1,), np.nan), ("u_bar", (0,), np.inf), ("v_bar", (0, 1), np.inf),
        ("v_bar", (2, 2), np.nan), ("sigma_p", (1, 1), np.nan), ("sigma_p", (0, 2), np.inf),
    ])
    def test_non_finite_prior_member_rejected(self, rng, member, index, value):
        *_, prior, _ = random_problem(rng)
        members = {name: getattr(prior, name).copy() for name in ("u_bar", "v_bar", "sigma_p")}
        members[member][index] = value
        with pytest.raises(ParameterError, match=f"prior {member} "):
            PolicyPrior(**members)

    @pytest.mark.parametrize("name", ["lam", "eta", "omega"])
    def test_infinite_reward_parameter_rejected(self, rng, name):
        # an infinite weight would solve to a non-finite plan
        params, rbar_path, sigma_r, benchmark, prior, cfg = random_problem(rng)
        with pytest.raises(ParameterError, match="not finite"):
            solve_plan(replace(params, **{name: np.inf}), rbar_path, sigma_r, benchmark,
                       prior, cfg)

    def test_eta_beyond_float_range_rejected(self, rng):
        # eta**2 overflows a Python float: a typed error, not OverflowError
        params, rbar_path, sigma_r, benchmark, prior, cfg = random_problem(rng)
        with pytest.raises(ParameterError, match="float range"):
            solve_plan(replace(params, eta=1e200), rbar_path, sigma_r, benchmark, prior, cfg)

    @pytest.mark.parametrize("lam, b_value, needle", [
        (1e300, 1e50, "coefficients under lam=1e+300, eta=1.01, rho=0.4, omega=0.15 and "
                      "a largest benchmark value of 1e+50 leave the float range"),
        # every coefficient in range, but beta q_uu of the recursion is not
        (1e306, 1.0, "the policy solved under lam=1e+306, eta=1.01, rho=0.4, omega=0.15 "
                     "leaves the float range"),
    ], ids=["coefficients", "policy"])
    def test_reward_past_the_float_range_names_it(self, lam, b_value, needle):
        # a typed error before any policy is returned, without a RuntimeWarning
        spec = MarketSpec(n_risky=2, horizon=8, n_paths=25)
        paths = simulate(spec)
        rbar = np.concatenate([np.full((8, 1), spec.r_f * spec.dt),
                               mean_expected_returns(paths)], axis=1)
        params = RewardParams(lam=lam, eta=1.01, rho=0.4, omega=0.15)
        with pytest.raises(ParameterError, match=re.escape(needle)):
            solve_plan(params, rbar, residual_covariance(paths),
                       BenchmarkPath(np.full(8, b_value)), default_prior(3),
                       SolverConfig(beta=100.0))

    def test_prior_mean_must_be_a_vector(self, rng):
        *_, prior, _ = random_problem(rng)
        with pytest.raises(ShapeError, match="u_bar must be 1-D"):
            PolicyPrior(u_bar=prior.u_bar[:, None], v_bar=prior.v_bar, sigma_p=prior.sigma_p)


class TestTrajectoryType:
    def test_shape_validation(self):
        for x, u, cash in (
            (np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(2)),           # one path, not 3-D
            (np.zeros((0, 3, 2)), np.zeros((0, 2, 2)), np.zeros((0, 2))),  # zero paths
            (np.zeros((4, 3, 2)), np.zeros((4, 3, 2)), np.zeros((4, 3))),  # as many trades
            (np.zeros((4, 3, 2)), np.zeros((4, 2, 3)), np.zeros((4, 2))),  # other width
            (np.zeros((4, 3, 2)), np.zeros((4, 2, 2)), np.zeros((3, 2))),  # cash of 3 paths
        ):
            with pytest.raises(ShapeError):
                Trajectories(x=x, u=u, cash=cash)
