"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 exercise the full reference experiment (100 assets, 30 quarterly
periods, 1000 paths).  On a 2-vCPU machine with one BLAS thread, the fit in the
slow fixture, from ``girl.FIT_START``, takes about 1 s (9 iterations), and the two
fixtures together, market, rollouts, loss slices and imitation rollout included,
about 5 s; the fits from two more starts add about 3 s.
Run with ``pytest -v -s tests/test_acceptance.py`` to watch progress.
"""

import time

import numpy as np
import pytest

from gwealth.girl import (
    FIT_START,
    FitConfig,
    GirlParams,
    default_slice_grids,
    fit,
    loss_slices,
    pack_reward,
    scaled_start,
)
from gwealth.glearner import SolverConfig, backward_pass, default_prior, rollout, solve_plan
from gwealth.market import MarketSpec, mean_expected_returns, residual_covariance, simulate
from gwealth.metrics import equal_weight_baseline, sharpe
from gwealth.rewards import BenchmarkPath, RewardParams, exponential_benchmark, reward_basis

from conftest import random_problem, random_spd
from oracles import (
    action_log_prob, coeffs_of, dp_solve, expected_reward, mc_log_partition, mvn_logpdf,
    nll_gradient, pad, plan_f, plan_g, policy_mean, quad_value, sigma_tilde,
)

pytestmark = pytest.mark.slow

SEED = 7
TRUTH = RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15)


def _report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="module")
def experiment():
    """Reference market, solved plan, reference rollouts, baseline."""
    spec = MarketSpec(seed=SEED)  # paper-scale defaults
    paths = simulate(spec)
    sigma_r = residual_covariance(paths)
    rbar_path = np.concatenate(
        [np.full((spec.horizon, 1), spec.r_f * spec.dt), mean_expected_returns(paths)],
        axis=1,
    )
    bench = exponential_benchmark(1000.0, 0.5, spec.horizon, spec.dt)
    prior = default_prior(spec.n_risky + 1, sigma_p_scale=10.0)
    cfg = SolverConfig(beta=1000.0, gamma=0.95)
    plan = solve_plan(TRUTH, rbar_path, sigma_r, bench, prior, cfg)
    x0 = np.full(spec.n_risky + 1, 1000.0 / (spec.n_risky + 1))
    trajs = rollout(plan, paths, x0, np.random.default_rng(
        np.random.SeedSequence(entropy=SEED, spawn_key=(1,))
    ))
    baseline = equal_weight_baseline(paths, x0, spec.r_f, spec.dt)
    return {
        "spec": spec, "paths": paths, "sigma_r": sigma_r, "rbar_path": rbar_path,
        "bench": bench, "prior": prior, "cfg": cfg, "plan": plan, "x0": x0,
        "trajs": trajs, "baseline": baseline,
    }


@pytest.fixture(scope="module")
def fit_result(experiment):
    """Parameter recovery on the reference trajectories (the slow stage)."""
    ex = experiment
    theta_star = GirlParams(
        reward=TRUTH, sigma_r=ex["sigma_r"], sigma_p=ex["prior"].sigma_p,
        u_bar=np.zeros(100), beta=1000.0, gamma=0.95, benchmark=ex["bench"],
    )
    theta0 = theta_star.with_reward(FIT_START)
    print("\n[acceptance] running the reference fit "
          "(damped Fisher scoring, Newton-decrement tolerance 1e-4 nats, "
          "up to 1000 iterations)...")
    t0 = time.perf_counter()
    report = fit(ex["trajs"], ex["rbar_path"], theta0, FitConfig(max_iters=1000))
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] fit stopped ({report.stop_reason}) in {elapsed:.0f} s "
          f"after {report.iterations} iterations and {report.solves} solves, Newton decrement "
          f"{report.decrement:.3g} nats")

    slices = loss_slices(theta_star, ex["trajs"], ex["rbar_path"],
                         default_slice_grids(TRUTH))

    # imitation rollouts under the fitted parameters, common random numbers
    plan_hat = solve_plan(report.params.reward, ex["rbar_path"], ex["sigma_r"],
                          ex["bench"], ex["prior"], ex["cfg"])
    trajs_hat = rollout(plan_hat, ex["paths"], ex["x0"], np.random.default_rng(
        np.random.SeedSequence(entropy=SEED, spawn_key=(1,))
    ))
    return {"report": report, "slices": slices, "trajs_hat": trajs_hat, "theta_star": theta_star}


class TestCriterion1:
    def test_parameter_recovery(self, fit_result):
        rep = fit_result["report"]
        r = rep.params.reward
        checks = {
            "rho": (abs(r.rho - 0.4), 0.05),
            "lam": (abs(r.lam - 0.001), 2e-4),
            "eta": (abs(r.eta - 1.01), 0.12),
            "omega": (abs(float(r.omega) - 0.15), 0.01),
        }
        ok = (all(err <= tol for err, tol in checks.values()) and rep.iterations <= 1000
              and rep.converged)
        detail = ", ".join(f"{k} err {err:.3g} (tol {tol:g})"
                           for k, (err, tol) in checks.items())
        assert _report(1, "parameter recovery", ok,
                       f"{detail}; iterations {rep.iterations}, stop {rep.stop_reason}")

    def test_recovery_does_not_depend_on_the_start(self, experiment, fit_result):
        # from twice the truth, from a unit start and from FIT_START the fit
        # converges to one point: within 1e-6 in pack_reward coordinates
        ex, theta_star = experiment, fit_result["theta_star"]
        unit = RewardParams(lam=1.0, eta=1.0, rho=0.5, omega=1.0)
        reports = [fit_result["report"]] + [
            fit(ex["trajs"], ex["rbar_path"], theta_star.with_reward(start), FitConfig())
            for start in (scaled_start(TRUTH, 2.0), unit)]
        points = np.array([pack_reward(rep.params.reward) for rep in reports])
        spread = float(np.max(np.ptp(points, axis=0)))
        ok = all(rep.converged for rep in reports) and spread <= 1e-6
        assert _report(1, "recovery from three starts", ok,
                       f"largest spread {spread:.2g} in pack_reward coordinates; iterations "
                       + ", ".join(str(rep.iterations) for rep in reports))


class TestCriterion2:
    def test_sharpe_ordering(self, experiment):
        spec = experiment["spec"]
        s_gl = sharpe(experiment["trajs"], spec.r_f, spec.dt)
        s_ew = sharpe(experiment["baseline"], spec.r_f, spec.dt)
        ok = s_gl > s_ew and (s_gl - s_ew) > 0.0
        assert _report(2, "Sharpe ordering", ok,
                       f"planner {s_gl:.3f} vs equal-weight {s_ew:.3f}")


class TestCriterion3:
    def test_imitation(self, experiment, fit_result):
        spec = experiment["spec"]
        w_star = experiment["trajs"].x.sum(axis=2).mean(axis=0)  # mean wealth curves
        w_hat = fit_result["trajs_hat"].x.sum(axis=2).mean(axis=0)
        gap = float(np.abs(w_star - w_hat).max() / w_star[-1])
        s_star = sharpe(experiment["trajs"], spec.r_f, spec.dt)
        s_hat = sharpe(fit_result["trajs_hat"], spec.r_f, spec.dt)
        ok = gap <= 0.02 and s_hat >= 0.9 * s_star
        assert _report(3, "imitation", ok,
                       f"wealth-curve gap {gap:.4f} of terminal, "
                       f"Sharpe {s_hat:.3f} vs {s_star:.3f}")


class TestCriterion4:
    def test_loss_slices_unimodal(self, fit_result):
        ok = True
        details = []
        for name, (grid, vals) in fit_result["slices"].items():
            i_min = int(np.argmin(vals))
            center = len(grid) // 2
            diffs = np.diff(vals)
            unimodal = (
                0 < i_min < len(grid) - 1
                and np.all(diffs[:i_min] < 0)
                and np.all(diffs[i_min:] > 0)
            )
            near_truth = abs(i_min - center) <= 1
            ok = ok and unimodal and near_truth
            details.append(f"{name}: argmin at {i_min} (center {center})")
        assert _report(4, "loss-slice unimodality", ok, "; ".join(details))


class TestCriterion5:
    def test_solver_speed(self, experiment):
        ex = experiment
        coeffs = reward_basis(ex["rbar_path"], ex["sigma_r"], ex["bench"]).coeffs(TRUTH)
        rc = [coeffs(t) for t in range(30)]
        t0 = time.perf_counter()
        backward_pass(rc.__getitem__, ex["prior"], ex["cfg"], ex["rbar_path"])
        elapsed = time.perf_counter() - t0
        ok = elapsed <= 10.0
        assert _report(5, "solver speed", ok,
                       f"backward pass N=100 T=30 took {elapsed:.2f}s (limit 10s)")


class TestCriterion6:
    def test_a_reward_assembly_oracle(self):
        rng = np.random.default_rng(601)
        worst = 0.0
        for _ in range(100):
            lam = float(rng.uniform(0.002, 0.05))
            eta = float(rng.uniform(1.0, 1.05))
            rho = float(rng.uniform(0.1, 0.9))
            omega = random_spd(rng, 4, scale=0.3)
            params = RewardParams(lam=lam, eta=eta, rho=rho, omega=omega)
            rbar = np.concatenate([[0.005], rng.uniform(-0.03, 0.08, size=3)])
            sigma = random_spd(rng, 3, scale=0.05)
            b_t = float(rng.uniform(50.0, 200.0))
            from gwealth.market import ReturnCovariance

            rc = reward_basis(rbar[None], ReturnCovariance(sigma_r=sigma),
                              BenchmarkPath(b=np.array([b_t]))).coeffs(params)(0)
            x = rng.normal(0.0, 50.0, size=4)
            u = rng.normal(0.0, 20.0, size=4)
            got = quad_value(coeffs_of(rc), x, u)
            want = expected_reward(lam, eta, rho, omega, rbar, pad(sigma),
                                   b_t, x, u)
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
        ok = worst < 1e-10
        assert _report(6, "oracle a: reward assembly", ok, f"worst rel err {worst:.2e}")

    def test_b_gaussian_integral_identity(self):
        from oracles import logweight_spread

        rng = np.random.default_rng(602)
        failures = 0
        accepted = 0
        while accepted < 20:
            params, rbar_path, sigma_r, benchmark, prior, cfg = random_problem(
                rng, n=2, t_len=2, beta=float(rng.uniform(0.5, 2.0))
            )
            plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior, cfg)
            g = plan_g(plan, prior, reward_basis(rbar_path, sigma_r, benchmark).coeffs(params),
                       cfg)
            x = rng.normal(0.0, 5.0, size=2)

            def g_batch(u_draws, q=g[0], x=x):
                q_xx, q_ux, q_uu, q_x, q_u, q_0 = q
                lin = u_draws @ (q_ux @ x + q_u)
                quad = np.einsum("si,ij,sj->s", u_draws, q_uu, u_draws)
                return float(x @ q_xx @ x + x @ q_x + q_0) + lin + quad

            mean0 = prior.u_bar + prior.v_bar @ x
            # the 3-sigma bound is only meaningful when the importance sampler
            # has real overlap; screen instances on the log-weight spread
            if logweight_spread(g_batch, cfg.beta, mean0, prior.sigma_p, rng) > 3.5:
                continue
            accepted += 1
            est, se = mc_log_partition(
                g_batch, cfg.beta, mean0, prior.sigma_p,
                n_draws=1_000_000, rng=rng,
            )
            if abs(quad_value(plan_f(plan, prior, g, 0, cfg.beta), x) - est) >= 3.0 * se:
                failures += 1
        ok = failures <= 1  # one 3-sigma miss in twenty trials is within chance
        assert _report(6, "oracle b: Gaussian integral", ok,
                       f"{failures}/20 beyond 3 standard errors")

    def test_c_bellman_consistency(self):
        rng = np.random.default_rng(603)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 4))
            t_len = int(rng.integers(2, 5))
            params, rbar_path, sigma_r, benchmark, prior, cfg = random_problem(
                rng, n=n, t_len=t_len
            )
            plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior, cfg)
            t = int(rng.integers(0, t_len - 1))
            x = rng.normal(0.0, 20.0, size=n)
            u = rng.normal(0.0, 5.0, size=n)
            reward = reward_basis(rbar_path, sigma_r, benchmark).coeffs(params)
            g = plan_g(plan, prior, reward, cfg)
            from oracles import expected_next_value

            ev = expected_next_value(
                plan_f(plan, prior, g, t + 1, cfg.beta), 1.0 + rbar_path[t], pad(sigma_r.sigma_r),
                x + u,
            )
            want = quad_value(coeffs_of(reward(t)), x, u) + cfg.gamma * ev
            got = quad_value(g[t], x, u)
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
        ok = worst < 1e-10
        assert _report(6, "oracle c: Bellman identity", ok, f"worst rel err {worst:.2e}")

    def test_d_deterministic_limit_monotone(self):
        rng = np.random.default_rng(604)
        params, rbar_path, sigma_r, benchmark, prior, cfg0 = random_problem(
            rng, n=2, t_len=3, sigma_p_scale=1.0
        )
        sig_pad = pad(sigma_r.sigma_r)
        reward_fns = [
            (lambda x, u, t=t: expected_reward(
                params.lam, params.eta, params.rho, params.omega_matrix(2),
                rbar_path[t], sig_pad, float(benchmark.b[t]), x, u))
            for t in range(3)
        ]
        policies, _ = dp_solve(reward_fns, 1.0 + rbar_path, sig_pad, cfg0.gamma, 2)
        x = rng.normal(0.0, 20.0, size=2)
        k_mat, k_vec = policies[0]
        target = k_mat @ x + k_vec
        gaps = []
        for beta in (10.0, 100.0, 1000.0, 10000.0):
            plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior,
                              SolverConfig(beta=beta, gamma=cfg0.gamma))
            gaps.append(float(np.linalg.norm(policy_mean(plan, 0, x) - target)))
        ok = gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert _report(6, "oracle d: deterministic limit", ok,
                       "gaps " + ", ".join(f"{g:.2e}" for g in gaps))

    def test_e_zero_temperature_posterior_equals_prior(self):
        rng = np.random.default_rng(605)
        params, rbar_path, sigma_r, benchmark, prior, _ = random_problem(rng, n=3, t_len=3)
        plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior,
                          SolverConfig(beta=1e-12, gamma=0.95))
        worst = 0.0
        for t in range(3):
            worst = max(
                worst,
                float(np.abs(plan.u_tilde[t] - prior.u_bar).max()),
                float(np.abs(plan.v_tilde[t] - prior.v_bar).max()),
                float(np.abs(sigma_tilde(plan, t) - prior.sigma_p).max()),
            )
        ok = worst < 1e-8
        assert _report(6, "oracle e: vanishing-beta limit", ok, f"worst gap {worst:.2e}")

    def test_f_action_density_identity(self):
        rng = np.random.default_rng(606)
        worst = 0.0
        count = 0
        for _ in range(10):
            params, rbar_path, sigma_r, benchmark, prior, cfg = random_problem(
                rng, n=2, t_len=2, beta=float(rng.uniform(1.0, 50.0))
            )
            plan = solve_plan(params, rbar_path, sigma_r, benchmark, prior, cfg)
            g = plan_g(plan, prior, reward_basis(rbar_path, sigma_r, benchmark).coeffs(params),
                       cfg)
            for _ in range(10):
                t = int(rng.integers(0, 2))
                x = rng.normal(0.0, 10.0, size=2)
                u = rng.normal(0.0, 3.0, size=2)
                got = action_log_prob(prior, g[t], x, u, beta=cfg.beta)
                want = mvn_logpdf(u, policy_mean(plan, t, x), sigma_tilde(plan, t))
                worst = max(worst, abs(got - want))
                count += 1
        ok = worst < 1e-8 and count == 100
        assert _report(6, "oracle f: action density identity", ok,
                       f"worst abs err {worst:.2e} over {count} instances")

    def test_g_gradient_richardson(self):
        rng = np.random.default_rng(607)
        from test_girl import make_setup

        theta, _, trajs, rbar_path = make_setup(rng, n_paths=20, beta=20.0)
        h = 2e-3
        grads = {
            mult: nll_gradient(theta, trajs, rbar_path, h * mult)
            for mult in (1.0, 2.0, 4.0)
        }
        ratio = (grads[4.0] - grads[2.0]) / (grads[2.0] - grads[1.0])
        ok = bool(np.all(np.abs(ratio - 4.0) < 0.2))
        assert _report(6, "oracle g: finite-difference order", ok,
                       "ratios " + ", ".join(f"{r:.3f}" for r in ratio))


class TestCriterion7:
    def test_cash_installment_profile(self, experiment):
        """The investor makes periodic investments while employed: the mean
        cash installment is non-negative in every period, so cumulative
        contributions never decrease.  It holds on the reference market
        because alpha, like every configured rate, enters the expected
        returns on the period scale (alpha*dt)."""
        cash = np.stack([t.cash for t in experiment["trajs"]]).mean(axis=0)
        cumulative = np.cumsum(cash)
        non_negative = bool((cash >= 0.0).all())
        increasing = bool((np.diff(cumulative) >= 0.0).all())
        ok = non_negative and increasing
        assert _report(
            7, "installment profile", ok,
            f"mean installments in [{cash.min():.1f}, {cash.max():.1f}], "
            f"{(cash < 0).sum()}/{cash.size} periods negative",
        )
