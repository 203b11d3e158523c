"""Independent oracles used by the test suite.

Most of what is here is derived from first principles (definitions of the
reward, Gaussian moments, black-box quadratic fitting, brute-force
maximization) and deliberately shares no code path with the package
internals it checks.  The rest are the direct, per-path and per-step forms of
computations the package batches or pools (the trajectory likelihood, the
rollout, the equal-weight baseline, the shortfall); they call only the
package's single-step building blocks.  The finite-difference likelihood
gradient differences the package's own likelihood, as the check of its exact
gradient.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

from gwealth.errors import GradientError
from gwealth.girl import (
    PARAM_NAMES, nll_from_stats, pack_reward, prepare_stats, transition_log_prob, unpack_reward,
)
from gwealth.glearner import Trajectory, cash_installment, g_value, sample_action, solve_plan
from gwealth.rewards import target_portfolio

LOG_2PI = math.log(2.0 * math.pi)


def pad(sigma_r: np.ndarray) -> np.ndarray:
    """Zero row/column for the bond in front of a risky covariance."""
    n = sigma_r.shape[0] + 1
    out = np.zeros((n, n))
    out[1:, 1:] = sigma_r
    return out


def expected_reward(lam, eta, rho, omega, rbar, sigma_pad, b_t, x, u):
    """Closed-form expectation of the one-step reward, straight from its
    definition: -sum(u) - lam*((target - (1+rbar).(x+u))^2 + (x+u)' Sigma (x+u))
    - u' Omega u."""
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    z = x + u
    target = (1.0 - rho) * b_t + rho * eta * x.sum()
    gross = 1.0 + np.asarray(rbar, float)
    shortfall_sq = (target - gross @ z) ** 2 + z @ sigma_pad @ z
    return -u.sum() - lam * shortfall_sq - u @ omega @ u


def mc_reward(lam, eta, rho, omega, rbar, sigma_pad, b_t, x, u, n_draws, rng):
    """Monte-Carlo estimate of the expected one-step reward and its standard
    error, sampling returns from N(rbar, sigma_pad)."""
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    z = x + u
    target = (1.0 - rho) * b_t + rho * eta * x.sum()
    n = x.shape[0]
    chol = np.linalg.cholesky(sigma_pad + 1e-18 * np.eye(n))
    eps = rng.standard_normal((n_draws, n)) @ chol.T
    gross = 1.0 + np.asarray(rbar, float) + eps
    vals = -u.sum() - lam * (target - gross @ z) ** 2 - u @ omega @ u
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_draws))


def quad_fit(f, dim: int, scale: float = 1.0):
    """Exact coefficients (C, b, c) of a quadratic f(v) = v'Cv + b'v + c.

    Probes f at 0, +-scale * e_i and scale * (e_i + e_j); exact for genuinely
    quadratic functions up to floating point.  C is returned symmetric.
    """
    h = scale
    c0 = f(np.zeros(dim))
    b = np.empty(dim)
    c = np.empty((dim, dim))
    fp = np.empty(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        fp[i] = f(e)
        fm = f(-e)
        b[i] = (fp[i] - fm) / (2.0 * h)
        c[i, i] = (fp[i] + fm - 2.0 * c0) / (2.0 * h * h)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros(dim)
            e[i] = h
            e[j] = h
            cij = (f(e) - fp[i] - fp[j] + c0) / (2.0 * h * h)
            c[i, j] = cij
            c[j, i] = cij
    return c, b, float(c0)


def brute_force_argmax(f, dim: int, span: float = 50.0, n_grid: int = 21):
    """Dense maximizer of a concave quadratic: coarse grid search, then an
    exact quadratic solve around the best grid point."""
    axes = [np.linspace(-span, span, n_grid)] * dim
    best_v, best_u = -np.inf, None
    for point in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, dim):
        v = f(point)
        if v > best_v:
            best_v, best_u = v, point
    # f(best_u + d) is quadratic in d: fit it exactly and solve for the
    # stationary point
    c_mat, b_vec, _ = quad_fit(lambda d: f(best_u + d), dim)
    res = optimize.minimize(lambda u: -f(u), best_u, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
    refined = best_u - 0.5 * np.linalg.solve(c_mat, b_vec)
    # keep whichever refinement scores best (they agree to high precision)
    return refined if f(refined) >= f(res.x) else res.x


def gaussian_quadratic_expectation(c_mat, b_vec, c0, mean, cov):
    """E[v'Cv + b'v + c] for v ~ N(mean, cov): the standard identity
    mean'C mean + tr(C cov) + b'mean + c."""
    return float(mean @ c_mat @ mean + np.trace(c_mat @ cov) + b_vec @ mean + c0)


def expected_next_value(v_triple, a_vec, sigma_pad, z):
    """E[V(x')] for x' = a*z + z*eps with eps ~ N(0, sigma_pad), V quadratic.

    Uses the Gaussian quadratic-expectation identity with mean a*z and
    covariance diag(z) sigma_pad diag(z).
    """
    vxx, vx, v0 = v_triple
    mean = a_vec * z
    cov = np.diag(z) @ sigma_pad @ np.diag(z)
    return gaussian_quadratic_expectation(vxx, vx, v0, mean, cov)


def dp_solve(reward_fns, a_path, sigma_pad, gamma, n):
    """Deterministic dynamic-programming oracle for the quadratic problem.

    reward_fns[t](x, u) must return the expected one-step reward.  Returns
    per-step affine policies (K_t, k_t) with u*(x) = K_t x + k_t and the
    quadratic value triples (Vxx, vx, v0), all obtained by black-box
    quadratic fitting and exact maximization.
    """
    t_len = len(reward_fns)
    policies = [None] * t_len
    values = [None] * t_len
    v_next = None
    for t in range(t_len - 1, -1, -1):
        if t == t_len - 1:
            def j_fn(x, u, _t=t):
                return reward_fns[_t](x, u)
        else:
            def j_fn(x, u, _t=t, _vn=v_next):
                return reward_fns[_t](x, u) + gamma * expected_next_value(
                    _vn, a_path[_t], sigma_pad, x + u
                )
        c_mat, b_vec, c0 = quad_fit(lambda v: j_fn(v[:n], v[n:]), 2 * n)
        m_xx = c_mat[:n, :n]
        m_xu = c_mat[:n, n:]
        m_uu = c_mat[n:, n:]
        b_x, b_u = b_vec[:n], b_vec[n:]
        k_mat = -np.linalg.solve(m_uu, m_xu.T)
        k_vec = -0.5 * np.linalg.solve(m_uu, b_u)
        policies[t] = (k_mat, k_vec)

        def v_fn(x, _k=k_mat, _kv=k_vec, _j=j_fn):
            return _j(x, _k @ x + _kv)

        values[t] = quad_fit(v_fn, n)
        v_next = values[t]
    return policies, values


def mvn_logpdf(x, mean, cov):
    """Reference multivariate normal log-density (scipy)."""
    return float(stats.multivariate_normal(mean=mean, cov=cov).logpdf(x))


def logweight_spread(g_batch_fn, beta, mean0, cov0, rng, n_probe=20_000):
    """Standard deviation of the log importance weights beta*G(u), u ~ pi0.

    Importance sampling from the reference policy only yields a trustworthy
    estimate (and standard error) when this spread is moderate; tests screen
    instances on it before relying on the 3-sigma bound.
    """
    chol = np.linalg.cholesky(cov0)
    draws = mean0 + rng.standard_normal((n_probe, mean0.shape[0])) @ chol.T
    return float(np.std(beta * np.asarray(g_batch_fn(draws), dtype=float)))


def mc_log_partition(g_batch_fn, beta, mean0, cov0, n_draws, rng):
    """(1/beta) * log MC-estimate of the integral of pi0 * exp(beta*G) by
    importance sampling from pi0, with a log-sum-exp reduction.

    ``g_batch_fn`` maps an (S, n) array of actions to S values of G.  Returns
    the estimate and a delta-method standard error in free-energy units.
    """
    chol = np.linalg.cholesky(cov0)
    draws = mean0 + rng.standard_normal((n_draws, mean0.shape[0])) @ chol.T
    logw = beta * np.asarray(g_batch_fn(draws), dtype=float)
    m = logw.max()
    w = np.exp(logw - m)
    est = (m + np.log(w.mean())) / beta
    se_logmean = w.std(ddof=1) / (w.mean() * np.sqrt(n_draws))
    return float(est), float(se_logmean / beta)


# ---------------------------------------------------------------------------
# direct likelihood: per trajectory and step (the package pools moments)
# ---------------------------------------------------------------------------

def sigma_tilde(policy, t):
    """Posterior covariance at step t, from its stored Cholesky factor."""
    return policy.chol_tilde[t] @ policy.chol_tilde[t].T


def action_log_prob(plan, t, x, u, beta):
    """Log probability of an action: log pi0(u|x) + beta * (G(x,u) - F(x)).

    F here is the soft log-partition at step t, which makes this exactly the
    log-density of the posterior Gaussian policy.
    """
    prior = plan.prior
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    n = u.shape[0]
    mean0 = prior.u_bar + prior.v_bar @ x
    chol = np.linalg.cholesky(prior.sigma_p)
    w = np.linalg.solve(chol, u - mean0)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    log_pi0 = -0.5 * (n * LOG_2PI + logdet + float(w @ w))
    f_xx, f_x, f_0 = (plan.f_soft_last if t == plan.horizon - 1
                      else (plan.f_xx[t], plan.f_x[t], plan.f_0[t]))
    f_val = float(x @ f_xx @ x + x @ f_x + f_0)
    return log_pi0 + beta * (g_value(plan, t, x, u) - f_val)


def trajectory_nll(theta, trajs, rbar_path):
    """Negative log-likelihood of the trajectories under theta.

    Re-runs the backward recursion under theta, then sums the per-step action
    and transition log-probabilities; trajectories enter additively.
    """
    if len(trajs) == 0:
        return 0.0
    plan = solve_plan(theta.reward, rbar_path, theta.sigma_r, theta.benchmark,
                      theta.prior(), theta.solver_config())
    total = 0.0
    for traj in trajs:
        assert traj.horizon == plan.horizon
        for t in range(traj.horizon):
            total += action_log_prob(plan, t, traj.x[t], traj.u[t], theta.beta)
            total += transition_log_prob(
                traj.x[t + 1], traj.x[t], traj.u[t], rbar_path[t], theta.sigma_r
            )
    return -total


# ---------------------------------------------------------------------------
# finite-difference likelihood gradient (the package differentiates exactly)
# ---------------------------------------------------------------------------

def fd_gradient(nll_fn, vec, fd_step):
    """Central finite differences of ``nll_fn`` at ``vec``, with step
    ``fd_step`` relative to each coordinate's magnitude (absolute below one)."""
    grad = np.empty(vec.shape[0])
    for i in range(vec.shape[0]):
        h = fd_step * max(abs(float(vec[i])), 1.0)
        up = vec.copy()
        up[i] += h
        down = vec.copy()
        down[i] -= h
        f_up = nll_fn(up)
        f_down = nll_fn(down)
        if not (np.isfinite(f_up) and np.isfinite(f_down)):
            raise GradientError(
                f"non-finite objective probing coordinate '{PARAM_NAMES[i]}'"
            )
        grad[i] = (f_up - f_down) / (2.0 * h)
    return grad


def coordinate_nll(theta, trajs, rbar_path):
    """The negative log-likelihood as a function of the unconstrained reward
    coordinates of ``girl.pack_reward``, every other field of ``theta`` held
    fixed."""
    stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
    return lambda vec: nll_from_stats(theta.with_reward(unpack_reward(vec)), stats, rbar_path)


def nll_gradient(theta, trajs, rbar_path, fd_step):
    """Central finite-difference gradient of the negative log-likelihood in
    the unconstrained coordinates of (lam, eta, rho, omega), with relative
    step ``fd_step``: eight solves."""
    return fd_gradient(coordinate_nll(theta, trajs, rbar_path), pack_reward(theta.reward),
                       fd_step)


# ---------------------------------------------------------------------------
# per-path Monte-Carlo loops (the package advances all paths at once)
# ---------------------------------------------------------------------------

def rollout_loop(plan, paths, x0, rng):
    """Policy rollout one path and one period at a time, each path drawing
    its trades with ``sample_action`` from its own spawned stream."""
    t_len, n = plan.horizon, plan.n_assets
    out = []
    for p, stream in enumerate(rng.spawn(paths.n_paths)):
        x = np.empty((t_len + 1, n))
        u = np.empty((t_len, n))
        x[0] = x0
        for t in range(t_len):
            u[t] = sample_action(plan, t, x[t], stream)
            gross = np.concatenate([[1.0 + plan.rbar[t, 0]], 1.0 + paths.realized[p, t]])
            x[t + 1] = gross * (x[t] + u[t])
        cash = np.array([cash_installment(u[t]) for t in range(t_len)])
        out.append(Trajectory(x=x, u=u, cash=cash))
    return out


def equal_weight_loop(paths, x0, r_f, dt):
    """Buy-and-hold positions one path and one period at a time."""
    t_len, n = paths.horizon, paths.n_risky + 1
    out = []
    for p in range(paths.n_paths):
        x = np.empty((t_len + 1, n))
        x[0] = x0
        for t in range(t_len):
            gross = np.concatenate([[1.0 + r_f * dt], 1.0 + paths.realized[p, t]])
            x[t + 1] = gross * x[t]
        out.append(Trajectory(x=x, u=np.zeros((t_len, n)), cash=np.zeros(t_len)))
    return out


def shortfall_loop(trajs, params, benchmark):
    """Path-averaged rectified shortfall max(target_t - wealth_{t+1}, 0) with
    the target of ``rewards.target_portfolio``, one path and period at a time."""
    t_len = trajs[0].horizon
    gaps = np.zeros((len(trajs), t_len))
    for i, traj in enumerate(trajs):
        for t in range(t_len):
            target = target_portfolio(params, float(benchmark.b[t]), traj.x[t])
            gaps[i, t] = max(target - float(np.sum(traj.x[t + 1])), 0.0)
    return gaps.mean(axis=0)
