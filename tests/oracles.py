"""Independent oracles used by the test suite.

Most of what is here is derived from first principles (definitions of the
reward, Gaussian moments, black-box quadratic fitting, brute-force
maximization) and deliberately shares no code path with the package
internals it checks.  The rest are the direct, per-path and per-step forms of
computations the package batches or pools (the trajectory likelihood, the
market simulation, the rollout, the equal-weight baseline, the shortfall);
they call only the package's single-step building blocks.  A solved policy
holds neither G nor F, nor its prior, inverse temperature and discount, nor
the posterior precision: ``plan_g`` replays the backward recursion's G from
the package's own step functions on the prior, reward and solver settings
the policy was solved from, bit for bit, and adds G's constant, which the
package does not carry, from this module's own steps; F is recomputed from
that G (``plan_f``), and ``solve_with_precision`` keeps every step's
precision from the recursion's own step buffers.  The quadratic forms of a reward and of G are evaluated here
(``quad_value``).
The exact likelihood gradient has two oracles: central finite differences of
the package's own likelihood, and the derivative's reverse (adjoint) mode,
one backward sweep of a scalar function's adjoints pulled back through the
reward's weights, where the package pushes the reward's derivatives in each
parameter through the recursion (forward mode).  A per-step forward mode
that holds every step's tangents and shares no code with the package's is
kept as well.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

from gwealth.errors import GradientError, ParameterError
from gwealth.girl import PARAM_NAMES, nll_from_stats, pack_reward, prepare_stats, unpack_reward
from gwealth.glearner import (
    GaussianPolicy, Trajectory, _backward_steps, _bayes_and_f, _checked_path, _step_q,
    _terminal_f, _terminal_solve, backward_pass, cash_installment,
)
from gwealth.market import ReturnPaths
from gwealth.rewards import RewardCoeffs, _assemble, _reward_weights, reward_basis

LOG_2PI = math.log(2.0 * math.pi)


def pad(sigma_r: np.ndarray) -> np.ndarray:
    """Zero row/column for the bond in front of a risky covariance."""
    n = sigma_r.shape[0] + 1
    out = np.zeros((n, n))
    out[1:, 1:] = sigma_r
    return out


def coeffs_of(rc):
    """The six coefficients (xx, ux, uu, x, u, 0) of a reward (``RewardCoeffs``)
    as a quadratic form in (x, u), in the order of G's (``plan_g``)."""
    return rc.r_xx, rc.r_ux, rc.r_uu, rc.r_x, rc.r_u, rc.r_0


def solve_with_precision(reward, prior, cfg, rbar):
    """``backward_pass``'s policy and every step's posterior precision
    sigma_bar, stacked (T, N, N): the package's recursion
    (``_backward_steps``) run into stacked buffers, where the package
    overwrites one buffer of the precision at each step."""
    rbar = _checked_path(prior, cfg, rbar)
    t_len, n = rbar.shape
    sigma_bar, v_tilde, chol_tilde = (np.empty((t_len, n, n)) for _ in range(3))
    u_tilde = np.empty((t_len, n))
    for _ in _backward_steps(reward, prior, cfg, rbar,
                             lambda t: (sigma_bar[t], u_tilde[t], v_tilde[t], chol_tilde[t])):
        pass
    return (GaussianPolicy(rbar=rbar, u_tilde=u_tilde, v_tilde=v_tilde, chol_tilde=chol_tilde),
            sigma_bar)


def plan_g(plan, prior, reward, cfg):
    """G's six coefficients (q_xx, q_ux, q_uu, q_x, q_u, q_0) at every step of
    a plan solved from ``prior`` on ``reward`` under the solver settings
    ``cfg`` (as ``backward_pass`` takes them), a list over t.

    The backward recursion is replayed from T-1 down to 0 with the package's
    own steps: ``_step_q`` forms G_t's five terms in x and u from F_{t+1}'s
    two, and F_t is ``_bayes_and_f``'s soft log-partition before T-1 (its
    policy goes into scratch buffers) and ``_terminal_f``'s hard max at T-1.
    So those terms carry the bits of the solve.  The package carries no
    constant; here q_0,t = r_0,t + gamma f_0,t+1, with F_t's constant from
    ``posterior_step`` before T-1 and from G at its argmax at T-1.
    """
    t_len, n = plan.horizon, plan.n_assets
    scratch = (np.empty((n, n)), np.empty(n), np.empty((n, n)), np.empty((n, n)))
    steps = [None] * t_len
    f_next, f_0 = (np.zeros((n, n)), np.zeros(n)), 0.0  # F is zero past the horizon
    for t in range(t_len - 1, -1, -1):
        r = reward(t)
        q = _step_q(r, f_next, 1.0 + plan.rbar[t], cfg.gamma)
        steps[t] = (*q, r.r_0 + cfg.gamma * f_0)
        if t == t_len - 1:
            f_next, f_0 = _terminal_f(q), expected_g(steps[t], *argmax_policy(q))[2]
        else:
            f_next = _bayes_and_f(q, prior, cfg.beta, t, scratch)
            f_0 = posterior_step(*steps[t], prior, cfg.beta)[-1][2]
    return steps


def quad_value(c, x, u=None):
    """x'c_xx x + u'c_ux x + u'c_uu u + x'c_x + u'c_u + c_0 for the six
    coefficients of a reward or of G (``coeffs_of``), or x'c_xx x + x'c_x + c_0
    for F's three when ``u`` is None."""
    if u is None:
        c_xx, c_x, c_0 = c
        return float(x @ c_xx @ x + x @ c_x + c_0)
    c_xx, c_ux, c_uu, c_x, c_u, c_0 = c
    return float(x @ c_xx @ x + u @ c_ux @ x + u @ c_uu @ u + x @ c_x + u @ c_u + c_0)


def argmax_policy(q):
    """Gain K and offset k of the maximizer u = K x + k = (-q_uu)^{-1}(q_ux x + q_u) / 2
    of a quadratic form concave in u, from its coefficients (q_xx, q_ux, q_uu,
    q_x, q_u, ...)."""
    sol = 0.5 * np.linalg.solve(-q[2], np.column_stack([q[1], q[4]]))
    return sol[:, :-1], sol[:, -1]


def plan_f(plan, prior, g, t, beta):
    """F_t's (f_xx, f_x, f_0) from G at step t of the plan solved from
    ``prior`` at inverse temperature ``beta`` (``g`` as ``plan_g`` gives it):
    the soft log-partition of ``posterior_step`` before T-1, and G at its
    argmax (the hard max) at T-1."""
    q = g[t]
    if t < plan.horizon - 1:
        return posterior_step(*q, prior, beta)[-1]
    return expected_g(q, *argmax_policy(q))


def policy_mean(policy, t, x):
    """Posterior mean trade at step t in state x."""
    return policy.u_tilde[t] + policy.v_tilde[t] @ x


def target_portfolio(params, b_t, x_t):
    """Next-period wealth target: (1 - rho) * B_t + rho * eta * sum(x_t)."""
    return (1.0 - params.rho) * b_t + params.rho * params.eta * float(np.sum(x_t))


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


def posterior_step(q_xx, q_ux, q_uu, q_x, q_u, q_0, prior, beta):
    """One step's Bayesian update of the prior and soft free energy from G's
    coefficients, by one solve against the posterior precision with the
    gain's and offset's right-hand sides and the identity, and the prior's
    products formed in place.

    Returns sigma_bar, u_tilde, v_tilde, chol_tilde, log|sigma_tilde| and the
    (f_xx, f_x, f_0) coefficients of the soft log-partition F.
    """
    n = q_uu.shape[0]
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(prior.sigma_p)))))
    sigma_bar = prior.sigma_p_inv - 2.0 * beta * q_uu
    sigma_bar = 0.5 * (sigma_bar + sigma_bar.T)
    pull_u = prior.sigma_p_inv @ prior.u_bar
    pull_v = prior.sigma_p_inv @ prior.v_bar
    v_rhs = beta * q_ux + pull_v
    u_rhs = beta * q_u + pull_u
    sol = np.linalg.solve(sigma_bar, np.concatenate([v_rhs, u_rhs[:, None], np.eye(n)], axis=1))
    v_til, u_til = sol[:, :n], sol[:, n]
    sig = 0.5 * (sol[:, n + 1:] + sol[:, n + 1:].T)
    chol = np.linalg.cholesky(sig)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    f_xx = q_xx + (0.5 / beta) * (v_rhs.T @ v_til - prior.v_bar.T @ pull_v)
    f_x = q_x + (1.0 / beta) * (v_til.T @ u_rhs - prior.v_bar.T @ pull_u)
    f_0 = q_0 + (0.5 / beta) * (float(u_rhs @ u_til) - float(prior.u_bar @ pull_u)) \
        - (0.5 / beta) * (logdet_p - logdet)
    return sigma_bar, u_til, v_til, chol, logdet, (0.5 * (f_xx + f_xx.T), f_x, float(f_0))


# ---------------------------------------------------------------------------
# direct likelihood: per trajectory and step (the package pools moments)
# ---------------------------------------------------------------------------

def sigma_tilde(policy, t):
    """Posterior covariance at step t, from its stored Cholesky factor."""
    return policy.chol_tilde[t] @ policy.chol_tilde[t].T


def action_log_prob(prior, q, x, u, beta):
    """Log probability of an action at the step of a plan solved from
    ``prior`` at inverse temperature ``beta`` where G has the coefficients
    ``q``: log pi0(u|x) + beta * (G(x,u) - F(x)).

    F here is the soft log-partition of that G, which makes this exactly the
    log-density of the posterior Gaussian policy.
    """
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    n = u.shape[0]
    mean0 = prior.u_bar + prior.v_bar @ x
    chol = np.linalg.cholesky(prior.sigma_p)
    w = np.linalg.solve(chol, u - mean0)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    log_pi0 = -0.5 * (n * LOG_2PI + logdet + float(w @ w))
    f_soft = posterior_step(*q, prior, beta)[-1]
    return log_pi0 + beta * (quad_value(q, x, u) - quad_value(f_soft, x))


def trajectory_nll(theta, trajs, rbar_path):
    """Negative log-likelihood of the trajectories' actions given their
    states under theta.

    Re-runs the backward recursion under theta, then sums the per-step action
    log-probabilities; trajectories enter additively.
    """
    if len(trajs) == 0:
        return 0.0
    reward = reward_basis(rbar_path, theta.sigma_r, theta.benchmark).coeffs(theta.reward)
    prior, cfg = theta.prior(), theta.solver_config()
    plan = backward_pass(reward, prior, cfg, rbar_path)
    g = plan_g(plan, prior, reward, cfg)
    total = 0.0
    for traj in trajs:
        assert traj.u.shape[0] == plan.horizon
        for t in range(plan.horizon):
            total += action_log_prob(prior, g[t], traj.x[t], traj.u[t], theta.beta)
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
# forward-mode likelihood gradient, every step held (the package streams the steps)
# ---------------------------------------------------------------------------

def reward_tangents(basis, params, t):
    """Period t's derivatives of the reward coefficients in (lam, eta, rho,
    omega), stacked on a leading axis of length 4: ``_assemble`` of one row
    of the weights' Jacobian at a time."""
    _, jacobian, shape = _reward_weights(params, basis.n_assets)
    rows = [_assemble(row, shape, basis, t) for row in jacobian]
    return RewardCoeffs(**{name: np.stack([getattr(r, name) for r in rows])
                           for name in ("r_xx", "r_ux", "r_uu", "r_x", "r_u", "r_0")},
                        sigma_hat=rows[0].sigma_hat)


def expected_g(q, gain, offset, cov=None):
    """(f_xx, f_x, f_0) of x -> E[G(x, u)] for u ~ N(offset + gain x, cov)
    (u = offset + gain x when ``cov`` is None), for G coefficients
    q = (q_xx, q_ux, q_uu, q_x, q_u, q_0) stacked on a leading axis."""
    q_xx, q_ux, q_uu, q_x, q_u, q_0 = q
    quu_k = q_uu @ offset
    gt_qux = gain.T @ q_ux
    f_xx = q_xx + 0.5 * (gt_qux + np.swapaxes(gt_qux, -1, -2)) + gain.T @ q_uu @ gain
    f_x = q_x + offset @ q_ux + 2.0 * quu_k @ gain + q_u @ gain
    f_0 = q_0 + q_u @ offset + quu_k @ offset
    if cov is not None:
        f_0 = f_0 + np.sum(q_uu * cov, axis=(-2, -1))
    return f_xx, f_x, f_0


def tangent_pass(plan, basis, params, gamma):
    """Derivatives of G's coefficients in (lam, eta, rho, omega) at every
    step of the plan solved under ``params`` on ``basis`` at discount
    ``gamma``: a list over t of
    (dq_xx, dq_ux, dq_uu, dq_x, dq_u, dq_0), each stacked on a leading axis
    of length 4, from the recursion's tangent run from T-1 down to 0.

    F's derivative is the expectation of G's under the posterior policy for
    t < T-1 (F is the log-partition of pi0 exp(beta G), an envelope
    identity) and under the argmax of the hard max at T-1, so the plan's own
    policy carries it without a new factorization."""
    t_last = plan.horizon - 1
    steps = [None] * plan.horizon
    df = None
    for t in range(t_last, -1, -1):
        dr = reward_tangents(basis, params, t)
        dq = (dr.r_xx, dr.r_ux, dr.r_uu, dr.r_x, dr.r_u, dr.r_0)
        if t == t_last:
            # G at T-1, as plan_g replays it: the reward plus a zero F
            n = plan.n_assets
            g_last = _step_q(basis.coeffs(params)(t_last), (np.zeros((n, n)), np.zeros(n)),
                             1.0 + plan.rbar[t_last], gamma)
            df = expected_g(dq, *argmax_policy(g_last))
        else:
            df_xx, df_x, df_0 = df
            growth = gamma * df_xx * dr.sigma_hat
            lin = gamma * (1.0 + plan.rbar[t]) * df_x
            dq = (dq[0] + growth, dq[1] + 2.0 * growth, dq[2] + growth, dq[3] + lin,
                  dq[4] + lin, dq[5] + gamma * df_0)
            df = expected_g(dq, plan.v_tilde[t], plan.u_tilde[t], sigma_tilde(plan, t))
        steps[t] = dq
    return steps


def tangent_gradient(theta, basis, plan, stats):
    """The likelihood gradient in the ``pack_reward`` coordinates by forward
    mode: ``tangent_pass`` in all four directions, each step's tangents
    contracted with beta times the observed minus the policy's expected
    trade moments of the pooled data ``stats`` (``girl.prepare_stats``)."""
    m = stats.count
    grad = np.zeros(len(PARAM_NAMES))
    for t, (_, dq_ux, dq_uu, _, dq_u, _) in enumerate(
            tangent_pass(plan, basis, theta.reward, theta.gamma)):
        v_t, x_mean = plan.v_tilde[t], stats.x_mean[t]
        mean = plan.u_tilde[t] + v_t @ x_mean
        w_u = m * (stats.u_mean[t] - mean)
        v_cxx = v_t @ stats.cxx[t]
        w_uu = (stats.cuu[t] - v_cxx @ v_t.T - m * sigma_tilde(plan, t)
                + np.outer(w_u, stats.u_mean[t]) + np.outer(mean, w_u))
        w_ux = stats.cux[t] - v_cxx + np.outer(w_u, x_mean)
        grad -= theta.beta * (np.einsum("kij,ij->k", dq_uu, w_uu)
                              + np.einsum("kij,ij->k", dq_ux, w_ux) + dq_u @ w_u)
    reward = theta.reward
    return grad * (reward.lam, reward.eta, reward.rho * (1.0 - reward.rho), float(reward.omega))


# ---------------------------------------------------------------------------
# reverse-mode likelihood gradient (the package runs one tangent pass)
# ---------------------------------------------------------------------------

def adjoint_pass(plan, basis, params, gamma, seed):
    """Adjoints of G's coefficients for a scalar function of the plan solved
    under ``params`` on ``basis`` at discount ``gamma``, one step at a time
    from 0 to T-1.

    ``seed(t, sigma_tilde_t)`` gives the function's own derivative in step
    t's (q_ux, q_uu, q_u).  Yields (t, (a_xx, a_ux, a_uu, a_x, a_u, a_0)),
    its derivative in step t's coefficients through the earlier steps too.

    F_t enters G_{t-1} through the recursion and changes by the expectation
    of G_t's change under u ~ N(k + K x, C): the posterior policy for
    t < T-1 and the argmax of the hard max at T-1 (C = 0).  F_t's adjoint
    (a_xx, a_x, a_0) so reaches G_t as a_xx -> sym(a_xx),
    a_ux += K a_xx + k a_x', a_uu += K a_xx K' + (2 K a_x + a_0 k) k' + a_0 C,
    a_u += K a_x + a_0 k.
    """
    t_last = plan.horizon - 1
    n = plan.n_assets
    r = basis.coeffs(params)(t_last)  # G at T-1 is the reward
    argmax = 0.5 * _terminal_solve(r.r_uu, r.r_ux, r.r_u)
    a_xx, a_x, a_0 = np.zeros((n, n)), np.zeros(n), 0.0  # F_0 feeds no step
    for t in range(plan.horizon):
        cov = sigma_tilde(plan, t)
        a_ux, a_uu, a_u = seed(t, cov)
        if t > 0:
            gain, offset = plan.v_tilde[t], plan.u_tilde[t]
            if t == t_last:
                gain, offset, cov = argmax[:, :n], argmax[:, n], 0.0
            a_xx = 0.5 * (a_xx + a_xx.T)
            k_a, k_m = gain @ a_xx, gain @ a_x
            a_ux = a_ux + k_a + offset[:, None] * a_x
            a_uu = (a_uu + k_a @ gain.T + (2.0 * k_m + a_0 * offset)[:, None] * offset
                    + a_0 * cov)
            a_u = a_u + k_m + a_0 * offset
        yield t, (a_xx, a_ux, a_uu, a_x, a_u, a_0)
        # F_{t+1}'s adjoint: it enters G_t as gamma (f_xx * sigma_hat_t) on
        # q_xx, 2 q_ux and q_uu, gamma a_t * f_x on q_x and q_u, gamma f_0 on q_0
        a_xx = gamma * basis.sigma_hat[t] * (a_xx + 2.0 * a_ux + a_uu)
        a_x = gamma * (1.0 + plan.rbar[t]) * (a_x + a_u)
        a_0 = gamma * a_0


def pullback(basis, params, adjoints):
    """The derivative in (lam, eta, rho, omega) of sum_t <a_t, r_t>, the
    reward coefficients (r_xx, r_ux, r_uu, r_x, r_u, r_0) of period t
    contracted with fixed adjoints, from a stream of (t, a_t) such as
    ``adjoint_pass`` yields: the weights' Jacobian times the adjoints'
    contractions with the 8 terms ``_assemble`` weights.  ``params.omega``
    must be a scalar."""
    if np.ndim(params.omega) != 0:
        raise ParameterError("reward derivatives need a scalar omega (cost matrix omega * I)")
    _, jacobian, shape = _reward_weights(params, basis.n_assets)
    c = np.zeros(jacobian.shape[1])
    for t, (a_xx, a_ux, a_uu, a_x, a_u, a_0) in adjoints:
        g, b_t = 1.0 + basis.rbar[t], float(basis.b[t])
        c += (-a_u.sum(), -a_xx.sum(), g @ (a_xx.sum(0) + a_xx.sum(1) + 2.0 * a_ux.sum(1)),
              -np.vdot(a_xx + 2.0 * a_ux + a_uu, basis.sigma_hat[t]), -np.vdot(a_uu, shape),
              -2.0 * b_t * a_x.sum(), 2.0 * b_t * (g @ (a_x + a_u)), -b_t**2 * a_0)
    return jacobian @ c


def adjoint_gradient(theta, basis, plan, stats):
    """The likelihood gradient in the ``pack_reward`` coordinates by reverse
    mode: one ``adjoint_pass`` seeded with beta times the observed minus the
    policy's expected trade moments of the pooled data ``stats``, pulled back
    through the reward's weights."""
    m = stats.count

    def seed(t, cov):
        v_t, x_mean = plan.v_tilde[t], stats.x_mean[t]
        mean = plan.u_tilde[t] + v_t @ x_mean
        w_u = m * (stats.u_mean[t] - mean)
        v_cxx = v_t @ stats.cxx[t]
        w_uu = (stats.cuu[t] - v_cxx @ v_t.T - m * cov
                + np.outer(w_u, stats.u_mean[t]) + np.outer(mean, w_u))
        w_ux = stats.cux[t] - v_cxx + np.outer(w_u, x_mean)
        return w_ux, w_uu, w_u

    reward = theta.reward
    grad = -theta.beta * pullback(basis, reward,
                                  adjoint_pass(plan, basis, reward, theta.gamma, seed))
    return grad * (reward.lam, reward.eta, reward.rho * (1.0 - reward.rho), float(reward.omega))


# ---------------------------------------------------------------------------
# per-path Monte-Carlo loops (the package advances all paths at once)
# ---------------------------------------------------------------------------

def simulate_loop(spec):
    """The market simulation one path at a time, with the per-path formulas:
    path p takes the next T market normals of Philox key (seed, 1) and the
    next (T, n) idiosyncratic normals of key (seed, 2), in path order; the
    per-asset alpha and beta come from key (seed, 0)."""
    def stream(panel):
        key = np.array([spec.seed, panel], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    n, t_len, m = spec.n_risky, spec.horizon, spec.n_paths
    assets, market_noise, idio_noise = stream(0), stream(1), stream(2)
    alpha = assets.uniform(spec.alpha_range[0], spec.alpha_range[1], size=n) * spec.dt
    beta = assets.uniform(spec.beta_range[0], spec.beta_range[1], size=n)
    mu_dt = spec.mu_m * spec.dt
    vol_dt = spec.sigma_m * np.sqrt(spec.dt)
    idio_scale = spec.sigma_i * np.sqrt(1.0 - beta**2) * np.sqrt(spec.dt)
    c = spec.oracle_c
    expected, realized = np.empty((m, t_len, n)), np.empty((m, t_len, n))
    market = np.empty((m, t_len))
    for p in range(m):
        z_m = market_noise.standard_normal(t_len)
        z_i = idio_noise.standard_normal((t_len, n))
        for t in range(t_len):
            if spec.exact_gbm:
                drift = (spec.mu_m - 0.5 * spec.sigma_m**2) * spec.dt
                r_m = math.exp(drift + vol_dt * z_m[t]) - 1.0
            else:
                r_m = mu_dt + vol_dt * z_m[t]
            rbar = alpha + beta * ((1.0 - c) * mu_dt + c * r_m)
            market[p, t] = r_m
            expected[p, t] = rbar
            realized[p, t] = rbar + beta * (r_m - mu_dt) + idio_scale * z_i[t]
    return ReturnPaths(expected=expected, realized=realized, market=market,
                       alpha=alpha, beta=beta)


def rollout_loop(plan, paths, x0, rng):
    """Policy rollout one path and one period at a time, each path drawing
    its (T, N) block of trade noise from ``rng`` in path order."""
    t_len, n = plan.horizon, plan.n_assets
    out = []
    for p in range(paths.n_paths):
        z = rng.standard_normal((t_len, n))
        x = np.empty((t_len + 1, n))
        u = np.empty((t_len, n))
        x[0] = x0
        for t in range(t_len):
            u[t] = policy_mean(plan, t, x[t]) + plan.chol_tilde[t] @ z[t]
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
    the target of ``target_portfolio``, one path and period at a time."""
    t_len = trajs[0].u.shape[0]
    gaps = np.zeros((len(trajs), t_len))
    for i, traj in enumerate(trajs):
        for t in range(t_len):
            target = target_portfolio(params, float(benchmark.b[t]), traj.x[t])
            gaps[i, t] = max(target - float(np.sum(traj.x[t + 1])), 0.0)
    return gaps.mean(axis=0)
