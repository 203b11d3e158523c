"""Entropy-regularized LQR solver with Gaussian policies.

Quadratic one-step rewards plus linear (in positions) dynamics make the
soft action-value function G and the free energy F quadratic forms whose
coefficients satisfy a backward recursion.  Each step performs a Gaussian
integral of exp(beta * G) against the reference policy to obtain F, and a
Bayesian update of the reference policy to obtain the posterior
linear-Gaussian policy.  Forward Monte-Carlo rollouts sample trades from
the posterior and book the implied cash installments.

The terminal step T-1 is special: its value function is the hard maximum
of the last-period reward (the analytic argmax plugged back in), while the
policy normalizer at every step, terminal included, is the soft
log-partition so that the posterior density identity
pi = pi0 * exp(beta * (G - F_soft)) holds exactly.

The tangent pass runs the same recursion's derivatives in the reward
parameters over a solved plan, step by step, without a new factorization;
the likelihood gradient of the inverse problem is built on it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, ParameterError, ShapeError
from .market import ReturnCovariance, ReturnPaths
from .rewards import BenchmarkPath, RewardCoeffs, RewardParams, reward_basis


@dataclass(frozen=True)
class SolverConfig:
    """Solver hyper-parameters: beta is the inverse temperature (> 0), gamma
    the per-period discount in (0, 1]."""

    beta: float = 1000.0
    gamma: float = 0.95

    def validate(self) -> None:
        if not self.beta > 0.0:
            raise ParameterError(f"beta must be > 0, got {self.beta}")
        if not 0.0 < self.gamma <= 1.0:
            raise ParameterError(f"gamma must lie in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class PolicyPrior:
    """Reference (prior) policy: u ~ N(u_bar + v_bar x, sigma_p).

    ``sigma_p_inv`` and ``logdet_sigma_p`` are derived on construction from
    the factorization that validates sigma_p.
    """

    u_bar: np.ndarray
    v_bar: np.ndarray
    sigma_p: np.ndarray
    sigma_p_inv: np.ndarray = field(init=False, repr=False, compare=False)
    logdet_sigma_p: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.u_bar.shape[0]
        if self.v_bar.shape != (n, n) or self.sigma_p.shape != (n, n):
            raise ShapeError("prior v_bar and sigma_p must be N x N")
        if not np.allclose(self.sigma_p, self.sigma_p.T, atol=1e-12, rtol=0.0):
            raise ParameterError("prior covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(self.sigma_p)
        except np.linalg.LinAlgError as exc:
            raise ParameterError("prior covariance must be positive definite") from exc
        inv = np.linalg.solve(self.sigma_p, np.eye(n))
        object.__setattr__(self, "sigma_p_inv", 0.5 * (inv + inv.T))
        object.__setattr__(self, "logdet_sigma_p", 2.0 * float(np.sum(np.log(np.diag(chol)))))

    @property
    def n_assets(self) -> int:
        return self.u_bar.shape[0]


def default_prior(n_assets: int, sigma_p_scale: float = 10.0) -> PolicyPrior:
    """Zero-mean, state-independent prior with sigma_p_scale^2 * I covariance."""
    return PolicyPrior(
        u_bar=np.zeros(n_assets),
        v_bar=np.zeros((n_assets, n_assets)),
        sigma_p=sigma_p_scale**2 * np.eye(n_assets),
    )


@dataclass(frozen=True)
class GaussianPolicy:
    """Per-step posterior policy u ~ N(u_tilde[t] + v_tilde[t] x, sigma_tilde_t),
    sigma_tilde_t = chol_tilde[t] chol_tilde[t]^T, with the constant prior it
    was updated from and the parameters and expected returns it was solved
    under.

    Per-step results are stacked along the first axis: (T, N, N) for
    matrices, (T, N) for vectors and (T,) for scalars.  This is what a
    rollout reads and what ``plan.npz`` stores.
    """

    beta: float
    gamma: float
    rbar: np.ndarray          # (T, N) expected per-period returns, entry 0 = bond rate
    prior: PolicyPrior
    u_tilde: np.ndarray       # (T, N)
    v_tilde: np.ndarray       # (T, N, N)
    chol_tilde: np.ndarray    # (T, N, N) lower Cholesky factors of sigma_tilde
    logdet_tilde: np.ndarray  # (T,) log|sigma_tilde_t|

    @property
    def horizon(self) -> int:
        return self.rbar.shape[0]

    @property
    def n_assets(self) -> int:
        return self.rbar.shape[1]


@dataclass(frozen=True)
class SolvedPlan(GaussianPolicy):
    """The policy plus the value coefficients of the backward recursion,
    stacked like the policy's fields.

    G_t(x, u) = x^T q_xx x + u^T q_ux x + u^T q_uu u + x^T q_x + u^T q_u + q_0
    and F_t(x) = x^T f_xx x + x^T f_x + f_0, where F is the recursion's value
    function (the hard max of the reward at T-1).  The policy normalizer is
    the soft log-partition, which equals F for t < T-1; at T-1 it is
    ``f_soft_last`` = (f_xx, f_x, f_0).  ``sigma_bar`` is the posterior
    precision sigma_p^{-1} - 2 beta q_uu.
    """

    q_xx: np.ndarray       # (T, N, N)
    q_ux: np.ndarray       # (T, N, N)
    q_uu: np.ndarray       # (T, N, N)
    q_x: np.ndarray        # (T, N)
    q_u: np.ndarray        # (T, N)
    q_0: np.ndarray        # (T,)
    f_xx: np.ndarray       # (T, N, N)
    f_x: np.ndarray        # (T, N)
    f_0: np.ndarray        # (T,)
    f_soft_last: tuple[np.ndarray, np.ndarray, float]
    sigma_bar: np.ndarray  # (T, N, N)


@dataclass(frozen=True)
class Trajectory:
    """One simulated account history: positions x (T+1, N), trades u (T, N),
    and the cash installments c_t = sum(u_t)."""

    x: np.ndarray
    u: np.ndarray
    cash: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.u.ndim != 2 or self.x.shape[0] != self.u.shape[0] + 1:
            raise ShapeError("positions must have one more period than trades")
        if self.x.shape[1] != self.u.shape[1] or self.cash.shape != (self.u.shape[0],):
            raise ShapeError("inconsistent trajectory shapes")

    @property
    def horizon(self) -> int:
        return self.u.shape[0]

    @property
    def n_assets(self) -> int:
        return self.u.shape[1]


def cash_installment(u: np.ndarray) -> float | np.ndarray:
    """Cash injected at each step: the sum of the trades over the last axis.

    Takes one trade vector (returns a scalar) or any batch of them, such as
    the (M, T, N) trades of M paths (returns their (M, T) installments).
    Every consumer of the budget identity goes through this helper so the
    summation order (and hence the float result) is identical everywhere: a
    row of a batch sums to the same bits as the row on its own.
    """
    return np.sum(u, axis=-1)


def _chol_logdet(m: np.ndarray, context: str) -> tuple[np.ndarray, float]:
    """Cholesky factor and log-determinant of an SPD matrix."""
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleError(f"{context}: matrix is not positive definite") from exc
    return chol, 2.0 * float(np.sum(np.log(np.diag(chol))))


def _terminal_solve(r_uu: np.ndarray, r_ux: np.ndarray, r_u: np.ndarray) -> np.ndarray:
    """(-r_uu)^{-1} [r_ux | r_u], an N x (N + 1) array: the one solve against
    the final period's curvature lam * sigma_hat + omega.  The reward's
    maximizer is u = (-r_uu)^{-1} (r_ux x + r_u) / 2."""
    return np.linalg.solve(-r_uu, np.column_stack([r_ux, r_u]))


def terminal_action(coeffs: RewardCoeffs, x: np.ndarray) -> np.ndarray:
    """Analytic maximizer of the final-period reward in the trades u, the
    stationary point of the concave quadratic."""
    n = coeffs.n_assets
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ShapeError(f"x must have shape ({n},)")
    sol = _terminal_solve(coeffs.r_uu, coeffs.r_ux, coeffs.r_u)
    return 0.5 * (sol[:, :n] @ x + sol[:, n])


def _terminal_f(rc: RewardCoeffs) -> tuple[np.ndarray, np.ndarray, float]:
    """Plug the analytic terminal action back into the reward.

    max_u [u^T r_uu u + u^T b + const] = const + b^T (-r_uu)^{-1} b / 4 with
    b = r_ux x + r_u, expanded into the (f_xx, f_x, f_0) coefficients of x.
    """
    n = rc.n_assets
    sol = _terminal_solve(rc.r_uu, rc.r_ux, rc.r_u)
    s_inv_rux, s_inv_ru = sol[:, :n], sol[:, n]
    f_xx = rc.r_xx + 0.25 * rc.r_ux.T @ s_inv_rux
    f_x = rc.r_x + 0.5 * rc.r_ux.T @ s_inv_ru
    f_0 = rc.r_0 + 0.25 * float(rc.r_u @ s_inv_ru)
    return 0.5 * (f_xx + f_xx.T), f_x, float(f_0)


def _bayes_and_f(q_xx, q_ux, q_uu, q_x, q_u, q_0, prior: PolicyPrior, beta: float, t: int):
    """Closed-form Bayesian update of the prior and Gaussian integral at step t.

    The posterior precision is sigma_bar = sigma_p^{-1} - 2 beta q_uu, the
    posterior gain and offset are sigma_bar^{-1} v_rhs and sigma_bar^{-1} u_rhs,
    and F is the log-partition of pi0 * exp(beta * G), all from one solve
    against sigma_bar.  The Cholesky factor of the posterior covariance feeds
    both the sampler and log|sigma_tilde| = -log|sigma_bar|.

    Returns sigma_bar, u_tilde, v_tilde, chol_tilde, log|sigma_tilde| and the
    (f_xx, f_x, f_0) coefficients of F.
    """
    n = q_uu.shape[0]
    # contraction requirement: spectral radius of sigma_tilde sigma_p^{-1} < 1,
    # equivalently q_uu negative definite; sigma_bar is then SPD as well
    _chol_logdet(
        -q_uu,
        f"action curvature at step t={t} (posterior-to-prior covariance ratio "
        "would have spectral radius >= 1)",
    )
    sigma_bar = prior.sigma_p_inv - 2.0 * beta * q_uu
    sigma_bar = 0.5 * (sigma_bar + sigma_bar.T)

    prior_pull_u = prior.sigma_p_inv @ prior.u_bar
    prior_pull_v = prior.sigma_p_inv @ prior.v_bar
    v_rhs = beta * q_ux + prior_pull_v
    u_rhs = beta * q_u + prior_pull_u
    # sigma_bar^{-1} [v_rhs | u_rhs | I] in one factorization
    sol = np.linalg.solve(sigma_bar, np.concatenate([v_rhs, u_rhs[:, None], np.eye(n)], axis=1))
    v_til = sol[:, :n]
    u_til = sol[:, n]
    sigma_tilde = 0.5 * (sol[:, n + 1:] + sol[:, n + 1:].T)
    chol_tilde, logdet_tilde = _chol_logdet(sigma_tilde, f"posterior covariance at step t={t}")

    f_xx = q_xx + (0.5 / beta) * (v_rhs.T @ v_til - prior.v_bar.T @ prior_pull_v)
    f_x = q_x + (1.0 / beta) * (v_til.T @ u_rhs - prior.v_bar.T @ prior_pull_u)
    f_0 = q_0 + (0.5 / beta) * (
        float(u_rhs @ u_til) - float(prior.u_bar @ prior_pull_u)
    ) - (0.5 / beta) * (prior.logdet_sigma_p - logdet_tilde)
    f = (0.5 * (f_xx + f_xx.T), f_x, float(f_0))
    return sigma_bar, u_til, v_til, chol_tilde, logdet_tilde, f


def _step_q(r: RewardCoeffs, f_next, a_t: np.ndarray, gamma: float):
    """G's coefficients at a step before the last: the reward plus the
    discounted expectation of the next step's F = (f_xx, f_x, f_0) over the
    gross returns, whose mean is a_t.  Linear in (r, f_next), so stacks of
    tangents along a leading axis go through it as well."""
    f_xx, f_x, f_0 = f_next
    growth = f_xx * np.outer(a_t, a_t) + r.sigma_r_padded * f_xx
    lin = gamma * (a_t * f_x)
    return (r.r_xx + gamma * growth, r.r_ux + 2.0 * gamma * growth, r.r_uu + gamma * growth,
            r.r_x + lin, r.r_u + lin, r.r_0 + gamma * f_0)


def _expected_g(q, gain: np.ndarray, offset: np.ndarray, cov: np.ndarray | None = None):
    """(f_xx, f_x, f_0) of x -> E[G(x, u)] for u ~ N(offset + gain x, cov)
    (u = offset + gain x when ``cov`` is None), for G coefficients
    q = (q_xx, q_ux, q_uu, q_x, q_u, q_0) stacked on a leading axis."""
    q_xx, q_ux, q_uu, q_x, q_u, q_0 = q
    quu_k = q_uu @ offset                       # (K, N)
    gt_qux = gain.T @ q_ux
    f_xx = q_xx + 0.5 * (gt_qux + np.swapaxes(gt_qux, -1, -2)) + gain.T @ q_uu @ gain
    f_x = q_x + offset @ q_ux + 2.0 * quu_k @ gain + q_u @ gain
    f_0 = q_0 + q_u @ offset + quu_k @ offset
    if cov is not None:
        f_0 = f_0 + np.sum(q_uu * cov, axis=(-2, -1))
    return f_xx, f_x, f_0


def backward_pass(
    reward: Callable[[int], RewardCoeffs],
    prior: PolicyPrior,
    cfg: SolverConfig,
    rbar: np.ndarray,
) -> SolvedPlan:
    """Solve the finite-horizon problem by backward recursion.

    ``rbar`` is the (T, N) expected-return path and ``reward(t)`` gives
    period t's reward coefficients (``RewardBasis.coeffs``), read once each.
    Every step writes its results into row t of the plan's stacked arrays.
    """
    cfg.validate()
    rbar = np.asarray(rbar, dtype=float)
    if rbar.ndim != 2 or rbar.shape[0] == 0:
        raise ShapeError(f"rbar must be a (T, N) path of at least one period, got {rbar.shape}")
    t_len, n = rbar.shape
    if prior.n_assets != n:
        raise ShapeError("prior dimension does not match the return path")

    q_xx, q_ux, q_uu, f_xx, sigma_bar, v_tilde, chol_tilde = (
        np.empty((t_len, n, n)) for _ in range(7))
    q_x, q_u, f_x, u_tilde = (np.empty((t_len, n)) for _ in range(4))
    q_0, f_0, logdet_tilde = (np.empty(t_len) for _ in range(3))

    for t in range(t_len - 1, -1, -1):
        r = reward(t)
        if r.n_assets != n:
            raise ShapeError(f"reward coefficients of step t={t} are not {n} x {n}")
        if t == t_len - 1:
            qxx, qux, quu, qx, qu, q0 = r.r_xx, r.r_ux, r.r_uu, r.r_x, r.r_u, r.r_0
        else:
            qxx, qux, quu, qx, qu, q0 = _step_q(
                r, (f_xx[t + 1], f_x[t + 1], f_0[t + 1]), 1.0 + rbar[t], cfg.gamma)

        sigma_bar[t], u_tilde[t], v_tilde[t], chol_tilde[t], logdet_tilde[t], f_t = _bayes_and_f(
            qxx, qux, quu, qx, qu, q0, prior, cfg.beta, t,
        )
        q_xx[t], q_ux[t], q_uu[t] = 0.5 * (qxx + qxx.T), qux, 0.5 * (quu + quu.T)
        q_x[t], q_u[t], q_0[t] = qx, qu, q0
        if t == t_len - 1:  # the recursion takes the hard max, the policy the soft F
            f_soft_last, f_t = f_t, _terminal_f(r)
        f_xx[t], f_x[t], f_0[t] = f_t

    return SolvedPlan(
        beta=cfg.beta, gamma=cfg.gamma, rbar=rbar, prior=prior,
        u_tilde=u_tilde, v_tilde=v_tilde, chol_tilde=chol_tilde, logdet_tilde=logdet_tilde,
        q_xx=q_xx, q_ux=q_ux, q_uu=q_uu, q_x=q_x, q_u=q_u, q_0=q_0,
        f_xx=f_xx, f_x=f_x, f_0=f_0, f_soft_last=f_soft_last, sigma_bar=sigma_bar,
    )


def tangent_pass(
    plan: SolvedPlan, reward_tangent: Callable[[int], RewardCoeffs]
) -> Iterator[tuple[int, tuple]]:
    """Derivatives of G's coefficients along K directions of the reward
    parameters, one step at a time from T-1 down to 0.

    ``reward_tangent(t)`` gives the derivatives of step t's reward
    coefficients as a stack of K (``RewardBasis.tangents``).  Yields
    (t, (dq_xx, dq_ux, dq_uu, dq_x, dq_u, dq_0)), each with a leading axis
    of length K, and holds only the current step's tangents.

    The derivative of F is the expectation of the derivative of G: under the
    posterior policy for t < T-1, since F is the log-partition of
    pi0 exp(beta G) (an envelope identity), and at the argmax of the hard max
    at T-1, whose gain comes from one solve against -r_uu.  With the plan's
    own sigma_tilde_t the step needs no factorization: the policy's tangents
    d v_tilde = sigma_tilde (beta dq_ux + 2 beta dq_uu v_tilde), the same for
    d u_tilde, and d log|sigma_tilde| = 2 beta tr(sigma_tilde dq_uu) sum to
    exactly that expectation.
    """
    t_last = plan.horizon - 1
    n = plan.n_assets
    # at T-1 G is the reward, and the hard max takes u = (-r_uu)^{-1}(r_ux x + r_u) / 2
    argmax = 0.5 * _terminal_solve(plan.q_uu[t_last], plan.q_ux[t_last], plan.q_u[t_last])
    df = None
    for t in range(t_last, -1, -1):
        dr = reward_tangent(t)
        if t == t_last:
            dq = (dr.r_xx, dr.r_ux, dr.r_uu, dr.r_x, dr.r_u, dr.r_0)
            df = _expected_g(dq, argmax[:, :n], argmax[:, n])
        else:
            dq = _step_q(dr, df, 1.0 + plan.rbar[t], plan.gamma)
            if t > 0:
                chol = plan.chol_tilde[t]
                df = _expected_g(dq, plan.v_tilde[t], plan.u_tilde[t], chol @ chol.T)
        yield t, dq


def solve_plan(
    params: RewardParams,
    rbar_path: np.ndarray,
    sigma_r: ReturnCovariance,
    benchmark: BenchmarkPath,
    prior: PolicyPrior,
    cfg: SolverConfig,
) -> SolvedPlan:
    """Assemble per-period reward coefficients and run the backward pass."""
    basis = reward_basis(rbar_path, sigma_r, benchmark)
    return backward_pass(basis.coeffs(params), prior, cfg, basis.rbar)


def free_energy(plan: SolvedPlan, t: int, x: np.ndarray) -> float:
    """Value of the recursion F-function at step t and state x."""
    if not 0 <= t < plan.horizon:
        raise ShapeError(f"step t={t} outside horizon {plan.horizon}")
    x = np.asarray(x, dtype=float)
    return float(x @ plan.f_xx[t] @ x + x @ plan.f_x[t] + plan.f_0[t])


def g_value(plan: SolvedPlan, t: int, x: np.ndarray, u: np.ndarray) -> float:
    """Value of the soft action-value function G at (t, x, u)."""
    if not 0 <= t < plan.horizon:
        raise ShapeError(f"step t={t} outside horizon {plan.horizon}")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return float(
        x @ plan.q_xx[t] @ x + u @ plan.q_ux[t] @ x + u @ plan.q_uu[t] @ u
        + x @ plan.q_x[t] + u @ plan.q_u[t] + plan.q_0[t]
    )


def policy_mean(policy: GaussianPolicy, t: int, x: np.ndarray) -> np.ndarray:
    """Posterior mean trade at step t in state x."""
    return policy.u_tilde[t] + policy.v_tilde[t] @ np.asarray(x, dtype=float)


def sample_action(policy: GaussianPolicy, t: int, x: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw a trade vector from the posterior Gaussian policy."""
    if not 0 <= t < policy.horizon:
        raise ShapeError(f"step t={t} outside horizon {policy.horizon}")
    z = rng.standard_normal(policy.n_assets)
    return policy_mean(policy, t, x) + policy.chol_tilde[t] @ z


def rollout(
    policy: GaussianPolicy,
    paths: ReturnPaths,
    x0: np.ndarray,
    rng: np.random.Generator,
) -> list[Trajectory]:
    """Simulate the policy forward along each realized return path.

    Trades are sampled from the per-step posterior, the cash installment is
    the sum of trades, and positions compound at the realized returns (the
    bond at its expected, deterministic rate).  Each path consumes its own
    spawned RNG stream, drawn as one (T, N) block (the same numbers as T
    sequential draws of N), so a path's trajectory does not depend on the
    other paths, up to the last bits of the batched matrix products.

    All paths advance together: one batched affine step per period.  The
    returned trajectories hold views into shared (M, T+1, N), (M, T, N) and
    (M, T) arrays.
    """
    t_len, n = policy.horizon, policy.n_assets
    if paths.horizon != t_len:
        raise ShapeError(f"paths horizon {paths.horizon} != plan horizon {t_len}")
    if paths.n_risky != n - 1:
        raise ShapeError(f"paths cover {paths.n_risky} risky assets, plan expects {n - 1}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ShapeError(f"x0 must have shape ({n},)")

    m = paths.n_paths
    x = np.empty((m, t_len + 1, n))
    u = np.empty((m, t_len, n))
    # the noise goes straight into u; each period overwrites it with the trade
    for p, stream in enumerate(rng.spawn(m)):
        stream.standard_normal(out=u[p])
    x[:, 0] = x0
    for t in range(t_len):
        u[:, t] = (policy.u_tilde[t] + x[:, t] @ policy.v_tilde[t].T
                   + u[:, t] @ policy.chol_tilde[t].T)
        np.add(x[:, t], u[:, t], out=x[:, t + 1])
        x[:, t + 1, 0] *= 1.0 + policy.rbar[t, 0]
        x[:, t + 1, 1:] *= 1.0 + paths.realized[:, t]
    cash = cash_installment(u)
    return [Trajectory(x=x[p], u=u[p], cash=cash[p]) for p in range(m)]
