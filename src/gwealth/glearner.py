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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, ParameterError, ShapeError
from .market import ReturnCovariance, ReturnPaths
from .rewards import BenchmarkPath, RewardCoeffs, RewardParams, build_coeffs


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
class FCoeffs:
    """Free-energy coefficients at one step: F(x) = x^T f_xx x + x^T f_x + f_0."""

    f_xx: np.ndarray
    f_x: np.ndarray
    f_0: float


@dataclass(frozen=True)
class QCoeffs:
    """Soft action-value coefficients at one step,
    G(x, u) = x^T q_xx x + u^T q_ux x + u^T q_uu u + x^T q_x + u^T q_u + q_0,
    plus the posterior precision sigma_bar = sigma_p^{-1} - 2 beta q_uu."""

    q_xx: np.ndarray
    q_ux: np.ndarray
    q_uu: np.ndarray
    q_x: np.ndarray
    q_u: np.ndarray
    q_0: float
    sigma_bar: np.ndarray


@dataclass(frozen=True)
class GaussianPolicy:
    """Per-step posterior policy u ~ N(u_tilde_t + v_tilde_t x, sigma_tilde_t)
    together with the constant prior it was updated from."""

    prior: PolicyPrior
    u_tilde: np.ndarray       # (T, N)
    v_tilde: np.ndarray       # (T, N, N)
    sigma_tilde: np.ndarray   # (T, N, N)
    chol_tilde: np.ndarray    # (T, N, N) lower Cholesky factors
    logdet_tilde: np.ndarray  # (T,) log|sigma_tilde_t|


@dataclass(frozen=True)
class SolvedPlan:
    """Everything the backward recursion produces for one horizon."""

    beta: float
    gamma: float
    rbar: np.ndarray  # (T, N) expected per-period returns, entry 0 = bond rate
    a: np.ndarray     # (T, N) expected gross returns 1 + rbar
    q: list[QCoeffs]
    f: list[FCoeffs]       # recursion value function (hard max at T-1)
    f_soft: list[FCoeffs]  # policy log-partition (equals f for t < T-1)
    policy: GaussianPolicy

    @property
    def horizon(self) -> int:
        return self.rbar.shape[0]

    @property
    def n_assets(self) -> int:
        return self.rbar.shape[1]


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


def terminal_action(coeffs: RewardCoeffs, params: RewardParams, x: np.ndarray) -> np.ndarray:
    """Analytic maximizer of the final-period reward in the trades u.

    Solves (lam * sigma_hat + omega) u = (r_u + r_ux x) / 2, the stationarity
    condition of the concave quadratic.
    """
    n = coeffs.n_assets
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ShapeError(f"x must have shape ({n},)")
    curvature = params.lam * coeffs.sigma_hat + params.omega_matrix(n)
    return np.linalg.solve(curvature, 0.5 * (coeffs.r_ux @ x + coeffs.r_u))


def _terminal_f(rc: RewardCoeffs) -> FCoeffs:
    """Plug the analytic terminal action back into the reward.

    max_u [u^T r_uu u + u^T b + const] = const + b^T (-r_uu)^{-1} b / 4 with
    b = r_ux x + r_u, expanded into quadratic coefficients of x.
    """
    n = rc.n_assets
    # (lam * sigma_hat + omega)^{-1} [r_ux | r_u] in one solve
    sol = np.linalg.solve(-rc.r_uu, np.column_stack([rc.r_ux, rc.r_u]))
    s_inv_rux, s_inv_ru = sol[:, :n], sol[:, n]
    f_xx = rc.r_xx + 0.25 * rc.r_ux.T @ s_inv_rux
    f_x = rc.r_x + 0.5 * rc.r_ux.T @ s_inv_ru
    f_0 = rc.r_0 + 0.25 * float(rc.r_u @ s_inv_ru)
    return FCoeffs(f_xx=0.5 * (f_xx + f_xx.T), f_x=f_x, f_0=float(f_0))


def _bayes_and_f(q_xx, q_ux, q_uu, q_x, q_u, q_0, prior: PolicyPrior, beta: float, t: int):
    """Closed-form Bayesian update of the prior and Gaussian integral at step t.

    The posterior precision is sigma_bar = sigma_p^{-1} - 2 beta q_uu, the
    posterior gain and offset are sigma_bar^{-1} v_rhs and sigma_bar^{-1} u_rhs,
    and F is the log-partition of pi0 * exp(beta * G), all from one solve
    against sigma_bar.  The Cholesky factor of the posterior covariance feeds
    both the sampler and log|sigma_tilde| = -log|sigma_bar|.
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

    f = FCoeffs(f_xx=0.5 * (f_xx + f_xx.T), f_x=f_x, f_0=float(f_0))
    q = QCoeffs(
        q_xx=0.5 * (q_xx + q_xx.T), q_ux=q_ux, q_uu=0.5 * (q_uu + q_uu.T),
        q_x=q_x, q_u=q_u, q_0=float(q_0), sigma_bar=sigma_bar,
    )
    return q, f, u_til, v_til, sigma_tilde, chol_tilde, logdet_tilde


def backward_pass(
    rc: list[RewardCoeffs],
    prior: PolicyPrior,
    cfg: SolverConfig,
    rbar: np.ndarray,
) -> SolvedPlan:
    """Solve the finite-horizon problem by backward recursion.

    ``rc`` holds the per-period reward coefficients, ``rbar`` the matching
    (T, N) expected-return path.
    """
    cfg.validate()
    t_len = len(rc)
    if t_len == 0:
        raise ShapeError("need at least one period of reward coefficients")
    n = rc[0].n_assets
    rbar = np.asarray(rbar, dtype=float)
    if rbar.shape != (t_len, n):
        raise ShapeError(f"rbar must have shape ({t_len}, {n}), got {rbar.shape}")
    if prior.n_assets != n:
        raise ShapeError("prior dimension does not match reward coefficients")

    a = 1.0 + rbar

    q_list: list[QCoeffs] = [None] * t_len
    f_list: list[FCoeffs] = [None] * t_len
    f_soft_list: list[FCoeffs] = [None] * t_len
    u_tilde = np.empty((t_len, n))
    v_tilde = np.empty((t_len, n, n))
    sigma_tilde = np.empty((t_len, n, n))
    chol_tilde = np.empty((t_len, n, n))
    logdet_tilde = np.empty(t_len)

    for t in range(t_len - 1, -1, -1):
        r = rc[t]
        if t == t_len - 1:
            q_xx, q_ux, q_uu = r.r_xx, r.r_ux, r.r_uu
            q_x, q_u, q_0 = r.r_x, r.r_u, r.r_0
        else:
            f_next = f_list[t + 1]
            a_t = a[t]
            growth = f_next.f_xx * np.outer(a_t, a_t) + r.sigma_r_padded * f_next.f_xx
            lin = cfg.gamma * (a_t * f_next.f_x)
            q_xx = r.r_xx + cfg.gamma * growth
            q_ux = r.r_ux + 2.0 * cfg.gamma * growth
            q_uu = r.r_uu + cfg.gamma * growth
            q_x = r.r_x + lin
            q_u = r.r_u + lin
            q_0 = r.r_0 + cfg.gamma * f_next.f_0

        (q_list[t], f_soft_list[t], u_tilde[t], v_tilde[t], sigma_tilde[t],
         chol_tilde[t], logdet_tilde[t]) = _bayes_and_f(
            q_xx, q_ux, q_uu, q_x, q_u, q_0, prior, cfg.beta, t,
        )
        f_list[t] = _terminal_f(r) if t == t_len - 1 else f_soft_list[t]

    policy = GaussianPolicy(
        prior=prior, u_tilde=u_tilde, v_tilde=v_tilde,
        sigma_tilde=sigma_tilde, chol_tilde=chol_tilde, logdet_tilde=logdet_tilde,
    )
    return SolvedPlan(
        beta=cfg.beta, gamma=cfg.gamma, rbar=rbar, a=a,
        q=q_list, f=f_list, f_soft=f_soft_list, policy=policy,
    )


def solve_plan(
    params: RewardParams,
    rbar_path: np.ndarray,
    sigma_r: ReturnCovariance,
    benchmark: BenchmarkPath,
    prior: PolicyPrior,
    cfg: SolverConfig,
) -> SolvedPlan:
    """Assemble per-period reward coefficients and run the backward pass."""
    rbar_path = np.asarray(rbar_path, dtype=float)
    if rbar_path.ndim != 2:
        raise ShapeError("rbar_path must be (T, N)")
    if benchmark.horizon != rbar_path.shape[0]:
        raise ShapeError(
            f"benchmark horizon {benchmark.horizon} != return path horizon {rbar_path.shape[0]}"
        )
    rc = [
        build_coeffs(params, rbar_path[t], sigma_r, float(benchmark.b[t]))
        for t in range(rbar_path.shape[0])
    ]
    return backward_pass(rc, prior, cfg, rbar_path)


def free_energy(plan: SolvedPlan, t: int, x: np.ndarray) -> float:
    """Value of the recursion F-function at step t and state x."""
    if not 0 <= t < plan.horizon:
        raise ShapeError(f"step t={t} outside horizon {plan.horizon}")
    f = plan.f[t]
    x = np.asarray(x, dtype=float)
    return float(x @ f.f_xx @ x + x @ f.f_x + f.f_0)


def g_value(plan: SolvedPlan, t: int, x: np.ndarray, u: np.ndarray) -> float:
    """Value of the soft action-value function G at (t, x, u)."""
    if not 0 <= t < plan.horizon:
        raise ShapeError(f"step t={t} outside horizon {plan.horizon}")
    q = plan.q[t]
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return float(
        x @ q.q_xx @ x + u @ q.q_ux @ x + u @ q.q_uu @ u + x @ q.q_x + u @ q.q_u + q.q_0
    )


def policy_mean(plan: SolvedPlan, t: int, x: np.ndarray) -> np.ndarray:
    """Posterior mean trade at step t in state x."""
    pol = plan.policy
    return pol.u_tilde[t] + pol.v_tilde[t] @ np.asarray(x, dtype=float)


def sample_action(plan: SolvedPlan, t: int, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw a trade vector from the posterior Gaussian policy."""
    if not 0 <= t < plan.horizon:
        raise ShapeError(f"step t={t} outside horizon {plan.horizon}")
    z = rng.standard_normal(plan.n_assets)
    return policy_mean(plan, t, x) + plan.policy.chol_tilde[t] @ z


def rollout(
    plan: SolvedPlan,
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
    t_len, n = plan.horizon, plan.n_assets
    if paths.horizon != t_len:
        raise ShapeError(f"paths horizon {paths.horizon} != plan horizon {t_len}")
    if paths.n_risky != n - 1:
        raise ShapeError(f"paths cover {paths.n_risky} risky assets, plan expects {n - 1}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ShapeError(f"x0 must have shape ({n},)")

    m = paths.n_paths
    pol = plan.policy
    x = np.empty((m, t_len + 1, n))
    u = np.empty((m, t_len, n))
    # the noise goes straight into u; each period overwrites it with the trade
    for p, stream in enumerate(rng.spawn(m)):
        stream.standard_normal(out=u[p])
    x[:, 0] = x0
    for t in range(t_len):
        u[:, t] = pol.u_tilde[t] + x[:, t] @ pol.v_tilde[t].T + u[:, t] @ pol.chol_tilde[t].T
        np.add(x[:, t], u[:, t], out=x[:, t + 1])
        x[:, t + 1, 0] *= plan.a[t, 0]
        x[:, t + 1, 1:] *= 1.0 + paths.realized[:, t]
    cash = cash_installment(u)
    return [Trajectory(x=x[p], u=u[p], cash=cash[p]) for p in range(m)]
