"""Maximum-likelihood recovery of reward parameters from trajectories.

Observed state-action histories of a planner with a linear-Gaussian policy
define a trajectory likelihood: per step, the log-density of the action under
the posterior policy (written as log pi0 + beta * (G - F), which is the same
thing) plus the log-density of the state transition.  The reward parameters
theta = (lam, eta, rho, omega) are recovered by running an adaptive-moment
gradient method on the negative log-likelihood in unconstrained coordinates;
the solver is re-run inside every likelihood evaluation.

Sigma_r, the policy prior, beta and gamma are held fixed: only the reward is
learned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateTransitionError,
    DivergenceError,
    GradientError,
    InfeasibleError,
    ParameterError,
    ShapeError,
)
from .glearner import (
    PolicyPrior,
    SolvedPlan,
    SolverConfig,
    Trajectory,
    solve_plan,
)
from .market import ReturnCovariance
from .rewards import BenchmarkPath, RewardParams

EPS_POSITION = 1e-8  # risky positions below this are excluded from transitions

LOG_2PI = math.log(2.0 * math.pi)

PARAM_NAMES = ("lam", "eta", "rho", "omega")


@dataclass(frozen=True)
class GirlParams:
    """Reward parameters under inference plus the quantities held fixed.

    ``reward.omega`` must be a scalar (the learned cost matrix is omega * I).
    ``sigma_r``, the prior (sigma_p, u_bar, v_bar = 0), beta, gamma and the
    benchmark path are estimated or configured outside the fit and stay
    constant during it.
    """

    reward: RewardParams
    sigma_r: ReturnCovariance
    sigma_p: np.ndarray
    u_bar: np.ndarray
    beta: float
    gamma: float
    benchmark: BenchmarkPath

    def validate(self) -> None:
        if np.ndim(self.reward.omega) != 0:
            raise ParameterError("inference runs on a scalar omega (cost matrix omega * I)")
        if not (self.reward.lam > 0 and self.reward.eta > 0 and float(self.reward.omega) > 0):
            raise ParameterError("lam, eta and omega must be positive")
        if not 0.0 < self.reward.rho < 1.0:
            raise ParameterError("rho must lie strictly inside (0, 1) for inference")

    def prior(self) -> PolicyPrior:
        n = self.u_bar.shape[0]
        return PolicyPrior(u_bar=self.u_bar, v_bar=np.zeros((n, n)), sigma_p=self.sigma_p)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(beta=self.beta, gamma=self.gamma)

    def with_reward(self, reward: RewardParams) -> "GirlParams":
        return replace(self, reward=reward)


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings for the likelihood fit."""

    learning_rate: float = 0.1
    stop_tol: float = 1e-8
    max_iters: int = 1000
    fd_step: float = 1e-5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def validate(self) -> None:
        vals = (self.learning_rate, self.stop_tol, self.max_iters, self.fd_step,
                self.adam_beta1, self.adam_beta2, self.adam_eps)
        if not all(v > 0 for v in vals):
            raise ParameterError("all fit configuration values must be positive")


@dataclass(frozen=True)
class FitReport:
    """Outcome of a likelihood fit: best parameters, loss path, iteration count."""

    params: GirlParams
    loss_path: np.ndarray
    iterations: int
    converged: bool


def scaled_start(reward: RewardParams, scale: float = 2.0) -> RewardParams:
    """Default starting point for the fit: every coordinate moved away from
    the configured values by the given factor (never at them).

    The growth rate is scaled through its excess over one; rho is capped
    inside the open unit interval.
    """
    if scale == 1.0:
        raise ParameterError("starting scale of 1.0 would start at the configured values")
    if np.ndim(reward.omega) != 0:
        raise ParameterError("inference starting point needs a scalar omega")
    return RewardParams(
        lam=reward.lam * scale,
        eta=1.0 + (reward.eta - 1.0) * scale,
        rho=min(reward.rho * scale, 0.95),
        omega=float(reward.omega) * scale,
    )


# ---------------------------------------------------------------------------
# unconstrained reparameterization: lam = e^a, eta = e^b, rho = logistic(c),
# omega = e^d
# ---------------------------------------------------------------------------

def pack_reward(reward: RewardParams) -> np.ndarray:
    rho = reward.rho
    return np.array([
        math.log(reward.lam),
        math.log(reward.eta),
        math.log(rho / (1.0 - rho)),
        math.log(float(reward.omega)),
    ])


def unpack_reward(vec: np.ndarray) -> RewardParams:
    a, b, c, d = (float(v) for v in vec)
    return RewardParams(
        lam=math.exp(a), eta=math.exp(b),
        rho=1.0 / (1.0 + math.exp(-c)), omega=math.exp(d),
    )


# ---------------------------------------------------------------------------
# likelihood terms
# ---------------------------------------------------------------------------

def transition_log_prob(
    x_next: np.ndarray,
    x: np.ndarray,
    u: np.ndarray,
    rbar: np.ndarray,
    sigma_r: ReturnCovariance,
) -> float:
    """Log transition density of the risky positions, constants dropped.

    The residual per risky asset is x'_i / (x_i + u_i) - (1 + rbar_i).  Risky
    assets whose post-trade position is below EPS_POSITION are excluded, with
    the log-determinant reduced to the included sub-block.  The bond factor
    and 2*pi terms carry no parameter information and are omitted.
    """
    x_next = np.asarray(x_next, float)
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    base = x[1:] + u[1:]
    mask = np.abs(base) >= EPS_POSITION
    if not mask.any():
        raise DegenerateTransitionError(
            "no risky position is large enough to define a transition residual"
        )
    delta = x_next[1:][mask] / base[mask] - (1.0 + np.asarray(rbar, float)[1:][mask])
    sub = sigma_r.sigma_r[np.ix_(mask, mask)]
    chol = np.linalg.cholesky(sub)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    w = np.linalg.solve(chol, delta)
    return -0.5 * logdet - 0.5 * float(w @ w)


def _solve_for(theta: GirlParams, rbar_path: np.ndarray,
               solver_cfg: SolverConfig | None = None,
               prior: PolicyPrior | None = None) -> SolvedPlan:
    cfg = solver_cfg if solver_cfg is not None else theta.solver_config()
    if prior is None:
        prior = theta.prior()
    try:
        return solve_plan(theta.reward, rbar_path, theta.sigma_r, theta.benchmark,
                          prior, cfg)
    except InfeasibleError as exc:
        raise InfeasibleError(
            f"{exc} (under reward parameters lam={theta.reward.lam:g}, "
            f"eta={theta.reward.eta:g}, rho={theta.reward.rho:g}, "
            f"omega={float(theta.reward.omega):g})"
        ) from exc


# ---------------------------------------------------------------------------
# fast likelihood evaluation on pooled sufficient statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DataStats:
    """Per-step pooled moments of the observed states and actions."""

    sxx: np.ndarray  # (T, N, N) sum of x x'
    sux: np.ndarray  # (T, N, N) sum of u x'
    suu: np.ndarray  # (T, N, N) sum of u u'
    sx: np.ndarray   # (T, N) sum of x
    su: np.ndarray   # (T, N) sum of u
    count: int
    horizon: int
    n_assets: int
    transition_const: float  # theta-independent transition log-likelihood


def prepare_stats(
    trajs: list[Trajectory], rbar_path: np.ndarray, sigma_r: ReturnCovariance
) -> _DataStats:
    """Pool the data into per-step moments and the constant transition term."""
    if len(trajs) == 0:
        raise ParameterError("at least one trajectory is required")
    t_len = trajs[0].horizon
    n = trajs[0].n_assets
    for traj in trajs:
        if traj.horizon != t_len or traj.n_assets != n:
            raise ShapeError("all trajectories must share horizon and asset count")

    x_all = np.stack([traj.x for traj in trajs])  # (M, T+1, N)
    u_all = np.stack([traj.u for traj in trajs])  # (M, T, N)
    sxx = np.empty((t_len, n, n))
    sux = np.empty((t_len, n, n))
    suu = np.empty((t_len, n, n))
    for t in range(t_len):
        x_t = x_all[:, t, :]
        u_t = u_all[:, t, :]
        sxx[t] = x_t.T @ x_t
        sux[t] = u_t.T @ x_t
        suu[t] = u_t.T @ u_t
    sx = x_all[:, :-1].sum(axis=0)
    su = u_all.sum(axis=0)

    chol = np.linalg.cholesky(sigma_r.sigma_r)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    trans = 0.0
    for t in range(t_len):
        base = x_all[:, t, 1:] + u_all[:, t, 1:]
        ok = np.abs(base) >= EPS_POSITION
        rows = ok.all(axis=1)
        if rows.any():
            delta = x_all[rows, t + 1, 1:] / base[rows] - (1.0 + rbar_path[t, 1:])
            w = np.linalg.solve(chol, delta.T)
            trans += -0.5 * (rows.sum() * logdet + float(np.sum(w * w)))
        for m_idx in np.nonzero(~rows)[0]:
            trans += transition_log_prob(
                x_all[m_idx, t + 1], x_all[m_idx, t], u_all[m_idx, t],
                rbar_path[t], sigma_r,
            )
    return _DataStats(
        sxx=sxx, sux=sux, suu=suu, sx=sx, su=su,
        count=len(trajs), horizon=t_len, n_assets=n, transition_const=float(trans),
    )


def nll_from_stats(
    theta: GirlParams,
    stats: _DataStats,
    rbar_path: np.ndarray,
    solver_cfg: SolverConfig | None = None,
    prior: PolicyPrior | None = None,
) -> float:
    """Negative log-likelihood of the pooled trajectories under theta.

    Equals the per-step sum of action and transition log-densities over
    every trajectory (``trajectory_nll`` in ``tests/oracles.py``).

    The action term is the Gaussian posterior log-density accumulated through
    second moments, which costs a handful of N x N products per step instead
    of a pass over every trajectory.
    """
    plan = _solve_for(theta, rbar_path, solver_cfg, prior=prior)
    if plan.horizon != stats.horizon or plan.n_assets != stats.n_assets:
        raise ShapeError("data statistics do not match the solved plan")
    m = stats.count
    n = stats.n_assets
    total = 0.0
    pol = plan.policy
    for t in range(stats.horizon):
        v_t = pol.v_tilde[t]
        u_t = pol.u_tilde[t]
        prec = plan.q[t].sigma_bar  # posterior precision
        see = (
            stats.suu[t]
            - stats.sux[t] @ v_t.T
            - v_t @ stats.sux[t].T
            + v_t @ stats.sxx[t] @ v_t.T
        )
        se = stats.su[t] - v_t @ stats.sx[t]
        sdd = see - np.outer(se, u_t) - np.outer(u_t, se) + m * np.outer(u_t, u_t)
        quad = float(np.sum(prec * sdd))
        total += -0.5 * (quad + m * (n * LOG_2PI + pol.logdet_tilde[t]))
    return -(total + stats.transition_const)


# ---------------------------------------------------------------------------
# gradient and optimizer
# ---------------------------------------------------------------------------

def _grad_from_fn(nll_fn, vec: np.ndarray, fd_step: float) -> np.ndarray:
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


def nll_gradient(
    theta: GirlParams,
    trajs: list[Trajectory],
    rbar_path: np.ndarray,
    cfg: FitConfig,
) -> np.ndarray:
    """Central finite-difference gradient of the negative log-likelihood in
    the unconstrained coordinates of (lam, eta, rho, omega)."""
    stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
    prior = theta.prior()

    def nll_fn(vec):
        return nll_from_stats(theta.with_reward(unpack_reward(vec)), stats, rbar_path,
                              prior=prior)

    return _grad_from_fn(nll_fn, pack_reward(theta.reward), cfg.fd_step)


def fit(
    trajs: list[Trajectory],
    rbar_path: np.ndarray,
    theta0: GirlParams,
    cfg: FitConfig | None = None,
) -> FitReport:
    """Recover the reward parameters by adaptive-moment gradient descent.

    Runs Adam in the unconstrained coordinates with central finite-difference
    gradients, stops when the parameter step norm drops below ``stop_tol`` or
    the iteration budget is exhausted, and returns the best parameters seen.
    Raises DivergenceError if the loss increases 50 iterations in a row.
    """
    cfg = cfg if cfg is not None else FitConfig()
    cfg.validate()
    theta0.validate()
    if len(trajs) == 0:
        raise ParameterError("cannot fit an empty trajectory list")
    stats = prepare_stats(trajs, rbar_path, theta0.sigma_r)
    prior = theta0.prior()

    def nll_fn(vec):
        return nll_from_stats(theta0.with_reward(unpack_reward(vec)), stats, rbar_path,
                              prior=prior)

    vec = pack_reward(theta0.reward)
    m = np.zeros_like(vec)
    s = np.zeros_like(vec)
    loss_path = []
    best_loss = np.inf
    best_vec = vec.copy()
    increase_streak = 0
    converged = False
    iterations = 0

    for it in range(1, cfg.max_iters + 1):
        iterations = it
        loss = nll_fn(vec)
        if not np.isfinite(loss):
            raise GradientError("non-finite objective at the current parameters")
        loss_path.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_vec = vec.copy()
        if len(loss_path) >= 2 and loss > loss_path[-2]:
            increase_streak += 1
            if increase_streak >= 50:
                raise DivergenceError(
                    f"loss increased for {increase_streak} consecutive iterations "
                    f"(last {loss:.6g}); loss path: {np.array2string(np.array(loss_path[-5:]))}"
                )
        else:
            increase_streak = 0

        grad = _grad_from_fn(nll_fn, vec, cfg.fd_step)
        m = cfg.adam_beta1 * m + (1.0 - cfg.adam_beta1) * grad
        s = cfg.adam_beta2 * s + (1.0 - cfg.adam_beta2) * grad**2
        m_hat = m / (1.0 - cfg.adam_beta1**it)
        s_hat = s / (1.0 - cfg.adam_beta2**it)
        step = cfg.learning_rate * m_hat / (np.sqrt(s_hat) + cfg.adam_eps)
        vec = vec - step
        if float(np.linalg.norm(step)) < cfg.stop_tol:
            converged = True
            break

    return FitReport(
        params=theta0.with_reward(unpack_reward(best_vec)),
        loss_path=np.asarray(loss_path),
        iterations=iterations,
        converged=converged,
    )


def loss_slices(
    theta: GirlParams,
    trajs: list[Trajectory],
    rbar_path: np.ndarray,
    grids: dict[str, np.ndarray] | None = None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """One-dimensional NLL scans around theta, one grid per reward parameter.

    Returns {name: (grid values, nll values)}.  Defaults to 21-point grids
    centered on theta's own values.
    """
    if grids is None:
        grids = default_slice_grids(theta.reward)
    stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
    prior = theta.prior()
    out = {}
    base = theta.reward
    for name, grid in grids.items():
        vals = np.empty(grid.shape[0])
        for i, g in enumerate(grid):
            reward = replace(base, **{name: float(g)})
            vals[i] = nll_from_stats(theta.with_reward(reward), stats, rbar_path,
                                     prior=prior)
        out[name] = (np.asarray(grid, dtype=float), vals)
    return out


def default_slice_grids(reward: RewardParams, n_points: int = 21) -> dict[str, np.ndarray]:
    """Symmetric scan grids around the reward parameters."""
    rho_lo = max(0.02, reward.rho - 0.2)
    rho_hi = min(0.98, reward.rho + 0.2)
    return {
        "lam": np.linspace(0.5 * reward.lam, 1.5 * reward.lam, n_points),
        "eta": np.linspace(reward.eta - 0.06, reward.eta + 0.06, n_points),
        "rho": np.linspace(rho_lo, rho_hi, n_points),
        "omega": np.linspace(0.5 * float(reward.omega), 1.5 * float(reward.omega), n_points),
    }
