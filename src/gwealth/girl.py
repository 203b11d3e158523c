"""Maximum-likelihood recovery of reward parameters from trajectories.

Observed state-action histories of a planner with a linear-Gaussian policy
define a trajectory likelihood: per step, the log-density of the action under
the posterior policy (written as log pi0 + beta * (G - F), which is the same
thing) plus the log-density of the state transition.  The reward parameters
theta = (lam, eta, rho, omega) are recovered by running BFGS with a
backtracking line search on the negative log-likelihood in unconstrained
coordinates.  The reward's theta-free terms are built once per fit
(``rewards.reward_basis``); every likelihood evaluation solves the plan once
on them, and the exact gradient at an accepted point is one tangent pass over
that plan (``glearner.tangent_pass``), taken against the pooled moments of
the data: the observed minus the policy's expected trade moments.  A
central finite-difference gradient in ``tests/oracles.py`` is its test
oracle.

Sigma_r, the policy prior, beta and gamma are held fixed: only the reward is
learned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateTransitionError,
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
    backward_pass,
    tangent_pass,
)
from .market import ReturnCovariance
from .rewards import BenchmarkPath, RewardBasis, RewardParams, reward_basis

EPS_POSITION = 1e-8  # risky positions below this are excluded from transitions

LOG_2PI = math.log(2.0 * math.pi)

PARAM_NAMES = ("lam", "eta", "rho", "omega")

ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the line search
LINE_SEARCH_TRIALS = 30  # trial steps, each half the last, before the line search gives up


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
    """Optimizer settings for the likelihood fit: the tolerance on the Newton
    decrement (nats) and the budget of accepted steps."""

    stop_tol: float = 1e-4
    max_iters: int = 1000

    def validate(self) -> None:
        if not all(v > 0 for v in (self.stop_tol, self.max_iters)):
            raise ParameterError("all fit configuration values must be positive")


@dataclass(frozen=True)
class FitReport:
    """Outcome of a likelihood fit.  ``loss_path`` holds the starting loss,
    then one accepted (lower) loss per iteration, ending at the loss of
    ``params``; ``stop_reason`` is ``converged``, ``budget`` or
    ``line_search``; ``decrement`` is the Newton decrement (nats) at the last
    gradient evaluated, which is at ``params`` unless the budget ran out;
    ``solves`` counts the backward passes the fit ran, rejected trials
    included."""

    params: GirlParams
    loss_path: np.ndarray
    iterations: int
    stop_reason: str
    decrement: float
    solves: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


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


def _solve_for(theta: GirlParams, basis: RewardBasis, prior: PolicyPrior) -> SolvedPlan:
    """The plan under theta's reward on the market terms of ``basis`` (built
    from theta's sigma_r and benchmark) with theta's ``prior``."""
    try:
        return backward_pass(basis.coeffs(theta.reward), prior, theta.solver_config(),
                             basis.rbar)
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
    if rbar_path.shape != (t_len, n) or sigma_r.n_risky != n - 1:
        raise ShapeError(
            f"trajectories of {t_len} periods x {n} assets do not match the return "
            f"path {rbar_path.shape} and Sigma_r of {sigma_r.n_risky} risky assets"
        )

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


def nll_from_stats(theta: GirlParams, stats: _DataStats, rbar_path: np.ndarray) -> float:
    """Negative log-likelihood of the pooled trajectories under theta.

    Equals the per-step sum of action and transition log-densities over
    every trajectory (``trajectory_nll`` in ``tests/oracles.py``).

    The action term is the Gaussian posterior log-density accumulated through
    second moments, which costs a handful of N x N products per step instead
    of a pass over every trajectory.
    """
    basis = reward_basis(rbar_path, theta.sigma_r, theta.benchmark)
    return _nll_on_plan(_solve_for(theta, basis, theta.prior()), stats)


def _nll_on_plan(plan: SolvedPlan, stats: _DataStats) -> float:
    if plan.horizon != stats.horizon or plan.n_assets != stats.n_assets:
        raise ShapeError("data statistics do not match the solved plan")
    m = stats.count
    n = stats.n_assets
    total = 0.0
    for t in range(stats.horizon):
        v_t = plan.v_tilde[t]
        u_t = plan.u_tilde[t]
        prec = plan.sigma_bar[t]  # posterior precision
        see = (
            stats.suu[t]
            - stats.sux[t] @ v_t.T
            - v_t @ stats.sux[t].T
            + v_t @ stats.sxx[t] @ v_t.T
        )
        se = stats.su[t] - v_t @ stats.sx[t]
        sdd = see - np.outer(se, u_t) - np.outer(u_t, se) + m * np.outer(u_t, u_t)
        quad = float(np.sum(prec * sdd))
        total += -0.5 * (quad + m * (n * LOG_2PI + plan.logdet_tilde[t]))
    return -(total + stats.transition_const)


# ---------------------------------------------------------------------------
# gradient and optimizer
# ---------------------------------------------------------------------------

def _plan_gradient(theta: GirlParams, basis: RewardBasis, plan: SolvedPlan,
                   stats: _DataStats) -> np.ndarray:
    """Exact gradient of the negative log-likelihood in the ``pack_reward``
    coordinates at ``theta``, from one tangent pass over ``plan``, the plan
    solved at ``theta`` on ``basis``.

    With dq the derivatives of G's coefficients, the action log-density
    log pi0 + beta (G - F) changes at step t by beta times the observed minus
    the policy's expected trade moments, summed over the data:
    <dq_uu, suu - E[sum u u']> + <dq_ux, sux - E[sum u x']> + dq_u . (su - E[sum u]).
    The state-only parts of G and F cancel.
    """
    reward = theta.reward
    m = stats.count
    grad = np.zeros(len(PARAM_NAMES))
    steps = tangent_pass(plan, basis.tangents(reward))
    for t, (_, dq_ux, dq_uu, _, dq_u, _) in steps:
        v_t, u_t, chol = plan.v_tilde[t], plan.u_tilde[t], plan.chol_tilde[t]
        v_sxx = v_t @ stats.sxx[t]
        v_sx = v_t @ stats.sx[t]
        mean_sum = m * u_t + v_sx  # sum of the policy means
        w_uu = (stats.suu[t] - np.outer(u_t, mean_sum) - np.outer(v_sx, u_t)
                - v_sxx @ v_t.T - m * (chol @ chol.T))
        w_ux = stats.sux[t] - np.outer(u_t, stats.sx[t]) - v_sxx
        w_u = stats.su[t] - mean_sum
        grad -= plan.beta * (dq_uu.reshape(len(grad), -1) @ w_uu.ravel()
                             + dq_ux.reshape(len(grad), -1) @ w_ux.ravel() + dq_u @ w_u)
    # chain rule from (lam, eta, rho, omega) to the coordinates of pack_reward
    rho = reward.rho
    grad *= (reward.lam, reward.eta, rho * (1.0 - rho), float(reward.omega))
    if not np.all(np.isfinite(grad)):
        raise GradientError("non-finite likelihood gradient")
    return grad


def fit(
    trajs: list[Trajectory],
    rbar_path: np.ndarray,
    theta0: GirlParams,
    cfg: FitConfig | None = None,
) -> FitReport:
    """Recover the reward parameters by BFGS on the negative log-likelihood.

    Works in the unconstrained coordinates of ``pack_reward`` with a
    backtracking Armijo line search (Nocedal & Wright, ch. 3 and 6), in which
    an infeasible solve or a non-finite loss rejects a trial point.  Each
    trial solves the plan once and keeps it; the exact gradient at an
    accepted point is one tangent pass over its plan, which costs about
    as much as a solve.  Stops ``converged`` when the Newton decrement g'Hg / 2
    (H the inverse-Hessian estimate) falls below ``stop_tol`` nats, after
    ``max_iters`` accepted steps (``budget``), or when no trial decreases the
    loss (``line_search``).
    """
    cfg = cfg if cfg is not None else FitConfig()
    cfg.validate()
    theta0.validate()
    stats = prepare_stats(trajs, rbar_path, theta0.sigma_r)
    basis = reward_basis(rbar_path, theta0.sigma_r, theta0.benchmark)
    prior = theta0.prior()
    solves = 0

    def evaluate(vec):
        nonlocal solves
        solves += 1
        theta = theta0.with_reward(unpack_reward(vec))
        plan = _solve_for(theta, basis, prior)
        return _nll_on_plan(plan, stats), theta, plan

    vec = pack_reward(theta0.reward)
    loss, theta, plan = evaluate(vec)
    if not np.isfinite(loss):
        raise GradientError("non-finite objective at the starting parameters")
    loss_path = [loss]
    hess_inv = None  # until the first curvature pair, steps have unit length
    grad = step = None
    stop_reason = "budget"
    decrement = math.inf
    for _ in range(cfg.max_iters):
        new_grad = _plan_gradient(theta, basis, plan, stats)
        del plan  # one plan in memory at a time: the next is the line search's
        if grad is not None:
            y = new_grad - grad
            sy = float(step @ y)
            if sy > 0.0:  # otherwise the update would lose positive definiteness
                if hess_inv is None:
                    hess_inv = sy / float(y @ y) * np.eye(vec.shape[0])  # N&W (6.20)
                v = np.eye(vec.shape[0]) - np.outer(step, y) / sy
                hess_inv = v @ hess_inv @ v.T + np.outer(step, step) / sy
        grad = new_grad
        step = -(grad / np.linalg.norm(grad) if hess_inv is None else hess_inv @ grad)
        slope = float(grad @ step)
        decrement = -0.5 * slope
        if decrement < cfg.stop_tol:
            stop_reason = "converged"
            break
        for _ in range(LINE_SEARCH_TRIALS):
            trial = None  # drop a rejected trial's plan before the next solve
            try:
                trial = evaluate(vec + step)
            except InfeasibleError:
                trial = (math.nan,)
            if trial[0] <= loss + ARMIJO_C1 * slope:  # False for NaN
                break
            step = 0.5 * step
            slope *= 0.5
        else:
            stop_reason = "line_search"
            break
        vec = vec + step
        loss, theta, plan = trial
        loss_path.append(loss)

    return FitReport(
        params=theta,
        loss_path=np.asarray(loss_path),
        iterations=len(loss_path) - 1,
        stop_reason=stop_reason,
        decrement=decrement,
        solves=solves,
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
    basis = reward_basis(rbar_path, theta.sigma_r, theta.benchmark)
    prior = theta.prior()
    out = {}
    base = theta.reward
    for name, grid in grids.items():
        vals = np.empty(grid.shape[0])
        for i, g in enumerate(grid):
            reward = replace(base, **{name: float(g)})
            vals[i] = _nll_on_plan(_solve_for(theta.with_reward(reward), basis, prior), stats)
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
