"""Maximum-likelihood recovery of reward parameters from trajectories.

Observed state-action histories of a planner with a linear-Gaussian policy
define the likelihood of the actions given the states: per step, the
log-density of the action under the posterior policy (written as log pi0 +
beta * (G - F), which is the same thing).  The transition density of the
positions is left out, since with Sigma_r and the return path fixed it does
not depend on theta; losses therefore differ from those of earlier versions,
which carried it, by a theta-free constant.  The reward parameters
theta = (lam, eta, rho, omega) are recovered by damped Fisher scoring in
unconstrained coordinates, on the reward's theta-free terms built once per fit
(``rewards.reward_basis``).  Every likelihood evaluation runs the backward
recursion once and scores each step as soon as it is solved (``_nll``, the
one driver of the loss), and one tangent pass over an accepted point's policy
(``glearner.tangent_pass``) gives the exact gradient and information.
Central finite differences and the adjoint form of the gradient in
``tests/oracles.py`` are its oracles.

Sigma_r, the policy prior, beta and gamma are held fixed: only the reward is
learned.  The loss slices run on a thread pool with a worker per CPU of the
process's affinity set (no setting changes that), bit-identical to a serial
loop of ``nll_from_stats``.  ``simulate`` and ``rollout`` run their path
blocks on one worker thread of their own (``market._by_blocks``).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import GradientError, InfeasibleError, ParameterError, ShapeError
from .glearner import (
    GaussianPolicy,
    PolicyPrior,
    SolverConfig,
    Trajectories,
    _backward_steps,
    _checked_path,
    _policy_rows,
    tangent_pass,
)
from .market import ReturnCovariance
from .rewards import BenchmarkPath, RewardBasis, RewardParams, _named, reward_basis

LOG_2PI = math.log(2.0 * math.pi)

PARAM_NAMES = ("lam", "eta", "rho", "omega")

SLICE_POINTS = 21  # points per grid of ``default_slice_grids``

# the damped scoring step (I + mu diag I) s = -g of ``fit``
DAMPING_START, DAMPING_UP, DAMPING_DOWN = 1e-2, 4.0, 3.0  # mu's start, its factors
GAIN_RATIO = 0.25  # of the predicted loss decrease, for a step to shrink mu
MAX_STEP, DAMPING_TRIALS = 1.0, 30  # longest step per coordinate; rejections in a row to stop
STOP_TOL = 1e-4  # the Newton decrement (nats) below which the fit has converged


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
    """Optimizer settings for the likelihood fit: the budget of accepted steps."""

    max_iters: int = 1000

    def validate(self) -> None:
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
            raise ParameterError(f"max_iters must be an int of at least 1, got {iters!r}")


@dataclass(frozen=True)
class FitReport:
    """Outcome of a likelihood fit.  ``loss_path`` holds the starting loss,
    then one accepted (lower) loss per iteration, ending at the loss of
    ``params``; ``stop_reason`` is ``converged``, ``budget`` or ``damping``;
    ``decrement`` is the Newton decrement g'I^{-1}g / 2 (nats) at the last
    score, at ``params`` unless the budget ran out (inf if I is not positive
    definite there); ``solves`` counts the backward passes the fit ran."""

    params: GirlParams
    loss_path: np.ndarray
    iterations: int
    stop_reason: str
    decrement: float
    solves: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


# The fit's start: one fixed reward, read from neither the data nor the
# configured reward.  Of three such starts it converged in the fewest solves on
# ten 20-asset markets, to the fit from twice the generating reward.
FIT_START = RewardParams(lam=1e-2, eta=1.05, rho=0.5, omega=1.0)


def scaled_start(reward: RewardParams, scale: float = 2.0) -> RewardParams:
    """The benchmark's start for the fit: every coordinate of ``reward``
    moved away from it by the given factor (never at it).

    The growth rate is scaled through its excess over one; rho is capped
    inside the open unit interval.  A start outside the fit's domain (lam,
    eta and omega positive and finite, rho in (0, 1)) raises ParameterError
    naming it, the value it comes from and the scale.
    """
    if scale == 1.0:
        raise ParameterError("starting scale of 1.0 would start at the given reward")
    if np.ndim(reward.omega) != 0:
        raise ParameterError("inference starting point needs a scalar omega")
    start = RewardParams(
        lam=reward.lam * scale,
        eta=1.0 + (reward.eta - 1.0) * scale,
        rho=min(reward.rho * scale, 0.95),
        omega=float(reward.omega) * scale,
    )
    for name in PARAM_NAMES:
        value, upper = float(getattr(start, name)), 1.0 if name == "rho" else math.inf
        if not 0.0 < value < upper:
            raise ParameterError(f"the fit's start {name}={value:g} lies outside (0, {upper:g}): "
                                 f"it is {name}={float(getattr(reward, name)):g} moved "
                                 f"by the scale {scale:g}")
    return start


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
# fast likelihood evaluation on pooled sufficient statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DataStats:
    """Per-step pooled moments of the observed states and actions, centred so
    that the likelihood does not cancel their means, which dwarf the noise.
    They are all the action likelihood reads of the data."""

    cxx: np.ndarray     # (T, N, N) sum of (x - x_mean)(x - x_mean)'
    cux: np.ndarray     # (T, N, N) sum of (u - u_mean)(x - x_mean)'
    cuu: np.ndarray     # (T, N, N) sum of (u - u_mean)(u - u_mean)'
    x_mean: np.ndarray  # (T, N) mean of x
    u_mean: np.ndarray  # (T, N) mean of u
    count: int
    horizon: int
    n_assets: int


def prepare_stats(
    trajs: Trajectories, rbar_path: np.ndarray, sigma_r: ReturnCovariance
) -> _DataStats:
    """Pool the data into per-step moments, read from the batch's (M, T+1, N)
    positions and (M, T, N) trades; the terminal positions are not read.
    ``rbar_path`` and ``sigma_r`` are only checked against the data's shape.
    Moments that leave the float range raise ParameterError naming them."""
    x_all, u_all = trajs.x, trajs.u
    m, t_len, n = u_all.shape
    if rbar_path.shape != (t_len, n) or sigma_r.n_risky != n - 1:
        raise ShapeError(
            f"trajectories of {t_len} periods x {n} assets do not match the return "
            f"path {rbar_path.shape} and Sigma_r of {sigma_r.n_risky} risky assets"
        )
    cxx = np.empty((t_len, n, n))
    cux = np.empty((t_len, n, n))
    cuu = np.empty((t_len, n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment is refused below
        x_mean = x_all[:, :-1].mean(axis=0)
        u_mean = u_all.mean(axis=0)
        for t in range(t_len):
            x_t = x_all[:, t, :] - x_mean[t]
            u_t = u_all[:, t, :] - u_mean[t]
            cxx[t] = x_t.T @ x_t
            cux[t] = u_t.T @ x_t
            cuu[t] = u_t.T @ u_t
    if not all(np.isfinite(a).all() for a in (x_mean, u_mean, cxx, cux, cuu)):
        raise ParameterError(
            "the trajectories' pooled moments of positions and trades leave the float range "
            f"(largest |position| {np.abs(x_all).max():g}, largest |trade| "
            f"{np.abs(u_all).max():g})")
    return _DataStats(
        cxx=cxx, cux=cux, cuu=cuu, x_mean=x_mean, u_mean=u_mean,
        count=m, horizon=t_len, n_assets=n,
    )


def nll_from_stats(theta: GirlParams, stats: _DataStats, rbar_path: np.ndarray) -> float:
    """Negative log-likelihood of the pooled actions given their states
    under theta: the per-step sum of action log-densities over every
    trajectory (``trajectory_nll`` in ``tests/oracles.py``), accumulated
    through second moments in a handful of N x N products per step instead of
    a pass over every trajectory (``_nll``).  The theta-free transition
    density of the positions is not part of it."""
    basis = reward_basis(rbar_path, theta.sigma_r, theta.benchmark)
    return _nll(theta, basis, theta.prior(), stats, _step_buffers(stats.n_assets))


def _step_nll(stats: _DataStats, t: int, prec: np.ndarray, u_t: np.ndarray, v_t: np.ndarray,
              chol_t: np.ndarray) -> float:
    """Step t's negative log-likelihood under the policy N(u_t + v_t x, C),
    C = chol_t chol_t' of precision P = ``prec``: against the summed outer
    products of the residuals, with d their mean, <P, cuu> - 2 <P v, cux> +
    <v' P v, cxx> + m d' P d (two matrix products), plus m log|C|."""
    m, n = stats.count, stats.n_assets
    w = prec @ v_t
    d = stats.u_mean[t] - u_t - v_t @ stats.x_mean[t]
    quad = (np.vdot(prec, stats.cuu[t]) - 2.0 * np.vdot(w, stats.cux[t])
            + np.vdot(v_t.T @ w, stats.cxx[t]) + m * float(d @ prec @ d))
    logdet = 2.0 * np.log(np.diagonal(chol_t)).sum()
    return 0.5 * (quad + m * (n * LOG_2PI + logdet))


def _step_buffers(n: int):
    """An ``out`` for ``_nll`` that writes every step into one set of buffers."""
    step = (np.empty((n, n)), np.empty(n), np.empty((n, n)), np.empty((n, n)))
    return lambda t: step


def _nll(theta: GirlParams, basis: RewardBasis, prior: PolicyPrior, stats: _DataStats,
         out) -> float:
    """The loss of ``stats`` under theta on the market terms of ``basis``
    with theta's ``prior``, the one driver of the likelihood: the recursion
    writes step t into ``out(t)``'s buffers, where ``_step_nll`` scores it
    before the next step.  The terms are added in t order, so any ``out``
    gives the same bits.  A term that overflows makes the loss non-finite
    without a warning; an infeasible solve names theta's reward parameters."""
    cfg = theta.solver_config()
    rbar = _checked_path(prior, cfg, basis.rbar)
    if rbar.shape != (stats.horizon, stats.n_assets):
        raise ShapeError("data statistics do not match the return path")
    terms = [0.0] * stats.horizon
    try:
        for t in _backward_steps(basis.coeffs(theta.reward), prior, cfg, rbar, out):
            with np.errstate(over="ignore"):  # thread-local: entered on the caller's thread
                terms[t] = _step_nll(stats, t, *out(t))
    except InfeasibleError as exc:
        raise InfeasibleError(f"{exc} (under reward parameters {_named(theta.reward)})") from exc
    total = 0.0
    for term in terms:
        total += term
    return total


# ---------------------------------------------------------------------------
# score and optimizer
# ---------------------------------------------------------------------------

def _plan_score(theta: GirlParams, basis: RewardBasis, policy: GaussianPolicy,
                stats: _DataStats) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of the negative log-likelihood and its Fisher
    information in the ``pack_reward`` coordinates at ``theta``, contracted
    step by step from one tangent pass over ``policy``, the policy solved at
    ``theta`` on ``basis``.  The likelihood depends on theta only through the
    policy N(k + K x, C), whose mean changes by beta C (A_i x + a_i) and
    precision by -2 beta dq_uu,i along direction i (``tangent_pass``).  Over
    residuals e = u - k - K x, the log-density changes by beta [<A_i, sum e x'>
    + a_i . sum e + <dq_uu,i, sum e e' - m C>]; with h_i = A_i x_mean + a_i,
    I_ij = sum_t beta^2 [m h_i' C h_j + <A_i, C A_j cxx> + 2 m tr(C dq_uu,i C dq_uu,j)].
    """
    m, k = stats.count, len(PARAM_NAMES)
    grad, info = np.zeros(k), np.zeros((k, k))

    def contract(t, dq_uu, a_ux, a_u):
        v_t, x_mean, cxx, cux = policy.v_tilde[t], stats.x_mean[t], stats.cxx[t], stats.cux[t]
        cov = policy.chol_tilde[t] @ policy.chol_tilde[t].T
        # the data's sums of e, e x' and e e' - m C (its symmetric part), e = u - k - K x
        e_sum = m * (stats.u_mean[t] - policy.u_tilde[t] - v_t @ x_mean)
        v_cxx = v_t @ cxx
        e_x = cux - v_cxx + np.outer(e_sum, x_mean)
        grad[:] -= a_ux.reshape(k, -1) @ e_x.ravel() + a_u @ e_sum
        e_e = stats.cuu[t] - 2.0 * (v_t @ cux.T) + v_cxx @ v_t.T - m * cov
        grad[:] -= dq_uu.reshape(k, -1) @ (e_e + np.outer(e_sum, e_sum / m)).ravel()
        h = a_ux @ x_mean + a_u
        info[:] += m * (h @ cov @ h.T)
        info[:] += a_ux.reshape(k, -1) @ ((cov @ a_ux) @ cxx).reshape(k, -1).T
        c_uu = cov @ dq_uu
        info[:] += 2.0 * m * (c_uu.reshape(k, -1) @ np.swapaxes(c_uu, 1, 2).reshape(k, -1).T)

    r = theta.reward
    with np.errstate(over="ignore"):  # an overflow is a non-finite result, rejected below
        tangent_pass(policy, theta.gamma, basis.coeffs(r), basis.tangents(r), contract)
        # chain rule from (lam, eta, rho, omega) to the coordinates of pack_reward
        scale = np.array([r.lam, r.eta, r.rho * (1.0 - r.rho), float(r.omega)])
        grad *= theta.beta * scale
        try:  # a Python float ** raises past the float range instead of giving inf
            info *= theta.beta**2 * np.outer(scale, scale)
        except OverflowError as exc:
            raise GradientError(f"beta={theta.beta:g} squared is outside the float range") from exc
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(info))):
        raise GradientError("non-finite likelihood gradient or information")
    return grad, 0.5 * (info + info.T)


def fit(
    trajs: Trajectories,
    rbar_path: np.ndarray,
    theta0: GirlParams,
    cfg: FitConfig,
) -> FitReport:
    """Recover the reward parameters by damped Fisher scoring on the negative
    log-likelihood, in the unconstrained coordinates of ``pack_reward``.

    One tangent pass over an accepted point's policy gives the gradient g and
    the information I (``_plan_score``); a trial step solves (I + mu diag I)
    s = -g (Osborne 1992; Marquardt 1963).  A trial is rejected, and mu grows
    by DAMPING_UP, when the damped system is singular, the step exceeds
    MAX_STEP in a coordinate or the trial leaves the domain or the float
    range (all before any solve), its solve is infeasible, or its loss is not
    lower.  A step that gains GAIN_RATIO of the predicted decrease divides mu
    by DAMPING_DOWN.  Stops ``converged`` when the Newton decrement
    g'I^{-1}g / 2 is below STOP_TOL nats, after ``max_iters`` accepted
    steps (``budget``), or after DAMPING_TRIALS rejections in a row (``damping``).
    A decrement past the float range raises ``GradientError`` naming the iteration.
    """
    cfg.validate()
    theta0.validate()
    stats = prepare_stats(trajs, rbar_path, theta0.sigma_r)
    basis = reward_basis(rbar_path, theta0.sigma_r, theta0.benchmark)
    prior = theta0.prior()
    solves = 0

    def evaluate(vec):
        nonlocal solves
        theta = theta0.with_reward(unpack_reward(vec))
        theta.validate()  # a point outside the domain costs no solve
        solves += 1
        policy, out = _policy_rows(basis.rbar)  # the score reads the policy of an accepted trial
        return _nll(theta, basis, prior, stats, out), theta, policy

    vec = pack_reward(theta0.reward)
    loss, theta, policy = evaluate(vec)
    if not np.isfinite(loss):
        raise GradientError(
            f"non-finite objective at the starting parameters {_named(theta0.reward)}")
    loss_path, mu, stop_reason = [loss], DAMPING_START, "budget"
    for iteration in range(1, cfg.max_iters + 1):
        grad, info = _plan_score(theta, basis, policy, stats)  # both finite, or it raises
        policy = None  # one policy in memory at a time: the next is a trial's
        try:  # through a Cholesky factor: an I that is not positive definite never converges
            z = np.linalg.solve(np.linalg.cholesky(info), grad)
        except np.linalg.LinAlgError:
            decrement = math.inf
        else:
            with np.errstate(over="ignore"):
                decrement = 0.5 * float(z @ z)
            if not math.isfinite(decrement):  # of a finite gradient and information
                raise GradientError(f"the Newton decrement overflows at iteration {iteration}")
        if decrement < STOP_TOL:
            stop_reason = "converged"
            break
        for _ in range(DAMPING_TRIALS):
            trial = None  # drop a rejected trial's policy before the next solve
            try:
                step = np.linalg.solve(info + mu * np.diag(np.diag(info)), -grad)
                if np.max(np.abs(step)) <= MAX_STEP:  # False for NaN
                    trial = evaluate(vec + step)
            except (np.linalg.LinAlgError, InfeasibleError, ParameterError, OverflowError):
                pass
            if trial is not None and trial[0] < loss:  # False for NaN
                break
            mu *= DAMPING_UP
        else:
            stop_reason = "damping"
            break
        if loss - trial[0] >= -GAIN_RATIO * float(grad @ step + 0.5 * step @ info @ step):
            mu /= DAMPING_DOWN
        vec = vec + step
        loss, theta, policy = trial
        loss_path.append(loss)

    policy = trial = None  # gone before the report is allocated, so the heap can shrink
    return FitReport(params=theta, loss_path=np.asarray(loss_path),
                     iterations=len(loss_path) - 1, stop_reason=stop_reason,
                     decrement=decrement, solves=solves)


def loss_slices(
    theta: GirlParams,
    trajs: Trajectories,
    rbar_path: np.ndarray,
    grids: dict[str, np.ndarray] | None = None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """One-dimensional NLL scans around theta, one grid per reward parameter.

    Returns {name: (grid values, nll values)}, on ``default_slice_grids``
    unless given.  The points run on a thread pool with one worker per CPU
    of the process's affinity set (no setting changes that), each through
    ``_nll`` in one set of step buffers, and equal ``nll_from_stats`` bit for
    bit.  As in a serial loop, the first point in grid order whose solve is
    infeasible or whose loss is not finite raises ``InfeasibleError`` or
    ``GradientError`` naming it.
    """
    if grids is None:
        grids = default_slice_grids(theta.reward)
    stats = prepare_stats(trajs, rbar_path, theta.sigma_r)
    basis = reward_basis(rbar_path, theta.sigma_r, theta.benchmark)
    prior = theta.prior()
    points = [theta.with_reward(replace(theta.reward, **{name: float(g)}))
              for name, grid in grids.items() for g in grid]

    # workers call no public function: the benchmark's span tracer is not thread-safe
    def loss_at(at):
        loss = _nll(at, basis, prior, stats, _step_buffers(stats.n_assets))
        if not math.isfinite(loss):  # pool.map raises it in grid order, as an infeasible solve
            raise GradientError(f"non-finite loss under reward parameters {_named(at.reward)}")
        return loss

    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    with ThreadPoolExecutor(len(affinity(0)) if affinity else os.cpu_count() or 1) as pool:
        vals = pool.map(loss_at, points)
        return {name: (np.asarray(grid, dtype=float), np.fromiter(vals, float, len(grid)))
                for name, grid in grids.items()}


def default_slice_grids(reward: RewardParams) -> dict[str, np.ndarray]:
    """Scan grids of SLICE_POINTS points centred on lam and omega (0.5 to 1.5
    times each) and on eta (+- 0.06, or +- eta / 2 below eta = 0.12, so that
    every point is positive); rho's spans rho +- 0.2 clipped to [0.02, 0.98],
    so it is centred on rho only for rho in [0.22, 0.78]."""
    rho_lo = max(0.02, reward.rho - 0.2)
    rho_hi = min(0.98, reward.rho + 0.2)
    eta_span = min(0.06, 0.5 * reward.eta)
    return {
        "lam": np.linspace(0.5 * reward.lam, 1.5 * reward.lam, SLICE_POINTS),
        "eta": np.linspace(reward.eta - eta_span, reward.eta + eta_span, SLICE_POINTS),
        "rho": np.linspace(rho_lo, rho_hi, SLICE_POINTS),
        "omega": np.linspace(0.5 * float(reward.omega), 1.5 * float(reward.omega),
                             SLICE_POINTS),
    }
