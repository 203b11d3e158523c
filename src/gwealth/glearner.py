"""Entropy-regularized LQR solver with Gaussian policies.

Quadratic one-step rewards plus linear (in positions) dynamics make the
soft action-value function G and the free energy F quadratic forms whose
coefficients satisfy a backward recursion.  G and F are carried without their
constant terms: the posterior policy depends only on the terms of G that
involve u and x, so a constant reaches no policy, likelihood or score.  Each
step performs a Gaussian integral of exp(beta * G) against the reference
policy to obtain F, and a Bayesian update of the reference policy to obtain
the posterior linear-Gaussian policy, both from one inverse of the posterior
precision.
Forward Monte-Carlo rollouts sample trades from the posterior and book the
implied cash installments.

The terminal step T-1 is special: its value function is the hard maximum
of the last-period reward (the analytic argmax plugged back in), while the
policy normalizer at every step, terminal included, is the soft
log-partition so that the posterior density identity
pi = pi0 * exp(beta * (G - F_soft)) holds exactly.

The tangent pass runs the same recursion over a solved policy without a new
factorization: it carries the reward's derivatives in a few parameters to
every step's G and posterior policy, for the likelihood's score.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
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
        if not 0.0 < self.beta < np.inf:
            raise ParameterError(f"beta must be finite and > 0, got {self.beta}")
        if not 0.0 < self.gamma <= 1.0:
            raise ParameterError(f"gamma must lie in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class PolicyPrior:
    """Reference (prior) policy: u ~ N(u_bar + v_bar x, sigma_p).

    ``sigma_p_inv`` is derived on construction, once a Cholesky factorization
    has validated sigma_p, and so are the constant products of every
    posterior update: ``pull_u`` = sigma_p^{-1} u_bar, ``pull_v`` =
    sigma_p^{-1} v_bar, and v_bar' times each (``vt_pull_*``).
    """

    u_bar: np.ndarray
    v_bar: np.ndarray
    sigma_p: np.ndarray
    sigma_p_inv: np.ndarray = field(init=False, repr=False, compare=False)
    pull_u: np.ndarray = field(init=False, repr=False, compare=False)
    pull_v: np.ndarray = field(init=False, repr=False, compare=False)
    vt_pull_u: np.ndarray = field(init=False, repr=False, compare=False)
    vt_pull_v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("u_bar", "v_bar", "sigma_p"):
            if not np.isfinite(getattr(self, name)).all():
                raise ParameterError(f"prior {name} has non-finite entries")
        if self.u_bar.ndim != 1:
            raise ShapeError(f"prior u_bar must be 1-D, got shape {self.u_bar.shape}")
        n = self.u_bar.shape[0]
        if self.v_bar.shape != (n, n) or self.sigma_p.shape != (n, n):
            raise ShapeError("prior v_bar and sigma_p must be N x N")
        if not np.allclose(self.sigma_p, self.sigma_p.T, atol=1e-12, rtol=0.0):
            raise ParameterError("prior covariance must be symmetric")
        try:
            np.linalg.cholesky(self.sigma_p)
        except np.linalg.LinAlgError as exc:
            raise ParameterError("prior covariance must be positive definite") from exc
        inv = np.linalg.solve(self.sigma_p, np.eye(n))
        inv = 0.5 * (inv + inv.T)
        pull_u, pull_v = inv @ self.u_bar, inv @ self.v_bar
        for name, value in (("sigma_p_inv", inv), ("pull_u", pull_u), ("pull_v", pull_v),
                            ("vt_pull_u", self.v_bar.T @ pull_u),
                            ("vt_pull_v", self.v_bar.T @ pull_v)):
            object.__setattr__(self, name, value)

    @property
    def n_assets(self) -> int:
        return self.u_bar.shape[0]


def default_prior(n_assets: int, sigma_p_scale: float = 10.0) -> PolicyPrior:
    """Zero-mean, state-independent prior with sigma_p_scale^2 * I covariance."""
    try:  # a Python float ** raises past the float range instead of giving inf
        variance = sigma_p_scale**2
    except OverflowError as exc:
        raise ParameterError(
            f"sigma_p_scale={sigma_p_scale:g} squared is outside the float range") from exc
    return PolicyPrior(
        u_bar=np.zeros(n_assets),
        v_bar=np.zeros((n_assets, n_assets)),
        sigma_p=variance * np.eye(n_assets),
    )


@dataclass(frozen=True)
class GaussianPolicy:
    """Per-step posterior policy u ~ N(u_tilde[t] + v_tilde[t] x, sigma_tilde_t),
    sigma_tilde_t = chol_tilde[t] chol_tilde[t]^T, with the expected returns
    it was solved under: the sampler a rollout reads and ``plan.npz`` stores.

    Per-step results are stacked along the first axis: (T, N, N) for
    matrices and (T, N) for vectors.
    """

    rbar: np.ndarray          # (T, N) expected per-period returns, entry 0 = bond rate
    u_tilde: np.ndarray       # (T, N)
    v_tilde: np.ndarray       # (T, N, N)
    chol_tilde: np.ndarray    # (T, N, N) lower Cholesky factors of sigma_tilde

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


@dataclass(frozen=True)
class Trajectories:
    """M simulated account histories as one batch: positions x (M, T+1, N),
    trades u (M, T, N) and cash installments (M, T).  ``trajs[p]`` is path p,
    a ``Trajectory`` of views into the batch (and iteration runs over them)."""

    x: np.ndarray
    u: np.ndarray
    cash: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 3 or self.x.shape[0] == 0:
            raise ShapeError(f"positions must be an (M, T+1, N) batch of at least one "
                             f"path, got shape {self.x.shape}")
        m, t_len, n = self.x.shape[0], self.x.shape[1] - 1, self.x.shape[2]  # T+1 positions
        if self.u.shape != (m, t_len, n) or self.cash.shape != (m, t_len):
            raise ShapeError(f"trades {self.u.shape} and cash {self.cash.shape} do not fit "
                             f"positions {self.x.shape}")

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, p: int) -> Trajectory:
        p = operator.index(p)  # one path; a batch is not sliced
        return Trajectory(x=self.x[p], u=self.u[p], cash=self.cash[p])


def cash_installment(u: np.ndarray) -> float | np.ndarray:
    """Cash injected at each step: the sum of the trades over the last axis.

    Takes one trade vector (returns a scalar) or any batch of them, such as
    the (M, T, N) trades of M paths (returns their (M, T) installments).
    Every consumer of the budget identity goes through this helper so the
    summation order (and hence the float result) is identical everywhere: a
    row of a batch sums to the same bits as the row on its own.
    """
    return np.sum(u, axis=-1)


def _cholesky(m: np.ndarray, context: str) -> np.ndarray:
    """Cholesky factor of an SPD matrix, or an InfeasibleError naming ``context``."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleError(f"{context}: matrix is not positive definite") from exc


def _terminal_solve(r_uu: np.ndarray, r_ux: np.ndarray, r_u: np.ndarray) -> np.ndarray:
    """(-r_uu)^{-1} [r_ux | r_u], an N x (N + 1) array: the one solve against
    the final period's curvature lam * sigma_hat + omega.  The reward's
    maximizer is u = (-r_uu)^{-1} (r_ux x + r_u) / 2."""
    return np.linalg.solve(-r_uu, np.column_stack([r_ux, r_u]))


def _terminal_f(q) -> tuple[np.ndarray, np.ndarray]:
    """Plug the analytic terminal action back into the reward, whose
    coefficients are G's q = (q_xx, q_ux, q_uu, q_x, q_u) at T-1.

    max_u [u^T r_uu u + u^T b] = b^T (-r_uu)^{-1} b / 4 with b = r_ux x + r_u,
    expanded into the (f_xx, f_x) coefficients of x; the constant is not kept.
    """
    r_xx, r_ux, r_uu, r_x, r_u = q
    n = r_uu.shape[0]
    sol = _terminal_solve(r_uu, r_ux, r_u)
    f_xx = r_xx + 0.25 * r_ux.T @ sol[:, :n]
    f_x = r_x + 0.5 * r_ux.T @ sol[:, n]
    return 0.5 * (f_xx + f_xx.T), f_x


def _bayes_and_f(q, prior: PolicyPrior, beta: float, t: int,
                 out) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Bayesian update of the prior and Gaussian integral at step t.

    The posterior precision is sigma_bar = sigma_p^{-1} - 2 beta q_uu; its
    one inverse, symmetrized, is the posterior covariance sigma_tilde, whose
    products with v_rhs and u_rhs are the posterior gain and offset, and
    whose Cholesky factor is the sampler's.  F is the log-partition of
    pi0 * exp(beta * G), of which only the terms in x are kept.

    ``q`` is G's (q_xx, q_ux, q_uu, q_x, q_u); sigma_bar, u_tilde, v_tilde
    and chol_tilde go into ``out``.  Returns F's (f_xx, f_x).
    """
    q_xx, q_ux, q_uu, q_x, q_u = q
    sigma_bar, u_til, v_til, chol_tilde = out
    # contraction requirement: spectral radius of sigma_tilde sigma_p^{-1} < 1,
    # equivalently q_uu negative definite; sigma_bar is then SPD as well
    _cholesky(-q_uu, f"action curvature at step t={t} (posterior-to-prior covariance "
              "ratio would have spectral radius >= 1)")
    np.subtract(prior.sigma_p_inv, 2.0 * beta * q_uu, out=sigma_bar)
    inv = np.linalg.inv(sigma_bar)
    sigma_tilde = 0.5 * (inv + inv.T)
    chol_tilde[...] = _cholesky(sigma_tilde, f"posterior covariance at step t={t}")
    v_rhs = beta * q_ux + prior.pull_v
    u_rhs = beta * q_u + prior.pull_u
    np.matmul(sigma_tilde, v_rhs, out=v_til)
    np.matmul(sigma_tilde, u_rhs, out=u_til)
    f_xx = q_xx + (0.5 / beta) * (v_rhs.T @ v_til - prior.vt_pull_v)
    f_x = q_x + (1.0 / beta) * (v_til.T @ u_rhs - prior.vt_pull_u)
    return 0.5 * (f_xx + f_xx.T), f_x


def _step_q(r: RewardCoeffs, f_next, a_t: np.ndarray, gamma: float):
    """G's coefficients (q_xx, q_ux, q_uu, q_x, q_u) at a step, G(x, u) =
    x'q_xx x + u'q_ux x + u'q_uu u + x'q_x + u'q_u + const: the reward plus
    the discounted expectation of the next step's F = (f_xx, f_x) over the
    gross returns, whose mean is a_t and second moment ``r.sigma_hat``.
    The constant is not kept (``r.r_0`` is not read).  q_xx and q_uu are
    kept as their symmetric parts (the same quadratic forms), so an
    asymmetric r_xx or r_uu solves as its symmetric part."""
    f_xx, f_x = f_next
    growth = gamma * (f_xx * r.sigma_hat)
    lin = gamma * (a_t * f_x)
    q_xx, q_uu = (0.5 * (m + m.T) for m in (r.r_xx + growth, r.r_uu + growth))
    return q_xx, r.r_ux + 2.0 * growth, q_uu, r.r_x + lin, r.r_u + lin


def _checked_path(prior: PolicyPrior, cfg: SolverConfig, rbar: np.ndarray) -> np.ndarray:
    """``rbar`` as a float (T, N) path of at least one period, once ``cfg``
    is valid and the prior is N-dimensional."""
    cfg.validate()
    rbar = np.asarray(rbar, dtype=float)
    if rbar.ndim != 2 or rbar.shape[0] == 0:
        raise ShapeError(f"rbar must be a (T, N) path of at least one period, got {rbar.shape}")
    if prior.n_assets != rbar.shape[1]:
        raise ShapeError("prior dimension does not match the return path")
    return rbar


def _backward_steps(reward: Callable[[int], RewardCoeffs], prior: PolicyPrior,
                    cfg: SolverConfig, rbar: np.ndarray, out: Callable[[int], tuple]):
    """The backward recursion on inputs ``_checked_path`` passes: for t from T-1
    down to 0, it writes step t's (sigma_bar, u_tilde, v_tilde, chol_tilde)
    into the buffers ``out(t)`` gives and yields t.  G and F stay inside."""
    t_len, n = rbar.shape
    f_next = (np.zeros((n, n)), np.zeros(n))  # F is zero past the horizon
    for t in range(t_len - 1, -1, -1):
        r = reward(t)
        if r.n_assets != n:
            raise ShapeError(f"reward coefficients of step t={t} are not {n} x {n}")
        q = _step_q(r, f_next, 1.0 + rbar[t], cfg.gamma)
        f_next = _bayes_and_f(q, prior, cfg.beta, t, out=out(t))
        if t == t_len - 1:  # the recursion takes the hard max, the policy the soft F
            f_next = _terminal_f(q)
        r = q = None  # gone before the next step assembles its own
        yield t


def _policy_rows(rbar: np.ndarray) -> tuple[GaussianPolicy, Callable[[int], tuple]]:
    """An unfilled policy on the (T, N) path ``rbar`` and the ``out`` of
    ``_backward_steps`` that writes step t into its row t.  Every step's
    precision goes into one N x N buffer, since only its own step reads it."""
    t_len, n = rbar.shape
    v_tilde, chol_tilde = np.empty((t_len, n, n)), np.empty((t_len, n, n))
    u_tilde, sigma_bar = np.empty((t_len, n)), np.empty((n, n))
    return (GaussianPolicy(rbar=rbar, u_tilde=u_tilde, v_tilde=v_tilde, chol_tilde=chol_tilde),
            lambda t: (sigma_bar, u_tilde[t], v_tilde[t], chol_tilde[t]))


def backward_pass(
    reward: Callable[[int], RewardCoeffs],
    prior: PolicyPrior,
    cfg: SolverConfig,
    rbar: np.ndarray,
) -> GaussianPolicy:
    """Solve the finite-horizon problem by backward recursion.

    ``rbar`` is the (T, N) expected-return path and ``reward(t)`` gives
    period t's reward coefficients (``RewardBasis.coeffs``), read once each.
    Every step forms G_t from F_{t+1} (``_step_q``) and writes its policy
    into row t of the policy's stacked arrays, at the cost of one inverse and
    two Cholesky factorizations (``_bayes_and_f``).  G and F carry no
    constant term, so the reward's ``r_0`` is not read.
    """
    rbar = _checked_path(prior, cfg, rbar)
    policy, out = _policy_rows(rbar)
    for _ in _backward_steps(reward, prior, cfg, rbar, out):
        pass
    return policy


def tangent_pass(
    policy: GaussianPolicy,
    gamma: float,
    reward: Callable[[int], RewardCoeffs],
    tangents: Callable[[int], RewardCoeffs],
    contract: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None],
) -> None:
    """Derivatives of a policy solved on ``reward`` (as ``backward_pass``
    takes it) at discount ``gamma`` along k directions of that reward, handed
    to ``contract`` one step at a time from T-1 down to 0.  ``tangents(t)``
    stacks period t's derivatives of the reward coefficients on a leading
    axis of length k (``RewardBasis.tangents``).  ``contract(t, dq_uu, a_ux,
    a_u)`` gets G's dq_uu, a_ux = dq_ux + 2 dq_uu K and a_u = dq_u + 2 dq_uu
    k: the posterior precision changes by -2 beta dq_uu, the gain K by beta C
    a_ux and the offset k by beta C a_u.

    G_t changes by the reward's change plus F_{t+1}'s (``_step_q``), F_t by
    the expectation of G_t's under the posterior policy (an envelope
    identity), or under the hard max's argmax at T-1.  For that policy's
    gain K and offset k, with b_ux = dq_ux + dq_uu K and b_u = dq_u + 2 dq_uu k,
    df_xx = dq_xx + sym(K' b_ux) and df_x = dq_x + dq_ux' k + K' b_u; the
    constants of G and F are not carried.
    """
    t_last, n = policy.horizon - 1, policy.n_assets
    # G at T-1 is the reward, whose hard max takes u = (-r_uu)^{-1}(r_ux x + r_u) / 2
    r = reward(t_last)
    argmax = 0.5 * _terminal_solve(r.r_uu, r.r_ux, r.r_u)
    df_xx = None  # F past T-1 is zero
    for t in range(t_last, -1, -1):
        r = tangents(t)
        dq_xx, dq_ux, dq_uu, dq_x, dq_u = r.r_xx, r.r_ux, r.r_uu, r.r_x, r.r_u
        if df_xx is not None:  # as in _step_q; dq_xx takes df_xx's memory
            df_xx *= gamma * r.sigma_hat
            dq_uu += df_xx
            dq_ux += df_xx
            dq_ux += df_xx
            dq_xx = np.add(df_xx, dq_xx, out=df_xx)
            lin = gamma * ((1.0 + policy.rbar[t]) * df_x)
            dq_x, dq_u = dq_x + lin, dq_u + lin
        r = df_xx = None
        gain, offset = policy.v_tilde[t], policy.u_tilde[t]
        a_u = dq_u + 2.0 * (dq_uu @ offset)
        p = dq_uu @ gain
        if t > 0:  # F_t's tangents, under the policy F takes
            f_gain, f_offset = (argmax[:, :n], argmax[:, n]) if t == t_last else (gain, offset)
            b_u = dq_u + 2.0 * (dq_uu @ f_offset)
            df_x = dq_x + f_offset @ dq_ux + b_u @ f_gain
            b = f_gain.T @ (dq_ux + (p if f_gain is gain else dq_uu @ f_gain))
            dq_xx += 0.5 * (b + np.swapaxes(b, 1, 2))
            df_xx, b = dq_xx, None
        dq_ux += 2.0 * p
        p = dq_xx = None
        contract(t, dq_uu, dq_ux, a_u)
        dq_uu = dq_ux = None


def solve_plan(
    params: RewardParams,
    rbar_path: np.ndarray,
    sigma_r: ReturnCovariance,
    benchmark: BenchmarkPath,
    prior: PolicyPrior,
    cfg: SolverConfig,
) -> GaussianPolicy:
    """Assemble per-period reward coefficients and run the backward pass."""
    basis = reward_basis(rbar_path, sigma_r, benchmark)
    return backward_pass(basis.coeffs(params), prior, cfg, basis.rbar)


def rollout(
    policy: GaussianPolicy,
    paths: ReturnPaths,
    x0: np.ndarray,
    rng: np.random.Generator,
) -> Trajectories:
    """Simulate the policy forward along each realized return path.

    Trades are sampled from the per-step posterior, the cash installment is
    the sum of trades, and positions compound at the realized returns (the
    bond at its expected, deterministic rate).  The noise is one path-major
    (M, T, N) draw from ``rng``, so the first M' paths of an M-path rollout
    equal an M'-path rollout from the same generator, up to the last bits of
    the batched matrix products.

    All paths advance together: one batched affine step per period, written
    into the (M, T+1, N) positions and (M, T, N) trades of the returned batch.
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
    rng.standard_normal(out=u)  # the noise; each period overwrites it with the trade
    x[:, 0] = x0
    for t in range(t_len):
        u[:, t] = (policy.u_tilde[t] + x[:, t] @ policy.v_tilde[t].T
                   + u[:, t] @ policy.chol_tilde[t].T)
        np.add(x[:, t], u[:, t], out=x[:, t + 1])
        x[:, t + 1, 0] *= 1.0 + policy.rbar[t, 0]
        x[:, t + 1, 1:] *= 1.0 + paths.realized[:, t]
    return Trajectories(x=x, u=u, cash=cash_installment(u))
