"""One-step reward of the goal-based plan as an explicit quadratic form.

The investor is penalized for the expected squared shortfall of next-period
portfolio value against a target, pays quadratic transaction costs, and books
the period's cash installment (which the budget constraint ties to the sum of
trades).  Expanding the expectation over returns turns the reward into a
quadratic form in positions x and trades u.  Each coefficient is written
once, as scalar weights (products of the parameters) times terms that do not
depend on them, so its derivatives in the parameters are the weights'
Jacobian times those terms.  The parameter-free terms of a market (expected
returns, the return second moments, the benchmark) are built and checked
once, by ``reward_basis``; a solve or a whole fit assembles every period's
coefficients from that one ``RewardBasis``.

Conventions: asset 0 is the risk-free bond, assets 1..N-1 are risky.  The
cross-coefficient ``r_ux`` is stored so that the reward term reads
u^T r_ux x.  All one-argument quadratic matrices are symmetrized on
construction.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, ShapeError
from .market import ReturnCovariance

_SQRT_MAX = float(np.sqrt(np.finfo(float).max))  # the largest float whose square is finite


@dataclass(frozen=True)
class RewardParams:
    """Economic parameters of the one-step reward.

    lam    -- weight of the squared target shortfall (> 0)
    eta    -- desired gross growth rate of current wealth per period (> 0)
    rho    -- mixture weight in [0, 1] between wealth growth and benchmark
    omega  -- transaction-cost matrix (N x N symmetric PSD), or a scalar
              meaning omega * I
    """

    lam: float
    eta: float
    rho: float
    omega: np.ndarray | float

    def validate(self, n_assets: int | None = None) -> None:
        if not self.lam > 0.0:
            raise ParameterError(f"lam must be > 0, got {self.lam}")
        if not self.eta > 0.0:
            raise ParameterError(f"eta must be > 0, got {self.eta}")
        if not 0.0 <= self.rho <= 1.0:
            raise ParameterError(f"rho must lie in [0, 1], got {self.rho}")
        om = self.omega
        if np.ndim(om) == 0:
            if not float(om) >= 0.0:
                raise ParameterError("scalar omega must be >= 0")
        else:
            om = np.asarray(om, dtype=float)
            if om.ndim != 2 or om.shape[0] != om.shape[1]:
                raise ShapeError(f"omega matrix must be square, got {om.shape}")
            if n_assets is not None and om.shape[0] != n_assets:
                raise ShapeError(f"omega is {om.shape} but there are {n_assets} assets")
            if not np.isfinite(om).all():
                raise ParameterError("omega matrix has non-finite entries")
            if not np.allclose(om, om.T, atol=1e-12, rtol=0.0):
                raise ParameterError("omega must be symmetric")
            if np.linalg.eigvalsh(om)[0] < -1e-12:
                raise ParameterError("omega must be positive semidefinite")

    def omega_matrix(self, n_assets: int) -> np.ndarray:
        """Transaction-cost matrix as a dense N x N array."""
        if np.ndim(self.omega) == 0:
            return float(self.omega) * np.eye(n_assets)
        om = np.asarray(self.omega, dtype=float)
        if om.shape != (n_assets, n_assets):
            raise ShapeError(f"omega is {om.shape}, expected ({n_assets}, {n_assets})")
        return om


@dataclass(frozen=True)
class BenchmarkPath:
    """Portfolio-independent benchmark values B_t, t = 0..T-1, in dollars:
    positive, and finite with a finite square (the reward's B_t^2 term)."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1:
            raise ShapeError("benchmark path must be a 1-D array")
        if not (b > 0.0).all():
            raise ParameterError("benchmark values must be positive")
        if not (b <= _SQRT_MAX).all():
            raise ParameterError(f"benchmark values must be finite with a finite square, "
                                 f"got a largest value of {b.max():g}")
        object.__setattr__(self, "b", b)

    @property
    def horizon(self) -> int:
        return self.b.shape[0]


def exponential_benchmark(initial: float, rate: float, horizon: int, dt: float) -> BenchmarkPath:
    """Benchmark compounded continuously: B_t = initial * exp(rate * t * dt)."""
    t = np.arange(horizon)
    with np.errstate(over="ignore"):  # an inf value is rejected by BenchmarkPath
        return BenchmarkPath(b=initial * np.exp(rate * t * dt))


@dataclass(frozen=True)
class RewardCoeffs:
    """Coefficients of the quadratic one-step reward at a single period.

    The reward value is
        x^T r_xx x + u^T r_ux x + u^T r_uu u + x^T r_x + u^T r_u + r_0.
    ``sigma_hat`` is the second-moment matrix of gross returns.  The solver
    does not read ``r_0``: a constant moves no policy.
    """

    r_xx: np.ndarray
    r_ux: np.ndarray
    r_uu: np.ndarray
    r_x: np.ndarray
    r_u: np.ndarray
    r_0: float
    sigma_hat: np.ndarray

    @property
    def n_assets(self) -> int:
        return self.r_xx.shape[0]


def _reward_weights(params: RewardParams, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scalar weights of the reward's theta-free terms, their derivatives
    in (lam, eta, rho, omega), and omega's shape, with ``params`` validated
    for ``n`` assets.

    The weights, in the order ``_assemble`` reads them, multiply
    [1, 11', g1', sigma_hat, omega's shape, b 1, b g, b^2]:
    1, lam eta^2 rho^2, lam eta rho, lam, omega, lam eta rho (1-rho),
    lam (1-rho) and lam (1-rho)^2.  A scalar omega has the identity as its
    shape; a matrix omega is its own shape with weight one, and the
    derivative in omega assumes a scalar omega (cost matrix omega * I).
    Returns the (8,) weights, their (4, 8) Jacobian and the (N, N) shape;
    raises ParameterError if a weight or the shape is not finite.
    """
    params.validate(n)
    lam, eta, rho = params.lam, params.eta, params.rho
    om = float(params.omega) if np.ndim(params.omega) == 0 else 1.0
    s = 1.0 - rho
    try:  # a Python float ** raises past the float range instead of giving inf
        eta_sq = eta**2
    except OverflowError as exc:
        raise ParameterError(f"eta={eta:g} squared is outside the float range") from exc
    weights = np.array([1.0, lam * eta_sq * rho**2, lam * eta * rho, lam, om,
                        lam * eta * rho * s, lam * s, lam * s**2])
    jacobian = np.array([
        [0.0, eta_sq * rho**2, eta * rho, 1.0, 0.0, eta * rho * s, s, s**2],
        [0.0, 2.0 * lam * eta * rho**2, lam * rho, 0.0, 0.0, lam * rho * s, 0.0, 0.0],
        [0.0, 2.0 * lam * eta_sq * rho, lam * eta, 0.0, 0.0, lam * eta * (s - rho),
         -lam, -2.0 * lam * s],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    ])
    shape = np.eye(n) if np.ndim(params.omega) == 0 else params.omega_matrix(n)
    if not (np.isfinite(weights).all() and np.isfinite(shape).all()):
        raise ParameterError("the reward's weights or cost matrix are not finite")
    return weights, jacobian, 0.5 * (shape + shape.T)


@dataclass(frozen=True)
class RewardBasis:
    """The theta-free terms of the reward over a horizon, built once per
    market by ``reward_basis``: the (T, N) expected per-period returns
    (entry 0 the bond rate), the (T, N, N) second-moment matrices
    sigma_hat_t of the gross returns (the return covariance, padded with a
    zero row/column for the bond, plus the outer product of the expected
    gross returns) and the (T,) benchmark values."""

    rbar: np.ndarray
    sigma_hat: np.ndarray
    b: np.ndarray

    @property
    def n_assets(self) -> int:
        return self.rbar.shape[1]

    def coeffs(self, params: RewardParams) -> Callable[[int], RewardCoeffs]:
        """Period t's reward coefficients under ``params``, assembled when
        asked for, so that a pass holds one period's at a time."""
        weights, _, shape = _reward_weights(params, self.n_assets)
        return lambda t: _assemble(weights, shape, self, t)

    def tangents(self, params: RewardParams) -> Callable[[int], RewardCoeffs]:
        """Period t's derivatives of the reward coefficients in (lam, eta, rho,
        omega), stacked on a leading axis of 4 like ``coeffs`` assembles them:
        ``_assemble`` of the weights' Jacobian.  ``params.omega`` must be a scalar."""
        if np.ndim(params.omega) != 0:
            raise ParameterError("reward derivatives need a scalar omega (cost matrix omega * I)")
        _, jacobian, shape = _reward_weights(params, self.n_assets)
        w = jacobian.T[:, :, None, None]  # (4, 1, 1) per weight
        def at(t: int) -> RewardCoeffs:
            r = _assemble(w, shape, self, t)
            return replace(r, r_x=r.r_x[:, 0], r_u=r.r_u[:, 0], r_0=r.r_0[:, 0, 0])
        return at


def reward_basis(
    rbar_path: np.ndarray, sigma_r: ReturnCovariance, benchmark: BenchmarkPath
) -> RewardBasis:
    """The reward's theta-free terms on a market: the (T, N) expected-return
    path whose column 0 is the per-period risk-free rate, the covariance of
    the N-1 risky returns and a benchmark path of T values.  Every check of
    these market inputs is made here."""
    rbar = np.asarray(rbar_path, dtype=float)
    if rbar.ndim != 2:
        raise ShapeError("rbar_path must be (T, N)")
    if not np.isfinite(rbar).all():
        raise ParameterError("the expected-return path has non-finite entries")
    t_len, n = rbar.shape
    if benchmark.horizon != t_len:
        raise ShapeError(f"benchmark horizon {benchmark.horizon} != return path horizon {t_len}")
    if sigma_r.n_risky != n - 1:
        raise ShapeError(
            f"sigma_r covers {sigma_r.n_risky} risky assets but the return path has {n} "
            "columns (bond plus risky)"
        )
    sig_pad = np.zeros((n, n))  # the bond's zero row/column in front
    sig_pad[1:, 1:] = sigma_r.sigma_r
    sigma_hat = np.empty((t_len, n, n))
    for t, g in enumerate(1.0 + rbar):  # expected gross returns
        s = sig_pad + np.outer(g, g)
        sigma_hat[t] = 0.5 * (s + s.T)
    return RewardBasis(rbar=rbar, sigma_hat=sigma_hat, b=benchmark.b)


def _assemble(w: np.ndarray, shape: np.ndarray, basis: RewardBasis, t: int) -> RewardCoeffs:
    """The reward's one formula: each of period t's coefficients is a
    weighted sum of theta-free terms, with the (8,) weights ``w`` of
    ``_reward_weights``; weights of shape (k, 1, 1) give k coefficient sets
    (their vectors as (k, 1, N)), as for the weights' Jacobian.

    The assembled quadratic form equals the closed-form expectation of the
    squared-shortfall reward over the return distribution
    N(rbar_t, padded sigma_r).
    """
    g = 1.0 + basis.rbar[t]  # expected gross returns
    sigma_hat = basis.sigma_hat[t]
    b_t = float(basis.b[t])
    unit, w_11, w_g1, w_s, w_om, w_b1, w_bg, w_bb = w
    s_term = w_s * sigma_hat
    r_xx = w_g1 * (g[:, None] + g) - w_11 - s_term  # g 1' + 1 g', ones, sigma_hat
    r_uu = -(s_term + w_om * shape)
    s_term -= w_g1 * g[:, None]  # r_ux = 2 (w_g1 g 1' - s_term) in s_term's memory
    r_ux = np.multiply(s_term, -2.0, out=s_term)
    bg = (2.0 * b_t * w_bg) * g
    r_x = bg - 2.0 * b_t * w_b1
    r_u = bg - unit
    return RewardCoeffs(r_xx=r_xx, r_ux=r_ux, r_uu=r_uu, r_x=r_x, r_u=r_u,
                        r_0=-w_bb * b_t**2, sigma_hat=sigma_hat)
