"""Single-factor market simulator.

A market return path drives a CAPM-style "alpha model" producing expected
risky-asset returns that are deliberately weak predictors of the realized
returns.  Realized returns add the systematic market surprise plus
idiosyncratic noise.  Everything downstream (solver, likelihood) consumes
the expected-return panel and the residual covariance produced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, ParameterError, ShapeError


@dataclass(frozen=True)
class MarketSpec:
    """Parameters of the simulated market environment.

    Rates are annualized; ``dt`` converts them to the period scale used by
    the simulator (e.g. dt=0.25 for quarterly periods).
    """

    n_risky: int = 99
    r_f: float = 0.02
    mu_m: float = 0.05
    sigma_m: float = 0.25
    sigma_i: float = 0.05
    dt: float = 0.25
    oracle_c: float = 0.2
    alpha_range: tuple[float, float] = (-0.05, 0.15)  # annualized, like the other rates
    beta_range: tuple[float, float] = (0.05, 0.85)
    n_paths: int = 1000
    horizon: int = 30
    seed: int = 0
    exact_gbm: bool = False  # exponential market increments instead of arithmetic

    def validate(self) -> None:
        if self.n_risky < 1:
            raise ParameterError("n_risky must be >= 1")
        if self.n_paths < 1 or self.horizon < 1:
            raise ParameterError("n_paths and horizon must be >= 1")
        if not 0.0 <= self.oracle_c <= 1.0:
            raise ParameterError(f"oracle_c must lie in [0, 1], got {self.oracle_c}")
        if self.sigma_m < 0.0 or self.sigma_i < 0.0:
            raise ParameterError("volatilities must be non-negative")
        if self.dt <= 0.0:
            raise ParameterError("dt must be positive")
        lo, hi = self.beta_range
        if lo > hi or max(abs(lo), abs(hi)) >= 1.0:
            raise ParameterError("beta_range must satisfy |beta| < 1")
        if self.alpha_range[0] > self.alpha_range[1]:
            raise ParameterError("alpha_range must be ordered")
        if not 0 <= self.seed < 2**64:  # the Philox key is two uint64 words
            raise ParameterError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class ReturnPaths:
    """Simulated per-period returns.

    ``expected`` and ``realized`` are [n_paths x horizon x n_risky] panels of
    dimensionless period returns; ``market`` is the [n_paths x horizon] market
    return.  The per-asset draws (alpha and beta) are shared across paths and
    recorded for reference; ``alpha`` is recorded per period, on the same
    scale as the panels (the annualized draw times dt).
    """

    expected: np.ndarray
    realized: np.ndarray
    market: np.ndarray
    alpha: np.ndarray = field(default_factory=lambda: np.empty(0))
    beta: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        if self.expected.shape != self.realized.shape or self.expected.ndim != 3:
            raise ShapeError(
                f"expected/realized panels must share shape [paths x periods x assets], "
                f"got {self.expected.shape} vs {self.realized.shape}"
            )
        if self.market.shape != self.expected.shape[:2]:
            raise ShapeError("market panel must be [paths x periods]")
        if not (np.isfinite(self.expected).all() and np.isfinite(self.realized).all()):
            raise ParameterError("return panels contain non-finite entries")

    @property
    def n_paths(self) -> int:
        return self.expected.shape[0]

    @property
    def horizon(self) -> int:
        return self.expected.shape[1]

    @property
    def n_risky(self) -> int:
        return self.expected.shape[2]


@dataclass(frozen=True)
class ReturnCovariance:
    """Symmetric positive-definite covariance of realized-minus-expected returns."""

    sigma_r: np.ndarray

    def __post_init__(self):
        s = self.sigma_r
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ShapeError(f"covariance must be square, got {s.shape}")
        if not np.allclose(s, s.T, atol=1e-12, rtol=0.0):
            raise ParameterError("covariance must be symmetric within 1e-12")
        eigmin = float(np.linalg.eigvalsh(s)[0])
        if eigmin <= 0.0:
            raise ParameterError(f"covariance must be positive definite, min eig {eigmin:g}")

    @property
    def n_risky(self) -> int:
        return self.sigma_r.shape[0]


def _panel_rng(seed: int, panel: int) -> np.random.Generator:
    # the Philox stream of a panel: 0 the asset draws, 1 the market noise, 2 the idiosyncratic
    return np.random.Generator(np.random.Philox(key=np.array([seed, panel], dtype=np.uint64)))


def simulate(spec: MarketSpec) -> ReturnPaths:
    """Simulate expected and realized return panels under ``spec``.

    The market return each period is a GBM increment with drift mu_m*dt and
    volatility sigma_m*sqrt(dt); per-asset alphas are drawn from the
    annualized ``alpha_range`` and scaled to alpha*dt.  Expected returns mix
    the unconditional market drift with the contemporaneous market return
    through the oracle coefficient; realized returns add the systematic
    surprise and independent idiosyncratic noise.  Deterministic for a fixed
    seed: counter-based streams keyed (seed, 0), (seed, 1) and (seed, 2) give
    the asset draws, the market noise and the idiosyncratic noise, the noise
    drawn path-major, so the first M' paths of an M-path run equal an M'-path run.
    """
    spec.validate()
    n, t_len, m = spec.n_risky, spec.horizon, spec.n_paths

    arng = _panel_rng(spec.seed, 0)
    alpha = arng.uniform(spec.alpha_range[0], spec.alpha_range[1], size=n) * spec.dt
    beta = arng.uniform(spec.beta_range[0], spec.beta_range[1], size=n)

    mu_dt = spec.mu_m * spec.dt

    # all paths at once, in the outputs allocated first in this order: no temporary of their
    # size (the draws as new arrays, or (M, T) temporaries, moved peak RSS by +4 MB at M=1000)
    expected = np.empty((m, t_len, n))
    realized = np.empty((m, t_len, n))
    market = np.empty((m, t_len))
    _panel_rng(spec.seed, 1).standard_normal(out=market)
    _panel_rng(spec.seed, 2).standard_normal(out=realized)
    market *= spec.sigma_m * np.sqrt(spec.dt)
    market += (spec.mu_m - 0.5 * spec.sigma_m**2) * spec.dt if spec.exact_gbm else mu_dt
    if spec.exact_gbm:  # exponential increments
        np.exp(market, out=market)
        market -= 1.0
    realized *= spec.sigma_i * np.sqrt(1.0 - beta**2) * np.sqrt(spec.dt)
    # the systematic surprise beta (r_m - mu_dt), staged in `expected`
    np.subtract(market[:, :, None], mu_dt, out=expected)
    expected *= beta
    realized += expected
    # the expected returns alpha + beta ((1 - c) mu_dt + c r_m)
    np.multiply(market[:, :, None], spec.oracle_c, out=expected)
    expected += (1.0 - spec.oracle_c) * mu_dt
    expected *= beta
    expected += alpha
    realized += expected

    return ReturnPaths(expected=expected, realized=realized, market=market,
                       alpha=alpha, beta=beta)


def residual_covariance(paths: ReturnPaths) -> ReturnCovariance:
    """Sample covariance of realized-minus-expected returns.

    Residuals are pooled over paths and periods, the estimate is
    symmetrized, and a ridge of 1e-10*I is added if needed for positive
    definiteness.
    """
    n_samples = paths.n_paths * paths.horizon
    if n_samples < 10 * paths.n_risky:
        raise EstimationError(
            f"need at least {10 * paths.n_risky} pooled samples for {paths.n_risky} assets, "
            f"got {n_samples}"
        )
    resid = (paths.realized - paths.expected).reshape(n_samples, paths.n_risky)
    cov = np.cov(resid, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    cov = 0.5 * (cov + cov.T)
    if np.linalg.eigvalsh(cov)[0] <= 0.0:
        cov = cov + 1e-10 * np.eye(paths.n_risky)
    return ReturnCovariance(sigma_r=cov)


def mean_expected_returns(paths: ReturnPaths) -> np.ndarray:
    """Cross-path mean of the expected-return panel, shape [horizon x n_risky].

    This is the deterministic expected-return path the solver and the
    likelihood share; both sides must consume the same reduction.
    """
    return paths.expected.mean(axis=0)
