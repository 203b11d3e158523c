"""Shared fixtures and small-instance builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from gwealth.glearner import PolicyPrior, SolverConfig, Trajectories
from gwealth.market import ReturnCovariance
from gwealth.rewards import BenchmarkPath, RewardParams


def random_spd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Well-conditioned random SPD matrix with entries on the given scale."""
    a = rng.standard_normal((n, n))
    m = a @ a.T / n + np.eye(n)
    return scale**2 * m


def random_problem(
    rng: np.random.Generator,
    n: int = 3,
    t_len: int = 3,
    beta: float = 1.0,
    gamma: float = 0.95,
    sigma_p_scale: float = 1.5,
    zero_prior_mean: bool = False,
):
    """A feasible random small instance of the planning problem.

    Returns (params, rbar_path, sigma_r, benchmark, prior, cfg) with shapes
    matched to n assets (bond included) and t_len periods.
    """
    params = RewardParams(
        lam=float(rng.uniform(0.005, 0.05)),
        eta=float(rng.uniform(1.0, 1.05)),
        rho=float(rng.uniform(0.15, 0.85)),
        omega=float(rng.uniform(0.05, 0.5)),
    )
    rbar_path = np.empty((t_len, n))
    rbar_path[:, 0] = 0.005
    rbar_path[:, 1:] = rng.uniform(-0.03, 0.08, size=(t_len, n - 1))
    sigma_r = ReturnCovariance(sigma_r=random_spd(rng, n - 1, scale=0.05))
    benchmark = BenchmarkPath(b=rng.uniform(50.0, 150.0, size=t_len))
    if zero_prior_mean:
        u_bar = np.zeros(n)
        v_bar = np.zeros((n, n))
    else:
        u_bar = rng.normal(0.0, 2.0, size=n)
        v_bar = 0.05 * rng.standard_normal((n, n))
    prior = PolicyPrior(
        u_bar=u_bar, v_bar=v_bar, sigma_p=random_spd(rng, n, scale=sigma_p_scale)
    )
    cfg = SolverConfig(beta=beta, gamma=gamma)
    return params, rbar_path, sigma_r, benchmark, prior, cfg


def batch(trajs) -> Trajectories:
    """The batch of a list of single-path trajectories, stacked path by path."""
    return Trajectories(x=np.stack([t.x for t in trajs]), u=np.stack([t.u for t in trajs]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
