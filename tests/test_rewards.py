"""Reward-assembly tests against independent closed-form and MC oracles."""

import dataclasses

import numpy as np
import pytest

from gwealth.errors import ParameterError, ShapeError
from gwealth.market import ReturnCovariance
from gwealth.rewards import (
    BenchmarkPath,
    RewardParams,
    build_coeffs,
    exponential_benchmark,
    reward_basis,
    reward_value,
    target_portfolio,
)

from conftest import random_spd
from oracles import expected_reward, mc_reward, pad


def random_reward_inputs(rng, n=4):
    params = RewardParams(
        lam=float(rng.uniform(0.005, 0.05)),
        eta=float(rng.uniform(1.0, 1.05)),
        rho=float(rng.uniform(0.1, 0.9)),
        omega=random_spd(rng, n, scale=0.3),
    )
    rbar = np.concatenate([[0.005], rng.uniform(-0.03, 0.08, size=n - 1)])
    sigma_r = ReturnCovariance(sigma_r=random_spd(rng, n - 1, scale=0.05))
    b_t = float(rng.uniform(50.0, 200.0))
    return params, rbar, sigma_r, b_t


def reward_tangents(params, rbar, sigma_r, b_t):
    """The reward's derivatives at a one-period market."""
    return reward_basis(rbar[None], sigma_r, BenchmarkPath(b=np.array([b_t]))).tangents(params)(0)


class TestTargetPortfolio:
    def test_portfolio_independent_limit(self):
        params = RewardParams(lam=0.001, eta=1.01, rho=0.0, omega=0.15)
        assert target_portfolio(params, 1000.0, np.full(100, 3.7)) == 1000.0

    def test_benchmark_free_limit(self):
        params = RewardParams(lam=0.001, eta=1.01, rho=1.0, omega=0.15)
        x = np.full(100, 10.0)
        assert target_portfolio(params, 1000.0, x) == pytest.approx(1010.0, rel=1e-14)

    def test_mixture(self):
        params = RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15)
        x = np.full(4, 250.0)
        # 0.6 * 1000 + 0.4 * 1.01 * 1000
        assert target_portfolio(params, 1000.0, x) == pytest.approx(1004.0, rel=1e-14)


class TestBuildCoeffs:
    def test_vanishing_shortfall_weight(self, rng):
        n = 5
        omega = random_spd(rng, n, scale=0.3)
        params = RewardParams(lam=1e-12, eta=1.01, rho=0.4, omega=omega)
        rbar = np.concatenate([[0.005], rng.uniform(-0.02, 0.06, size=n - 1)])
        sigma_r = ReturnCovariance(sigma_r=random_spd(rng, n - 1, scale=0.05))
        rc = build_coeffs(params, rbar, sigma_r, b_t=100.0)
        assert np.abs(rc.r_xx).max() < 1e-8
        assert np.abs(rc.r_ux).max() < 1e-8
        assert np.abs(rc.r_uu + omega).max() < 1e-8
        assert np.abs(rc.r_x).max() < 1e-8
        assert np.abs(rc.r_u + 1.0).max() < 1e-8
        assert abs(rc.r_0) < 1e-8

    def test_quadratic_form_matches_closed_form_oracle(self, rng):
        for _ in range(25):
            params, rbar, sigma_r, b_t = random_reward_inputs(rng)
            rc = build_coeffs(params, rbar, sigma_r, b_t)
            x = rng.normal(0.0, 50.0, size=4)
            u = rng.normal(0.0, 20.0, size=4)
            got = reward_value(rc, x, u)
            want = expected_reward(
                params.lam, params.eta, params.rho, params.omega_matrix(4),
                rbar, pad(sigma_r.sigma_r), b_t, x, u,
            )
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_reference_parameters_concave(self, rng):
        params = RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15)
        n = 100
        rbar = np.concatenate([[0.005], rng.uniform(-0.02, 0.1, size=n - 1)])
        sigma_r = ReturnCovariance(sigma_r=random_spd(rng, n - 1, scale=0.05))
        rc = build_coeffs(params, rbar, sigma_r, b_t=1000.0)
        for m in (rc.r_xx, rc.r_ux, rc.r_uu, rc.r_x, rc.r_u):
            assert np.isfinite(m).all()
        assert np.linalg.eigvalsh(rc.r_uu)[-1] < 0.0

    def test_dimension_mismatch(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        with pytest.raises(ShapeError):
            build_coeffs(params, rbar[:-1], sigma_r, b_t)


class TestRewardValue:
    def test_zero_trade_vanishing_lambda(self, rng):
        n = 4
        params = RewardParams(lam=1e-14, eta=1.01, rho=0.3, omega=0.2)
        rbar = np.concatenate([[0.005], rng.uniform(0.0, 0.05, size=n - 1)])
        sigma_r = ReturnCovariance(sigma_r=random_spd(rng, n - 1, scale=0.05))
        rc = build_coeffs(params, rbar, sigma_r, b_t=100.0)
        assert abs(reward_value(rc, rng.normal(size=n), np.zeros(n))) < 1e-8

    def test_constant_term_only(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rc = build_coeffs(params, rbar, sigma_r, b_t)
        val = reward_value(rc, np.zeros(4), np.zeros(4))
        assert val == pytest.approx(-((1.0 - params.rho) ** 2) * params.lam * b_t**2, rel=1e-12)

    def test_monte_carlo_expectation(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rc = build_coeffs(params, rbar, sigma_r, b_t)
        x = rng.normal(0.0, 30.0, size=4)
        u = rng.normal(0.0, 10.0, size=4)
        got = reward_value(rc, x, u)
        est, se = mc_reward(
            params.lam, params.eta, params.rho, params.omega_matrix(4),
            rbar, pad(sigma_r.sigma_r), b_t, x, u,
            n_draws=1_000_000, rng=rng,
        )
        assert abs(got - est) < 3.0 * se

    def test_shape_mismatch(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rc = build_coeffs(params, rbar, sigma_r, b_t)
        with pytest.raises(ShapeError):
            reward_value(rc, np.zeros(3), np.zeros(4))


class TestInvariantsAndProperties:
    def test_concavity_in_trades(self, rng):
        for _ in range(10):
            params, rbar, sigma_r, b_t = random_reward_inputs(rng)
            rc = build_coeffs(params, rbar, sigma_r, b_t)
            sym = 0.5 * (rc.r_uu + rc.r_uu.T)
            assert np.linalg.eigvalsh(sym)[-1] < 0.0

    def test_installment_term_is_cash(self, rng):
        # the linear -1'u piece equals minus the cash installment c = sum(u)
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rc = build_coeffs(params, rbar, sigma_r, b_t)
        x = rng.normal(0.0, 40.0, size=4)
        u = rng.normal(0.0, 15.0, size=4)
        cashless = expected_reward(
            params.lam, params.eta, params.rho, params.omega_matrix(4),
            rbar, pad(sigma_r.sigma_r), b_t, x, u,
        ) + np.sum(u)
        assert reward_value(rc, x, u) - cashless == pytest.approx(-np.sum(u), rel=1e-9)

    def test_symmetrized_on_construction(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rc = build_coeffs(params, rbar, sigma_r, b_t)
        assert np.array_equal(rc.sigma_hat, rc.sigma_hat.T)
        assert np.array_equal(rc.r_xx, rc.r_xx.T)
        assert np.array_equal(rc.r_uu, rc.r_uu.T)

    def test_permutation_equivariance(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        n = 4
        perm_r = np.array([2, 0, 1])  # permutation of the risky assets
        perm = np.concatenate([[0], 1 + perm_r])
        pi = np.eye(n)[perm]

        params_p = RewardParams(
            lam=params.lam, eta=params.eta, rho=params.rho,
            omega=pi @ params.omega_matrix(n) @ pi.T,
        )
        sigma_p = ReturnCovariance(
            sigma_r=sigma_r.sigma_r[np.ix_(perm_r, perm_r)]
        )
        rc = build_coeffs(params, rbar, sigma_r, b_t)
        rc_p = build_coeffs(params_p, rbar[perm], sigma_p, b_t)
        assert np.allclose(rc_p.r_xx, pi @ rc.r_xx @ pi.T, atol=1e-12)
        assert np.allclose(rc_p.r_ux, pi @ rc.r_ux @ pi.T, atol=1e-12)
        assert np.allclose(rc_p.r_uu, pi @ rc.r_uu @ pi.T, atol=1e-12)
        assert np.allclose(rc_p.r_x, pi @ rc.r_x, atol=1e-12)
        assert np.allclose(rc_p.r_u, pi @ rc.r_u, atol=1e-12)
        assert rc_p.r_0 == pytest.approx(rc.r_0, rel=1e-14)


class TestRewardTangents:
    FIELDS = ("r_xx", "r_ux", "r_uu", "r_x", "r_u", "r_0")

    def test_match_central_differences(self, rng):
        for _ in range(10):
            params, rbar, sigma_r, b_t = random_reward_inputs(rng)
            params = RewardParams(lam=params.lam, eta=params.eta, rho=params.rho,
                                  omega=float(rng.uniform(0.05, 0.5)))
            tangents = reward_tangents(params, rbar, sigma_r, b_t)
            for i, name in enumerate(("lam", "eta", "rho", "omega")):
                h = 1e-6 * float(getattr(params, name))
                up, down = (
                    build_coeffs(dataclasses.replace(params, **{name: getattr(params, name) + d}),
                                 rbar, sigma_r, b_t)
                    for d in (h, -h)
                )
                for field in self.FIELDS:
                    want = (np.asarray(getattr(up, field)) - getattr(down, field)) / (2.0 * h)
                    got = np.asarray(getattr(tangents, field))[i]
                    scale = max(np.max(np.abs(want)), 1e-12)
                    assert np.max(np.abs(got - want)) <= 1e-7 * scale, (name, field)

    def test_stacked_on_a_leading_axis(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        params = RewardParams(lam=params.lam, eta=params.eta, rho=params.rho, omega=0.2)
        tangents = reward_tangents(params, rbar, sigma_r, b_t)
        assert tangents.r_xx.shape == tangents.r_uu.shape == (4, 4, 4)
        assert tangents.r_u.shape == (4, 4) and tangents.r_0.shape == (4,)
        # only the shortfall weight carries sigma_hat, only omega the identity
        assert np.array_equal(tangents.r_uu[3], -np.eye(4))
        assert np.array_equal(tangents.r_uu[0], -tangents.sigma_hat)

    def test_matrix_omega_rejected(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        with pytest.raises(ParameterError):
            reward_tangents(params, rbar, sigma_r, b_t)


class TestRewardBasis:
    def test_periods_are_views_of_one_basis(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rbar_path = np.stack([rbar, rbar + 0.01, rbar - 0.02])
        bench = BenchmarkPath(b=np.array([b_t, 1.1 * b_t, 1.2 * b_t]))
        basis = reward_basis(rbar_path, sigma_r, bench)
        for t in range(3):
            rc = basis.coeffs(params)(t)
            one = build_coeffs(params, rbar_path[t], sigma_r, float(bench.b[t]))
            for field in ("r_xx", "r_ux", "r_uu", "r_x", "r_u", "r_0", "sigma_hat"):
                assert np.array_equal(getattr(rc, field), getattr(one, field)), (t, field)
            assert np.shares_memory(rc.sigma_hat, basis.sigma_hat)
            assert rc.sigma_r_padded is basis.sigma_r_padded

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_returns_rejected(self, rng, value):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rbar_path = np.stack([rbar, rbar])
        rbar_path[1, 2] = value
        with pytest.raises(ParameterError, match="non-finite"):
            reward_basis(rbar_path, sigma_r, BenchmarkPath(b=np.array([b_t, b_t])))


class TestTypes:
    def test_benchmark_must_be_positive(self):
        with pytest.raises(ParameterError):
            BenchmarkPath(b=np.array([100.0, -1.0]))

    def test_exponential_benchmark_values(self):
        bench = exponential_benchmark(1000.0, 0.5, 4, 0.25)
        assert bench.b[0] == 1000.0
        assert bench.b[3] == pytest.approx(1000.0 * np.exp(0.5 * 3 * 0.25), rel=1e-14)

    def test_bad_rho(self):
        with pytest.raises(ParameterError):
            RewardParams(lam=0.1, eta=1.01, rho=1.2, omega=0.1).validate()

    def test_omega_asymmetric_rejected(self):
        om = np.array([[0.1, 0.05], [0.0, 0.1]])
        with pytest.raises(ParameterError):
            RewardParams(lam=0.1, eta=1.01, rho=0.5, omega=om).validate()
