"""Reward-assembly tests against independent closed-form and MC oracles."""

import dataclasses

import numpy as np
import pytest

from gwealth.errors import ParameterError, ShapeError
from gwealth.market import ReturnCovariance
from gwealth.rewards import BenchmarkPath, RewardParams, exponential_benchmark, reward_basis

from conftest import random_spd
from oracles import (
    coeffs_of, expected_reward, mc_reward, pad, pullback, quad_value,
    reward_tangents as oracle_tangents, target_portfolio,
)


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


def one_period_basis(rbar, sigma_r, b_t):
    return reward_basis(rbar[None], sigma_r, BenchmarkPath(b=np.array([b_t])))


def one_period_coeffs(params, rbar, sigma_r, b_t):
    """The reward coefficients of a one-period market."""
    return one_period_basis(rbar, sigma_r, b_t).coeffs(params)(0)


def reward_tangents(params, rbar, sigma_r, b_t):
    """The reward's derivatives at a one-period market, one row of the
    weights' Jacobian at a time (the forward-mode oracle's)."""
    return oracle_tangents(one_period_basis(rbar, sigma_r, b_t), params, 0)


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
        rc = one_period_coeffs(params, rbar, sigma_r, b_t=100.0)
        assert np.abs(rc.r_xx).max() < 1e-8
        assert np.abs(rc.r_ux).max() < 1e-8
        assert np.abs(rc.r_uu + omega).max() < 1e-8
        assert np.abs(rc.r_x).max() < 1e-8
        assert np.abs(rc.r_u + 1.0).max() < 1e-8
        assert abs(rc.r_0) < 1e-8

    def test_quadratic_form_matches_closed_form_oracle(self, rng):
        for _ in range(25):
            params, rbar, sigma_r, b_t = random_reward_inputs(rng)
            rc = one_period_coeffs(params, rbar, sigma_r, b_t)
            x = rng.normal(0.0, 50.0, size=4)
            u = rng.normal(0.0, 20.0, size=4)
            got = quad_value(coeffs_of(rc), x, u)
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
        rc = one_period_coeffs(params, rbar, sigma_r, b_t=1000.0)
        for m in (rc.r_xx, rc.r_ux, rc.r_uu, rc.r_x, rc.r_u):
            assert np.isfinite(m).all()
        assert np.linalg.eigvalsh(rc.r_uu)[-1] < 0.0

    def test_dimension_mismatch(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        with pytest.raises(ShapeError):
            one_period_coeffs(params, rbar[:-1], sigma_r, b_t)


class TestRewardValue:
    def test_zero_trade_vanishing_lambda(self, rng):
        n = 4
        params = RewardParams(lam=1e-14, eta=1.01, rho=0.3, omega=0.2)
        rbar = np.concatenate([[0.005], rng.uniform(0.0, 0.05, size=n - 1)])
        sigma_r = ReturnCovariance(sigma_r=random_spd(rng, n - 1, scale=0.05))
        rc = one_period_coeffs(params, rbar, sigma_r, b_t=100.0)
        assert abs(quad_value(coeffs_of(rc), rng.normal(size=n), np.zeros(n))) < 1e-8

    def test_constant_term_only(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rc = one_period_coeffs(params, rbar, sigma_r, b_t)
        val = quad_value(coeffs_of(rc), np.zeros(4), np.zeros(4))
        assert val == pytest.approx(-((1.0 - params.rho) ** 2) * params.lam * b_t**2, rel=1e-12)

    def test_monte_carlo_expectation(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rc = one_period_coeffs(params, rbar, sigma_r, b_t)
        x = rng.normal(0.0, 30.0, size=4)
        u = rng.normal(0.0, 10.0, size=4)
        got = quad_value(coeffs_of(rc), x, u)
        est, se = mc_reward(
            params.lam, params.eta, params.rho, params.omega_matrix(4),
            rbar, pad(sigma_r.sigma_r), b_t, x, u,
            n_draws=1_000_000, rng=rng,
        )
        assert abs(got - est) < 3.0 * se


class TestInvariantsAndProperties:
    def test_concavity_in_trades(self, rng):
        for _ in range(10):
            params, rbar, sigma_r, b_t = random_reward_inputs(rng)
            rc = one_period_coeffs(params, rbar, sigma_r, b_t)
            sym = 0.5 * (rc.r_uu + rc.r_uu.T)
            assert np.linalg.eigvalsh(sym)[-1] < 0.0

    def test_installment_term_is_cash(self, rng):
        # the linear -1'u piece equals minus the cash installment c = sum(u)
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rc = one_period_coeffs(params, rbar, sigma_r, b_t)
        x = rng.normal(0.0, 40.0, size=4)
        u = rng.normal(0.0, 15.0, size=4)
        cashless = expected_reward(
            params.lam, params.eta, params.rho, params.omega_matrix(4),
            rbar, pad(sigma_r.sigma_r), b_t, x, u,
        ) + np.sum(u)
        assert quad_value(coeffs_of(rc), x, u) - cashless == pytest.approx(-np.sum(u), rel=1e-9)

    def test_symmetrized_on_construction(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rc = one_period_coeffs(params, rbar, sigma_r, b_t)
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
        rc = one_period_coeffs(params, rbar, sigma_r, b_t)
        rc_p = one_period_coeffs(params_p, rbar[perm], sigma_p, b_t)
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
                    one_period_coeffs(
                        dataclasses.replace(params, **{name: getattr(params, name) + d}),
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
        # the Jacobian in omega assumes the cost matrix omega * I
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        with pytest.raises(ParameterError, match="scalar omega"):
            one_period_basis(rbar, sigma_r, b_t).tangents(params)

    def test_basis_tangents_are_the_rows_stacked(self, rng):
        # one broadcast assembly of the Jacobian equals the oracle's
        # assembly of one row at a time
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        params = RewardParams(lam=params.lam, eta=params.eta, rho=params.rho, omega=0.3)
        basis = reward_basis(np.stack([rbar, rbar + 0.01]), sigma_r,
                             BenchmarkPath(b=np.array([b_t, 1.1 * b_t])))
        tangents = basis.tangents(params)
        for t in range(2):
            got, want = tangents(t), oracle_tangents(basis, params, t)
            for field in self.FIELDS:
                assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_pullback_is_the_transpose_of_the_tangents(self, rng):
        # sum_t <a_t, dr_t / dtheta_k> for random adjoints: the adjoint
        # oracle's pullback against the basis' tangents contracted directly
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        params = RewardParams(lam=params.lam, eta=params.eta, rho=params.rho, omega=0.3)
        basis = reward_basis(np.stack([rbar, rbar + 0.01]), sigma_r,
                             BenchmarkPath(b=np.array([b_t, 1.1 * b_t])))
        n = basis.n_assets
        adjoints = [(t, (rng.normal(size=(n, n)), rng.normal(size=(n, n)),
                         rng.normal(size=(n, n)), rng.normal(size=n), rng.normal(size=n),
                         float(rng.normal()))) for t in range(2)]
        want = np.zeros(4)
        for t, adj in adjoints:
            dr = basis.tangents(params)(t)
            for a, field in zip(adj, self.FIELDS):
                want += np.asarray(getattr(dr, field)).reshape(4, -1) @ np.ravel(a)
        got = pullback(basis, params, adjoints)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestRewardBasis:
    def test_periods_are_views_of_one_basis(self, rng):
        params, rbar, sigma_r, b_t = random_reward_inputs(rng)
        rbar_path = np.stack([rbar, rbar + 0.01, rbar - 0.02])
        bench = BenchmarkPath(b=np.array([b_t, 1.1 * b_t, 1.2 * b_t]))
        basis = reward_basis(rbar_path, sigma_r, bench)
        for t in range(3):
            rc = basis.coeffs(params)(t)
            one = one_period_coeffs(params, rbar_path[t], sigma_r, float(bench.b[t]))
            for field in ("r_xx", "r_ux", "r_uu", "r_x", "r_u", "r_0", "sigma_hat"):
                assert np.array_equal(getattr(rc, field), getattr(one, field)), (t, field)
            assert np.shares_memory(rc.sigma_hat, basis.sigma_hat)

    def test_every_coefficient_but_r_0_stays_in_the_float_range(self, rng):
        # lam 1e300 on a benchmark of 1e5 overflows only r_0 = -lam (1 - rho)^2 b^2,
        # which no solve reads: no error and no warning; at 1e20 the rest overflow too
        _, rbar, sigma_r, _ = random_reward_inputs(rng)
        params = RewardParams(lam=1e300, eta=1.01, rho=0.4, omega=0.15)
        rc = one_period_basis(rbar, sigma_r, 1e5).coeffs(params)(0)
        assert rc.r_0 == -np.inf
        for field in ("r_xx", "r_ux", "r_uu", "r_x", "r_u"):
            assert np.isfinite(getattr(rc, field)).all(), field
        basis = one_period_basis(rbar, sigma_r, 1e20)
        for build in (basis.coeffs, basis.tangents):
            with pytest.raises(ParameterError, match=r"lam=1e\+300, .* largest benchmark "
                                                     r"value of 1e\+20 leave the float range"):
                build(params)

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

    def test_benchmark_square_must_be_finite(self):
        # the largest float whose square is finite passes, the next one up does not
        edge = np.sqrt(np.finfo(float).max)
        assert np.isfinite(BenchmarkPath(b=np.array([edge])).b[0] ** 2)
        for value in (np.nextafter(edge, np.inf), np.inf):
            with pytest.raises(ParameterError, match="benchmark"):
                BenchmarkPath(b=np.array([100.0, value]))

    def test_exponential_benchmark_values(self):
        bench = exponential_benchmark(1000.0, 0.5, 4, 0.25)
        assert bench.b[0] == 1000.0
        assert bench.b[3] == pytest.approx(1000.0 * np.exp(0.5 * 3 * 0.25), rel=1e-14)

    def test_bad_rho(self):
        with pytest.raises(ParameterError):
            RewardParams(lam=0.1, eta=1.01, rho=1.2, omega=0.1).validate()

    def test_omega_non_finite_matrix_rejected(self):
        # rejected before numpy's eigenvalue check, which does not converge on it
        om = np.full((4, 4), np.inf)
        with pytest.raises(ParameterError, match="non-finite"):
            RewardParams(lam=0.1, eta=1.01, rho=0.5, omega=om).validate(4)

    def test_omega_asymmetric_rejected(self):
        om = np.array([[0.1, 0.05], [0.0, 0.1]])
        with pytest.raises(ParameterError):
            RewardParams(lam=0.1, eta=1.01, rho=0.5, omega=om).validate()
