"""Simulator tests: deterministic limits, reproducibility, residual moments."""

import numpy as np
import pytest

from gwealth.errors import EstimationError, ParameterError
from gwealth.market import (
    MarketSpec,
    ReturnCovariance,
    mean_expected_returns,
    residual_covariance,
    simulate,
)

from oracles import simulate_loop


def reference_spec(**overrides):
    base = dict(
        n_risky=99, r_f=0.02, mu_m=0.05, sigma_m=0.25, sigma_i=0.05,
        dt=0.25, oracle_c=0.2, n_paths=1000, horizon=30, seed=11,
    )
    base.update(overrides)
    return MarketSpec(**base)


class TestValidation:
    def test_oracle_c_out_of_range(self):
        with pytest.raises(ParameterError):
            simulate(reference_spec(oracle_c=1.5))

    def test_negative_volatility(self):
        with pytest.raises(ParameterError):
            simulate(reference_spec(sigma_m=-0.1))

    def test_beta_range_must_keep_loading_real(self):
        with pytest.raises(ParameterError):
            simulate(reference_spec(beta_range=(0.5, 1.2)))

    def test_non_positive_dt(self):
        with pytest.raises(ParameterError):
            simulate(reference_spec(dt=0.0))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_philox_key_range(self, seed):
        # used to end in numpy's OverflowError while keying the asset stream
        with pytest.raises(ParameterError, match="seed"):
            reference_spec(seed=seed).validate()
        reference_spec(seed=2**64 - 1).validate()


class TestSimulate:
    def test_all_noise_off_realized_equals_expected(self):
        spec = reference_spec(sigma_m=0.0, sigma_i=0.0, n_risky=5, n_paths=20, horizon=4)
        paths = simulate(spec)
        assert np.array_equal(paths.expected, paths.realized)
        flat = spec.mu_m * spec.dt
        target = paths.alpha + paths.beta * flat
        assert np.allclose(paths.expected, target[None, None, :], rtol=1e-14)

    def test_oracle_one_zero_beta_single_asset(self):
        spec = reference_spec(
            n_risky=1, oracle_c=1.0, sigma_i=0.0, beta_range=(0.0, 0.0),
            n_paths=10, horizon=6,
        )
        paths = simulate(spec)
        assert np.array_equal(paths.expected, paths.realized)
        assert np.allclose(paths.expected, paths.alpha[0], rtol=1e-14)

    def test_same_seed_bit_identical(self):
        a = simulate(reference_spec(n_paths=50, horizon=5))
        b = simulate(reference_spec(n_paths=50, horizon=5))
        assert np.array_equal(a.expected, b.expected)
        assert np.array_equal(a.realized, b.realized)
        assert np.array_equal(a.market, b.market)

    def test_different_seed_differs(self):
        a = simulate(reference_spec(n_paths=50, horizon=5))
        b = simulate(reference_spec(n_paths=50, horizon=5, seed=12))
        assert not np.array_equal(a.realized, b.realized)

    def test_shapes(self):
        spec = reference_spec(n_paths=17, horizon=3, n_risky=7)
        paths = simulate(spec)
        assert paths.expected.shape == (17, 3, 7)
        assert paths.realized.shape == (17, 3, 7)
        assert paths.market.shape == (17, 3)

    def test_residual_mean_near_zero(self):
        paths = simulate(reference_spec())
        # residuals share the market factor within a period, so the i.i.d.
        # unit is the cross-asset average per (path, period)
        avg = (paths.realized - paths.expected).mean(axis=2).ravel()
        stderr = avg.std(ddof=1) / np.sqrt(avg.size)
        assert abs(avg.mean()) < 3.0 * stderr

    def test_expected_vs_realized_sample_means_positively_correlated(self):
        # per-asset sample means across paths/periods: the alpha model must
        # carry (weak) signal about realized returns
        paths = simulate(reference_spec())
        mean_exp = paths.expected.mean(axis=(0, 1))
        mean_real = paths.realized.mean(axis=(0, 1))
        corr = np.corrcoef(mean_exp, mean_real)[0, 1]
        assert corr > 0.0

    def test_alpha_converted_to_period_scale(self):
        # alpha_range is annualized like mu_m and r_f; the recorded alpha is
        # the per-period value that enters the expected-return panel
        small = dict(n_risky=20, n_paths=2, horizon=2)
        annual = simulate(reference_spec(dt=1.0, **small)).alpha
        spec = reference_spec(dt=0.25, **small)
        quarterly = simulate(spec).alpha
        assert np.array_equal(quarterly, 0.25 * annual)
        lo, hi = spec.alpha_range
        assert (quarterly >= spec.dt * lo).all() and (quarterly <= spec.dt * hi).all()

    def test_exact_gbm_market_increments(self):
        spec = reference_spec(n_paths=5, horizon=4, exact_gbm=True)
        paths = simulate(spec)
        assert (paths.market > -1.0).all()

    @pytest.mark.parametrize("exact_gbm", [False, True])
    def test_matches_per_path_loop(self, exact_gbm):
        spec = reference_spec(n_risky=7, n_paths=30, horizon=6, exact_gbm=exact_gbm)
        got, want = simulate(spec), simulate_loop(spec)
        assert np.array_equal(got.alpha, want.alpha) and np.array_equal(got.beta, want.beta)
        for name in ("expected", "realized", "market"):
            g, w = getattr(got, name), getattr(want, name)
            assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max(), name

    @pytest.mark.parametrize("exact_gbm", [False, True])
    def test_first_paths_equal_a_shorter_run(self, exact_gbm):
        # path p's numbers are the p-th block of each panel's stream
        many = simulate(reference_spec(n_risky=6, n_paths=57, horizon=5, exact_gbm=exact_gbm))
        few = simulate(reference_spec(n_risky=6, n_paths=9, horizon=5, exact_gbm=exact_gbm))
        for name in ("expected", "realized", "market"):
            assert np.array_equal(getattr(many, name)[:9], getattr(few, name)), name

    @pytest.mark.parametrize("n_paths", [5, 500])
    def test_one_stream_per_panel(self, monkeypatch, n_paths):
        # the asset draws, the market noise and the idiosyncratic noise: three
        # counter-based streams whatever the number of paths
        keys = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            keys.append(tuple(kwargs["key"].tolist()))
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        simulate(reference_spec(n_risky=4, n_paths=n_paths, horizon=3))
        assert keys == [(11, 0), (11, 1), (11, 2)]

    def test_mean_expected_returns_shape(self):
        spec = reference_spec(n_paths=13, horizon=4, n_risky=6)
        paths = simulate(spec)
        assert mean_expected_returns(paths).shape == (4, 6)


class TestResidualCovariance:
    def test_zero_noise_gives_zero_matrix(self):
        spec = reference_spec(sigma_m=0.0, sigma_i=0.0, n_risky=3, n_paths=50, horizon=4)
        cov_raw = np.cov(
            (simulate(spec).realized - simulate(spec).expected).reshape(-1, 3),
            rowvar=False,
        )
        assert np.abs(cov_raw).max() < 1e-12

    def test_single_asset_idiosyncratic_variance(self):
        spec = reference_spec(
            n_risky=1, beta_range=(0.0, 0.0), sigma_i=0.05, dt=0.25,
            n_paths=3000, horizon=10,
        )
        cov = residual_covariance(simulate(spec))
        # analytic variance of the residual recipe: sigma_i^2 * dt
        assert cov.sigma_r[0, 0] == pytest.approx(6.25e-4, rel=0.05)

    def test_two_asset_factor_off_diagonal(self):
        spec = reference_spec(n_risky=2, n_paths=10000, horizon=3, sigma_i=0.02)
        paths = simulate(spec)
        cov = residual_covariance(paths)
        analytic = paths.beta[0] * paths.beta[1] * spec.sigma_m**2 * spec.dt
        assert cov.sigma_r[0, 1] == pytest.approx(analytic, rel=0.10)

    def test_too_few_samples(self):
        spec = reference_spec(n_risky=50, n_paths=20, horizon=4)
        with pytest.raises(EstimationError):
            residual_covariance(simulate(spec))

    def test_reference_covariance_is_spd(self):
        cov = residual_covariance(simulate(reference_spec()))
        s = cov.sigma_r
        assert s.shape == (99, 99)
        assert np.allclose(s, s.T, atol=1e-12, rtol=0.0)
        assert np.linalg.eigvalsh(s)[0] > 0.0

    def test_covariance_type_rejects_asymmetric(self):
        bad = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(ParameterError):
            ReturnCovariance(sigma_r=bad)
