import numpy as np
import pytest

from estagg.model import FULL_MASK, fit_period, mask_without
from oracles import predict_daae

RNG = np.random.default_rng(1234)
Q = (2012, 1)


def centered_design(n, k=6, rng=RNG):
    X = rng.normal(size=(n, k))
    return X - X.mean(axis=0)


class TestFitPeriod:
    def test_exact_single_variable_fit(self):
        n = 40
        X = np.zeros((n, 6))
        X[:, 0] = np.linspace(-1, 1, n)
        y = 0.3 * X[:, 0]
        m = fit_period(X, y, Q)
        assert np.allclose(m.beta, [0.3, 0, 0, 0, 0, 0], atol=1e-9)
        assert m.rss < 1e-18
        assert m.n_obs == n

    def test_matches_least_squares_oracle(self):
        X = centered_design(200)
        beta_true = RNG.normal(size=6)
        y = X @ beta_true + 0.1 * RNG.normal(size=200)
        m = fit_period(X, y, Q)
        oracle, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.max(np.abs(m.beta - oracle)) < 1e-8

    def test_duplicated_column_fitted_values_match_min_norm(self):
        # rank-deficient design: betas are not unique but fitted values are
        X = centered_design(100)
        X[:, 4] = X[:, 5]
        y = X @ np.array([1.0, 0, 0, 0, 0.5, 0.5]) + 0.05 * RNG.normal(size=100)
        m = fit_period(X, y, Q)
        oracle, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.allclose(X @ m.beta, X @ oracle, atol=1e-6)

    def test_residual_orthogonality(self):
        X = centered_design(150)
        y = RNG.normal(size=150)
        m = fit_period(X, y, Q)
        resid = y - X @ m.beta
        assert np.linalg.norm(X.T @ resid) < 1e-8 * max(np.linalg.norm(X.T @ y), 1.0)

    def test_mask_zeroes_coefficients(self):
        X = centered_design(80)
        y = RNG.normal(size=80)
        mask = mask_without("age", "mae")
        m = fit_period(X, y, Q, mask)
        assert m.beta[0] == 0.0 and m.beta[5] == 0.0
        # masked fit equals a fit on the reduced design
        reduced, *_ = np.linalg.lstsq(X[:, 1:5], y, rcond=None)
        assert np.allclose(m.beta[1:5], reduced, atol=1e-8)

    def test_too_few_rows_returns_none(self):
        X = centered_design(5)
        y = np.zeros(5)
        assert fit_period(X, y, Q) is None
        assert fit_period(X, y, Q, mask_without("age", "freq")) is not None

    def test_masking_all_variables_rejected(self):
        with pytest.raises(ValueError):
            mask_without("age", "freq", "ncos", "top10", "exp", "mae")

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            mask_without("nind")


class TestPredict:
    def test_zero_betas(self):
        m = fit_period(np.zeros((10, 6)), np.zeros(10), Q, mask_without("age"))
        # degenerate fit: betas are all ~0
        for _ in range(5):
            assert abs(predict_daae(m, RNG.normal(size=6))) < 1e-9

    def test_single_coefficient(self):
        X = np.zeros((12, 6))
        X[:, 0] = np.linspace(-1, 1, 12)
        m = fit_period(X, X[:, 0], Q)
        x = np.zeros(6)
        x[0] = -0.5
        assert abs(predict_daae(m, x) - (-0.5)) < 1e-9

    def test_dot_product_against_scalar_loop(self):
        X = centered_design(60)
        y = RNG.normal(size=60)
        m = fit_period(X, y, Q)
        for _ in range(10):
            x = RNG.normal(size=6)
            naive = 0.0
            for k in range(6):
                naive += m.beta[k] * x[k]
            assert abs(predict_daae(m, x) - naive) < 1e-15 * max(abs(naive), 1.0)

    def test_masked_zero_column_leaves_predictions_unchanged(self):
        X = centered_design(100)
        X[:, 3] = 0.0  # identically zero regressor
        y = RNG.normal(size=100)
        m_full = fit_period(X, y, Q, FULL_MASK)
        m_masked = fit_period(X, y, Q, mask_without("top10"))
        for _ in range(10):
            x = RNG.normal(size=6)
            x[3] = 0.0
            assert abs(predict_daae(m_full, x) - predict_daae(m_masked, x)) < 1e-9
