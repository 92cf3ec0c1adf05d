import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_fits_match_per_quarter_oracle
from estagg.aggregate import default_mode_matrix
from estagg.model import FULL_MASK, fit_period, mask_without, quarter_grams
from oracles import predict_daae

RNG = np.random.default_rng(1234)
Q = (2012, 1)


def fit_one(X, y, quarter, mask=FULL_MASK):
    """The model of one quarter holding every row of X and y, or None."""
    (model,) = fit_period(X, y, [0, len(X)], [quarter], quarter_grams(X, [0, len(X)]), mask)
    return model


def centered_design(n, k=6, rng=RNG):
    X = rng.normal(size=(n, k))
    return X - X.mean(axis=0)


class TestFitPeriod:
    def test_exact_single_variable_fit(self):
        n = 40
        X = np.zeros((n, 6))
        X[:, 0] = np.linspace(-1, 1, n)
        y = 0.3 * X[:, 0]
        m = fit_one(X, y, Q)
        assert np.allclose(m.beta, [0.3, 0, 0, 0, 0, 0], atol=1e-9)
        assert m.rss < 1e-18
        assert m.n_obs == n

    def test_matches_least_squares_oracle(self):
        X = centered_design(200)
        beta_true = RNG.normal(size=6)
        y = X @ beta_true + 0.1 * RNG.normal(size=200)
        m = fit_one(X, y, Q)
        oracle, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.max(np.abs(m.beta - oracle)) < 1e-8

    def test_duplicated_column_fitted_values_match_min_norm(self):
        # rank-deficient design: betas are not unique but fitted values are
        X = centered_design(100)
        X[:, 4] = X[:, 5]
        y = X @ np.array([1.0, 0, 0, 0, 0.5, 0.5]) + 0.05 * RNG.normal(size=100)
        m = fit_one(X, y, Q)
        oracle, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.allclose(X @ m.beta, X @ oracle, atol=1e-6)

    def test_residual_orthogonality(self):
        X = centered_design(150)
        y = RNG.normal(size=150)
        m = fit_one(X, y, Q)
        resid = y - X @ m.beta
        assert np.linalg.norm(X.T @ resid) < 1e-8 * max(np.linalg.norm(X.T @ y), 1.0)

    def test_mask_zeroes_coefficients(self):
        X = centered_design(80)
        y = RNG.normal(size=80)
        mask = mask_without("age", "mae")
        m = fit_one(X, y, Q, mask)
        assert m.beta[0] == 0.0 and m.beta[5] == 0.0
        # masked fit equals a fit on the reduced design
        reduced, *_ = np.linalg.lstsq(X[:, 1:5], y, rcond=None)
        assert np.allclose(m.beta[1:5], reduced, atol=1e-8)

    def test_too_few_rows_returns_none(self):
        X = centered_design(5)
        y = np.zeros(5)
        assert fit_one(X, y, Q) is None
        assert fit_one(X, y, Q, mask_without("age", "freq")) is not None

    def test_masking_all_variables_rejected(self):
        with pytest.raises(ValueError):
            mask_without("age", "freq", "ncos", "top10", "exp", "mae")

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            mask_without("nind")


class TestPredict:
    def test_zero_betas(self):
        m = fit_one(np.zeros((10, 6)), np.zeros(10), Q, mask_without("age"))
        # degenerate fit: betas are all ~0
        for _ in range(5):
            assert abs(predict_daae(m, RNG.normal(size=6))) < 1e-9

    def test_single_coefficient(self):
        X = np.zeros((12, 6))
        X[:, 0] = np.linspace(-1, 1, 12)
        m = fit_one(X, X[:, 0], Q)
        x = np.zeros(6)
        x[0] = -0.5
        assert abs(predict_daae(m, x) - (-0.5)) < 1e-9

    def test_dot_product_against_scalar_loop(self):
        X = centered_design(60)
        y = RNG.normal(size=60)
        m = fit_one(X, y, Q)
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
        m_full = fit_one(X, y, Q, FULL_MASK)
        m_masked = fit_one(X, y, Q, mask_without("top10"))
        for _ in range(10):
            x = RNG.normal(size=6)
            x[3] = 0.0
            assert abs(predict_daae(m_full, x) - predict_daae(m_masked, x)) < 1e-9


MASKS = sorted({m.variable_mask for m in default_mode_matrix()})

class TestBatchedFits:
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
        zero_column=st.sampled_from([None, 0, 3, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_mask_matches_per_quarter_oracle(self, sizes, seed, zero_column):
        # quarters of 1-5 rows have fewer rows than some masks' active variables
        rng = np.random.default_rng(seed)
        edges = np.cumsum([0] + sizes).tolist()
        X, y = rng.normal(size=(edges[-1], 6)), rng.normal(size=edges[-1])
        if zero_column is not None:
            X[:, zero_column] = 0.0
        for mask in MASKS:
            assert_fits_match_per_quarter_oracle(X, y, edges, mask)

    def test_short_quarter_is_skipped(self):
        X, y = centered_design(17), RNG.normal(size=17)
        edges = [0, 6, 11, 17]  # 6, 5 and 6 rows
        got = fit_period(X, y, edges, [Q, Q, Q], quarter_grams(X, edges), FULL_MASK)
        assert [m is None for m in got] == [False, True, False]
        five = fit_period(X, y, edges, [Q, Q, Q], quarter_grams(X, edges), mask_without("age"))
        assert all(m is not None for m in five)
