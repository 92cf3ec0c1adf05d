"""Per-quarter linear model of normalized forecast error.

One model is fit per calendar quarter, pooled across firms, with no
intercept (the dependent variable is zero-mean by construction). The next
quarter's predictions use only this quarter's coefficients, never their
own quarter's outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FEATURE_NAMES
from .periods import Quarter

N_VARS = 6
FULL_MASK = (True,) * N_VARS
# conditioning floor on the normal equations; negligible next to any
# non-degenerate 6x6 Gram matrix at this data scale
RIDGE = 1e-10

Mask = tuple[bool, ...]


def mask_without(*names: str) -> Mask:
    """Variable mask with the named regressors switched off."""
    unknown = set(names) - set(FEATURE_NAMES)
    if unknown:
        raise ValueError(f"unknown variables: {sorted(unknown)}")
    mask = tuple(n not in names for n in FEATURE_NAMES)
    if not any(mask):
        raise ValueError("at least one variable must stay active")
    return mask


@dataclass(frozen=True)
class PeriodModel:
    quarter: Quarter
    beta: np.ndarray  # 6 coefficients; masked-out entries exactly 0
    n_obs: int
    rss: float


def fit_period(X: np.ndarray, y: np.ndarray, quarter: Quarter, mask: Mask = FULL_MASK):
    """Least-squares fit via ridge-floored normal equations.

    Returns None when there are fewer observations than active variables;
    the caller treats that quarter as model-less.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    active = np.array(mask, dtype=bool)
    k = int(active.sum())
    if X.shape[0] < k:
        return None
    Xa = X[:, active]
    gram = Xa.T @ Xa + RIDGE * np.eye(k)
    beta_a = np.linalg.solve(gram, Xa.T @ y)
    beta = np.zeros(N_VARS)
    beta[active] = beta_a
    resid = y - Xa @ beta_a
    return PeriodModel(quarter=quarter, beta=beta, n_obs=X.shape[0], rss=float(resid @ resid))
