"""Per-quarter linear model of normalized forecast error.

One model is fit per calendar quarter, pooled across firms, with no
intercept (the dependent variable is zero-mean by construction). The next
quarter's predictions use only this quarter's coefficients, never their
own quarter's outcomes.

A ledger pass computes each quarter's 6x6 Gram matrix once per scaling
(`quarter_grams`). Every variable mask then fits all quarters at once:
its normal matrices are submatrices of those Grams, solved in one batched
`np.linalg.solve`, which gives each quarter the bits of solving it alone.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional, Sequence

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


PeriodModel = namedtuple(
    "PeriodModel",
    [
        "quarter",  # (year, quarter)
        "beta",  # 6 coefficients; masked-out entries exactly 0
        "n_obs",
        "rss",
    ],
)


def quarter_grams(X: np.ndarray, edges: Sequence[int]) -> np.ndarray:
    """Each quarter's Gram matrix X.T @ X over its rows edges[i]:edges[i+1]
    of X, as a (quarters, 6, 6) stack."""
    return np.array([X[start:stop].T @ X[start:stop] for start, stop in zip(edges, edges[1:])])


def fit_period(
    X: np.ndarray,
    y: np.ndarray,
    edges: Sequence[int],
    quarters: Sequence[Quarter],
    grams: np.ndarray,
    mask: Mask = FULL_MASK,
) -> list[Optional[PeriodModel]]:
    """Least-squares fits of each quarter's rows edges[i]:edges[i+1] of X
    and y via ridge-floored normal equations, one model per quarter in
    order, with None for a quarter that has fewer observations than active
    variables; the caller treats it as model-less.

    `grams` are the quarters' `quarter_grams`. A mask's normal matrices
    are their active submatrices, all solved in one batched call; each
    quarter's right-hand side and residual come from its own masked rows.
    """
    active = np.array(mask, dtype=bool)
    k = int(active.sum())
    spans = list(zip(edges, edges[1:]))
    fit = [i for i, (start, stop) in enumerate(spans) if stop - start >= k]
    models: list[Optional[PeriodModel]] = [None] * len(spans)
    if not fit:
        return models
    gram = grams[np.ix_(fit, active, active)] + RIDGE * np.eye(k)
    # the masked rows are taken per quarter, twice, so no more than one quarter's copy is held
    rhs = np.array([X[start:stop][:, active].T @ y[start:stop] for start, stop in (spans[i] for i in fit)])
    for i, beta_a in zip(fit, np.linalg.solve(gram, rhs[..., None])[..., 0]):
        start, stop = spans[i]
        resid = y[start:stop] - X[start:stop][:, active] @ beta_a
        beta = np.zeros(N_VARS)
        beta[active] = beta_a
        models[i] = PeriodModel(quarter=quarters[i], beta=beta, n_obs=stop - start, rss=float(resid @ resid))
    return models
