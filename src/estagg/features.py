"""Forecaster attributes and per-event normalization.

Six attributes are computed per prediction: forecast age in days,
submission frequency, number of firms covered, top-decile-institution
flag, experience with the firm, and mean past absolute error. Each event's
variables (including the dependent absolute error) are normalized to the
all-analyst event average: (v - mean) / mean.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

FEATURE_NAMES = ("age", "freq", "ncos", "top10", "exp", "mae")


def top10_brokers(census: Mapping[str, int]) -> set:
    """Brokers in the top decile by analyst count; ties at the cutoff included."""
    if not census:
        return set()
    cutoff = math.ceil(0.1 * len(census))
    threshold = sorted(census.values(), reverse=True)[cutoff - 1]
    return {b for b, n in census.items() if n >= threshold}


def normalize(values: np.ndarray, scaling: str = "normalized") -> np.ndarray:
    """Map one event's variable to its deviation from the event mean.

    normalized: (v - mean) / mean, with all-zero output when the mean is 0
    (keeps the design matrix at fixed width). centered: v - mean.
    """
    m = values.mean()
    if scaling == "centered":
        return values - m
    if m == 0.0:
        return np.zeros_like(values)
    return (values - m) / m


def normalize_event(
    feature_matrix: np.ndarray,
    aae: np.ndarray,
    scaling: str = "normalized",
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize one event's (n, 6) feature matrix and dependent vector."""
    X = np.column_stack([normalize(feature_matrix[:, k], scaling) for k in range(feature_matrix.shape[1])])
    y = normalize(np.asarray(aae, dtype=float), scaling)
    return X, y
