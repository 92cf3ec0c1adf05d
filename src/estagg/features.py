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
    """Map each event's variable to its deviation from the event mean,
    over the last axis; any leading axes index events or variables.

    normalized: (v - mean) / mean, with all-zero output when the mean is 0
    (keeps the design matrix at fixed width). centered: v - mean.
    """
    m = values.mean(axis=-1, keepdims=True)
    if scaling == "centered":
        return values - m
    return np.divide(values - m, m, out=np.zeros_like(values), where=m != 0.0)


def normalize_event(
    feature_matrix: np.ndarray,
    aae: np.ndarray,
    scaling: str = "normalized",
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize (..., n, 6) feature matrices and their (..., n) dependent
    vectors, each event over its n analysts.

    The six features and the dependent vector are stacked as (..., 7, n)
    so every mean reduces a contiguous innermost axis; the returned design
    matrices are C-contiguous.
    """
    F = np.asarray(feature_matrix, dtype=float)
    stack = np.empty(F.shape[:-2] + (F.shape[-1] + 1, F.shape[-2]))
    stack[..., :-1, :] = np.swapaxes(F, -1, -2)
    stack[..., -1, :] = aae
    stack = normalize(stack, scaling)
    return np.ascontiguousarray(np.swapaxes(stack[..., :-1, :], -1, -2)), stack[..., -1, :]
