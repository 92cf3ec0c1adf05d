"""Forecaster attributes and per-event normalization.

Six attributes are computed per prediction: forecast age in days,
submission frequency, number of firms covered, top-decile-institution
flag, experience with the firm, and mean past absolute error. Each event's
variables (including the dependent absolute error) are normalized to the
all-analyst event average: (v - mean) / mean.
"""

from __future__ import annotations

import numpy as np

FEATURE_NAMES = ("age", "freq", "ncos", "top10", "exp", "mae")
SCALINGS = ("normalized", "centered")


def top10_brokers(period: np.ndarray, census: np.ndarray) -> np.ndarray:
    """For each (period, broker) entry, whether the broker is in its
    period's top decile by analyst count `census`: of a period's n brokers,
    those whose count reaches the ceil(0.1 * n)-th largest, so ties at the
    cutoff are included."""
    order = np.lexsort((-census, period))  # each period's entries, largest count first
    period, census = period[order], census[order]
    starts = np.flatnonzero(np.diff(period, prepend=period[:1] - 1))
    sizes = np.diff(np.append(starts, len(period)))
    threshold = census[starts + np.ceil(0.1 * sizes).astype(np.int64) - 1]
    flags = np.empty(len(order), bool)
    flags[order] = census >= np.repeat(threshold, sizes)
    return flags


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


def normalize_event(mae: np.ndarray, aae: np.ndarray, scaling: str = "normalized") -> tuple[np.ndarray, np.ndarray]:
    """Normalize (..., n) past errors and dependent values, each event over
    its n analysts, as one (..., 2, n) stack whose means reduce its
    contiguous innermost axis."""
    stack = normalize(np.stack([mae, aae], axis=-2), scaling)
    return stack[..., 0, :], stack[..., 1, :]
