"""Slow, obvious reference implementations the tests check the pipeline
against. None of them is used by the pipeline itself."""

import numpy as np

from estagg.aggregate import _MARGIN_TOL


def weight(predicted_daae: float, event_mean_daae: float, r: float) -> float:
    """Scalar form of aggregate.weight_vector: zero at or above the event
    average predicted error, else a power of the margin below it."""
    margin = event_mean_daae - predicted_daae
    if margin <= _MARGIN_TOL * max(1.0, abs(event_mean_daae)):
        return 0.0
    return margin**r


def predict_daae(model, x) -> float:
    """Predicted normalized error: dot of the model's betas with one row."""
    return float(np.dot(model.beta, np.asarray(x, dtype=float)))


def closest_analyst(event, bias_lookup=None) -> float:
    """Smallest absolute individual error for one event; predictions are
    bias-adjusted when a lookup is supplied."""
    best = None
    for est in event.estimates:
        value = est.value_cents - (bias_lookup(est.identity, event.firm_id) if bias_lookup else 0.0)
        err = abs(value - event.actual_cents)
        best = err if best is None else min(best, err)
    if best is None:
        raise ValueError("event has no estimates")
    return best
