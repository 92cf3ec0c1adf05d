"""Weighting and consensus construction, plus the ablation mode table.

A mode bundles every switch the sensitivity analysis varies: bias on/off
and its key granularity, expertise weighting on/off, the regressor mask,
scaling style, identity (analyst vs institution), the weight exponent, and
the recency cutoff. The hindsight closest-forecaster benchmark is a mode
with method="closest".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import FULL_MASK, Mask, mask_without
from .periods import Quarter

BIAS_KEYS = ("identity_firm", "identity", "firm", "global", "half")


@dataclass(frozen=True)
class ModeConfig:
    label: str = "full"
    use_bias: bool = True
    bias_key: str = "identity_firm"
    use_expertise: bool = True
    variable_mask: Mask = FULL_MASK
    scaling: str = "normalized"  # "normalized" | "centered"
    identity: str = "analyst"  # "analyst" | "broker"
    exponent: float = 1.2
    min_lead_hours: int = 48
    method: str = "weighted"  # "weighted" | "closest"

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")
        if self.min_lead_hours < 48:
            raise ValueError("recency cutoff below 48 hours")
        if self.bias_key not in BIAS_KEYS:
            raise ValueError(f"unknown bias key {self.bias_key!r}")


@dataclass
class EventAggregate:
    firm_id: str
    period: Quarter
    announce_ts: int
    quarter_offset: int  # announce quarter, relative to the panel start
    actual_cents: int
    simple_consensus: float
    improved: float
    weights: np.ndarray  # aligned with the event's identities, panel.idents[event.rows]
    n_analysts: int
    fallback_reason: Optional[str] = None


# margins at rounding-noise scale count as "at the average": keeps the
# all-equal-predictions case on the fallback path
_MARGIN_TOL = 1e-12


def weight_vector(predicted: np.ndarray, r: float) -> np.ndarray:
    """Zero at or above the event-average predicted error, else a power of
    the margin below it. An event's analysts run along the last axis; any
    leading axes index events."""
    mean = predicted.mean(axis=-1, keepdims=True)
    d = mean - predicted
    pos = d > _MARGIN_TOL * np.maximum(1.0, np.abs(mean))
    return np.power(d, r, out=np.zeros_like(d), where=pos)


MODE_DESCRIPTIONS = {
    "full": "Full mode",
    "no_expertise": "Without individual expertise",
    "no_bias": "Without individual bias",
    "no_age": "Without forecast age",
    "no_freq": "Without submission frequency",
    "no_top10": "Without top-decile flag",
    "no_ncos": "Without firms-covered count",
    "no_exp": "Without experience",
    "no_mae": "Without past accuracy",
    "no_scaling": "Without scaling of variables",
    "bias_global": "General bias",
    "bias_firm": "Bias based on firm only",
    "bias_analyst": "Bias based on analyst only",
    "bias_half": "Bias weighted half-firm, half-analyst",
    "institution": "Use institution instead of analyst id",
    "exponent_2": "Weight exponent 2",
    "cutoff_30d": "Estimates up to 30 days before announcement",
    "cutoff_60d": "Estimates up to 60 days before announcement",
    "closest": "Closest analyst",
    "closest_raw": "Closest analyst without bias correction",
}


def default_mode_matrix(exponent: float = 1.2) -> list[ModeConfig]:
    """Every ablation row: full mode, component removals, per-variable
    removals, bias-granularity variants, identity/exponent/cutoff variants,
    and the hindsight benchmarks."""
    full = ModeConfig(label="full", exponent=exponent)
    modes = [
        full,
        replace(full, label="no_expertise", use_expertise=False),
        replace(full, label="no_bias", use_bias=False),
        replace(full, label="no_age", variable_mask=mask_without("age")),
        replace(full, label="no_freq", variable_mask=mask_without("freq")),
        replace(full, label="no_top10", variable_mask=mask_without("top10")),
        replace(full, label="no_ncos", variable_mask=mask_without("ncos")),
        replace(full, label="no_exp", variable_mask=mask_without("exp")),
        replace(full, label="no_mae", variable_mask=mask_without("mae")),
        replace(full, label="no_scaling", scaling="centered"),
        replace(full, label="bias_global", bias_key="global"),
        replace(full, label="bias_firm", bias_key="firm"),
        replace(full, label="bias_analyst", bias_key="identity"),
        replace(full, label="bias_half", bias_key="half"),
        replace(full, label="institution", identity="broker"),
        replace(full, label="exponent_2", exponent=2.0),
        replace(full, label="cutoff_30d", min_lead_hours=30 * 24),
        replace(full, label="cutoff_60d", min_lead_hours=60 * 24),
        replace(full, label="closest", method="closest"),
        replace(full, label="closest_raw", method="closest", use_bias=False),
    ]
    return modes


def modes_by_label(labels, exponent: float = 1.2) -> list[ModeConfig]:
    table = {m.label: m for m in default_mode_matrix(exponent)}
    out = []
    for name in labels:
        if name not in table:
            raise ValueError(f"unknown mode {name!r}; known: {sorted(table)}")
        out.append(table[name])
    return out
