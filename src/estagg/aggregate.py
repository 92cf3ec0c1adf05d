"""Weighting and consensus construction, plus the ablation mode table.

A mode bundles every switch the sensitivity analysis varies: the bias
key granularity (None for no bias correction), the consensus method
(expertise weights, equal weights, or the hindsight closest forecaster),
the regressor mask, scaling style, identity (analyst vs institution), the
weight exponent, and the recency cutoff.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .features import SCALINGS
from .ingest import IDENTITIES, MIN_LEAD_HOURS
from .model import FULL_MASK, mask_without

BIAS_KEYS = ("identity_firm", "identity", "firm", "global", "half")
METHODS = ("weighted", "equal", "closest")
DEFAULT_EXPONENT = 1.2  # the weight exponent of every mode but exponent_2


# each field of a mode and its default
_MODE_DEFAULTS = {
    "label": "full",
    "bias_key": "identity_firm",  # one of BIAS_KEYS, or None for no bias correction
    "variable_mask": FULL_MASK,
    "scaling": "normalized",  # one of SCALINGS
    "identity": "analyst",  # one of IDENTITIES
    "exponent": DEFAULT_EXPONENT,
    "min_lead_hours": MIN_LEAD_HOURS,
    "method": "weighted",  # one of METHODS
}
_ModeFields = namedtuple("_ModeFields", _MODE_DEFAULTS, defaults=_MODE_DEFAULTS.values())


class ModeConfig(_ModeFields):
    """An ablation mode's choices, an immutable record checked when it is made."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        mode = super().__new__(cls, *args, **kwargs)
        if not (np.isfinite(mode.exponent) and mode.exponent > 0):
            raise ValueError(f"exponent must be positive and finite, got {mode.exponent!r}")
        if mode.min_lead_hours < MIN_LEAD_HOURS:
            raise ValueError(f"recency cutoff below {MIN_LEAD_HOURS} hours")
        choices = {"bias_key": (*BIAS_KEYS, None), "scaling": SCALINGS, "identity": IDENTITIES, "method": METHODS}
        for name, known in choices.items():
            if getattr(mode, name) not in known:
                raise ValueError(f"unknown {name} {getattr(mode, name)!r}; known: {list(known)}")
        return mode

    def replace(self, **changes) -> ModeConfig:
        """The mode with `changes`, checked as a new mode is."""
        return ModeConfig(**self._asdict() | changes)

    _replace = replace  # the named tuple's own would build the mode unchecked


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


# every ablation row, in results.csv order, as (label, description, changes
# to full mode): component removals, per-variable removals, bias-granularity
# variants, identity/exponent/cutoff variants, and the hindsight benchmarks
_MODES = (
    ("full", "Full mode", {}),
    ("no_expertise", "Without individual expertise", {"method": "equal"}),
    ("no_bias", "Without individual bias", {"bias_key": None}),
    ("no_age", "Without forecast age", {"variable_mask": mask_without("age")}),
    ("no_freq", "Without submission frequency", {"variable_mask": mask_without("freq")}),
    ("no_top10", "Without top-decile flag", {"variable_mask": mask_without("top10")}),
    ("no_ncos", "Without firms-covered count", {"variable_mask": mask_without("ncos")}),
    ("no_exp", "Without experience", {"variable_mask": mask_without("exp")}),
    ("no_mae", "Without past accuracy", {"variable_mask": mask_without("mae")}),
    ("no_scaling", "Without scaling of variables", {"scaling": "centered"}),
    ("bias_global", "General bias", {"bias_key": "global"}),
    ("bias_firm", "Bias based on firm only", {"bias_key": "firm"}),
    ("bias_analyst", "Bias based on analyst only", {"bias_key": "identity"}),
    ("bias_half", "Bias weighted half-firm, half-analyst", {"bias_key": "half"}),
    ("institution", "Use institution instead of analyst id", {"identity": "broker"}),
    ("exponent_2", "Weight exponent 2", {"exponent": 2.0}),
    ("cutoff_30d", "Estimates up to 30 days before announcement", {"min_lead_hours": 30 * 24}),
    ("cutoff_60d", "Estimates up to 60 days before announcement", {"min_lead_hours": 60 * 24}),
    ("closest", "Closest analyst", {"method": "closest"}),
    ("closest_raw", "Closest analyst without bias correction", {"method": "closest", "bias_key": None}),
)
MODE_DESCRIPTIONS = {label: description for label, description, _ in _MODES}


def default_mode_matrix(exponent: float = DEFAULT_EXPONENT) -> list[ModeConfig]:
    """Every ablation row, each mode checked as it is made; `exponent` is
    the weight exponent of every mode but exponent_2."""
    full = ModeConfig(exponent=exponent)
    return [full.replace(label=label, **changes) for label, _, changes in _MODES]


def modes_by_label(labels, exponent: float = DEFAULT_EXPONENT) -> list[ModeConfig]:
    """The modes of `labels`, in their order; an empty selection, an
    unknown label or a label given twice fails."""
    table = {m.label: m for m in default_mode_matrix(exponent)}
    if not labels:
        raise ValueError(f"no mode selected; known: {sorted(table)}")
    out = []
    for name in labels:
        if name not in table:
            raise ValueError(f"unknown mode {name!r}; known: {sorted(table)}")
        if table[name] in out:
            raise ValueError(f"mode {name!r} selected twice")
        out.append(table[name])
    return out
