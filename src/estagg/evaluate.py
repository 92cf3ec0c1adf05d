"""Improvement statistics, descriptive statistics and the mode matrix.

Three statistics compare the improved consensus surprise against the
original one: the median fractional improvement (with explicit sentinel
handling for zero original surprise), one minus the ratio of summed
absolute surprises, and one minus the slope of the improved-vs-original
regression.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace as dc_replace
from typing import Optional, Sequence

import numpy as np

from .aggregate import MODE_DESCRIPTIONS, ModeConfig
from .ingest import Actual, EstimateTable, FilterConfig, Panel, build_panel
from .replay import ReplayResult, ledger_key, ledger_state, run_mode

logger = logging.getLogger(__name__)

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class SurprisePair:
    original: float  # consensus minus actual
    improved: float  # improved consensus minus actual


@dataclass
class ModeResult:
    label: str
    description: str
    n_events: int
    median: Optional[float]
    average: Optional[float]
    trend: Optional[float]
    r_squared: Optional[float]
    trend_supplementary: bool  # trend reported only informally off the full mode


def surprise_improvement(original: float, improved: float) -> float:
    """Fractional improvement 1 - |improved| / |original|.

    A zero original surprise makes the ratio blow up: the value is 0 when
    the improved surprise is also zero (no change) and -inf otherwise. The
    sentinels participate ordinally in the median.
    """
    if original == 0.0:
        return 0.0 if improved == 0.0 else NEG_INF
    return 1.0 - abs(improved) / abs(original)


def median_stat(values: Sequence[float]) -> float:
    """Ordinal median over improvement values, sentinel-aware.

    Odd count: the middle value (possibly a sentinel). Even count: mean of
    the two middle finite values; one sentinel in the middle yields the
    finite neighbor, two equal-signed sentinels yield that sentinel.
    """
    if not values:
        raise ValueError("median of empty improvement list")
    vals = sorted(values)
    n = len(vals)
    if n % 2 == 1:
        return vals[n // 2]
    a, b = vals[n // 2 - 1], vals[n // 2]
    a_inf = a in (NEG_INF, POS_INF)
    b_inf = b in (NEG_INF, POS_INF)
    if not a_inf and not b_inf:
        return (a + b) / 2.0
    if a_inf and b_inf:
        return a if a == b else 0.0
    return b if a_inf else a


def average_stat(pairs: Sequence[SurprisePair]) -> Optional[float]:
    """1 minus the summed improved absolute surprise over the summed
    original; None when every original surprise is zero."""
    denom = sum(abs(p.original) for p in pairs)
    if denom == 0.0:
        return None
    num = sum(abs(p.improved) for p in pairs)
    return 1.0 - num / denom


def trend_stat(pairs: Sequence[SurprisePair]) -> Optional[tuple[float, float]]:
    """(1 - slope, R^2) of the improved-on-original regression with
    intercept; None below 3 pairs or with degenerate originals."""
    if len(pairs) < 3:
        return None
    x = np.array([p.original for p in pairs])
    y = np.array([p.improved for p in pairs])
    if np.ptp(x) == 0.0:
        return None
    A = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    fitted = A @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return 1.0 - slope, r2


def pairs_from_outcomes(result: ReplayResult, burn_in: int) -> list[SurprisePair]:
    return [
        SurprisePair(
            original=o.simple_consensus - o.actual_cents,
            improved=o.improved - o.actual_cents,
        )
        for o in result.outcomes
        if o.quarter_offset >= burn_in
    ]


def descriptive_stats(panel: Panel) -> dict:
    """Panel-level descriptive statistics (symbols, reports, predictions,
    analysts, surprise magnitudes, negative-surprise and in-range shares)."""
    if not panel.events:
        raise ValueError("empty panel")
    surprises = []
    negative = 0
    in_range = 0
    all_values = panel.value_cents.tolist()
    for ev in panel.events:
        values = all_values[ev.rows]
        consensus = sum(values) / len(values)
        s = ev.actual_cents - consensus  # signed surprise: actual minus consensus
        surprises.append(abs(s))
        if s < 0:
            negative += 1
        if min(values) <= ev.actual_cents <= max(values):
            in_range += 1
    n = len(panel.events)
    return {
        "n_symbols": len({ev.firm_id for ev in panel.events}),
        "n_reports": n,
        "n_predictions": len(all_values),
        "n_analysts": len(set(panel.analysts)),
        "mean_abs_surprise_cents": float(np.mean(surprises)),
        "median_abs_surprise_cents": float(np.median(surprises)),
        "negative_surprise_share": negative / n,
        "actual_in_range_share": in_range / n,
    }


class PanelSource:
    """Builds and caches panels per (identity, recency-cutoff) combination."""

    def __init__(self, estimates: EstimateTable, actuals: Sequence[Actual], cfg: FilterConfig):
        self.estimates = estimates
        self.actuals = actuals
        self.cfg = cfg
        self._cache: dict[tuple[str, int], Panel] = {}

    def _panel(self, identity: str, min_lead_hours: int) -> Panel:
        key = (identity, min_lead_hours)
        if key not in self._cache:
            cfg = dc_replace(self.cfg, min_lead_hours=min_lead_hours)
            self._cache[key] = build_panel(self.estimates, self.actuals, cfg, identity=identity)
        return self._cache[key]

    def panel_key(self, mode: ModeConfig) -> tuple[str, int]:
        """The mode's (identity, recency cutoff); the cutoff never undercuts
        the filter's."""
        return (mode.identity, max(self.cfg.min_lead_hours, mode.min_lead_hours))

    def panel_for(self, mode: ModeConfig) -> Panel:
        return self._panel(*self.panel_key(mode))

    def default_panel(self) -> Panel:
        return self._panel("analyst", self.cfg.min_lead_hours)


def mode_result(label: str, pairs: Sequence[SurprisePair]) -> ModeResult:
    """The three improvement statistics over one mode's evaluation pairs."""
    trend = trend_stat(pairs) if pairs else None
    return ModeResult(
        label=label,
        description=MODE_DESCRIPTIONS.get(label, label),
        n_events=len(pairs),
        median=median_stat([surprise_improvement(p.original, p.improved) for p in pairs]) if pairs else None,
        average=average_stat(pairs) if pairs else None,
        trend=trend[0] if trend else None,
        r_squared=trend[1] if trend else None,
        trend_supplementary=label != "full",
    )


def evaluate_mode(result: ReplayResult, mode: ModeConfig, burn_in: int) -> ModeResult:
    return mode_result(mode.label, pairs_from_outcomes(result, burn_in))


def run_mode_matrix(
    source: PanelSource,
    modes: Sequence[ModeConfig],
    burn_in: int = 24,
) -> tuple[list[ModeResult], dict[str, ReplayResult]]:
    """Run every mode and assemble its three statistics.

    Modes that share a panel and a bias ledger score from one ledger pass.
    Each group runs back to back, so one pass's state is alive at a time.
    """
    groups: dict[tuple, list[int]] = {}
    for i, mode in enumerate(modes):
        groups.setdefault(source.panel_key(mode) + ledger_key(mode), []).append(i)
    replays: dict[int, ReplayResult] = {}
    for members in groups.values():
        state = None
        for i in members:
            panel = source.panel_for(modes[i])
            if state is None:
                state = ledger_state(panel, ledger_key(modes[i]))
            replays[i] = run_mode(panel, modes[i], state)
    results = [evaluate_mode(replays[i], mode, burn_in) for i, mode in enumerate(modes)]
    return results, {mode.label: replays[i] for i, mode in enumerate(modes)}
