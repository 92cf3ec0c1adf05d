"""Improvement statistics, descriptive statistics and the mode matrix.

Three statistics compare the improved consensus surprise against the
original one: the median fractional improvement (with explicit sentinel
handling for zero original surprise), one minus the ratio of summed
absolute surprises, and one minus the slope of the improved-vs-original
regression. Each takes a mode's surprises as two float64 arrays, original
and improved, with one entry per evaluated event.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, Optional, Sequence

import numpy as np

from .aggregate import MODE_DESCRIPTIONS, ModeConfig
from .ingest import ActualTable, EstimateTable, FilterConfig, IngestReport, Panel, build_panel
from .replay import ReplayResult, ledger_state, run_mode

NEG_INF = float("-inf")


# a mode's three statistics, each None where it is undefined, over its evaluated events
ModeResult = namedtuple(
    "ModeResult",
    [
        "label",
        "description",
        "n_events",
        "median",
        "average",
        "trend",
        "r_squared",
        "trend_supplementary",  # trend reported only informally off the full mode
    ],
)


def surprise_improvement(original: np.ndarray, improved: np.ndarray) -> np.ndarray:
    """Fractional improvement 1 - |improved| / |original| of each pair.

    A zero original surprise makes the ratio blow up: the value is 0 when
    the improved surprise is also zero (no change) and -inf otherwise. The
    sentinels participate ordinally in the median.
    """
    zero = original == 0.0
    ratio = np.divide(np.abs(improved), np.abs(original), out=np.zeros_like(original), where=~zero)
    return np.where(zero, np.where(improved == 0.0, 0.0, NEG_INF), 1.0 - ratio)


def median_stat(values: np.ndarray) -> float:
    """Ordinal median over improvement values, sentinel-aware.

    Odd count: the middle value (possibly a sentinel). Even count: mean of
    the two middle finite values; one sentinel in the middle yields the
    finite neighbor, two equal-signed sentinels yield that sentinel.
    """
    n = len(values)
    if not n:
        raise ValueError("median of empty improvement list")
    vals = np.sort(values)
    if n % 2 == 1:
        return float(vals[n // 2])
    a, b = vals[n // 2 - 1 : n // 2 + 1].tolist()
    a_inf, b_inf = np.isinf([a, b]).tolist()
    if not a_inf and not b_inf:
        return (a + b) / 2.0
    if a_inf and b_inf:
        return a if a == b else 0.0
    return b if a_inf else a


def _sum_left_to_right(values: np.ndarray) -> float:
    """0.0 plus each value in turn. Neither numpy's pairwise sum nor
    Python's builtin sum, compensated since 3.12, adds this way."""
    return float(np.cumsum(np.append(0.0, values))[-1])


def average_stat(original: np.ndarray, improved: np.ndarray) -> Optional[float]:
    """1 minus the summed improved absolute surprise over the summed
    original; None when every original surprise is zero. Both sums add
    left to right, so the statistic is the same on every interpreter."""
    denom = _sum_left_to_right(np.abs(original))
    if denom == 0.0:
        return None
    num = _sum_left_to_right(np.abs(improved))
    return 1.0 - num / denom


def trend_stat(original: np.ndarray, improved: np.ndarray) -> Optional[tuple[float, float]]:
    """(1 - slope, R^2) of the improved-on-original regression with
    intercept; None below 3 pairs or with degenerate originals."""
    if len(original) < 3 or np.ptp(original) == 0.0:
        return None
    A = np.column_stack([original, np.ones_like(original)])
    coef, _, _, _ = np.linalg.lstsq(A, improved, rcond=None)
    slope = float(coef[0])
    fitted = A @ coef
    ss_res = float(np.sum((improved - fitted) ** 2))
    ss_tot = float(np.sum((improved - improved.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return 1.0 - slope, r2


def surprises(result: ReplayResult, burn_in: int) -> tuple[np.ndarray, np.ndarray]:
    """The original and the improved surprise, the simple and the improved
    consensus minus the actual, of each event of `result` past the burn-in,
    in announcement order."""
    layout = result.panel.layout
    actual = result.panel.events.value_cents.astype(float)
    evaluated = layout.offset >= burn_in
    return (layout.simple - actual)[evaluated], (result.improved - actual)[evaluated]


def descriptive_stats(panel: Panel) -> dict:
    """Panel-level descriptive statistics (symbols, reports, predictions,
    analysts, surprise magnitudes, negative-surprise and in-range shares).
    Each surprise is the actual minus the layout's simple consensus, which is
    the exact mean rounded once while an event's summed |value_cents| stays
    below 2**53, and beyond that the float consensus events_*.csv writes."""
    n = len(panel.events)
    if not n:
        raise ValueError("empty panel")
    actual, starts = panel.events.value_cents, panel.bounds[:-1]
    surprises = actual - panel.layout.simple
    lowest, highest = np.minimum.reduceat(panel.value_cents, starts), np.maximum.reduceat(panel.value_cents, starts)
    return {
        "n_symbols": int(np.count_nonzero(np.bincount(panel.events.firm))),
        "n_reports": n,
        "n_predictions": len(panel.value_cents),
        "n_analysts": int(np.count_nonzero(np.bincount(panel.analyst))),
        "mean_abs_surprise_cents": float(np.mean(np.abs(surprises))),
        "median_abs_surprise_cents": median_stat(np.abs(surprises)),
        "negative_surprise_share": int(np.count_nonzero(surprises < 0)) / n,
        "actual_in_range_share": int(np.count_nonzero((lowest <= actual) & (actual <= highest))) / n,
    }


class PanelSource:
    """Builds the panel of an (identity, recency-cutoff) key, holding only the
    panel it built last, and takes the default panel's ingest summary at its build."""

    def __init__(self, estimates: EstimateTable, actuals: ActualTable, cfg: FilterConfig):
        self.estimates = estimates
        self.actuals = actuals
        self.cfg = cfg
        self._key = self._panel = None  # the key and panel built last
        self._summary: Optional[tuple[IngestReport, Optional[dict]]] = None

    def _hold(self, key: tuple[str, int]) -> Panel:
        if key != self._key:
            self._key = self._panel = None  # before the build, so that one panel is alive at a time
            cfg = self.cfg._replace(min_lead_hours=key[1])
            panel = build_panel(self.estimates, self.actuals, cfg, identity=key[0])
            if key == self.default_key() and self._summary is None:
                self._summary = panel.report, descriptive_stats(panel) if len(panel.events) else None
            self._key, self._panel = key, panel
        return self._panel

    def panel_key(self, mode: ModeConfig) -> tuple[str, int]:
        """The mode's (identity, recency cutoff); the cutoff never undercuts
        the filter's."""
        return (mode.identity, max(self.cfg.min_lead_hours, mode.min_lead_hours))

    def panel_for(self, mode: ModeConfig) -> Panel:
        return self._hold(self.panel_key(mode))

    def default_key(self) -> tuple[str, int]:
        """The key of the panel the run's ingest report describes."""
        return ("analyst", self.cfg.min_lead_hours)

    def default_panel(self) -> Panel:
        return self._hold(self.default_key())

    def ingest_summary(self) -> tuple[IngestReport, Optional[dict]]:
        """The default panel's report and descriptive statistics, None with no
        events, taken as that panel was built; it is built for them if no
        mode scored on it. The source then lets go of the panel it holds."""
        if self._summary is None:
            self.default_panel()
        self._key = self._panel = None
        return self._summary


def mode_result(label: str, original: np.ndarray, improved: np.ndarray) -> ModeResult:
    """The three improvement statistics over one mode's evaluated events'
    original and improved surprises."""
    n = len(original)
    trend = trend_stat(original, improved)
    return ModeResult(
        label=label,
        description=MODE_DESCRIPTIONS.get(label, label),
        n_events=n,
        median=median_stat(surprise_improvement(original, improved)) if n else None,
        average=average_stat(original, improved),
        trend=trend[0] if trend else None,
        r_squared=trend[1] if trend else None,
        trend_supplementary=label != "full",
    )


def evaluate_mode(result: ReplayResult, mode: ModeConfig, burn_in: int) -> ModeResult:
    return mode_result(mode.label, *surprises(result, burn_in))


def _score_group(
    source: PanelSource, modes: Sequence[ModeConfig], members: list[int], burn_in: int, done: list[str]
) -> Iterator[tuple[int, ReplayResult, ModeResult]]:
    """Score the modes at `members` of `modes`, which share a panel and a
    bias key, from one ledger pass: all modes of one scaling back to back,
    the scalings in order of first appearance, so the pass holds one
    scaling's rows at a time. Then drop the panel's ledger-free blocks of
    the scalings `done`, which no later group on the panel uses."""
    first = modes[members[0]]
    state = ledger_state(source.panel_for(first), first.bias_key)
    scalings = list(dict.fromkeys(modes[i].scaling for i in members))
    for i in sorted(members, key=lambda i: scalings.index(modes[i].scaling)):
        replay = run_mode(state, modes[i])
        yield i, replay, evaluate_mode(replay, modes[i], burn_in)
    for scaling in done:
        state.panel.drop_ledger_free(scaling)


def run_mode_matrix(
    source: PanelSource, modes: Sequence[ModeConfig], burn_in: int
) -> Iterator[tuple[int, ReplayResult, ModeResult]]:
    """Score every mode, handing out each mode's index in `modes`, replay
    and three statistics as soon as it is scored, and keeping neither.

    Modes that share a panel and a bias key score from one ledger pass,
    one `panel_for` call each, one scaling after another. The groups run
    in panel-key order, so each panel's groups run back to back and the
    source builds each panel once. A caller that lets go of each replay
    once it has used it holds one panel, and one group's state with one
    scaling's rows, at a time. The panel keeps each scaling's ledger-free
    block until the last of its groups that uses the scaling has scored.
    """
    panels: dict[tuple[str, int], dict[Optional[str], list[int]]] = {}
    for i, mode in enumerate(modes):
        panels.setdefault(source.panel_key(mode), {}).setdefault(mode.bias_key, []).append(i)
    for key in sorted(panels):
        groups = list(panels[key].values())
        last = {modes[i].scaling: g for g, members in enumerate(groups) for i in members}  # each scaling's last group
        for g, members in enumerate(groups):
            done = [scaling for scaling, at in last.items() if at == g]
            yield from _score_group(source, modes, members, burn_in, done)
