"""Chronological replay: ledgers, features, models and consensus per quarter.

The replay has two parts. A ledger pass walks the panel in announcement
order and records, for every scored event, what the bias and history
ledgers said at its announcement. Within one announce timestamp all bias
reads happen before any ledger update, so simultaneous announcements
cannot leak into each other. Mode scoring then normalizes, fits and
weights from that record; every mode with the same bias ledger (see
`ledger_key`) can score from one pass.

A quarter's model is fit from that quarter's events only and is used
exclusively in the next calendar quarter; a quarter with no model makes
its successor fall back to equal weights rather than reaching further back.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Optional

import numpy as np

from .aggregate import EventAggregate, ModeConfig, weight_vector
from .bias import BiasTracker, HistoryLedger
from .features import normalize_event
from .ingest import Panel, PanelEvent
from .model import Mask, PeriodModel, fit_period
from .periods import quarter_from_index, quarter_index, quarter_of_ts

logger = logging.getLogger(__name__)


@dataclass
class ReplayResult:
    outcomes: list[EventAggregate]
    models: list[PeriodModel]


@dataclass
class LedgerEvent:
    """One scored event as the ledgers saw it at its announcement."""

    event: PanelEvent
    qidx: int  # quarter index of the announcement
    idents: tuple[str, ...]
    simple: float  # plain mean of the raw estimates
    adjusted: np.ndarray  # raw estimates minus their biases
    aae: np.ndarray  # absolute bias-adjusted errors, the dependent variable
    features: np.ndarray  # raw (n, 6) attribute matrix, FEATURE_NAMES order


@dataclass
class LedgerState:
    """The scored events of one ledger pass, plus the normalized rows and
    per-quarter models derived from them, cached for the modes that share
    the pass."""

    panel: Panel
    key: tuple[bool, Optional[str]]
    q0: int  # quarter index of the panel's first announcement
    events: list[LedgerEvent]
    _rows: dict = field(default_factory=dict, init=False, repr=False)
    _models: dict = field(default_factory=dict, init=False, repr=False)

    def rows(self, scaling: str) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each event's normalized design matrix and dependent vector."""
        if scaling not in self._rows:
            self._rows[scaling] = [normalize_event(e.features, e.aae, scaling) for e in self.events]
        return self._rows[scaling]

    def models(self, scaling: str, mask: Mask) -> dict[int, PeriodModel]:
        """Fitted models by quarter index, in quarter order; each quarter
        stacks its events' rows in announcement order."""
        key = (scaling, mask)
        if key not in self._models:
            rows = self.rows(scaling)
            fitted = {}
            for qidx, members in groupby(range(len(self.events)), key=lambda i: self.events[i].qidx):
                members = list(members)
                X = np.vstack([rows[i][0] for i in members])
                y = np.concatenate([rows[i][1] for i in members])
                model = fit_period(X, y, quarter_from_index(qidx), mask)
                if model is not None:
                    fitted[qidx] = model
            self._models[key] = fitted
        return self._models[key]


def ledger_key(mode: ModeConfig) -> tuple[bool, Optional[str]]:
    """Modes with equal keys read identical ledgers on the same panel."""
    return (mode.use_bias, mode.bias_key if mode.use_bias else None)


def _ledger_event(
    panel: Panel,
    event: PanelEvent,
    qidx: int,
    bias_tracker: Optional[BiasTracker],
    hist: HistoryLedger,
) -> LedgerEvent:
    idents = panel.idents[event.rows]
    raw = panel.value_cents[event.rows].astype(float)
    biases = np.zeros_like(raw)
    if bias_tracker is not None:
        biases[:] = [bias_tracker.bias(i, event.firm_id) for i in idents]
    adjusted = raw - biases
    aae = np.abs((raw - float(event.actual_cents)) - biases)

    F = np.empty((len(idents), 6))
    F[:, :4] = panel.features[event.rows]
    for j, ident in enumerate(idents):
        exp = hist.experience(ident, event.firm_id)
        if exp == 0:
            raise RuntimeError(f"estimate without prior record reached scoring: {ident}/{event.firm_id}")
        F[j, 4:] = exp, hist.mean_abs_error(ident, event.firm_id)
    return LedgerEvent(event, qidx, idents, float(raw.mean()), adjusted, aae, F)


def ledger_state(panel: Panel, key: tuple[bool, Optional[str]]) -> LedgerState:
    """Walk the panel once with the ledgers of `key` (see `ledger_key`),
    recording every scored event against frozen ledgers before the updates
    at its announce timestamp are applied."""
    if not panel.stream:
        return LedgerState(panel, key, 0, [])
    q0 = quarter_index(quarter_of_ts(panel.stream[0][0]))
    use_bias, bias_key = key
    # the no-bias pass reads no bias, so it keeps no bias ledger
    bias_tracker = BiasTracker(bias_key) if use_bias else None
    hist = HistoryLedger()
    scored: list[LedgerEvent] = []

    # each event's announce time is in the stream, which is chronological
    events = panel.events
    next_event = 0
    for ts, records in groupby(panel.stream, key=itemgetter(0)):
        qidx = quarter_index(quarter_of_ts(ts))

        # phase 1: read the ledgers for events at this timestamp
        while next_event < len(events) and events[next_event].announce_ts == ts:
            scored.append(_ledger_event(panel, events[next_event], qidx, bias_tracker, hist))
            next_event += 1

        # phase 2: compute all updates at this timestamp, then apply
        pending = []
        for _, identity, firm, err in records:
            b = bias_tracker.bias(identity, firm) if bias_tracker is not None else 0.0
            pending.append((identity, firm, err, abs(err - b)))
        for identity, firm, err, aae in pending:
            if bias_tracker is not None:
                bias_tracker.record(identity, firm, err)
            hist.record(identity, firm, aae)
    return LedgerState(panel, key, q0, scored)


def improved_consensus(
    scored: LedgerEvent,
    X: np.ndarray,
    y: np.ndarray,
    mode: ModeConfig,
    prev_model: Optional[PeriodModel],
    quarter_offset: int,
) -> tuple[EventAggregate, np.ndarray, np.ndarray]:
    """Score one event from its ledger record and the previous model.

    Returns the aggregate plus the normalized design matrix and dependent
    vector it was scored with (the event's rows of its quarter's fit).
    """
    event = scored.event
    idents = scored.idents
    adjusted = scored.adjusted
    actual = float(event.actual_cents)
    n = len(idents)
    fallback = None
    weights: dict = {}

    if mode.method == "closest":
        i = int(np.argmin(np.abs(adjusted - actual)))
        improved = float(adjusted[i])
        weights = {idents[i]: 1.0}
    elif not mode.use_expertise:
        improved = float(adjusted.mean())
        weights = {ident: 1.0 / n for ident in idents}
    elif prev_model is None:
        improved = float(adjusted.mean())
        weights = {ident: 1.0 / n for ident in idents}
        fallback = "no_previous_model"
    else:
        predicted = X @ prev_model.beta
        w = weight_vector(predicted, mode.exponent)
        total = w.sum()
        if total > 0:
            improved = float(np.dot(w, adjusted) / total)
            weights = {ident: float(wi / total) for ident, wi in zip(idents, w)}
        else:
            improved = float(adjusted.mean())
            weights = {ident: 1.0 / n for ident in idents}
            fallback = "degenerate_weights"

    agg = EventAggregate(
        firm_id=event.firm_id,
        period=event.period,
        announce_ts=event.announce_ts,
        quarter_offset=quarter_offset,
        actual_cents=event.actual_cents,
        simple_consensus=scored.simple,
        improved=improved,
        weights=weights,
        n_analysts=n,
        fallback_reason=fallback,
    )
    return agg, X, y


def run_mode(panel: Panel, mode: ModeConfig, state: Optional[LedgerState] = None) -> ReplayResult:
    """Replay one mode over the whole panel, scoring from ``state`` (a
    ledger pass over this panel with the mode's ledger key) when given."""
    if state is None:
        state = ledger_state(panel, ledger_key(mode))
    elif state.panel is not panel or state.key != ledger_key(mode):
        raise ValueError(f"mode {mode.label}: ledger state is for another panel or bias ledger")
    models = state.models(mode.scaling, mode.variable_mask)
    outcomes = [
        improved_consensus(ev, X, y, mode, models.get(ev.qidx - 1), ev.qidx - state.q0)[0]
        for ev, (X, y) in zip(state.events, state.rows(mode.scaling))
    ]
    logger.info("mode %s: %d events scored, %d models fit", mode.label, len(outcomes), len(models))
    return ReplayResult(outcomes=outcomes, models=list(models.values()))
