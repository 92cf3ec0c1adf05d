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
from typing import Optional

import numpy as np

from .aggregate import EventAggregate, ModeConfig, weight_vector
from .bias import BiasTracker, HistoryLedger
from .features import normalize_event, top10_brokers
from .ingest import Panel, PanelEvent
from .model import Mask, PeriodModel, fit_period
from .periods import quarter_from_index, quarter_index, quarter_of_ts

logger = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400.0


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
    features: np.ndarray  # raw (n, 6) attribute matrix


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


def _event_features(
    event: PanelEvent,
    panel: Panel,
    hist: HistoryLedger,
    top10_set: set,
) -> np.ndarray:
    rows = []
    for est in event.estimates:
        exp = hist.experience(est.identity, event.firm_id)
        if exp == 0:
            raise RuntimeError(
                f"estimate without prior record reached scoring: {est.identity}/{event.firm_id}"
            )
        rows.append(
            [
                (event.announce_ts - est.estimate_ts) / SECONDS_PER_DAY,
                est.freq,
                panel.ncos[(event.period, est.identity)],
                1.0 if est.broker_id in top10_set else 0.0,
                exp,
                hist.mean_abs_error(est.identity, event.firm_id),
            ]
        )
    return np.asarray(rows, dtype=float)


def _ledger_event(
    event: PanelEvent,
    qidx: int,
    use_bias: bool,
    bias_tracker: BiasTracker,
    hist: HistoryLedger,
    panel: Panel,
) -> LedgerEvent:
    raw = np.array([e.value_cents for e in event.estimates], dtype=float)
    idents = tuple(e.identity for e in event.estimates)
    if use_bias:
        biases = np.array([bias_tracker.bias(i, event.firm_id) for i in idents])
        adjusted = raw - biases
    else:
        biases = np.zeros_like(raw)
        adjusted = raw

    actual = float(event.actual_cents)
    aae = np.abs((raw - actual) - biases)

    top10_set = top10_brokers(panel.top10_census.get(event.period, {}))
    F = _event_features(event, panel, hist, top10_set)
    return LedgerEvent(event, qidx, idents, float(raw.mean()), adjusted, aae, F)


def ledger_state(panel: Panel, use_bias: bool, bias_key: Optional[str]) -> LedgerState:
    """Walk the panel once, recording every scored event against frozen
    ledgers before the updates at its announce timestamp are applied."""
    key = (use_bias, bias_key if use_bias else None)
    if not panel.events and not panel.stream:
        return LedgerState(panel, key, 0, [])
    timestamps = [r.announce_ts for r in panel.stream] + [e.announce_ts for e in panel.events]
    q0 = quarter_index(quarter_of_ts(min(timestamps)))

    bias_tracker = BiasTracker(bias_key if use_bias else "global")
    hist = HistoryLedger()
    scored: list[LedgerEvent] = []

    # merged announce-time walk over scored events and the ledger stream
    events_by_ts: dict[int, list[PanelEvent]] = {}
    for ev in panel.events:
        events_by_ts.setdefault(ev.announce_ts, []).append(ev)
    records_by_ts: dict[int, list] = {}
    for rec in panel.stream:
        records_by_ts.setdefault(rec.announce_ts, []).append(rec)
    all_ts = sorted(set(events_by_ts) | set(records_by_ts))

    for ts in all_ts:
        qidx = quarter_index(quarter_of_ts(ts))

        # phase 1: read the ledgers for events at this timestamp
        for ev in events_by_ts.get(ts, ()):
            scored.append(_ledger_event(ev, qidx, use_bias, bias_tracker, hist, panel))

        # phase 2: compute all updates at this timestamp, then apply
        pending = []
        for rec in records_by_ts.get(ts, ()):
            err = rec.value_cents - rec.actual_cents
            b = bias_tracker.bias(rec.identity, rec.firm_id) if use_bias else 0.0
            pending.append((rec.identity, rec.firm_id, err, abs(err - b)))
        for identity, firm, err, aae in pending:
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
        state = ledger_state(panel, *ledger_key(mode))
    elif state.panel is not panel or state.key != ledger_key(mode):
        raise ValueError(f"mode {mode.label}: ledger state is for another panel or bias ledger")
    models = state.models(mode.scaling, mode.variable_mask)
    outcomes = [
        improved_consensus(ev, X, y, mode, models.get(ev.qidx - 1), ev.qidx - state.q0)[0]
        for ev, (X, y) in zip(state.events, state.rows(mode.scaling))
    ]
    logger.info("mode %s: %d events scored, %d models fit", mode.label, len(outcomes), len(models))
    return ReplayResult(outcomes=outcomes, models=list(models.values()))
