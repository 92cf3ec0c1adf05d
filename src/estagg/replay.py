"""Chronological replay: ledgers, features, models and consensus per quarter.

Events are processed in announcement order. Within one announce timestamp
all bias reads happen before any ledger update, so simultaneous
announcements cannot leak into each other. A quarter's model is fit only
after the quarter completes and is used exclusively in the next calendar
quarter; a quarter with no model makes its successor fall back to equal
weights rather than reaching further back.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .aggregate import EventAggregate, ModeConfig, weight_vector
from .bias import BiasTracker, HistoryLedger
from .features import normalize_event, top10_brokers
from .ingest import Panel, PanelEvent
from .model import PeriodModel, fit_period
from .periods import quarter_from_index, quarter_index, quarter_of_ts

logger = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400.0


@dataclass
class ReplayResult:
    outcomes: list[EventAggregate]
    models: list[PeriodModel]


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


def improved_consensus(
    event: PanelEvent,
    mode: ModeConfig,
    prev_model: Optional[PeriodModel],
    bias_tracker: BiasTracker,
    hist: HistoryLedger,
    panel: Panel,
    quarter_offset: int,
) -> tuple[EventAggregate, np.ndarray, np.ndarray]:
    """Score one event against frozen ledgers and the previous model.

    Returns the aggregate plus the event's normalized design matrix and
    dependent vector (the quarter's fit rows).
    """
    raw = np.array([e.value_cents for e in event.estimates], dtype=float)
    idents = [e.identity for e in event.estimates]
    if mode.use_bias:
        biases = np.array([bias_tracker.bias(i, event.firm_id) for i in idents])
        adjusted = raw - biases
    else:
        biases = np.zeros_like(raw)
        adjusted = raw

    actual = float(event.actual_cents)
    aae = np.abs((raw - actual) - biases)

    top10_set = top10_brokers(panel.top10_census.get(event.period, {}))
    F = _event_features(event, panel, hist, top10_set)
    X, y = normalize_event(F, aae, mode.scaling)

    n = len(raw)
    simple = float(raw.mean())
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
        simple_consensus=simple,
        improved=improved,
        weights=weights,
        n_analysts=n,
        fallback_reason=fallback,
    )
    return agg, X, y


def run_mode(panel: Panel, mode: ModeConfig) -> ReplayResult:
    """Replay one mode over the whole panel."""
    if not panel.events and not panel.stream:
        return ReplayResult([], [])
    timestamps = [r.announce_ts for r in panel.stream] + [e.announce_ts for e in panel.events]
    q0 = quarter_index(quarter_of_ts(min(timestamps)))

    bias_tracker = BiasTracker("global" if not mode.use_bias else mode.bias_key)
    hist = HistoryLedger()
    models: list[PeriodModel] = []
    model_by_qidx: dict[int, PeriodModel] = {}
    outcomes: list[EventAggregate] = []

    # merged announce-time walk over scored events and the ledger stream
    events_by_ts: dict[int, list[PanelEvent]] = {}
    for ev in panel.events:
        events_by_ts.setdefault(ev.announce_ts, []).append(ev)
    records_by_ts: dict[int, list] = {}
    for rec in panel.stream:
        records_by_ts.setdefault(rec.announce_ts, []).append(rec)
    all_ts = sorted(set(events_by_ts) | set(records_by_ts))

    current_q: Optional[int] = None
    fit_X: list[np.ndarray] = []
    fit_y: list[np.ndarray] = []

    def close_quarter(qidx: int) -> None:
        if fit_X:
            X = np.vstack(fit_X)
            y = np.concatenate(fit_y)
            fitted = fit_period(X, y, quarter_from_index(qidx), mode.variable_mask)
            if fitted is not None:
                models.append(fitted)
                model_by_qidx[qidx] = fitted
        fit_X.clear()
        fit_y.clear()

    for ts in all_ts:
        qidx = quarter_index(quarter_of_ts(ts))
        if current_q is not None and qidx != current_q:
            close_quarter(current_q)
        current_q = qidx
        prev_model = model_by_qidx.get(qidx - 1)

        # phase 1: score events at this timestamp with frozen ledgers
        for ev in events_by_ts.get(ts, ()):
            agg, X, y = improved_consensus(ev, mode, prev_model, bias_tracker, hist, panel, qidx - q0)
            outcomes.append(agg)
            fit_X.append(X)
            fit_y.append(y)

        # phase 2: compute all updates at this timestamp, then apply
        pending = []
        for rec in records_by_ts.get(ts, ()):
            err = rec.value_cents - rec.actual_cents
            b = bias_tracker.bias(rec.identity, rec.firm_id) if mode.use_bias else 0.0
            pending.append((rec.identity, rec.firm_id, err, abs(err - b)))
        for identity, firm, err, aae in pending:
            bias_tracker.record(identity, firm, err)
            hist.record(identity, firm, aae)

    if current_q is not None:
        close_quarter(current_q)

    logger.info("mode %s: %d events scored, %d models fit", mode.label, len(outcomes), len(models))
    return ReplayResult(outcomes=outcomes, models=models)
