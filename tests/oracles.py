"""Slow, obvious reference implementations the tests check the pipeline
against. None of them is used by the pipeline itself."""

from typing import Optional

import numpy as np

from estagg.aggregate import _MARGIN_TOL, EventAggregate, ModeConfig, weight_vector
from estagg.bias import BiasTracker, HistoryLedger
from estagg.features import normalize_event, top10_brokers
from estagg.ingest import Panel, PanelEvent
from estagg.model import PeriodModel, fit_period
from estagg.periods import quarter_from_index, quarter_index, quarter_of_ts
from estagg.replay import SECONDS_PER_DAY, ReplayResult


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


def _improved_consensus(
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


def replay_oracle(panel: Panel, mode: ModeConfig) -> ReplayResult:
    """One mode replayed on its own: the per-event walk that
    replay.ledger_state and replay.run_mode split into a shared ledger
    pass and per-mode scoring."""
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
            agg, X, y = _improved_consensus(ev, mode, prev_model, bias_tracker, hist, panel, qidx - q0)
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

    return ReplayResult(outcomes=outcomes, models=models)
