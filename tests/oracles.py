"""Slow, obvious reference implementations the tests check the pipeline
against. None of them is used by the pipeline itself."""

import csv
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from estagg.aggregate import _MARGIN_TOL, EventAggregate, ModeConfig
from estagg.bias import BiasTracker, HistoryLedger
from estagg.features import top10_brokers
from estagg.ingest import ESTIMATE_COLUMNS, Actual, FilterConfig, IngestReport, Panel, PanelEvent, Reject
from estagg.model import PeriodModel, fit_period
from estagg.periods import Quarter, parse_ts, quarter_from_index, quarter_index, quarter_of_ts
from estagg.replay import ReplayResult

SECONDS_PER_DAY = 86400.0


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


def closest_analyst(panel: Panel, event: PanelEvent, bias_lookup=None) -> float:
    """Smallest absolute individual error for one event of a panel;
    predictions are bias-adjusted when a lookup is supplied."""
    best = None
    for ident, value in zip(panel.idents[event.rows], panel.value_cents[event.rows].tolist()):
        value = value - (bias_lookup(ident, event.firm_id) if bias_lookup else 0.0)
        err = abs(value - event.actual_cents)
        best = err if best is None else min(best, err)
    if best is None:
        raise ValueError("event has no estimates")
    return best


# The per-estimate object form of a panel that build_panel_oracle emits and
# replay_oracle reads; estagg.ingest.Panel holds the same data as columns.


@dataclass(frozen=True)
class PanelEstimate:
    """A surviving, deduped estimate inside a panel event."""

    identity: str  # analyst_id or broker_id depending on the identity mode
    analyst_id: str
    broker_id: str
    estimate_ts: int
    value_cents: int
    freq: int  # submissions (pre-dedup) by this identity within the window


@dataclass(frozen=True)
class ObjectEvent:
    firm_id: str
    period: Quarter
    actual_cents: int
    announce_ts: int
    estimates: tuple[PanelEstimate, ...]


@dataclass(frozen=True)
class LedgerRecord:
    """A deduped prediction feeding error/bias history (scored or not)."""

    announce_ts: int
    firm_id: str
    period: Quarter
    identity: str
    analyst_id: str
    broker_id: str
    estimate_ts: int
    value_cents: int
    actual_cents: int


@dataclass
class ObjectPanel:
    events: list[ObjectEvent]
    stream: list[LedgerRecord]
    # per-period censuses computed from window-valid submissions
    ncos: dict[tuple[Quarter, str], int]
    top10_census: dict[Quarter, dict[str, int]]
    report: IngestReport
    identity: str = "analyst"


def columnar_panel(panel: ObjectPanel) -> Panel:
    """An object panel as the columns estagg.ingest.build_panel emits, its
    ledger-free features computed per event as the per-event replay did."""
    events, idents, analysts, values, features = [], [], [], [], []
    for event in panel.events:
        top10_set = top10_brokers(panel.top10_census.get(event.period, {}))
        rows = slice(len(values), len(values) + len(event.estimates))
        events.append(PanelEvent(event.firm_id, event.period, event.actual_cents, event.announce_ts, rows))
        for est in event.estimates:
            idents.append(est.identity)
            analysts.append(est.analyst_id)
            values.append(est.value_cents)
            features.append(_static_features(event, est, panel, top10_set))
    return Panel(
        events=events,
        idents=tuple(idents),
        analysts=tuple(analysts),
        value_cents=np.array(values, np.int64),
        features=np.array(features, float).reshape(len(values), 4),
        stream=[(r.announce_ts, r.identity, r.firm_id, r.value_cents - r.actual_cents) for r in panel.stream],
        report=panel.report,
    )


def _static_features(event: ObjectEvent, est: PanelEstimate, panel: ObjectPanel, top10_set: set) -> list:
    """Age in days, freq, firms covered and the top-decile flag."""
    return [
        (event.announce_ts - est.estimate_ts) / SECONDS_PER_DAY,
        est.freq,
        panel.ncos[(event.period, est.identity)],
        1.0 if est.broker_id in top10_set else 0.0,
    ]


def _event_features(
    event: ObjectEvent,
    panel: ObjectPanel,
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
            _static_features(event, est, panel, top10_set) + [exp, hist.mean_abs_error(est.identity, event.firm_id)]
        )
    return np.asarray(rows, dtype=float)


# The per-event scoring that estagg.replay replaced with size buckets:
# normalization, weights and consensus for one event at a time. Weights are
# arrays aligned with the event's identities, as EventAggregate holds them.


def normalize(values: np.ndarray, scaling: str = "normalized") -> np.ndarray:
    """Map one event's variable to its deviation from the event mean.

    normalized: (v - mean) / mean, with all-zero output when the mean is 0
    (keeps the design matrix at fixed width). centered: v - mean.
    """
    m = values.mean()
    if scaling == "centered":
        return values - m
    if m == 0.0:
        return np.zeros_like(values)
    return (values - m) / m


def normalize_event(
    feature_matrix: np.ndarray,
    aae: np.ndarray,
    scaling: str = "normalized",
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize one event's (n, 6) feature matrix and dependent vector."""
    X = np.column_stack([normalize(feature_matrix[:, k], scaling) for k in range(feature_matrix.shape[1])])
    y = normalize(np.asarray(aae, dtype=float), scaling)
    return X, y


def weight_vector(predicted: np.ndarray, r: float) -> np.ndarray:
    """Zero at or above the event-average predicted error, else a power of
    the margin below it."""
    mean = predicted.mean()
    d = mean - predicted
    w = np.zeros_like(d)
    pos = d > _MARGIN_TOL * max(1.0, abs(mean))
    w[pos] = d[pos] ** r
    return w


@dataclass
class LedgerEvent:
    """One scored event as the ledgers saw it at its announcement."""

    event: ObjectEvent
    idents: list[str]
    simple: float  # plain mean of the raw estimates
    adjusted: np.ndarray  # raw estimates minus their biases


def improved_consensus(
    scored: LedgerEvent,
    X: np.ndarray,
    mode: ModeConfig,
    prev_model: Optional[PeriodModel],
    quarter_offset: int,
) -> EventAggregate:
    """Score one event from its ledger record and the previous model."""
    event = scored.event
    idents = scored.idents
    adjusted = scored.adjusted
    actual = float(event.actual_cents)
    n = len(idents)
    fallback = None

    if mode.method == "closest":
        i = int(np.argmin(np.abs(adjusted - actual)))
        improved = float(adjusted[i])
        weights = np.zeros(n)
        weights[i] = 1.0
    elif not mode.use_expertise:
        improved = float(adjusted.mean())
        weights = np.full(n, 1.0 / n)
    elif prev_model is None:
        improved = float(adjusted.mean())
        weights = np.full(n, 1.0 / n)
        fallback = "no_previous_model"
    else:
        predicted = X @ prev_model.beta
        w = weight_vector(predicted, mode.exponent)
        total = w.sum()
        if total > 0:
            improved = float(np.dot(w, adjusted) / total)
            weights = w / total
        else:
            improved = float(adjusted.mean())
            weights = np.full(n, 1.0 / n)
            fallback = "degenerate_weights"

    return EventAggregate(
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


def _improved_consensus(
    event: ObjectEvent,
    mode: ModeConfig,
    prev_model: Optional[PeriodModel],
    bias_tracker: BiasTracker,
    hist: HistoryLedger,
    panel: ObjectPanel,
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
    scored = LedgerEvent(event, idents, float(raw.mean()), adjusted)
    return improved_consensus(scored, X, mode, prev_model, quarter_offset), X, y


def replay_oracle(panel: ObjectPanel, mode: ModeConfig) -> ReplayResult:
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
    events_by_ts: dict[int, list[ObjectEvent]] = {}
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


# The per-row ingest path that estagg.ingest.parse_estimates and build_panel
# replaced: frozen Estimate records from a DictReader pass, and dict-driven
# window, dedup and prior-record filters.


@dataclass(frozen=True)
class Estimate:
    """One expert's timestamped point prediction for one firm-period."""

    analyst_id: str
    broker_id: str
    firm_id: str
    period: Quarter
    estimate_ts: int
    horizon_code: int
    value_cents: int


def _period(row: dict) -> Quarter:
    quarter = int(row["period_quarter"])
    if not 1 <= quarter <= 4:
        raise ValueError(f"period_quarter {quarter} outside 1..4")
    return (int(row["period_year"]), quarter)


def _estimate(row: dict) -> Estimate:
    return Estimate(
        analyst_id=row["analyst_id"],
        broker_id=row["broker_id"],
        firm_id=row["firm_id"],
        period=_period(row),
        estimate_ts=parse_ts(row["estimate_ts"]),
        horizon_code=int(row["horizon_code"]),
        value_cents=int(row["value_cents"]),
    )


def _read_rows(source, kind: str, columns: tuple[str, ...], make: Callable[[dict], object]) -> tuple[list, list[Reject]]:
    """Build one record per CSV row with ``make``; malformed rows become
    rejects carrying their physical line number.

    A ``str`` source is a path, opened and closed here; anything else is a
    text stream, read and left open for the caller.
    """
    out = []
    rejects: list[Reject] = []
    with open(source, newline="") if isinstance(source, str) else nullcontext(source) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{kind} source has no readable header")
        missing = [c for c in columns if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{kind} header missing columns: {missing}")
        for row in reader:
            try:
                out.append(make(row))
            except (ValueError, KeyError, TypeError) as exc:
                rejects.append(Reject(line=reader.line_num, reason=f"malformed: {exc}"))
    return out, rejects


def parse_estimates_oracle(source) -> tuple[list[Estimate], list[Reject]]:
    """Parse an estimates file; malformed rows go to the reject list."""
    return _read_rows(source, "estimates", ESTIMATE_COLUMNS, _estimate)


def estimates_from_rows_oracle(rows) -> list[Estimate]:
    return [
        Estimate(
            analyst_id=r[0],
            broker_id=r[1],
            firm_id=r[2],
            period=(r[3], r[4]),
            estimate_ts=parse_ts(r[5]),
            horizon_code=r[6],
            value_cents=r[7],
        )
        for r in rows
    ]


def _identity_of(est: Estimate, identity: str) -> str:
    return est.broker_id if identity == "broker" else est.analyst_id


def build_panel_oracle(
    estimates: Sequence[Estimate],
    actuals: Sequence[Actual],
    cfg: FilterConfig = FilterConfig(),
    identity: str = "analyst",
) -> ObjectPanel:
    """Apply all exclusion rules and emit a chronological panel.

    Filter order: horizon/time window, last-estimate-per-identity dedup,
    prior-record requirement, surprise cap (on the simple consensus of the
    surviving estimates), minimum analyst count. The ledger stream keeps
    every deduped window-valid prediction (including ones from unscored
    events) so downstream history never loses a real prediction.
    """
    report = IngestReport(total=len(estimates))
    actual_by: dict[tuple[str, Quarter], Actual] = {}
    for a in actuals:
        if (a.firm_id, a.period) in actual_by:
            raise ValueError(f"duplicate actual for {(a.firm_id, a.period)}")
        actual_by[(a.firm_id, a.period)] = a

    min_lead_s = cfg.min_lead_hours * 3600
    max_age_s = cfg.max_age_days * 86400

    # (b) horizon + time window, per estimate
    window: list[Estimate] = []
    for est in estimates:
        act = actual_by.get((est.firm_id, est.period))
        if act is None:
            report.rejects["no_matching_actual"] += 1
            continue
        if est.horizon_code not in cfg.horizon_codes:
            report.rejects["horizon_excluded"] += 1
            continue
        if est.estimate_ts > act.announce_ts - min_lead_s:
            report.rejects["too_close_to_announcement"] += 1
            continue
        if est.estimate_ts < act.announce_ts - max_age_s:
            report.rejects["too_old"] += 1
            continue
        window.append(est)

    # submission frequency is counted pre-dedup, within the window
    freq: Counter = Counter()
    for est in window:
        freq[(_identity_of(est, identity), est.firm_id, est.period)] += 1

    # censuses (per firm-period quarter, from window-valid submissions)
    ncos_sets: dict[tuple[Quarter, str], set[str]] = defaultdict(set)
    broker_analysts: dict[Quarter, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
    for est in window:
        ncos_sets[(est.period, _identity_of(est, identity))].add(est.firm_id)
        broker_analysts[est.period][est.broker_id].add(est.analyst_id)
    ncos = {k: len(v) for k, v in ncos_sets.items()}
    top10_census = {q: {b: len(s) for b, s in brokers.items()} for q, brokers in broker_analysts.items()}

    # (c) last estimate per (identity, firm, period); later input row wins ties
    best: dict[tuple[str, str, Quarter], tuple[int, int, Estimate]] = {}
    for idx, est in enumerate(window):
        key = (_identity_of(est, identity), est.firm_id, est.period)
        cur = best.get(key)
        if cur is None or (est.estimate_ts, idx) > cur[:2]:
            best[key] = (est.estimate_ts, idx, est)
    report.rejects["superseded"] += len(window) - len(best)

    # ledger stream, chronological by announcement
    stream: list[LedgerRecord] = []
    for (ident, firm, period), (_, _, est) in best.items():
        act = actual_by[(firm, period)]
        stream.append(
            LedgerRecord(
                announce_ts=act.announce_ts,
                firm_id=firm,
                period=period,
                identity=ident,
                analyst_id=est.analyst_id,
                broker_id=est.broker_id,
                estimate_ts=est.estimate_ts,
                value_cents=est.value_cents,
                actual_cents=act.value_cents,
            )
        )
    stream.sort(key=lambda r: (r.announce_ts, r.firm_id, r.period))

    # (d) prior-record flags, evaluated over the whole stream with all
    # records at one announce time treated as simultaneous
    has_prior: dict[tuple[str, str, Quarter], bool] = {}
    seen: set[tuple[str, str]] = set()
    i = 0
    while i < len(stream):
        j = i
        while j < len(stream) and stream[j].announce_ts == stream[i].announce_ts:
            j += 1
        for rec in stream[i:j]:
            has_prior[(rec.identity, rec.firm_id, rec.period)] = (rec.identity, rec.firm_id) in seen
        for rec in stream[i:j]:
            seen.add((rec.identity, rec.firm_id))
        i = j

    # group deduped records by event, apply (d), (a), (e)
    by_event: dict[tuple[str, Quarter], list[LedgerRecord]] = defaultdict(list)
    for rec in stream:
        by_event[(rec.firm_id, rec.period)].append(rec)

    events: list[ObjectEvent] = []
    for (firm, period), recs in by_event.items():
        act = actual_by[(firm, period)]
        survivors = []
        for rec in recs:
            if cfg.require_prior_record and not has_prior[(rec.identity, rec.firm_id, rec.period)]:
                report.rejects["no_prior_record"] += 1
            else:
                survivors.append(rec)
        if not survivors:
            continue
        # (a) surprise cap against the simple consensus of the survivors,
        # exact integer comparison: |sum - n*actual| > cap*n
        n = len(survivors)
        total = sum(r.value_cents for r in survivors)
        if abs(total - n * act.value_cents) > cfg.surprise_cap_cents * n:
            report.rejects["surprise_cap"] += n
            continue
        if n < cfg.min_analysts:
            report.rejects["below_min_analysts"] += n
            continue
        panel_ests = tuple(
            PanelEstimate(
                identity=r.identity,
                analyst_id=r.analyst_id,
                broker_id=r.broker_id,
                estimate_ts=r.estimate_ts,
                value_cents=r.value_cents,
                freq=freq[(r.identity, firm, period)],
            )
            for r in survivors
        )
        events.append(
            ObjectEvent(
                firm_id=firm,
                period=period,
                actual_cents=act.value_cents,
                announce_ts=act.announce_ts,
                estimates=panel_ests,
            )
        )
        report.kept += n

    events.sort(key=lambda e: (e.announce_ts, e.firm_id, e.period))
    rejected = sum(report.rejects.values())
    if report.kept + rejected != report.total:
        raise RuntimeError(
            f"panel accounting broken: kept {report.kept} + rejected {rejected} != total {report.total}"
        )
    return ObjectPanel(
        events=events,
        stream=stream,
        ncos=ncos,
        top10_census=top10_census,
        report=report,
        identity=identity,
    )
