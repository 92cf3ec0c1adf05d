"""Chronological replay: ledgers, features, models and consensus per quarter.

The replay has two parts. A ledger pass walks the panel in announcement
order and records, for every scored event, what the bias and history
ledgers said at its announcement. Within one announce timestamp all bias
reads happen before any ledger update, so simultaneous announcements
cannot leak into each other. Mode scoring then normalizes, fits and
weights from that record; every mode with the same bias ledger (see
`ledger_key`) can score from one pass.

Scoring works on size buckets: the events of a pass with the same analyst
count n, stacked k at a time, so each numpy call covers a bucket instead
of one event. Every reduction runs over a contiguous innermost axis and
every product is per event, so each event's arithmetic, and with it every
output bit, is the same as scoring the event alone.

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
class SizeBucket:
    """The scored events of one ledger pass that have n analysts each, in
    announcement order, as stacks of k events."""

    events: list[PanelEvent]
    order: list[int]  # each event's position among the pass's scored events
    qidx: list[int]  # quarter index of each announcement
    pos: np.ndarray  # (k, n) the events' rows among the pass's rows, in event order
    actual: np.ndarray  # (k,) the actuals as floats
    simple: np.ndarray  # (k,) plain mean of the raw estimates
    adjusted: np.ndarray  # (k, n) raw estimates minus their biases
    aae: np.ndarray  # (k, n) absolute bias-adjusted errors, the dependent variable
    features: np.ndarray  # (k, n, 6) raw attributes, FEATURE_NAMES order


@dataclass
class LedgerState:
    """The scored events of one ledger pass, grouped into size buckets, plus
    the normalized rows and per-quarter models derived from them, cached
    for the modes that share the pass."""

    panel: Panel
    key: tuple[bool, Optional[str]]
    q0: int  # quarter index of the panel's first announcement
    events: list[PanelEvent]  # scored, in announcement order
    qidx: list[int]  # quarter index of each scored event's announcement
    buckets: list[SizeBucket]
    _rows: dict = field(default_factory=dict, init=False, repr=False)
    _models: dict = field(default_factory=dict, init=False, repr=False)

    def rows(self, scaling: str) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Each bucket's normalized (k, n, 6) design matrices, and all of
        the pass's normalized rows and dependent values in event order."""
        if scaling not in self._rows:
            n_rows = sum(_size(ev) for ev in self.events)
            X_all, y_all = np.empty((n_rows, 6)), np.empty(n_rows)
            stacks = []
            for bucket in self.buckets:
                X, y = normalize_event(bucket.features, bucket.aae, scaling)
                X_all[bucket.pos] = X
                y_all[bucket.pos] = y
                stacks.append(X)
            self._rows[scaling] = stacks, X_all, y_all
        return self._rows[scaling]

    def models(self, scaling: str, mask: Mask) -> dict[int, PeriodModel]:
        """Fitted models by quarter index, in quarter order; each quarter
        fits its events' rows in announcement order."""
        key = (scaling, mask)
        if key not in self._models:
            _, X, y = self.rows(scaling)
            fitted = {}
            stop = 0
            for qidx, members in groupby(zip(self.qidx, self.events), key=itemgetter(0)):
                start, stop = stop, stop + sum(_size(ev) for _, ev in members)
                model = fit_period(X[start:stop], y[start:stop], quarter_from_index(qidx), mask)
                if model is not None:
                    fitted[qidx] = model
            self._models[key] = fitted
        return self._models[key]


def ledger_key(mode: ModeConfig) -> tuple[bool, Optional[str]]:
    """Modes with equal keys read identical ledgers on the same panel."""
    return (mode.use_bias, mode.bias_key if mode.use_bias else None)


def _size(event: PanelEvent) -> int:
    return event.rows.stop - event.rows.start


def _ledger_reads(
    panel: Panel,
    event: PanelEvent,
    bias_tracker: Optional[BiasTracker],
    hist: HistoryLedger,
) -> tuple[list[float], list[tuple[int, float]]]:
    """Each of an event's estimates' bias, experience and mean past error,
    as the ledgers hold them now."""
    idents = panel.idents[event.rows]
    if bias_tracker is None:
        biases = [0.0] * len(idents)
    else:
        biases = [bias_tracker.bias(i, event.firm_id) for i in idents]
    history = []
    for ident in idents:
        exp = hist.experience(ident, event.firm_id)
        if exp == 0:
            raise RuntimeError(f"estimate without prior record reached scoring: {ident}/{event.firm_id}")
        history.append((exp, hist.mean_abs_error(ident, event.firm_id)))
    return biases, history


def _size_buckets(panel: Panel, scored: list[tuple[PanelEvent, int, list, list]]) -> list[SizeBucket]:
    """The scored events grouped by analyst count, in ascending count."""
    by_size: dict[int, list[int]] = {}
    for j, (event, *_) in enumerate(scored):
        by_size.setdefault(_size(event), []).append(j)
    offsets = np.cumsum([0] + [_size(event) for event, *_ in scored])
    buckets = []
    for n, order in sorted(by_size.items()):
        events, qidx, biases, history = zip(*(scored[j] for j in order))
        span = np.arange(n)
        rows = np.array([event.rows.start for event in events])[:, None] + span
        raw = panel.value_cents[rows].astype(float)
        biases = np.array(biases, dtype=float)
        actual = np.array([event.actual_cents for event in events], dtype=float)
        F = np.empty((len(order), n, 6))
        F[..., :4] = panel.features[rows]
        F[..., 4:] = history
        buckets.append(
            SizeBucket(
                events=list(events),
                order=order,
                qidx=list(qidx),
                pos=offsets[order][:, None] + span,
                actual=actual,
                simple=raw.mean(axis=-1),
                adjusted=raw - biases,
                aae=np.abs((raw - actual[:, None]) - biases),
                features=F,
            )
        )
    return buckets


def ledger_state(panel: Panel, key: tuple[bool, Optional[str]]) -> LedgerState:
    """Walk the panel once with the ledgers of `key` (see `ledger_key`),
    recording every scored event against frozen ledgers before the updates
    at its announce timestamp are applied."""
    if not panel.stream:
        return LedgerState(panel, key, 0, [], [], [])
    q0 = quarter_index(quarter_of_ts(panel.stream[0][0]))
    use_bias, bias_key = key
    # the no-bias pass reads no bias, so it keeps no bias ledger
    bias_tracker = BiasTracker(bias_key) if use_bias else None
    hist = HistoryLedger()
    scored: list[tuple[PanelEvent, int, list, list]] = []

    # each event's announce time is in the stream, which is chronological
    events = panel.events
    next_event = 0
    for ts, records in groupby(panel.stream, key=itemgetter(0)):
        qidx = quarter_index(quarter_of_ts(ts))

        # phase 1: read the ledgers for events at this timestamp
        while next_event < len(events) and events[next_event].announce_ts == ts:
            event = events[next_event]
            scored.append((event, qidx, *_ledger_reads(panel, event, bias_tracker, hist)))
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
    return LedgerState(
        panel, key, q0, [s[0] for s in scored], [s[1] for s in scored], _size_buckets(panel, scored)
    )


def improved_consensus(
    bucket: SizeBucket,
    X: np.ndarray,
    mode: ModeConfig,
    models: dict[int, PeriodModel],
    q0: int,
) -> list[EventAggregate]:
    """Score a bucket's events, in bucket order, from their ledger records,
    their normalized (k, n, 6) design matrices `X` and the model of each
    one's previous quarter in `models` (by quarter index). Quarter offsets
    count from quarter index `q0`.

    Each event's predictions and weighted sum are one (n, 6) @ (6, 1) and
    one (1, n) @ (n, 1) product of its own stack, the arithmetic of
    scoring it alone.
    """
    adjusted = bucket.adjusted
    k, n = adjusted.shape
    fallback: list[Optional[str]] = [None] * k
    if mode.method == "closest":
        pick = np.abs(adjusted - bucket.actual[:, None]).argmin(axis=-1)
        improved = adjusted[np.arange(k), pick]
        weights = np.zeros((k, n))
        weights[np.arange(k), pick] = 1.0
    else:
        improved = adjusted.mean(axis=-1)
        weights = np.full((k, n), 1.0 / n)
        prev = [models.get(q - 1) for q in bucket.qidx] if mode.use_expertise else []
        fitted = [j for j, model in enumerate(prev) if model is not None]
        for j, model in enumerate(prev):
            if model is None:
                fallback[j] = "no_previous_model"
        if fitted:
            beta = np.array([prev[j].beta for j in fitted]).reshape(len(fitted), -1, 1)
            w = weight_vector((X[fitted] @ beta)[..., 0], mode.exponent)
            total = w.sum(axis=-1)
            positive = total > 0
            weighted = np.array(fitted)[positive]
            w, total = w[positive], total[positive]
            improved[weighted] = (w[:, None, :] @ adjusted[weighted][..., None])[:, 0, 0] / total
            weights[weighted] = w / total[:, None]
            for j in np.array(fitted)[~positive].tolist():
                fallback[j] = "degenerate_weights"
    return [
        EventAggregate(
            firm_id=event.firm_id,
            period=event.period,
            announce_ts=event.announce_ts,
            quarter_offset=qidx - q0,
            actual_cents=event.actual_cents,
            simple_consensus=simple,
            improved=value,
            weights=w,
            n_analysts=n,
            fallback_reason=reason,
        )
        for event, qidx, simple, value, w, reason in zip(
            bucket.events, bucket.qidx, bucket.simple.tolist(), improved.tolist(), weights, fallback
        )
    ]


def run_mode(panel: Panel, mode: ModeConfig, state: Optional[LedgerState] = None) -> ReplayResult:
    """Replay one mode over the whole panel, scoring from ``state`` (a
    ledger pass over this panel with the mode's ledger key) when given."""
    if state is None:
        state = ledger_state(panel, ledger_key(mode))
    elif state.panel is not panel or state.key != ledger_key(mode):
        raise ValueError(f"mode {mode.label}: ledger state is for another panel or bias ledger")
    models = state.models(mode.scaling, mode.variable_mask)
    stacks, _, _ = state.rows(mode.scaling)
    outcomes: list = [None] * len(state.events)
    for bucket, X in zip(state.buckets, stacks):
        for j, agg in zip(bucket.order, improved_consensus(bucket, X, mode, models, state.q0)):
            outcomes[j] = agg
    logger.info("mode %s: %d events scored, %d models fit", mode.label, len(outcomes), len(models))
    return ReplayResult(outcomes=outcomes, models=list(models.values()))
