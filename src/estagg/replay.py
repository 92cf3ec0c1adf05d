"""Chronological replay: ledgers, features, models and consensus per quarter.

The replay has two parts. A ledger pass records the panel's whole stream
in the bias and history ledgers, which take each record's own-time prefix
sums over its key's records at strictly earlier announce times, and reads
every kept estimate's as the stream record it is. Records at one announce
time are not visible to each other, so simultaneous announcements cannot
leak into each other. Mode scoring then normalizes, fits and weights from
those reads; every mode with the same bias ledger (see `ledger_key`) can
score from one pass.

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
    """The events of one ledger pass that have n analysts each, in
    announcement order, as stacks of k events."""

    events: list[PanelEvent]
    order: list[int]  # each event's position among the panel's events
    qidx: list[int]  # quarter index of each announcement
    rows: np.ndarray  # (k, n) the events' rows, in event order
    actual: np.ndarray  # (k,) the actuals as floats
    simple: np.ndarray  # (k,) plain mean of the raw estimates
    adjusted: np.ndarray  # (k, n) raw estimates minus their biases
    aae: np.ndarray  # (k, n) absolute bias-adjusted errors, the dependent variable
    features: np.ndarray  # (k, n, 6) raw attributes, FEATURE_NAMES order


@dataclass
class LedgerState:
    """The panel's events as one ledger pass read them, grouped into size
    buckets, plus the normalized rows and per-quarter models derived from
    them, cached for the modes that share the pass."""

    panel: Panel
    key: tuple[bool, Optional[str]]
    q0: int  # quarter index of the panel's first announcement
    qidx: list[int]  # quarter index of each event's announcement
    buckets: list[SizeBucket]
    _rows: dict = field(default_factory=dict, init=False, repr=False)
    _models: dict = field(default_factory=dict, init=False, repr=False)

    def rows(self, scaling: str) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Each bucket's normalized (k, n, 6) design matrices, and all of
        the panel's normalized rows and dependent values in row order."""
        if scaling not in self._rows:
            n_rows = len(self.panel.value_cents)
            X_all, y_all = np.empty((n_rows, 6)), np.empty(n_rows)
            stacks = []
            for bucket in self.buckets:
                X, y = normalize_event(bucket.features, bucket.aae, scaling)
                X_all[bucket.rows] = X
                y_all[bucket.rows] = y
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
            for qidx, members in groupby(zip(self.qidx, self.panel.events), key=itemgetter(0)):
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


def _size_buckets(panel: Panel, qidx: list[int], bias: np.ndarray, history: np.ndarray) -> list[SizeBucket]:
    """The panel's events grouped by analyst count, in ascending count,
    with each row's bias and (experience, mean past error)."""
    by_size: dict[int, list[int]] = {}
    for j, event in enumerate(panel.events):
        by_size.setdefault(_size(event), []).append(j)
    buckets = []
    for n, order in sorted(by_size.items()):
        events = [panel.events[j] for j in order]
        rows = np.array([event.rows.start for event in events])[:, None] + np.arange(n)
        raw = panel.value_cents[rows].astype(float)
        actual = np.array([event.actual_cents for event in events], dtype=float)
        buckets.append(
            SizeBucket(
                events=events,
                order=order,
                qidx=[qidx[j] for j in order],
                rows=rows,
                actual=actual,
                simple=raw.mean(axis=-1),
                adjusted=raw - bias[rows],
                aae=np.abs((raw - actual[:, None]) - bias[rows]),
                features=np.concatenate([panel.features[rows], history[rows]], axis=-1),
            )
        )
    return buckets


def ledger_state(panel: Panel, key: tuple[bool, Optional[str]]) -> LedgerState:
    """Record the panel's stream in the ledgers of `key` (see `ledger_key`)
    and read every kept estimate's bias and history as of its own announce
    time, so no record at that time is visible to it."""
    stream = panel.stream
    q0 = quarter_index(quarter_of_ts(int(stream.announce_ts[0]))) if len(stream.announce_ts) else 0
    use_bias, bias_key = key
    # each stream record's bias as of its own announce time; the no-bias
    # pass reads no bias, so it keeps no bias ledger
    bias = np.zeros(len(stream.error_cents))
    if use_bias:
        bias_tracker = BiasTracker(bias_key)
        bias_tracker.record(stream.announce_ts, stream.ident, stream.firm, stream.error_cents)
        bias = bias_tracker.bias(np.arange(len(bias)))
    hist = HistoryLedger()
    hist.record(stream.announce_ts, stream.ident, stream.firm, np.abs(stream.error_cents - bias))

    # every kept estimate is a stream record, so its reads are that record's
    experience = hist.experience(panel.records)
    if not experience.all():
        i = int(np.argmin(experience))
        where = f"{panel.idents[i]}/{stream.firm_ids[stream.firm[panel.records[i]]]}"
        raise RuntimeError(f"estimate without prior record reached scoring: {where}")
    history = np.column_stack([experience, hist.mean_abs_error(panel.records)])
    qidx = [quarter_index(quarter_of_ts(event.announce_ts)) for event in panel.events]
    return LedgerState(panel, key, q0, qidx, _size_buckets(panel, qidx, bias[panel.records], history))


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
    outcomes: list = [None] * len(panel.events)
    for bucket, X in zip(state.buckets, stacks):
        for j, agg in zip(bucket.order, improved_consensus(bucket, X, mode, models, state.q0)):
            outcomes[j] = agg
    logger.info("mode %s: %d events scored, %d models fit", mode.label, len(outcomes), len(models))
    return ReplayResult(outcomes=outcomes, models=list(models.values()))
