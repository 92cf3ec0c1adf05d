"""Chronological replay: ledgers, features, models and consensus per quarter.

The replay has two parts. A ledger pass records the panel's whole stream
in the bias and history ledgers, which take each record's own-time prefix
sums over its key's records at strictly earlier announce times, and reads
every kept estimate's as the stream record it is. Records at one announce
time are not visible to each other, so simultaneous announcements cannot
leak into each other. Mode scoring then normalizes, fits and weights from
those reads; every mode with the same bias ledger (see `ledger_key`) can
score from one pass.

A panel's events are rows of an actuals table, and event j's estimates
are the panel's rows bounds[j]:bounds[j+1]. Scoring works on size
buckets: the events of a pass with the same analyst count n, stacked k
at a time, so each numpy call covers a bucket instead of one event. Every
reduction runs over a contiguous innermost axis and every product is per
event, so each event's arithmetic, and with it every output bit, is the
same as scoring the event alone.

A quarter's model is fit from that quarter's events only and is used
exclusively in the next calendar quarter; a quarter with no model makes
its successor fall back to equal weights rather than reaching further back.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .aggregate import EventAggregate, ModeConfig, weight_vector
from .bias import BiasTracker, HistoryLedger
from .features import normalize_event
from .ingest import Panel
from .model import Mask, PeriodModel, fit_period
from .periods import quarter_from_index, quarter_indices

logger = logging.getLogger(__name__)


@dataclass
class ReplayResult:
    outcomes: list[EventAggregate]
    models: list[PeriodModel]


@dataclass
class SizeBucket:
    """The events of one ledger pass that have n analysts each, in
    announcement order, as stacks of k events."""

    order: np.ndarray  # (k,) each event's position among the panel's events
    qidx: np.ndarray  # (k,) quarter index of each announcement
    headers: list[tuple]  # each event's first five EventAggregate fields
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
    qidx: np.ndarray  # quarter index of each event's announcement
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
            quarters, first = np.unique(self.qidx, return_index=True)  # each quarter's first event
            edges = self.panel.bounds[np.append(first, len(self.qidx))].tolist()
            for qidx, start, stop in zip(quarters.tolist(), edges, edges[1:]):
                model = fit_period(X[start:stop], y[start:stop], quarter_from_index(qidx), mask)
                if model is not None:
                    fitted[qidx] = model
            self._models[key] = fitted
        return self._models[key]


def ledger_key(mode: ModeConfig) -> tuple[bool, Optional[str]]:
    """Modes with equal keys read identical ledgers on the same panel."""
    return (mode.use_bias, mode.bias_key if mode.use_bias else None)


def _size_buckets(panel: Panel, qidx: np.ndarray, q0: int, bias: np.ndarray, history: np.ndarray) -> list[SizeBucket]:
    """The panel's events grouped by analyst count, in ascending count,
    with each row's bias and (experience, mean past error). Quarter offsets
    count from quarter index `q0`."""
    events = panel.events
    # one (year, quarter) tuple per distinct period, shared by its events
    codes, period_of = np.unique(events.year * 4 + events.quarter - 1, return_inverse=True)
    periods = [quarter_from_index(code) for code in codes.tolist()]
    sizes = np.diff(panel.bounds)
    by_size = np.argsort(sizes, kind="stable")
    buckets = []
    for order in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        if not len(order):
            continue
        rows = panel.bounds[order][:, None] + np.arange(sizes[order[0]])
        raw = panel.value_cents[rows].astype(float)
        actual = events.value_cents[order].astype(float)
        headers = zip(
            map(events.firm_ids.__getitem__, events.firm[order].tolist()),
            map(periods.__getitem__, period_of[order].tolist()),
            events.announce_ts[order].tolist(),
            (qidx[order] - q0).tolist(),
            events.value_cents[order].tolist(),
        )
        buckets.append(
            SizeBucket(
                order=order,
                qidx=qidx[order],
                headers=list(headers),
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
    q0 = int(quarter_indices(stream.announce_ts[0])) if len(stream.announce_ts) else 0
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
        record = panel.records[np.argmin(experience)]
        where = f"{stream.ident_ids[stream.ident[record]]}/{stream.firm_ids[stream.firm[record]]}"
        raise RuntimeError(f"estimate without prior record reached scoring: {where}")
    history = np.column_stack([experience, hist.mean_abs_error(panel.records)])
    qidx = quarter_indices(panel.events.announce_ts)
    return LedgerState(panel, key, qidx, _size_buckets(panel, qidx, q0, bias[panel.records], history))


_FALLBACKS = (None, "no_previous_model", "degenerate_weights")


def improved_consensus(
    bucket: SizeBucket,
    X: np.ndarray,
    mode: ModeConfig,
    models: dict[int, PeriodModel],
) -> list[EventAggregate]:
    """Score a bucket's events, in bucket order, from their ledger records,
    their normalized (k, n, 6) design matrices `X` and the model of each
    one's previous quarter in `models` (by quarter index).

    Each event's predictions and weighted sum are one (n, 6) @ (6, 1) and
    one (1, n) @ (n, 1) product of its own stack, the arithmetic of
    scoring it alone.
    """
    adjusted = bucket.adjusted
    k, n = adjusted.shape
    fallback = np.zeros(k, np.int64)  # positions in _FALLBACKS
    if mode.method == "closest":
        pick = np.abs(adjusted - bucket.actual[:, None]).argmin(axis=-1)
        improved = adjusted[np.arange(k), pick]
        weights = np.zeros((k, n))
        weights[np.arange(k), pick] = 1.0
    else:
        improved = adjusted.mean(axis=-1)
        weights = np.full((k, n), 1.0 / n)
        if mode.use_expertise:
            # one model lookup per previous quarter of the bucket's events
            quarters, of_quarter = np.unique(bucket.qidx - 1, return_inverse=True)
            prev = [models.get(q) for q in quarters.tolist()]
            fitted = np.flatnonzero(np.array([model is not None for model in prev])[of_quarter])
            fallback[:] = 1
            fallback[fitted] = 0
        else:
            fitted = np.empty(0, np.int64)
        if len(fitted):
            betas = np.array([np.zeros(X.shape[-1]) if model is None else model.beta for model in prev])
            w = weight_vector((X[fitted] @ betas[of_quarter[fitted], :, None])[..., 0], mode.exponent)
            total = w.sum(axis=-1)
            positive = total > 0
            weighted = fitted[positive]
            w, total = w[positive], total[positive]
            improved[weighted] = (w[:, None, :] @ adjusted[weighted][..., None])[:, 0, 0] / total
            weights[weighted] = w / total[:, None]
            fallback[fitted[~positive]] = 2
    fallbacks = map(_FALLBACKS.__getitem__, fallback.tolist())
    return [
        EventAggregate(*header, simple, value, w, n, reason)
        for header, simple, value, w, reason in zip(
            bucket.headers, bucket.simple.tolist(), improved.tolist(), weights, fallbacks
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
    scored = list(chain.from_iterable(improved_consensus(b, X, mode, models) for b, X in zip(state.buckets, stacks)))
    # the buckets hold the events by size; put them back in announcement order
    by_size = np.concatenate([np.empty(0, np.int64)] + [bucket.order for bucket in state.buckets])
    outcomes = list(map(scored.__getitem__, np.argsort(by_size).tolist()))
    logger.info("mode %s: %d events scored, %d models fit", mode.label, len(outcomes), len(models))
    return ReplayResult(outcomes=outcomes, models=list(models.values()))
