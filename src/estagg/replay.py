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
buckets: the events of a panel with the same analyst count n, stacked k
at a time, so each numpy call covers a bucket instead of one event. The
panel lays its events out in buckets once (`Panel.layout`); a ledger pass
adds only the per-row columns its ledgers change. Every
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
from typing import Optional

import numpy as np

from .aggregate import ModeConfig, weight_vector
from .bias import BiasTracker, HistoryLedger
from .features import normalize_event
from .ingest import Panel, SizeBucket
from .model import Mask, PeriodModel, fit_period
from .periods import quarter_from_index

logger = logging.getLogger(__name__)


@dataclass
class ReplayResult:
    """One mode's replay of a panel: what scoring decided, as columns in
    announcement order, and the models fit. The events' other columns are the panel's."""

    panel: Panel
    improved: np.ndarray  # the improved consensus
    fallback_reason: np.ndarray  # int8 code into FALLBACK_NAMES: 0 none, 1 no previous quarter's model, 2 zero weights
    weights: np.ndarray  # one per panel row; event j's are bounds[j]:bounds[j+1]
    models: list[PeriodModel]


@dataclass
class LedgerState:
    """The panel's rows as one ledger pass read them, in row order, plus
    the normalized rows and per-quarter models derived from them, cached
    for the modes that share the pass."""

    panel: Panel
    key: tuple[bool, Optional[str]]
    adjusted: np.ndarray  # raw estimates minus their biases
    aae: np.ndarray  # absolute bias-adjusted errors, the dependent variable
    history: np.ndarray  # (rows, 2) experience and mean past absolute error
    _rows: dict = field(default_factory=dict, init=False, repr=False)
    _models: dict = field(default_factory=dict, init=False, repr=False)

    def rows(self, scaling: str) -> tuple[np.ndarray, np.ndarray]:
        """The panel's normalized rows (rows, 6) and dependent values, in
        row order; each size bucket is normalized as one stack."""
        if scaling not in self._rows:
            n_rows = len(self.aae)
            X_all, y_all = np.empty((n_rows, 6)), np.empty(n_rows)
            for bucket in self.panel.layout.buckets:
                rows = bucket.rows
                features = np.concatenate([self.panel.features[rows], self.history[rows]], axis=-1)
                X_all[rows], y_all[rows] = normalize_event(features, self.aae[rows], scaling)
            self._rows[scaling] = X_all, y_all
        return self._rows[scaling]

    def models(self, scaling: str, mask: Mask) -> dict[int, PeriodModel]:
        """Fitted models by quarter index, in quarter order; each quarter
        fits its events' rows in announcement order."""
        key = (scaling, mask)
        if key not in self._models:
            X, y = self.rows(scaling)
            fitted = {}
            qidx = self.panel.layout.qidx
            first = np.flatnonzero(np.diff(qidx, prepend=qidx[:1] - 1))  # each quarter's first; qidx never falls
            edges = self.panel.bounds[np.append(first, len(qidx))].tolist()
            for q, start, stop in zip(qidx[first].tolist(), edges, edges[1:]):
                model = fit_period(X[start:stop], y[start:stop], quarter_from_index(q), mask)
                if model is not None:
                    fitted[q] = model
            self._models[key] = fitted
        return self._models[key]


def ledger_key(mode: ModeConfig) -> tuple[bool, Optional[str]]:
    """Modes with equal keys read identical ledgers on the same panel."""
    return (mode.use_bias, mode.bias_key if mode.use_bias else None)


def ledger_state(panel: Panel, key: tuple[bool, Optional[str]]) -> LedgerState:
    """Record the panel's stream in the ledgers of `key` (see `ledger_key`)
    and read every kept estimate's bias and history as of its own announce
    time, so no record at that time is visible to it."""
    stream = panel.stream
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
    raw, bias = panel.value_cents.astype(float), bias[panel.records]
    actual = np.repeat(panel.events.value_cents, np.diff(panel.bounds)).astype(float)
    return LedgerState(panel, key, raw - bias, np.abs((raw - actual) - bias), history)


# the name of each fallback_reason code, as events_*.csv writes it
FALLBACK_NAMES = ("", "no_previous_model", "degenerate_weights")


def improved_consensus(
    state: LedgerState,
    bucket: SizeBucket,
    X: np.ndarray,
    mode: ModeConfig,
    models: dict[int, PeriodModel],
) -> np.recarray:
    """Score a bucket's events, in bucket order, from their rows of the
    ledger pass `state`, the panel's normalized rows `X` in row order and
    the model of each one's previous quarter in `models` (by quarter index).
    Each record is an event's `improved`, `fallback_reason` code and (n,) `weights`.

    The events with a model gather their (n, 6) design matrices from `X`
    through the bucket's rows. Each event's predictions and weighted sum
    are one (n, 6) @ (6, 1) and one (1, n) @ (n, 1) product of its own
    matrix, the arithmetic of scoring it alone.
    """
    adjusted = state.adjusted[bucket.rows]
    k, n = adjusted.shape
    fallback = np.zeros(k, np.int8)
    if mode.method == "closest":
        actual = state.panel.events.value_cents[bucket.order].astype(float)
        pick = np.abs(adjusted - actual[:, None]).argmin(axis=-1)
        improved = adjusted[np.arange(k), pick]
        weights = np.zeros((k, n))
        weights[np.arange(k), pick] = 1.0
    else:
        improved = adjusted.mean(axis=-1)
        weights = np.full((k, n), 1.0 / n)
        if mode.use_expertise:
            # one model lookup per previous quarter of the bucket's events
            quarters, of_quarter = np.unique(state.panel.layout.qidx[bucket.order] - 1, return_inverse=True)
            prev = [models.get(q) for q in quarters.tolist()]
            fitted = np.flatnonzero(np.array([model is not None for model in prev])[of_quarter])
            fallback[:] = 1
            fallback[fitted] = 0
        else:
            fitted = np.empty(0, np.int64)
        if len(fitted):
            betas = np.array([np.zeros(X.shape[-1]) if model is None else model.beta for model in prev])
            w = weight_vector((X[bucket.rows[fitted]] @ betas[of_quarter[fitted], :, None])[..., 0], mode.exponent)
            total = w.sum(axis=-1)
            positive = total > 0
            weighted = fitted[positive]
            w, total = w[positive], total[positive]
            improved[weighted] = (w[:, None, :] @ adjusted[weighted][..., None])[:, 0, 0] / total
            weights[weighted] = w / total[:, None]
            fallback[fitted[~positive]] = 2
    dtype = [("improved", float), ("fallback_reason", np.int8), ("weights", float, (n,))]
    return np.rec.fromarrays([improved, fallback, weights], dtype=dtype)


def run_mode(panel: Panel, mode: ModeConfig, state: Optional[LedgerState] = None) -> ReplayResult:
    """Replay one mode over the whole panel, scoring from ``state`` (a
    ledger pass over this panel with the mode's ledger key) when given."""
    if state is None:
        state = ledger_state(panel, ledger_key(mode))
    elif state.panel is not panel or state.key != ledger_key(mode):
        raise ValueError(f"mode {mode.label}: ledger state is for another panel or bias ledger")
    models = state.models(mode.scaling, mode.variable_mask)
    X, _ = state.rows(mode.scaling)
    # the buckets hold the events by size; scatter them back into announcement order
    improved, fallback_reason = np.empty(len(panel.events)), np.empty(len(panel.events), np.int8)
    weights = np.empty(len(panel.value_cents))
    for bucket in panel.layout.buckets:
        scored = improved_consensus(state, bucket, X, mode, models)
        improved[bucket.order], fallback_reason[bucket.order] = scored.improved, scored.fallback_reason
        weights[bucket.rows] = scored.weights
    logger.info("mode %s: %d events scored, %d models fit", mode.label, len(improved), len(models))
    return ReplayResult(panel, improved, fallback_reason, weights, list(models.values()))
