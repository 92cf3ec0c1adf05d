"""Chronological replay: ledgers, features, models and consensus per quarter.

The replay has two parts. A ledger pass records the panel's whole stream
in the bias and history ledgers, which take each record's own-time prefix
sums over its key's records at strictly earlier announce times, and reads
every kept estimate's as the stream record it is. Records at one announce
time are not visible to each other, so simultaneous announcements cannot
leak into each other. Mode scoring then normalizes, fits and weights from
those reads; every mode with the same bias key (None for no bias
correction) scores from one pass.

Each quantity is derived where it stops changing. Once per panel: the
stream's key index per granularity (sort order, own-time counts, run
tables), whose (identity, firm) counts are also the experience feature,
and the five ledger-free columns normalized per scaling
(`Panel.ledger_free`). Once per pass: the ledgers' sums through those
indexes, and per scaling the normalized past error and dependent values
with each quarter's 6x6 Gram matrix, of which every variable mask's fit
takes a submatrix. A pass keeps these for one scaling at a time, so its
modes score one scaling after another. Once per weighted mode: each
row's prediction.

A panel's events are rows of an actuals table, and event j's estimates
are the panel's rows bounds[j]:bounds[j+1]. The panel lays its events out
once (`Panel.layout`): in quarter runs, whose rows are contiguous, to fit
and predict one product per quarter, and in size buckets, the events of
n analysts stacked k at a time, so each numpy call of scoring covers a
bucket. A ledger pass adds only the per-row columns its ledgers change.
Every reduction runs over a contiguous innermost axis and every weighted
sum is per event, so every output bit is that of scoring the event alone.

A quarter's model is fit from that quarter's events only and is used
exclusively in the next calendar quarter; a quarter with no model makes
its successor fall back to equal weights rather than reaching further back.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

import numpy as np

from .aggregate import ModeConfig, weight_vector
from .bias import BiasTracker, HistoryLedger
from .features import normalize_event
from .ingest import Panel, SizeBucket, log_info
from .model import Mask, PeriodModel, fit_period, quarter_grams
from .periods import quarter_from_index


# one mode's replay of a panel: what scoring decided, one entry per event in announcement
# order (no weights), and the models fit; the events' other columns are the panel's
ReplayResult = namedtuple(
    "ReplayResult",
    [
        "panel",
        "improved",  # the improved consensus
        "fallback_reason",  # int8 code into FALLBACK_NAMES: 0 none, 1 no previous quarter's model, 2 zero weights
        "models",  # the PeriodModels fit, in quarter order
    ],
)


class LedgerState:
    """The panel's rows as one ledger pass read them, in row order, plus
    the normalized rows, per-quarter Gram matrices and models derived from
    them under one scaling, cached for the modes that share the pass and
    that scaling. Asking for another scaling lets them go before its rows
    are built, so modes given one scaling after another normalize and fit
    each scaling once."""

    def __init__(self, panel: Panel, key: Optional[str], adjusted: np.ndarray, aae: np.ndarray, mae: np.ndarray):
        self.panel = panel
        self.key = key  # the bias key of the modes the pass serves
        self.adjusted = adjusted  # raw estimates minus their biases
        self.aae = aae  # absolute bias-adjusted errors, the dependent variable
        self.mae = mae  # mean past absolute error, the one feature a ledger pass changes
        self._scaling, self._rows, self._models = None, None, {}  # the scaling held, its (X, y, Grams), models by mask

    def rows(self, scaling: str) -> tuple[np.ndarray, np.ndarray]:
        """The panel's normalized rows (rows, 6) and dependent values, in
        row order: the panel's ledger-free columns, then each size bucket's
        past error and dependent values normalized as one stack."""
        if scaling != self._scaling:
            self._scaling, self._rows, self._models = None, None, {}  # before the build: one scaling's rows are alive
            X, y = np.empty((len(self.aae), 6)), np.empty(len(self.aae))
            X[:, :5] = self.panel.ledger_free(scaling).T
            for bucket in self.panel.layout.buckets:
                rows = bucket.rows
                X[rows, 5], y[rows] = normalize_event(self.mae[rows], self.aae[rows], scaling)
            self._scaling, self._rows = scaling, (X, y, quarter_grams(X, self.panel.layout.edges))
        return self._rows[:2]

    def models(self, scaling: str, mask: Mask) -> dict[int, PeriodModel]:
        """Fitted models by quarter index, in quarter order; each quarter
        fits its events' rows in announcement order, from its Gram matrix
        under the scaling."""
        X, y = self.rows(scaling)
        if mask not in self._models:
            quarters, edges = self.panel.layout.quarters, self.panel.layout.edges
            fitted = fit_period(X, y, edges, list(map(quarter_from_index, quarters)), self._rows[2], mask)
            self._models[mask] = {q: model for q, model in zip(quarters, fitted) if model is not None}
        return self._models[mask]

    def predicted(self, scaling: str, mask: Mask) -> np.ndarray:
        """Each row's predicted error under its event's previous calendar
        quarter's model, one product per quarter; NaN where it has none."""
        X, _ = self.rows(scaling)
        models, edges = self.models(scaling, mask), self.panel.layout.edges
        out = np.full(len(X), np.nan)
        for q, start, stop in zip(self.panel.layout.quarters, edges, edges[1:]):
            if q - 1 in models:
                out[start:stop] = X[start:stop] @ models[q - 1].beta
        return out


def ledger_state(panel: Panel, bias_key: Optional[str]) -> LedgerState:
    """Record the panel's stream in the bias ledger of `bias_key` and the
    history ledger, through the stream's key indexes, and read every kept
    estimate's bias and history as of its own announce time, so no record
    at that time is visible to it."""
    stream = panel.stream
    # each stream record's bias as of its own announce time; the no-bias
    # pass (bias_key None) reads no bias, so it keeps no bias ledger
    bias = np.zeros(len(stream.error_cents))
    if bias_key is not None:
        bias_tracker = BiasTracker(bias_key)
        bias_tracker.record(stream, stream.error_cents)
        bias = bias_tracker.bias(np.arange(len(bias)))
    hist = HistoryLedger()
    hist.record(stream, np.abs(stream.error_cents - bias))

    # every kept estimate is a stream record, so its reads are that record's
    experience = hist.experience(panel.records)
    if not experience.all():
        record = panel.records[np.argmin(experience)]
        where = f"{stream.ident_ids[stream.ident[record]]}/{stream.firm_ids[stream.firm[record]]}"
        raise RuntimeError(f"estimate without prior record reached scoring: {where}")
    mae = hist.mean_abs_error(panel.records)
    raw, bias = panel.value_cents.astype(float), bias[panel.records]
    actual = np.repeat(panel.events.value_cents, np.diff(panel.bounds)).astype(float)
    return LedgerState(panel, bias_key, raw - bias, np.abs((raw - actual) - bias), mae)


# the name of each fallback_reason code, as events_*.csv writes it
FALLBACK_NAMES = ("", "no_previous_model", "degenerate_weights")


def improved_consensus(
    state: LedgerState, bucket: SizeBucket, mode: ModeConfig, predicted: Optional[np.ndarray]
) -> np.recarray:
    """Score a bucket's events, in bucket order, from their rows of the
    ledger pass `state` and, for a weighted mode, of the mode's
    `LedgerState.predicted`, NaN for an event with no previous quarter's model.
    Each record is an event's `improved` and `fallback_reason` code; the weights behind them are not kept.
    Each weighted sum is one (1, n) @ (n, 1) product, the arithmetic of scoring the event alone.
    """
    adjusted = state.adjusted[bucket.rows]
    fallback = np.zeros(len(adjusted), np.int8)
    if mode.method == "closest":
        actual = state.panel.events.value_cents[bucket.order].astype(float)
        improved = adjusted[np.arange(len(adjusted)), np.abs(adjusted - actual[:, None]).argmin(axis=-1)]
    else:
        improved = adjusted.mean(axis=-1)
    if mode.method == "weighted":
        pred = predicted[bucket.rows]
        w = weight_vector(pred, mode.exponent)
        total = w.sum(axis=-1)
        fallback = np.where(np.isnan(pred[:, 0]), 1, np.where(total > 0, 0, 2)).astype(np.int8)
        weighted = np.flatnonzero(fallback == 0)
        w, total = w[weighted], total[weighted]
        improved[weighted] = (w[:, None, :] @ adjusted[weighted][..., None])[:, 0, 0] / total
    return np.rec.fromarrays([improved, fallback], names=("improved", "fallback_reason"))


def run_mode(state: LedgerState, mode: ModeConfig) -> ReplayResult:
    """Replay one mode over the whole panel of the ledger pass `state`,
    which must be keyed by the mode's bias key, into one entry per event."""
    if state.key != mode.bias_key:
        raise ValueError(f"mode {mode.label}: ledger state is for bias key {state.key!r}, not {mode.bias_key!r}")
    panel = state.panel
    models = state.models(mode.scaling, mode.variable_mask)
    predicted = state.predicted(mode.scaling, mode.variable_mask) if mode.method == "weighted" else None
    # the buckets hold the events by size; scatter them back into announcement order
    improved, fallback_reason = np.empty(len(panel.events)), np.empty(len(panel.events), np.int8)
    for bucket in panel.layout.buckets:
        scored = improved_consensus(state, bucket, mode, predicted)
        improved[bucket.order], fallback_reason[bucket.order] = scored.improved, scored.fallback_reason
    log_info(__name__, "mode %s: %d events scored, %d models fit", mode.label, len(improved), len(models))
    return ReplayResult(panel, improved, fallback_reason, list(models.values()))
