"""Slow, obvious reference implementations the tests check the pipeline
against. None of them is used by the pipeline itself."""

import csv
import io
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from estagg.aggregate import _MARGIN_TOL, MODE_DESCRIPTIONS, ModeConfig
from estagg.evaluate import ModeResult, trend_stat
from estagg.ingest import (
    ACTUAL_COLUMNS,
    ESTIMATE_COLUMNS,
    HORIZON_CODES,
    ActualTable,
    FilterConfig,
    IngestReport,
    Panel,
    Reject,
    Stream,
)
from estagg.model import FULL_MASK, N_VARS, RIDGE, Mask, PeriodModel
from estagg.periods import Quarter, parse_ts, quarter_from_index
from estagg.replay import ReplayResult

SECONDS_PER_DAY = 86400.0


# The scalar quarter helpers that estagg.periods.quarter_indices replaced.


def quarter_of_ts(ts: int) -> Quarter:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return (dt.year, (dt.month - 1) // 3 + 1)


def quarter_index(q: Quarter) -> int:
    """Monotone integer index; consecutive quarters differ by exactly 1."""
    year, qq = q
    return year * 4 + (qq - 1)


# The dict ledgers that estagg.bias replaced with prefix sums: one record at
# a time, each read seeing every record made so far. Exact integer sums of
# signed errors (cents) and counts, divided only at query time.

GRANULARITIES = ("identity_firm", "identity", "firm", "global")


def blended_bias(firm_bias: float, identity_bias: float, lam: float = 0.5) -> float:
    """Convex blend of a firm-level and an identity-level bias estimate."""
    return lam * firm_bias + (1.0 - lam) * identity_bias


@dataclass
class ErrorLedger:
    """Running signed-error sums under one key granularity."""

    granularity: str = "identity_firm"
    _sums: dict = field(default_factory=dict)
    _counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")

    def _key(self, identity: str, firm: str):
        if self.granularity == "identity_firm":
            return (identity, firm)
        if self.granularity == "identity":
            return identity
        if self.granularity == "firm":
            return firm
        return "*"

    def record(self, identity: str, firm: str, err_cents: int) -> None:
        key = self._key(identity, firm)
        self._sums[key] = self._sums.get(key, 0) + err_cents
        self._counts[key] = self._counts.get(key, 0) + 1

    def bias(self, identity: str, firm: str) -> float:
        key = self._key(identity, firm)
        n = self._counts.get(key, 0)
        if n == 0:
            return 0.0
        return self._sums[key] / n


class BiasTracker:
    """Mode-facing bias lookup; handles the half/half blend as two ledgers."""

    def __init__(self, key: str = "identity_firm"):
        self.key = key
        if key == "half":
            self._firm = ErrorLedger("firm")
            self._ident = ErrorLedger("identity")
            self._ledgers = (self._firm, self._ident)
        else:
            self._ledgers = (ErrorLedger(key),)

    def record(self, identity: str, firm: str, err_cents: int) -> None:
        for ledger in self._ledgers:
            ledger.record(identity, firm, err_cents)

    def bias(self, identity: str, firm: str) -> float:
        if self.key == "half":
            return blended_bias(self._firm.bias(identity, firm), self._ident.bias(identity, firm))
        return self._ledgers[0].bias(identity, firm)


@dataclass
class HistoryLedger:
    """Per (identity, firm) coverage count and absolute-error history.

    The count is the number of prior recorded predictions (the experience
    variable); the running mean of recorded absolute adjusted errors is the
    past-accuracy variable.
    """

    _counts: dict = field(default_factory=dict)
    _aae_sums: dict = field(default_factory=dict)

    def record(self, identity: str, firm: str, aae: float) -> None:
        key = (identity, firm)
        self._counts[key] = self._counts.get(key, 0) + 1
        self._aae_sums[key] = self._aae_sums.get(key, 0.0) + aae

    def experience(self, identity: str, firm: str) -> int:
        return self._counts.get((identity, firm), 0)

    def mean_abs_error(self, identity: str, firm: str) -> float:
        key = (identity, firm)
        n = self._counts.get(key, 0)
        if n == 0:
            raise RuntimeError(f"no prior history for {key}; upstream filtering should prevent this")
        return self._aae_sums[key] / n


# The one-call own-time sums that estagg.ingest splits into a KeyIndex, built
# once per stream and key, and its per-ledger sums, unchanged.


def earlier(keys: np.ndarray, ts: np.ndarray, values: Optional[np.ndarray] = None) -> tuple:
    """For each record of a chronological stream, the count of its key's
    records at strictly earlier times and, given `values`, the sum of
    theirs, added in stream order (else None). The runs of one length share
    a (runs, length + 1) table, so the tables hold one entry per record plus
    one per run."""
    order = np.argsort(keys, kind="stable")  # keeps each key's records in time order
    keys, ts, at = keys[order], ts[order], np.arange(len(keys))
    back = np.empty_like(order)
    back[order] = at
    run = np.ones(len(keys), bool)  # where each key's run starts
    run[1:] = keys[1:] != keys[:-1]
    group = run.copy()  # where each (key, time) group starts
    group[1:] |= ts[1:] != ts[:-1]
    run_start = np.maximum.accumulate(np.where(run, at, 0))
    before = np.maximum.accumulate(np.where(group, at, 0)) - run_start
    if values is None:
        return before[back], None
    # one table per run length, runs ordered by length: row r of a table
    # holds a 0, then its run's values; summed left to right, entry (r, c) is
    # the sum of the run's first c records
    starts = np.flatnonzero(run)
    lengths = np.diff(starts, append=len(keys))
    by_length = np.argsort(lengths, kind="stable")
    values, sums = values[order], np.empty(len(keys), values.dtype)
    for runs in np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1):
        if len(runs):  # the split of no runs is one empty part
            rows = starts[runs][:, None] + np.arange(lengths[runs[0]])
            table = np.zeros((len(runs), rows.shape[1] + 1), values.dtype)
            table[:, 1:] = values[rows]
            np.cumsum(table, axis=1, out=table)
            sums[rows] = np.take_along_axis(table, before[rows], axis=1)
    return before[back], sums[back]


def weight(predicted_daae: float, event_mean_daae: float, r: float) -> float:
    """Scalar form of aggregate.weight_vector: zero at or above the event
    average predicted error, else a power of the margin below it."""
    margin = event_mean_daae - predicted_daae
    if margin <= _MARGIN_TOL * max(1.0, abs(event_mean_daae)):
        return 0.0
    return margin**r


def fit_period(X: np.ndarray, y: np.ndarray, quarter: Quarter, mask: Mask = FULL_MASK):
    """One quarter's least-squares fit via ridge-floored normal equations,
    its Gram matrix from its own masked rows: estagg.model.fit_period before
    it fit every quarter of a mask in one batched solve.

    Returns None when there are fewer observations than active variables;
    the caller treats that quarter as model-less.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    active = np.array(mask, dtype=bool)
    k = int(active.sum())
    if X.shape[0] < k:
        return None
    Xa = X[:, active]
    gram = Xa.T @ Xa + RIDGE * np.eye(k)
    beta_a = np.linalg.solve(gram, Xa.T @ y)
    beta = np.zeros(N_VARS)
    beta[active] = beta_a
    resid = y - Xa @ beta_a
    return PeriodModel(quarter=quarter, beta=beta, n_obs=X.shape[0], rss=float(resid @ resid))


def predict_daae(model, x) -> float:
    """Predicted normalized error: dot of the model's betas with one row."""
    return float(np.dot(model.beta, np.asarray(x, dtype=float)))


def closest_analyst(panel: Panel, event: "Event", bias_lookup=None) -> float:
    """Smallest absolute individual error for one event of a panel;
    predictions are bias-adjusted when a lookup is supplied."""
    best = None
    for ident, value in zip(panel_idents(panel)[event.rows], panel.value_cents[event.rows].tolist()):
        value = value - (bias_lookup(ident, event.firm_id) if bias_lookup else 0.0)
        err = abs(value - event.actual_cents)
        best = err if best is None else min(best, err)
    if best is None:
        raise ValueError("event has no estimates")
    return best


# The per-event object form of a columnar panel, which keeps its events as
# an actuals table and row bounds and its identities in its stream.


@dataclass(frozen=True)
class Event:
    """One event of a columnar panel: its actuals row and the panel rows of
    its estimates."""

    firm_id: str
    period: Quarter
    actual_cents: int
    announce_ts: int
    rows: slice


def panel_events(panel: Panel) -> list[Event]:
    events, bounds = panel.events, panel.bounds.tolist()
    columns = (events.firm, events.year, events.quarter, events.value_cents, events.announce_ts)
    return [
        Event(events.firm_ids[f], (y, q), actual, ts, slice(lo, hi))
        for (f, y, q, actual, ts), lo, hi in zip(zip(*(c.tolist() for c in columns)), bounds[:-1], bounds[1:])
    ]


def panel_idents(panel: Panel) -> tuple[str, ...]:
    """Each kept row's identity, analyst or broker: its stream record's."""
    stream = panel.stream
    return tuple(stream.ident_ids[i] for i in stream.ident[panel.records].tolist())


def panel_analysts(panel: Panel) -> tuple[str, ...]:
    """Each kept row's analyst id."""
    return tuple(panel.analyst_ids[a] for a in panel.analyst.tolist())


# The per-event object form of a replay, whose outcomes keep only what
# scoring decides and whose other event columns are its panel's. A fallback
# is None or its reason, as the per-event replay gives it, by replay's code.

FALLBACK_REASONS = (None, "no_previous_model", "degenerate_weights")


@dataclass
class Outcome:
    """One scored event with its panel facts."""

    firm_id: str
    period: Quarter
    announce_ts: int
    quarter_offset: int  # announce quarter, relative to the panel start
    actual_cents: int
    simple_consensus: float
    improved: float
    n_analysts: int
    fallback_reason: Optional[str] = None
    weights: Optional[np.ndarray] = None  # aligned with the event's rows; replay_oracle's alone


@dataclass
class OracleReplay:
    outcomes: list[Outcome]
    models: list[PeriodModel]


def outcome_views(result: ReplayResult) -> list[Outcome]:
    """Each event of a replay as an Outcome, its panel facts read event by
    event from the panel and its layout, so a test of the view tests them.
    A replay keeps no weights; replay_oracle's outcomes give each event's."""
    panel = result.panel
    layout = panel.layout
    return [
        Outcome(
            event.firm_id,
            event.period,
            event.announce_ts,
            offset,
            event.actual_cents,
            simple,
            improved,
            event.rows.stop - event.rows.start,
            reason,
        )
        for event, offset, simple, improved, reason in zip(
            panel_events(panel),
            layout.offset.tolist(),
            layout.simple.tolist(),
            result.improved.tolist(),
            [FALLBACK_REASONS[code] for code in result.fallback_reason.tolist()],
        )
    ]


def replay_view(result: ReplayResult) -> OracleReplay:
    return OracleReplay(outcome_views(result), result.models)


# The per-pair evaluation and per-event descriptive statistics that
# estagg.evaluate replaced with arrays, and the per-row writers of the
# events, scatter, models and results files.


@dataclass(frozen=True)
class SurprisePair:
    original: float  # consensus minus actual
    improved: float  # improved consensus minus actual


def pairs_from_outcomes(outcomes: Sequence[Outcome], burn_in: int) -> list[SurprisePair]:
    return [
        SurprisePair(o.simple_consensus - o.actual_cents, o.improved - o.actual_cents)
        for o in outcomes
        if o.quarter_offset >= burn_in
    ]


NEG_INF = float("-inf")
POS_INF = float("inf")


def surprise_improvement(original: float, improved: float) -> float:
    """Fractional improvement 1 - |improved| / |original|; 0 when both are
    zero, -inf when only the original is."""
    if original == 0.0:
        return 0.0 if improved == 0.0 else NEG_INF
    return 1.0 - abs(improved) / abs(original)


def median_stat(values: Sequence[float]) -> float:
    """Ordinal median over improvement values, sentinel-aware."""
    if not values:
        raise ValueError("median of empty improvement list")
    vals = sorted(values)
    n = len(vals)
    if n % 2 == 1:
        return vals[n // 2]
    a, b = vals[n // 2 - 1], vals[n // 2]
    a_inf = a in (NEG_INF, POS_INF)
    b_inf = b in (NEG_INF, POS_INF)
    if not a_inf and not b_inf:
        return (a + b) / 2.0
    if a_inf and b_inf:
        return a if a == b else 0.0
    return b if a_inf else a


def sum_left_to_right(values) -> float:
    """0.0 plus each value in turn, on every Python version (the builtin
    sum compensates its float additions since 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


def average_stat(pairs: Sequence[SurprisePair]) -> Optional[float]:
    denom = sum_left_to_right(abs(p.original) for p in pairs)
    if denom == 0.0:
        return None
    num = sum_left_to_right(abs(p.improved) for p in pairs)
    return 1.0 - num / denom


def mode_result(label: str, pairs: Sequence[SurprisePair]) -> ModeResult:
    """The three improvement statistics over one mode's evaluation pairs."""
    original = np.array([p.original for p in pairs], float)
    improved = np.array([p.improved for p in pairs], float)
    trend = trend_stat(original, improved)
    return ModeResult(
        label=label,
        description=MODE_DESCRIPTIONS.get(label, label),
        n_events=len(pairs),
        median=median_stat([surprise_improvement(p.original, p.improved) for p in pairs]) if pairs else None,
        average=average_stat(pairs) if pairs else None,
        trend=trend[0] if trend else None,
        r_squared=trend[1] if trend else None,
        trend_supplementary=label != "full",
    )


def evaluate_mode(replay: OracleReplay, mode: ModeConfig, burn_in: int) -> ModeResult:
    return mode_result(mode.label, pairs_from_outcomes(replay.outcomes, burn_in))


def csv_field(text: str) -> str:
    """`text`, not empty, as csv.writer's default dialect writes a field:
    quoted when it holds a comma, quote, CR or LF, inner quotes doubled."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[: -len("\r\n")]


def events_file(outcomes: Sequence[Outcome], burn_in: int) -> str:
    lines = [
        "firm_id,period_year,period_quarter,actual_cents,simple_consensus,improved,"
        "n_analysts,fallback_reason,in_evaluation\n"
    ]
    for o in outcomes:
        lines.append(
            f"{csv_field(o.firm_id)},{o.period[0]},{o.period[1]},{o.actual_cents},"
            f"{repr(o.simple_consensus)},{repr(o.improved)},{o.n_analysts},"
            f"{o.fallback_reason or ''},{1 if o.quarter_offset >= burn_in else 0}\n"
        )
    return "".join(lines)


def results_file(results: Sequence[ModeResult]) -> str:
    lines = ["mode,description,n_events,median,average,trend,r_squared,trend_supplementary\n"]
    for r in results:
        stats = ",".join("" if x is None else repr(float(x)) for x in (r.median, r.average, r.trend, r.r_squared))
        lines.append(f'{r.label},"{r.description}",{r.n_events},{stats},{int(r.trend_supplementary)}\n')
    return "".join(lines)


def scatter_file(outcomes: Sequence[Outcome], burn_in: int) -> str:
    pairs = pairs_from_outcomes(outcomes, burn_in)
    return "original_surprise,improved_surprise\n" + "".join(f"{p.original!r},{p.improved!r}\n" for p in pairs)


def models_file(models: Sequence[PeriodModel]) -> str:
    lines = ["period_year,period_quarter,b_age,b_freq,b_ncos,b_top10,b_exp,b_mae,n_obs,rss\n"]
    for m in models:
        betas = ",".join(repr(float(b)) for b in m.beta)
        lines.append(f"{m.quarter[0]},{m.quarter[1]},{betas},{m.n_obs},{repr(m.rss)}\n")
    return "".join(lines)


def descriptive_stats(panel: Panel) -> dict:
    """estagg.evaluate.descriptive_stats one event at a time, each
    consensus from an exact Python-int sum rounded once."""
    n = len(panel.events)
    if not n:
        raise ValueError("empty panel")
    all_values, bounds = panel.value_cents.tolist(), panel.bounds.tolist()
    surprises = []  # signed: actual minus consensus
    in_range = 0
    for lo, hi, actual in zip(bounds[:-1], bounds[1:], panel.events.value_cents.tolist()):
        values = all_values[lo:hi]
        surprises.append(actual - sum(values) / len(values))
        in_range += min(values) <= actual <= max(values)
    return {
        "n_symbols": len(set(panel.events.firm.tolist())),
        "n_reports": n,
        "n_predictions": len(all_values),
        "n_analysts": len(set(panel.analyst.tolist())),
        "mean_abs_surprise_cents": float(np.mean(np.abs(surprises))),
        "median_abs_surprise_cents": median_stat([abs(s) for s in surprises]),
        "negative_surprise_share": sum(s < 0 for s in surprises) / n,
        "actual_in_range_share": in_range / n,
    }


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


def top10_brokers(census: Mapping[str, int]) -> set:
    """Brokers in the top decile by analyst count; ties at the cutoff included."""
    if not census:
        return set()
    cutoff = math.ceil(0.1 * len(census))
    threshold = sorted(census.values(), reverse=True)[cutoff - 1]
    return {b for b, n in census.items() if n >= threshold}


def columnar_panel(panel: ObjectPanel) -> Panel:
    """An object panel as the columns estagg.ingest.build_panel emits, its
    ledger-free features computed per event as the per-event replay did."""
    analysts, values, features, records = [], [], [], []
    ident_ids = tuple(sorted({r.identity for r in panel.stream}))
    firm_ids = tuple(sorted({r.firm_id for r in panel.stream}))
    ident_code = {x: i for i, x in enumerate(ident_ids)}
    firm_code = {x: i for i, x in enumerate(firm_ids)}
    position = {(r.identity, r.firm_id, r.period): i for i, r in enumerate(panel.stream)}
    for event in panel.events:
        top10_set = top10_brokers(panel.top10_census.get(event.period, {}))
        for est in event.estimates:
            analysts.append(est.analyst_id)
            values.append(est.value_cents)
            features.append(_static_features(event, est, panel, top10_set))
            records.append(position[(est.identity, event.firm_id, event.period)])
    analyst_ids = tuple(sorted(set(analysts)))
    analyst_code = {x: i for i, x in enumerate(analyst_ids)}
    columns = [(firm_code[e.firm_id], *e.period, e.announce_ts, e.actual_cents) for e in panel.events]
    firm, year, quarter, announce_ts, actual = np.array(columns, np.int64).reshape(-1, 5).T
    return Panel(
        events=ActualTable(
            firm=firm, year=year, quarter=quarter, announce_ts=announce_ts, value_cents=actual, firm_ids=firm_ids
        ),
        bounds=np.cumsum([0] + [len(e.estimates) for e in panel.events], dtype=np.int64),
        analyst=np.array([analyst_code[a] for a in analysts], np.int64),
        analyst_ids=analyst_ids,
        value_cents=np.array(values, np.int64),
        features=np.array(features, float).reshape(len(values), 4),
        stream=Stream(
            np.array([r.announce_ts for r in panel.stream], np.int64),
            np.array([ident_code[r.identity] for r in panel.stream], np.int64),
            np.array([firm_code[r.firm_id] for r in panel.stream], np.int64),
            np.array([r.value_cents - r.actual_cents for r in panel.stream], np.int64),
            ident_ids,
            firm_ids,
        ),
        records=np.array(records, np.int64),
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
# arrays aligned with the event's identities.


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
) -> Outcome:
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
    elif mode.method == "equal":
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

    return Outcome(
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
) -> tuple[Outcome, np.ndarray, np.ndarray]:
    """Score one event against frozen ledgers and the previous model.

    Returns the aggregate plus the event's normalized design matrix and
    dependent vector (the quarter's fit rows).
    """
    raw = np.array([e.value_cents for e in event.estimates], dtype=float)
    idents = [e.identity for e in event.estimates]
    if mode.bias_key is not None:
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


def replay_oracle(panel: ObjectPanel, mode: ModeConfig) -> OracleReplay:
    """One mode replayed on its own: the per-event walk that
    replay.ledger_state and replay.run_mode split into a shared ledger
    pass and per-mode scoring."""
    if not panel.events and not panel.stream:
        return OracleReplay([], [])
    timestamps = [r.announce_ts for r in panel.stream] + [e.announce_ts for e in panel.events]
    q0 = quarter_index(quarter_of_ts(min(timestamps)))

    bias_tracker = BiasTracker("global" if mode.bias_key is None else mode.bias_key)
    hist = HistoryLedger()
    models: list[PeriodModel] = []
    model_by_qidx: dict[int, PeriodModel] = {}
    outcomes: list[Outcome] = []

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
            b = 0.0 if mode.bias_key is None else bias_tracker.bias(rec.identity, rec.firm_id)
            pending.append((rec.identity, rec.firm_id, err, abs(err - b)))
        for identity, firm, err, aae in pending:
            bias_tracker.record(identity, firm, err)
            hist.record(identity, firm, aae)

    if current_q is not None:
        close_quarter(current_q)

    return OracleReplay(outcomes=outcomes, models=models)


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
    """Build one record per non-blank CSV row of the file at path ``source``
    with ``make``, from the row's fields by header name; malformed rows, and
    rows too short to hold every one of ``columns``, become rejects carrying
    their physical line number."""
    out = []
    rejects: list[Reject] = []
    with open(source, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{kind} source has no readable header")
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{kind} header missing columns: {missing}")
        need = max(len(header) - header[::-1].index(c) for c in columns)  # a repeated name reads its last column
        for row in filter(None, reader):
            if len(row) < need:
                rejects.append(Reject(reader.line_num, f"malformed: {len(row)} fields, the header needs {need}"))
                continue
            try:
                out.append(make(dict(zip(header, row))))
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


# The per-row actuals path that estagg.ingest.parse_actuals and
# cross_check_actuals replaced: frozen Actual records, scalar checks, and a
# dict for the duplicate check and the cross-check.


@dataclass(frozen=True)
class Actual:
    """Realized outcome for a firm-period."""

    firm_id: str
    period: Quarter
    announce_ts: int
    value_cents: int


_INT64 = np.iinfo(np.int64)


def _int64(value: int, name: str) -> int:
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{name} {value} outside the int64 range")
    return value


def _actual_period(year, quarter) -> Quarter:
    quarter = int(quarter)
    if not 1 <= quarter <= 4:
        raise ValueError(f"period_quarter {quarter} outside 1..4")
    return (_int64(int(year), "period_year"), quarter)


def parse_actuals_oracle(source) -> tuple[list[Actual], list[Reject]]:
    """Parse an actuals file; malformed rows go to the reject list. A
    firm-period given twice fails the parse with both physical lines."""
    rejects: list[Reject] = []
    out = []
    line_of: dict[tuple[str, Quarter], int] = {}
    with open(source, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("actuals source has no readable header")
        position = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
        missing = [c for c in ACTUAL_COLUMNS if c not in position]
        if missing:
            raise ValueError(f"actuals header missing columns: {missing}")
        need = max(position[c] for c in ACTUAL_COLUMNS) + 1
        for row in reader:
            line = reader.line_num
            if len(row) < need:
                if row:
                    rejects.append(Reject(line, f"malformed: {len(row)} fields, the header needs {need}"))
                continue
            firm, year, quarter, ts, value = (row[position[c]] for c in ACTUAL_COLUMNS)
            try:
                actual = Actual(firm, _actual_period(year, quarter), parse_ts(ts), _int64(int(value), "value_cents"))
            except (ValueError, TypeError) as exc:
                rejects.append(Reject(line, f"malformed: {exc}"))
                continue
            key = (actual.firm_id, actual.period)
            if key in line_of:
                raise ValueError(f"{source}: duplicate actual for {key} on lines {line_of[key]} and {line}")
            line_of[key] = line
            out.append(actual)
    return out, rejects


def actuals_from_rows_oracle(rows) -> list[Actual]:
    return [
        Actual(firm_id=r[0], period=(r[1], r[2]), announce_ts=parse_ts(r[3]), value_cents=r[4])
        for r in rows
    ]


def cross_check_actuals_oracle(primary: Sequence[Actual], secondary: Sequence[Actual]) -> list[Actual]:
    """Keep actuals confirmed by the second source (exact cents equality);
    pairs absent from the secondary source are discarded."""
    check = {(a.firm_id, a.period): a.value_cents for a in secondary}
    return [a for a in primary if check.get((a.firm_id, a.period)) == a.value_cents]


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
        if est.horizon_code not in HORIZON_CODES:
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
            if not has_prior[(rec.identity, rec.firm_id, rec.period)]:
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


# The lexsort and stable-sort groupings that estagg.ingest replaced with one
# default argsort of a packed key per grouping, unchanged but for taking
# their inputs as arguments.


def first_equal_oracle(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Position of the first row equal to each row, a row being the tuple of
    its entries in the equal-length int64 `columns`."""
    order = np.lexsort(columns[::-1])  # stable, so equal rows keep their order
    starts = np.ones(len(order), bool)  # where each run of equal rows starts
    starts[1:] = np.any([c[order][1:] != c[order][:-1] for c in columns], axis=0)
    first = np.empty(len(order), np.int64)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def lookup_oracle(keys: list[np.ndarray], key_ids: tuple[str, ...], ref: list[np.ndarray], ref_ids: tuple[str, ...]):
    """Position in `ref` of the first row equal to each row of `keys`, -1
    where none. Rows are as in first_equal_oracle, except that the first
    column holds codes into `key_ids` or `ref_ids`, compared by id."""
    code_of = {x: i for i, x in enumerate(key_ids)}
    ref_codes = np.array([code_of.get(x, -1) for x in ref_ids] + [-1], np.int64)[ref[0]]  # -1: not in key_ids
    n = len(ref_codes)
    first = first_equal_oracle([np.concatenate(pair) for pair in zip([ref_codes, *ref[1:]], keys)])[n:]
    return np.where(first < n, first, -1)


def dedup_oracle(key: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """build_panel's step (c) as np.unique and np.lexsort: each group of
    equal `key` in key order, its first position, size, and the position
    of its latest `ts`, the later position on a tie."""
    _, first, group, freq = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    last = np.lexsort((np.arange(len(key)), ts, group))[np.cumsum(freq) - 1]
    return first, freq, last


def stream_order_oracle(acts: ActualTable, event: np.ndarray, first: np.ndarray) -> np.ndarray:
    """build_panel's stream order as a 5-key np.lexsort: by the announce
    time, firm, year and quarter of each record's actuals row, then by
    `first`. build_panel took the firm, year and quarter from the records'
    estimate rows, which order as their actuals rows do."""
    return np.lexsort((first, acts.quarter[event], acts.year[event], acts.firm[event], acts.announce_ts[event]))
