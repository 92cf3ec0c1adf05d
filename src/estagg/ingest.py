"""CSV ingestion and panel construction.

Parses estimate/actual files, cross-checks actuals against a second source,
applies the exclusion rules (forecast-horizon window, last-estimate-wins
dedup, prior-record requirement, surprise cap, minimum analyst count) and
emits a clean chronological panel. Every dropped estimate is accounted for
in an IngestReport, one reason per input row.

All money values are integer cents; the surprise-cap comparison is done in
exact integer arithmetic.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .periods import Quarter, parse_ts

logger = logging.getLogger(__name__)

ESTIMATE_COLUMNS = (
    "analyst_id",
    "broker_id",
    "firm_id",
    "period_year",
    "period_quarter",
    "estimate_ts",
    "horizon_code",
    "value_cents",
)
ACTUAL_COLUMNS = ("firm_id", "period_year", "period_quarter", "announce_ts", "value_cents")


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


@dataclass(frozen=True)
class Actual:
    """Realized outcome for a firm-period."""

    firm_id: str
    period: Quarter
    announce_ts: int
    value_cents: int


@dataclass(frozen=True)
class Reject:
    line: int
    reason: str


@dataclass(frozen=True)
class FilterConfig:
    min_analysts: int = 8
    surprise_cap_cents: int = 50
    min_lead_hours: int = 48
    max_age_days: int = 365
    horizon_codes: frozenset[int] = frozenset({6, 7, 8, 9})
    # the prior-record rule; switchable so the remaining filters can be
    # tested for idempotence (the rule itself consumes history, so it is
    # not idempotent under re-feeding)
    require_prior_record: bool = True


@dataclass
class IngestReport:
    total: int = 0
    kept: int = 0
    rejects: Counter = field(default_factory=Counter)

    def to_json(self) -> str:
        payload = {"total": self.total, "kept": self.kept, "rejects": dict(sorted(self.rejects.items()))}
        return json.dumps(payload, indent=2, sort_keys=True)


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
class PanelEvent:
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
class Panel:
    events: list[PanelEvent]
    stream: list[LedgerRecord]
    # per-period censuses computed from window-valid submissions
    ncos: dict[tuple[Quarter, str], int]
    top10_census: dict[Quarter, dict[str, int]]
    report: IngestReport
    identity: str = "analyst"


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


def _actual(row: dict) -> Actual:
    return Actual(
        firm_id=row["firm_id"],
        period=_period(row),
        announce_ts=parse_ts(row["announce_ts"]),
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


def parse_estimates(source) -> tuple[list[Estimate], list[Reject]]:
    """Parse an estimates file; malformed rows go to the reject list."""
    return _read_rows(source, "estimates", ESTIMATE_COLUMNS, _estimate)


def parse_actuals(source) -> tuple[list[Actual], list[Reject]]:
    return _read_rows(source, "actuals", ACTUAL_COLUMNS, _actual)


def cross_check_actuals(primary: Sequence[Actual], secondary: Sequence[Actual]) -> list[Actual]:
    """Keep actuals confirmed by the second source (exact cents equality);
    pairs absent from the secondary source are discarded."""
    check = {(a.firm_id, a.period): a.value_cents for a in secondary}
    return [a for a in primary if check.get((a.firm_id, a.period)) == a.value_cents]


def _identity_of(est: Estimate, identity: str) -> str:
    return est.broker_id if identity == "broker" else est.analyst_id


def build_panel(
    estimates: Sequence[Estimate],
    actuals: Sequence[Actual],
    cfg: FilterConfig = FilterConfig(),
    identity: str = "analyst",
) -> Panel:
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

    events: list[PanelEvent] = []
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
            PanelEvent(
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
    logger.info("panel: %d events, %d estimates kept of %d", len(events), report.kept, report.total)
    return Panel(
        events=events,
        stream=stream,
        ncos=ncos,
        top10_census=top10_census,
        report=report,
        identity=identity,
    )
