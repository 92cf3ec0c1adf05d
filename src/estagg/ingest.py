"""CSV ingestion and panel construction.

Estimates are parsed into an EstimateTable: one array per column, with the
analyst, broker and firm ids interned to integer codes. Actuals, one per
firm-quarter, stay per-row records. build_panel joins the two, applies the
exclusion rules (forecast-horizon window, last-estimate-wins dedup,
prior-record requirement, surprise cap, minimum analyst count) as
sort-and-group passes over the columns and emits a clean chronological
panel. Every dropped estimate is accounted for in an IngestReport, one
reason per input row.

All money values are integer cents; the surprise-cap comparison is done in
exact integer arithmetic.
"""

from __future__ import annotations

import csv
import json
import logging
from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

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

# rows per conversion chunk of EstimateTable.from_rows; it bounds how many
# per-field string objects are alive at once
_CHUNK_ROWS = 1 << 14


@dataclass(frozen=True, eq=False)
class EstimateTable:
    """Estimates as columns, one entry per input row in input order.

    `analyst`, `broker` and `firm` are codes into the sorted id tuples, so
    ordering rows by code orders them by id. Build one with `from_rows`.
    """

    analyst: np.ndarray
    broker: np.ndarray
    firm: np.ndarray
    year: np.ndarray
    quarter: np.ndarray
    estimate_ts: np.ndarray  # unix seconds
    horizon_code: np.ndarray
    value_cents: np.ndarray
    analyst_ids: tuple[str, ...]
    broker_ids: tuple[str, ...]
    firm_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.estimate_ts)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], on_reject: Callable[[int, str], None]) -> EstimateTable:
        """Build a table from rows whose fields follow ESTIMATE_COLUMNS, the
        timestamp as ISO-8601 text.

        Rows are converted a chunk at a time, so only one chunk's field
        objects are alive at once. A row that does not convert is left out
        and reported to `on_reject` with its position in `rows`.
        """
        seen: tuple[dict, dict, dict] = ({}, {}, {})  # analyst, broker, firm id -> first-seen code
        parts: list[tuple[np.ndarray, ...]] = []
        rows = iter(rows)
        start = 0
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            errors: dict[int, str] = {}
            parts.append(_columns(chunk, seen, errors))
            for i in sorted(errors):
                on_reject(start + i, f"malformed: {errors[i]}")
            start += len(chunk)
        columns = [np.concatenate(c) for c in zip(*parts)] or [np.empty(0, np.int64)] * 8
        analyst, broker, firm = (_sorted_codes(c, index) for c, index in zip(columns, seen))
        return cls(analyst[0], broker[0], firm[0], *columns[3:], analyst[1], broker[1], firm[1])


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


_INT64 = np.iinfo(np.int64)

# YYYY-MM-DDTHH:MM:SSZ as UTF-32 code points; "0" marks a digit
_TS_FORM = np.array(["0000-00-00T00:00:00Z"]).view(np.uint32)
_TS_DIGIT = _TS_FORM == ord("0")


def _open(source):
    """A ``str`` source is a path, opened here and closed by the caller's
    ``with``; anything else is a text stream, read and left open."""
    return open(source, newline="") if isinstance(source, str) else nullcontext(source)


def _fields(fh, kind: str, columns: tuple[str, ...], rejects: list[Reject]) -> tuple[Iterator[tuple], array]:
    """The named fields of each non-blank CSV row, in `columns` order, and
    the physical line of each row yielded so far.

    The header is checked here, before any row is read. A row too short to
    hold every named field becomes a reject instead.
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{kind} source has no readable header")
    position = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
    missing = [c for c in columns if c not in position]
    if missing:
        raise ValueError(f"{kind} header missing columns: {missing}")
    get = itemgetter(*(position[c] for c in columns))
    need = max(position[c] for c in columns) + 1
    lines = array("q")

    def rows() -> Iterator[tuple]:
        for row in reader:
            if len(row) >= need:
                lines.append(reader.line_num)
                yield get(row)
            elif row:
                rejects.append(Reject(reader.line_num, f"malformed: {len(row)} fields, the header needs {need}"))

    return rows(), lines


def _period(year, quarter) -> Quarter:
    quarter = int(quarter)
    if not 1 <= quarter <= 4:
        raise ValueError(f"period_quarter {quarter} outside 1..4")
    return (int(year), quarter)


def _int64s(texts: Sequence, name: str, errors: dict[int, str], convert: Callable = int) -> np.ndarray:
    """convert() of each text as int64. A text that does not convert reads
    0, and its position gets the error message unless it has one already."""
    try:
        return np.fromiter(map(convert, texts), np.int64, len(texts))
    except (ValueError, TypeError, OverflowError):
        pass
    out = np.zeros(len(texts), np.int64)
    for i, x in enumerate(texts):
        try:
            v = convert(x)
        except (ValueError, TypeError) as exc:
            errors.setdefault(i, str(exc))
            continue
        if _INT64.min <= v <= _INT64.max:
            out[i] = v
        else:
            errors.setdefault(i, f"{name} {v} outside the int64 range")
    return out


def _codes(ids: Sequence, seen: dict) -> np.ndarray:
    """Codes of `ids`, giving each id not in `seen` the next free code."""
    for x in dict.fromkeys(ids):
        seen.setdefault(x, len(seen))
    return np.fromiter(map(seen.__getitem__, ids), np.int64, len(ids))


def _timestamps(texts: Sequence[str], errors: dict[int, str]) -> np.ndarray:
    """Unix seconds of ISO-8601 texts, equal to parse_ts of each; errors
    as in _int64s.

    Texts of the exact form YYYY-MM-DDTHH:MM:SSZ take one datetime64
    conversion; any other text goes through parse_ts.
    """
    chars = np.array(texts, dtype="U20").view(np.uint32).reshape(len(texts), 20)
    exact = (
        (np.fromiter(map(len, texts), np.int64, len(texts)) == 20)  # U20 cuts longer texts
        & (chars[:, _TS_DIGIT] - ord("0") <= 9).all(axis=1)
        & (chars[:, ~_TS_DIGIT] == _TS_FORM[~_TS_DIGIT]).all(axis=1)
        & (chars[:, :4] != ord("0")).any(axis=1)  # datetime has no year 0
    )
    out = np.empty(len(texts), np.int64)
    try:
        out[exact] = np.ascontiguousarray(chars[exact, :19]).view("U19").ravel().astype("datetime64[s]").astype(np.int64)
    except ValueError:  # a date off the calendar; parse_ts finds and words it
        exact[:] = False
    other = np.flatnonzero(~exact).tolist()
    other_errors: dict[int, str] = {}
    out[other] = _int64s([texts[i] for i in other], "estimate_ts", other_errors, parse_ts)
    for j, message in other_errors.items():
        errors.setdefault(other[j], message)
    return out


def _columns(rows: Sequence[Sequence], seen: tuple[dict, dict, dict], errors: dict[int, str]) -> tuple[np.ndarray, ...]:
    """The rows that convert, as eight columns. Each row that does not gets
    the per-row parser's message for its first bad field in `errors`. Ids
    get first-seen codes from `seen`."""
    analyst, broker, firm, year, quarter, ts, horizon, value = zip(*rows)
    # fields in the per-row parser's order, so the error a row keeps is the
    # one that parser raises
    quarter = _int64s(quarter, "period_quarter", errors)
    for i in np.flatnonzero((quarter < 1) | (quarter > 4)).tolist():
        errors.setdefault(i, f"period_quarter {quarter[i]} outside 1..4")
    numbers = [
        _int64s(year, "period_year", errors),
        quarter,
        _timestamps(ts, errors),
        _int64s(horizon, "horizon_code", errors),
        _int64s(value, "value_cents", errors),
    ]
    ids = [analyst, broker, firm]
    if errors:
        keep = np.ones(len(rows), bool)
        keep[list(errors)] = False
        ids = [list(compress(c, keep)) for c in ids]
        numbers = [c[keep] for c in numbers]
    return tuple(_codes(c, index) for c, index in zip(ids, seen)) + tuple(numbers)


def _sorted_codes(codes: np.ndarray, seen: dict) -> tuple[np.ndarray, tuple[str, ...]]:
    """Recode first-seen codes so that code order is id order."""
    ids = sorted(seen)
    rank = np.empty(len(ids), np.int64)
    rank[np.array([seen[x] for x in ids], np.int64)] = np.arange(len(ids))
    return rank[codes], tuple(ids)


def parse_estimates(source) -> tuple[EstimateTable, list[Reject]]:
    """Parse an estimates file into an EstimateTable; malformed rows go to
    the reject list, in line order."""
    rejects: list[Reject] = []
    with _open(source) as fh:
        rows, lines = _fields(fh, "estimates", ESTIMATE_COLUMNS, rejects)
        table = EstimateTable.from_rows(rows, lambda i, reason: rejects.append(Reject(lines[i], reason)))
    rejects.sort(key=lambda r: r.line)
    return table, rejects


def parse_actuals(source) -> tuple[list[Actual], list[Reject]]:
    rejects: list[Reject] = []
    out = []
    with _open(source) as fh:
        rows, lines = _fields(fh, "actuals", ACTUAL_COLUMNS, rejects)
        for firm, year, quarter, ts, value in rows:
            try:
                out.append(Actual(firm, _period(year, quarter), parse_ts(ts), int(value)))
            except (ValueError, TypeError) as exc:
                rejects.append(Reject(lines[-1], f"malformed: {exc}"))
    return out, rejects


def cross_check_actuals(primary: Sequence[Actual], secondary: Sequence[Actual]) -> list[Actual]:
    """Keep actuals confirmed by the second source (exact cents equality);
    pairs absent from the secondary source are discarded."""
    check = {(a.firm_id, a.period): a.value_cents for a in secondary}
    return [a for a in primary if check.get((a.firm_id, a.period)) == a.value_cents]


def _event_of_rows(table: EstimateTable, acts: Sequence[Actual]) -> np.ndarray:
    """Position in `acts` of each row's firm-period actual, -1 where none."""
    years = np.unique(table.year)
    firm_code = {f: i for i, f in enumerate(table.firm_ids)}
    year_code = {y: i for i, y in enumerate(years.tolist())}
    known = {}
    for i, a in enumerate(acts):
        year, quarter = a.period
        if a.firm_id in firm_code and year in year_code and 1 <= quarter <= 4:
            known[(firm_code[a.firm_id] * len(years) + year_code[year]) * 4 + quarter - 1] = i
    row_key = (table.firm * len(years) + np.searchsorted(years, table.year)) * 4 + table.quarter - 1
    act_key = np.array(sorted(known) + [-1], np.int64)  # -1 matches no row
    act_pos = np.array([known[k] for k in act_key[:-1].tolist()] + [-1], np.int64)
    at = np.searchsorted(act_key[:-1], row_key)
    return np.where(act_key[at] == row_key, act_pos[at], -1)


def build_panel(
    estimates: EstimateTable,
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

    Each rule is an array pass over the table's columns; Python objects are
    built only for the deduped stream and the kept estimates.
    """
    t = estimates
    report = IngestReport(total=len(t))
    actual_by: dict[tuple[str, Quarter], Actual] = {}
    for a in actuals:
        if (a.firm_id, a.period) in actual_by:
            raise ValueError(f"duplicate actual for {(a.firm_id, a.period)}")
        actual_by[(a.firm_id, a.period)] = a
    acts = list(actual_by.values())

    # (b) horizon + time window, each row counted under the first rule it fails
    event = _event_of_rows(t, acts)
    announce = np.array([a.announce_ts for a in acts] + [0], np.int64)[event]
    window = np.ones(len(t), bool)
    for reason, failed in (
        ("no_matching_actual", event < 0),
        ("horizon_excluded", ~np.isin(t.horizon_code, list(cfg.horizon_codes))),
        ("too_close_to_announcement", t.estimate_ts > announce - cfg.min_lead_hours * 3600),
        ("too_old", t.estimate_ts < announce - cfg.max_age_days * 86400),
    ):
        n = int(np.count_nonzero(window & failed))
        if n:
            report.rejects[reason] += n
            window &= ~failed
    rows = np.flatnonzero(window)

    ids, ident_of = (t.broker_ids, t.broker) if identity == "broker" else (t.analyst_ids, t.analyst)
    ident, ev = ident_of[rows], event[rows]
    # one group per (identity, firm, period), i.e. per (identity, event);
    # freq is the group's pre-dedup size
    _, first, group, freq = np.unique(
        ident * len(acts) + ev, return_index=True, return_inverse=True, return_counts=True
    )
    # (c) last estimate per group; the later input row wins timestamp ties
    last = np.lexsort((np.arange(len(rows)), t.estimate_ts[rows], group))[np.cumsum(freq) - 1]
    report.rejects["superseded"] += len(rows) - len(freq)

    # censuses (per firm-period quarter, from window-valid submissions); a
    # group is one distinct (period, identity, firm)
    period_code: dict[Quarter, int] = {}
    act_period = np.array([period_code.setdefault(a.period, len(period_code)) for a in acts] + [-1], np.int64)
    periods = list(period_code)
    keys, counts = np.unique(act_period[ev[last]] * len(ids) + ident[last], return_counts=True)
    ncos = {(periods[k // len(ids)], ids[k % len(ids)]): n for k, n in zip(keys.tolist(), counts.tolist())}
    n_brokers, n_analysts = len(t.broker_ids), len(t.analyst_ids)
    trios = np.unique((act_period[ev] * n_brokers + t.broker[rows]) * n_analysts + t.analyst[rows])
    keys, counts = np.unique(trios // n_analysts, return_counts=True)
    top10_census: dict[Quarter, dict[str, int]] = {}
    for k, n in zip(keys.tolist(), counts.tolist()):
        top10_census.setdefault(periods[k // n_brokers], {})[t.broker_ids[k % n_brokers]] = n

    # ledger stream, chronological by announcement; records tied on
    # (announce, firm, period) keep their group's first appearance order
    win = rows[last]
    order = np.lexsort((first, t.quarter[win], t.year[win], t.firm[win], announce[win]))
    win, freq = win[order], freq[order].tolist()
    stream_event, stream_ident, stream_announce = event[win], ident_of[win], announce[win]
    stream_acts = [acts[e] for e in stream_event.tolist()]
    # identity, analyst, broker, estimate_ts, value_cents and freq per record
    columns = [
        list(map(ids.__getitem__, stream_ident.tolist())),
        list(map(t.analyst_ids.__getitem__, t.analyst[win].tolist())),
        list(map(t.broker_ids.__getitem__, t.broker[win].tolist())),
        t.estimate_ts[win].tolist(),
        t.value_cents[win].tolist(),
        freq,
    ]
    stream = [
        LedgerRecord(a.announce_ts, a.firm_id, a.period, i, an, br, ts, v, a.value_cents)
        for a, i, an, br, ts, v in zip(stream_acts, *columns[:5])
    ]

    # (d) prior-record flags with all records at one announce time treated
    # as simultaneous: a record has a prior when its (identity, firm) pair
    # has one at an earlier announce time. The stream is chronological, so
    # a pair's first record carries its earliest announce time.
    _, pair_first, pair = np.unique(
        stream_ident * len(t.firm_ids) + t.firm[win], return_index=True, return_inverse=True
    )
    has_prior = stream_announce > stream_announce[pair_first][pair]
    if cfg.require_prior_record:
        dropped = len(win) - int(np.count_nonzero(has_prior))
        if dropped:
            report.rejects["no_prior_record"] += dropped
        survivors = np.flatnonzero(has_prior)
    else:
        survivors = np.arange(len(win))

    # each event's records are contiguous in the stream; apply (a), (e)
    bounds = np.flatnonzero(np.diff(stream_event[survivors], prepend=-1, append=-1)).tolist()
    survivors = survivors.tolist()
    stream_acts = [stream_acts[i] for i in survivors]
    columns = [[c[i] for i in survivors] for c in columns]
    values = columns[4]
    events: list[PanelEvent] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        act = stream_acts[lo]
        # (a) surprise cap against the simple consensus of the survivors,
        # exact integer comparison: |sum - n*actual| > cap*n
        n = hi - lo
        if abs(sum(values[lo:hi]) - n * act.value_cents) > cfg.surprise_cap_cents * n:
            report.rejects["surprise_cap"] += n
            continue
        if n < cfg.min_analysts:
            report.rejects["below_min_analysts"] += n
            continue
        panel_ests = tuple(map(PanelEstimate, *(c[lo:hi] for c in columns)))
        events.append(PanelEvent(act.firm_id, act.period, act.value_cents, act.announce_ts, panel_ests))
        report.kept += n

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
