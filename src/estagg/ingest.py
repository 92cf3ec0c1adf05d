"""CSV ingestion and panel construction.

Both input files are parsed by one schema-driven converter into column
tables: estimates into an EstimateTable, actuals (one per firm-quarter)
into an ActualTable, each with one array per column and its ids interned
to integer codes. build_panel joins the two by sorting, applies the
exclusion rules (forecast-horizon window, last-estimate-wins dedup,
prior-record requirement, surprise cap, minimum analyst count) as
sort-and-group passes over the columns and emits a chronological panel
of columns, whose events are the scored actuals rows plus the bounds of
each one's estimate rows. Every dropped estimate is accounted for in an
IngestReport, one reason per input row.

All money values are integer cents; the surprise-cap comparison is done in
exact integer arithmetic.
"""

from __future__ import annotations

import csv
import logging
from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace as dc_replace
from functools import cached_property
from itertools import compress, groupby, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .bias import earlier, pair_key
from .features import top10_brokers
from .periods import parse_ts, quarter_indices

logger = logging.getLogger(__name__)

# rows per conversion chunk of a table's from_rows; it bounds how many
# per-field string objects are alive at once
_CHUNK_ROWS = 1 << 14

# the kinds of a table's columns
ID, INT64, QUARTER, TIMESTAMP = "id", "int64", "quarter", "timestamp"

IDENTITIES = ("analyst", "broker")  # whose estimates a panel deduplicates and keys its ledgers by


def _schema(table_type) -> list[tuple[str, str, str]]:
    """(CSV column, attribute, kind) of each column of a table type."""
    return [(f.metadata["column"], f.name, f.metadata["kind"]) for f in fields(table_type) if f.metadata]


class _Table:
    """Input rows as columns, one array per CSV column and one entry per
    converted row, in input order. An ID column holds codes into its sorted
    ids, kept in the field of its name plus `_ids`, so ordering rows by code
    orders them by id. Build one with `from_rows`."""

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], on_reject: Callable[[int, str], None]):
        """Build a table from rows whose fields follow the order of its CSV
        columns, each timestamp as ISO-8601 text.

        Rows are converted a chunk at a time, so only one chunk's field
        objects are alive at once. A row that does not convert is left out
        and reported to `on_reject` with its position in `rows`.
        """
        schema = _schema(cls)
        seen = [{} if kind == ID else None for _, _, kind in schema]  # id -> first-seen code
        parts: list[list[np.ndarray]] = []
        rows = iter(rows)
        start = 0
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            errors: dict[int, str] = {}
            parts.append(_columns(chunk, schema, seen, errors))
            for i in sorted(errors):
                on_reject(start + i, f"malformed: {errors[i]}")
            start += len(chunk)
        columns = [np.concatenate(c) for c in zip(*parts)] or [np.empty(0, np.int64)] * len(schema)
        table = {}
        for (_, attr, kind), column, index in zip(schema, columns, seen):
            if kind == ID:
                column, table[attr + "_ids"] = _sorted_codes(column, index)
            table[attr] = column
        return cls(**table)

    def take(self, index):
        """The rows `index` selects (positions or a mask), ids unchanged."""
        return dc_replace(self, **{attr: getattr(self, attr)[index] for _, attr, _ in _schema(self)})


@dataclass(frozen=True, eq=False)
class EstimateTable(_Table):
    """Estimates, any number per analyst and firm-period."""

    analyst: np.ndarray = field(metadata={"column": "analyst_id", "kind": ID})
    broker: np.ndarray = field(metadata={"column": "broker_id", "kind": ID})
    firm: np.ndarray = field(metadata={"column": "firm_id", "kind": ID})
    year: np.ndarray = field(metadata={"column": "period_year", "kind": INT64})
    quarter: np.ndarray = field(metadata={"column": "period_quarter", "kind": QUARTER})
    estimate_ts: np.ndarray = field(metadata={"column": "estimate_ts", "kind": TIMESTAMP})  # unix seconds
    horizon_code: np.ndarray = field(metadata={"column": "horizon_code", "kind": INT64})
    value_cents: np.ndarray = field(metadata={"column": "value_cents", "kind": INT64})
    analyst_ids: tuple[str, ...]
    broker_ids: tuple[str, ...]
    firm_ids: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class ActualTable(_Table):
    """Realized outcomes; parse_actuals keeps one per firm-period."""

    firm: np.ndarray = field(metadata={"column": "firm_id", "kind": ID})
    year: np.ndarray = field(metadata={"column": "period_year", "kind": INT64})
    quarter: np.ndarray = field(metadata={"column": "period_quarter", "kind": QUARTER})
    announce_ts: np.ndarray = field(metadata={"column": "announce_ts", "kind": TIMESTAMP})  # unix seconds
    value_cents: np.ndarray = field(metadata={"column": "value_cents", "kind": INT64})
    firm_ids: tuple[str, ...]


ESTIMATE_COLUMNS = tuple(column for column, _, _ in _schema(EstimateTable))
ACTUAL_COLUMNS = tuple(column for column, _, _ in _schema(ActualTable))


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


@dataclass(frozen=True, eq=False)
class Stream:
    """Every deduped window-valid prediction, scored or not, as int64
    columns in announcement order. The bias and history ledgers give each
    record its own-time prefix sums, over its key's records at strictly
    earlier announce times, so it sees no record at its own time."""

    announce_ts: np.ndarray
    ident: np.ndarray  # codes into ident_ids
    firm: np.ndarray  # codes into firm_ids
    error_cents: np.ndarray  # prediction minus actual
    ident_ids: tuple[str, ...]  # analyst or broker ids, sorted
    firm_ids: tuple[str, ...]  # sorted


@dataclass(frozen=True, eq=False)
class SizeBucket:
    """A panel's events of n analysts each, in announcement order, as a stack of k."""

    order: np.ndarray  # (k,) each event's position among the panel's events
    rows: np.ndarray  # (k, n) the events' rows, in event order


@dataclass(frozen=True, eq=False)
class Layout:
    """A panel's events laid out for scoring: grouped into size buckets by
    ascending analyst count, with the per-event columns no ledger changes."""

    buckets: list[SizeBucket]
    position: np.ndarray  # each event's position in the buckets' events, in bucket order
    qidx: np.ndarray  # quarter index of each event's announcement
    offset: np.ndarray  # qidx relative to the quarter of the panel's first stream record
    simple: np.ndarray  # plain mean of each event's raw estimates


@dataclass
class Panel:
    """Chronological events over columns of their kept estimates, one event
    after another: event j is row j of `events`, and its estimates are rows
    bounds[j]:bounds[j+1]. A row's identity, analyst or broker by the
    panel's identity mode, is its stream record's."""

    events: ActualTable  # the scored events' actuals rows, in announcement order
    bounds: np.ndarray  # (len(events) + 1,) row offsets
    analyst: np.ndarray  # codes into analyst_ids
    analyst_ids: tuple[str, ...]  # sorted
    value_cents: np.ndarray
    # (n, 4) FEATURE_NAMES[:4], which no ledger changes: age in days, freq
    # (pre-dedup submissions), firms covered in the period, top-decile flag
    features: np.ndarray
    stream: Stream
    records: np.ndarray  # each kept estimate's position in the stream
    report: IngestReport

    @cached_property
    def layout(self) -> Layout:
        """The events laid out for scoring, once per panel. A bucket's means
        run over its innermost axis, the arithmetic of each event alone."""
        sizes = np.diff(self.bounds)
        by_size = np.argsort(sizes, kind="stable")
        simple = np.empty(len(sizes))
        buckets = []
        for order in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
            if len(order):
                rows = self.bounds[order][:, None] + np.arange(sizes[order[0]])
                simple[order] = self.value_cents[rows].astype(float).mean(axis=-1)
                buckets.append(SizeBucket(order, rows))
        qidx = quarter_indices(self.events.announce_ts)
        q0 = quarter_indices(self.stream.announce_ts[0]) if len(self.stream.announce_ts) else 0
        return Layout(buckets, np.argsort(by_size), qidx, qidx - q0, simple)


_INT64 = np.iinfo(np.int64)

# YYYY-MM-DDTHH:MM:SSZ as UTF-32 code points; "0" marks a digit
_TS_FORM = np.array(["0000-00-00T00:00:00Z"]).view(np.uint32)
_TS_DIGIT = _TS_FORM == ord("0")


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


def _int64s(texts: Sequence, name: str, errors: dict[int, str], convert: Callable = int) -> np.ndarray:
    """convert() of each text as int64. A text that does not convert, or
    converts to a value outside the int64 range, reads 0, and its position
    gets the error message unless it has one already."""
    try:
        return np.fromiter(map(convert, texts), np.int64, len(texts))
    except (ValueError, TypeError, OverflowError):
        pass
    out = np.zeros(len(texts), np.int64)
    for i, x in enumerate(texts):
        try:
            value = convert(x)
        except (ValueError, TypeError) as exc:
            errors.setdefault(i, str(exc))
            continue
        if _INT64.min <= value <= _INT64.max:
            out[i] = value
        else:
            errors.setdefault(i, f"{name} {value} outside the int64 range")
    return out


def _codes(ids: Sequence, seen: dict) -> np.ndarray:
    """Codes of `ids`, giving each id not in `seen` the next free code."""
    for x in dict.fromkeys(ids):
        seen.setdefault(x, len(seen))
    return np.fromiter(map(seen.__getitem__, ids), np.int64, len(ids))


def _timestamps(texts: Sequence[str], name: str, errors: dict[int, str]) -> np.ndarray:
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
    out[other] = _int64s([texts[i] for i in other], name, other_errors, parse_ts)
    for j, message in other_errors.items():
        errors.setdefault(other[j], message)
    return out


def _columns(rows: Sequence[Sequence], schema, seen: list[Optional[dict]], errors: dict[int, str]) -> list[np.ndarray]:
    """The rows that convert, as one column per schema entry. Each row that
    does not gets the message for its first bad field in `errors`: the
    quarter, then the other fields in schema order, as a per-row parser
    checks them. Ids get first-seen codes from `seen`."""
    texts = list(zip(*rows))
    columns: list = list(texts)
    for i in sorted(range(len(schema)), key=lambda i: schema[i][2] != QUARTER):
        name, _, kind = schema[i]
        if kind == TIMESTAMP:
            columns[i] = _timestamps(texts[i], name, errors)
        elif kind != ID:
            columns[i] = _int64s(texts[i], name, errors)
        if kind == QUARTER:
            for j in np.flatnonzero((columns[i] < 1) | (columns[i] > 4)).tolist():
                errors.setdefault(j, f"{name} {columns[i][j]} outside 1..4")
    if errors:
        keep = np.ones(len(rows), bool)
        keep[list(errors)] = False
        columns = [list(compress(c, keep)) if kind == ID else c[keep] for c, (_, _, kind) in zip(columns, schema)]
    return [_codes(c, index) if index is not None else c for c, index in zip(columns, seen)]


def _sorted_codes(codes: np.ndarray, seen: dict) -> tuple[np.ndarray, tuple[str, ...]]:
    """Recode first-seen codes so that code order is id order."""
    ids = sorted(seen)
    rank = np.empty(len(ids), np.int64)
    rank[np.array([seen[x] for x in ids], np.int64)] = np.arange(len(ids))
    return rank[codes], tuple(ids)


def _first_equal(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Position of the first row equal to each row, a row being the tuple of
    its entries in the equal-length int64 `columns`."""
    order = np.lexsort(columns[::-1])  # stable, so equal rows keep their order
    starts = np.ones(len(order), bool)  # where each run of equal rows starts
    starts[1:] = np.any([c[order][1:] != c[order][:-1] for c in columns], axis=0)
    first = np.empty(len(order), np.int64)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _lookup(keys: list[np.ndarray], key_ids: tuple[str, ...], ref: list[np.ndarray], ref_ids: tuple[str, ...]):
    """Position in `ref` of the first row equal to each row of `keys`, -1
    where none. Rows are as in _first_equal, except that the first column
    holds codes into `key_ids` or `ref_ids`, compared by id."""
    code_of = {x: i for i, x in enumerate(key_ids)}
    ref_codes = np.array([code_of.get(x, -1) for x in ref_ids] + [-1], np.int64)[ref[0]]  # -1: not in key_ids
    n = len(ref_codes)
    first = _first_equal([np.concatenate(pair) for pair in zip([ref_codes, *ref[1:]], keys)])[n:]
    return np.where(first < n, first, -1)


def _parse(source, kind: str, table_type):
    """A table of the file's rows, the malformed rows as rejects in line
    order, and the physical line of each row read, rejected or not. A `str`
    source is a path, opened and closed here; anything else is a text
    stream, read and left open."""
    rejects: list[Reject] = []
    with open(source, newline="") if isinstance(source, str) else nullcontext(source) as fh:
        rows, lines = _fields(fh, kind, [column for column, _, _ in _schema(table_type)], rejects)
        table = table_type.from_rows(rows, lambda i, reason: rejects.append(Reject(lines[i], reason)))
    rejects.sort(key=lambda r: r.line)
    return table, rejects, lines


def parse_estimates(source) -> tuple[EstimateTable, list[Reject]]:
    """Parse an estimates file into an EstimateTable; malformed rows go to
    the reject list, in line order."""
    table, rejects, _ = _parse(source, "estimates", EstimateTable)
    return table, rejects


def parse_actuals(source) -> tuple[ActualTable, list[Reject]]:
    """Parse an actuals file into an ActualTable; malformed rows go to the
    reject list, in line order. A firm-period given twice fails the parse
    with both physical lines."""
    table, rejects, lines = _parse(source, "actuals", ActualTable)
    lines = np.array(lines, np.int64)
    lines = lines[~np.isin(lines, [r.line for r in rejects])]  # of the table's rows
    first = _first_equal([table.firm, table.year, table.quarter])
    repeats = np.flatnonzero(first != np.arange(len(table)))
    if len(repeats):
        i, j = first[repeats[0]], repeats[0]
        key = (table.firm_ids[table.firm[j]], (int(table.year[j]), int(table.quarter[j])))
        where = f"{source}: " if isinstance(source, str) else ""
        raise ValueError(f"{where}duplicate actual for {key} on lines {lines[i]} and {lines[j]}")
    return table, rejects


def cross_check_actuals(primary: ActualTable, secondary: ActualTable) -> ActualTable:
    """Keep actuals confirmed by the second source (exact cents equality);
    pairs absent from the secondary source are discarded."""
    keys, ref = ([a.firm, a.year, a.quarter, a.value_cents] for a in (primary, secondary))
    return primary.take(_lookup(keys, primary.firm_ids, ref, secondary.firm_ids) >= 0)


def build_panel(
    estimates: EstimateTable,
    actuals: ActualTable,
    cfg: FilterConfig = FilterConfig(),
    identity: str = "analyst",
) -> Panel:
    """Apply all exclusion rules and emit a chronological panel.

    Filter order: horizon/time window, last-estimate-per-identity dedup,
    prior-record requirement, surprise cap (on the simple consensus of the
    surviving estimates), minimum analyst count. The ledger stream keeps
    every deduped window-valid prediction (including ones from unscored
    events) so downstream history never loses a real prediction.

    Each rule is an array pass over the table's columns, and the kept
    estimates' ledger-free features are computed here, once per panel.
    The actuals give one row per firm-period, as parse_actuals ensures; an
    event is an actuals row, and the panel's events are those rows taken
    in announcement order.
    """
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; known: {list(IDENTITIES)}")
    t, acts = estimates, actuals
    report = IngestReport(total=len(t))

    # (b) horizon + time window, each row counted under the first rule it fails
    event = _lookup([t.firm, t.year, t.quarter], t.firm_ids, [acts.firm, acts.year, acts.quarter], acts.firm_ids)
    announce = np.append(acts.announce_ts, 0)[event]
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

    # censuses per period of the window-valid submissions: the firms each
    # identity covers (one deduped group per firm), and the brokers in the
    # top decile by distinct analysts
    act_period = np.append(_first_equal([acts.year, acts.quarter]), -1)
    ncos_keys, ncos = np.unique(act_period[ev[last]] * len(ids) + ident[last], return_counts=True)
    n_brokers, n_analysts = len(t.broker_ids), len(t.analyst_ids)
    trios = np.unique((act_period[ev] * n_brokers + t.broker[rows]) * n_analysts + t.analyst[rows])
    census_keys, census = np.unique(trios // n_analysts, return_counts=True)
    in_top: list[bool] = []
    for _, members in groupby(zip(census_keys.tolist(), census.tolist()), key=lambda kn: kn[0] // n_brokers):
        analysts_of = {t.broker_ids[k % n_brokers]: n for k, n in members}
        top = top10_brokers(analysts_of)
        in_top += [b in top for b in analysts_of]

    # ledger stream, chronological by announcement; records tied on
    # (announce, firm, period) keep their group's first appearance order
    win = rows[last]
    order = np.lexsort((first, t.quarter[win], t.year[win], t.firm[win], announce[win]))
    win, freq = win[order], freq[order]
    stream_event, stream_ident, stream_announce = event[win], ident_of[win], announce[win]
    values, actual = t.value_cents[win], acts.value_cents[stream_event]
    errors = values - actual
    # the running sum of |error| bounds every ledger's prefix sums; below
    # 2**53 they are exact in int64 and convert to float without rounding.
    # Clipped at 2**53, the sums cannot wrap before the first one reaching
    # it; a difference that wrapped int64 is past it
    wrapped = ((values ^ actual) & (values ^ errors)) < 0
    magnitude = np.minimum(np.abs(errors).view(np.uint64), 2**53)  # as uint64, |-2**63| is right
    spent = np.cumsum(np.where(wrapped, 2**53, magnitude).astype(np.int64))
    reached = np.flatnonzero(spent >= 2**53)
    if len(reached):
        e = int(stream_event[reached[0]])
        raise ValueError(
            f"ledger error sums reach 2**53 cents at firm {acts.firm_ids[acts.firm[e]]} period "
            f"{int(acts.year[e])}Q{int(acts.quarter[e])}; past that bound bias means would round"
        )
    stream = Stream(stream_announce, stream_ident, t.firm[win], errors, ids, t.firm_ids)

    # (d) prior-record flags with all records at one announce time treated
    # as simultaneous: a record has a prior when its (identity, firm) pair
    # has one at an earlier announce time, as the history ledger counts it
    has_prior = earlier(pair_key(stream_ident, t.firm[win]), stream_announce)[0] > 0
    keep = has_prior | (not cfg.require_prior_record)
    if not keep.all():
        report.rejects["no_prior_record"] += len(win) - int(np.count_nonzero(keep))
    survivors = np.flatnonzero(keep)

    # each event's records are contiguous in the stream; apply (a), (e) to
    # each run of one event's survivors
    starts = np.flatnonzero(np.diff(stream_event[survivors], prepend=-1))
    n = np.diff(starts, append=len(survivors))
    # (a) surprise cap against the simple consensus of the survivors: the
    # exact |sum - n*actual| > cap*n, as (|sum| - 1) // n >= cap over the
    # summed errors, which the guard above keeps exact in int64
    capped = (np.abs(np.add.reduceat(stream.error_cents[survivors], starts)) - 1) // n >= cfg.surprise_cap_cents
    small = ~capped & (n < cfg.min_analysts)
    for reason, dropped in (("surprise_cap", capped), ("below_min_analysts", small)):
        if dropped.any():
            report.rejects[reason] += int(n[dropped].sum())
    scored = ~(capped | small)
    kept = survivors[np.repeat(scored, n)]  # stream positions of the kept estimates
    events = acts.take(stream_event[survivors[starts[scored]]])
    bounds = np.concatenate([[0], np.cumsum(n[scored])])
    report.kept = len(kept)

    rejected = sum(report.rejects.values())
    if report.kept + rejected != report.total:
        raise RuntimeError(
            f"panel accounting broken: kept {report.kept} + rejected {rejected} != total {report.total}"
        )
    logger.info("panel: %d events, %d estimates kept of %d", len(events), report.kept, report.total)

    # the kept estimates' columns, with the features no ledger changes
    kept_rows, ident, period = win[kept], stream_ident[kept], act_period[stream_event[kept]]
    features = np.column_stack(
        [
            (stream_announce[kept] - t.estimate_ts[kept_rows]) / 86400.0,
            freq[kept],
            ncos[np.searchsorted(ncos_keys, period * len(ids) + ident)],
            np.array(in_top, bool)[np.searchsorted(census_keys, period * n_brokers + t.broker[kept_rows])],
        ]
    )
    return Panel(
        events, bounds, t.analyst[kept_rows], t.analyst_ids, t.value_cents[kept_rows], features, stream, kept, report
    )
