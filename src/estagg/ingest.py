"""CSV ingestion and panel construction.

Both input files are parsed by one schema-driven converter into column
tables: estimates into an EstimateTable, actuals (one per firm-quarter)
into an ActualTable, each with one array per column and its ids interned
to integer codes. A file is read as bytes, in blocks of _CHUNK_ROWS lines,
a lone CR ending a line as an LF or a CR LF does (_line_ends). csv.reader
defines the format. It reads the header; a block with no quote or NUL is
tokenized as bytes with numpy, from one scan for its commas; from the first
block that has one, csv.reader reads the rest, its rows packed into bytes.
Either way a block is a _ByteBlock, the one converter, which also holds
each of its rows' physical lines: each column's fields are gathered
column-major and convert in whole-column passes. Ids key as uint64 words up
to _ID_BYTES, else as bytes, each distinct id decoded once per column; a
field not `-?[0-9]{1,18}` or `YYYY-MM-DDTHH:MM:SSZ` is decoded alone.

build_panel joins the two tables, applies the exclusion rules
(forecast-horizon window, last-estimate-wins dedup, the unconditional
prior-record requirement, surprise cap, minimum analyst count; FilterConfig
holds the settings) and emits a chronological panel of columns, whose
events are the scored actuals rows plus the bounds of each one's estimate
rows. Each grouping is one unstable numpy sort of an int64 key packed from
dense ranks, never from raw values (_pack), and each table of equal-length
segments, a panel's size buckets as a key index's runs, is one _by_length
part. Every dropped estimate is accounted for in an IngestReport, one
reason per row.

The stream builds and keeps its key indexes (Stream.index), a KeyIndex per
ledger key granularity built on first use, first read by build_panel's
prior-record rule. A KeyIndex sorts the records by key code and position
(_pack), so each key keeps stream order, the one-key `global` unsorted. It
holds each record's count of its key's records at earlier announce times,
and a table per run length (_by_length), one entry per record however
skewed the keys, through which a ledger sums its own values the same way.

All money values are integer cents; the surprise-cap comparison is done in
exact integer arithmetic.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import sys
from collections import Counter, namedtuple
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .features import normalize, top10_brokers
from .periods import parse_ts, quarter_indices

# lines, or rows, per block: a block is tokenized and converted as one,
# which bounds how many of its arrays and strings are alive at once
_CHUNK_ROWS = 1 << 14

# the kinds of a table's columns
ID, INT64, QUARTER, TIMESTAMP = "id", "int64", "quarter", "timestamp"

IDENTITIES = ("analyst", "broker")  # whose estimates a panel deduplicates and keys its ledgers by
MIN_LEAD_HOURS = 48  # the shortest recency cutoff, in hours before the announcement, any panel scores with
HORIZON_CODES = frozenset({6, 7, 8, 9})  # the forecast horizons a panel keeps


def log_info(name: str, message: str, *args) -> None:
    """Log `message % args` at INFO to the logger `name`, if this process
    has imported logging. One that has not has no handler that could show
    the record, so estagg does not import logging for it: `cli.main` does
    when ESTAGG_LOG is set, and a host program that logs already has."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).info(message, *args)


def _batches(rows: Iterable) -> Iterator[list]:
    """Lists of up to _CHUNK_ROWS consecutive items of `rows`."""
    rows = iter(rows)
    return iter(lambda: list(islice(rows, _CHUNK_ROWS)), [])


class _Table:
    """Input rows as columns, one array per CSV column and one entry per
    converted row, in input order. An ID column holds codes into its sorted
    ids, kept in the field of its name plus `_ids`, so ordering rows by code
    orders them by id. parse_estimates and parse_actuals build them. Its
    fields, given by name, are its SCHEMA's columns, then the ids."""

    SCHEMA: tuple[tuple[str, str, str], ...] = ()  # (CSV column, attribute, kind) of each column

    def __init__(self, **columns):
        names = [attr for _, attr, _ in self.SCHEMA] + [attr + "_ids" for _, attr, kind in self.SCHEMA if kind == ID]
        if columns.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes {names}, got {sorted(columns)}")
        vars(self).update(columns)

    def __len__(self) -> int:
        return len(getattr(self, self.SCHEMA[0][1]))

    @classmethod
    def _from_blocks(cls, blocks: Iterable, rejects: list[Reject]):
        """A table built from _ByteBlocks, tokenized or packed, converted one
        after another, and the physical line of each of its rows. Each row
        that does not convert goes to `rejects`, named by its block's line."""
        schema = cls.SCHEMA
        seen = [{} if kind == ID else None for _, _, kind in schema]  # id bytes -> first-seen code
        parts: list[list[np.ndarray]] = []
        for block in blocks:
            errors: dict[int, str] = {}
            parts.append([*_columns(block, schema, seen, errors), np.delete(block.lines, list(errors))])
            rejects.extend(Reject(int(block.lines[i]), f"malformed: {errors[i]}") for i in sorted(errors))
        parts = [list(c) for c in zip(*parts)] or [[np.empty(0, np.int64)] for _ in range(len(schema) + 1)]
        # each column's blocks, the lines' too, are freed once joined
        *columns, lines = [np.concatenate(parts.pop(0)) for _ in range(len(schema) + 1)]
        table = {}
        for (_, attr, kind), column, index in zip(schema, columns, seen):
            if kind == ID:
                column, table[attr + "_ids"] = _sorted_codes(column, index)
            table[attr] = column
        return cls(**table), lines

    def replace(self, **columns):
        """The table with `columns` in place of its own, ids unchanged."""
        return type(self)(**vars(self) | columns)

    def take(self, index):
        """The rows `index` selects (positions or a mask), ids unchanged."""
        return self.replace(**{attr: getattr(self, attr)[index] for _, attr, _ in self.SCHEMA})


class EstimateTable(_Table):
    """Estimates, any number per analyst and firm-period; estimate_ts in unix seconds."""

    SCHEMA = (
        ("analyst_id", "analyst", ID),
        ("broker_id", "broker", ID),
        ("firm_id", "firm", ID),
        ("period_year", "year", INT64),
        ("period_quarter", "quarter", QUARTER),
        ("estimate_ts", "estimate_ts", TIMESTAMP),
        ("horizon_code", "horizon_code", INT64),
        ("value_cents", "value_cents", INT64),
    )


class ActualTable(_Table):
    """Realized outcomes; parse_actuals keeps one per firm-period. announce_ts in unix seconds."""

    SCHEMA = (
        ("firm_id", "firm", ID),
        ("period_year", "year", INT64),
        ("period_quarter", "quarter", QUARTER),
        ("announce_ts", "announce_ts", TIMESTAMP),
        ("value_cents", "value_cents", INT64),
    )


ESTIMATE_COLUMNS = tuple(column for column, _, _ in EstimateTable.SCHEMA)
ACTUAL_COLUMNS = tuple(column for column, _, _ in ActualTable.SCHEMA)


Reject = namedtuple("Reject", ["line", "reason"])

# the run's filter settings, each a `run` flag and config setting cast by its default's type
_FILTER_DEFAULTS = {"min_analysts": 8, "surprise_cap_cents": 50, "min_lead_hours": MIN_LEAD_HOURS, "max_age_days": 365}
FilterConfig = namedtuple("FilterConfig", _FILTER_DEFAULTS, defaults=_FILTER_DEFAULTS.values())


class IngestReport:
    """The estimates a panel build read, kept, and rejected per reason."""

    def __init__(self, total: int = 0):
        self.total, self.kept, self.rejects = total, 0, Counter()


class Stream:
    """Every deduped window-valid prediction, scored or not, as int64
    columns in announcement order. The bias and history ledgers give each
    record its own-time prefix sums, over its key's records at strictly
    earlier announce times, so it sees no record at its own time."""

    def __init__(self, announce_ts, ident, firm, error_cents, ident_ids, firm_ids):
        self.announce_ts = announce_ts
        self.ident = ident  # codes into ident_ids
        self.firm = firm  # codes into firm_ids
        self.error_cents = error_cents  # prediction minus actual
        self.ident_ids = ident_ids  # analyst or broker ids, sorted
        self.firm_ids = firm_ids  # sorted
        self._indexes: dict[str, KeyIndex] = {}  # by ledger key granularity

    def index(self, granularity: str) -> KeyIndex:
        """The records' KeyIndex under the ledger key `granularity`, built on first use and kept."""
        if granularity not in self._indexes:
            self._indexes[granularity] = KeyIndex(_KEYS[granularity](self.ident, self.firm), self.announce_ts)
        return self._indexes[granularity]


def _span(codes: np.ndarray) -> int:
    """One past the largest of the nonnegative `codes`, 1 for none."""
    return int(codes.max()) + 1 if len(codes) else 1


# each granularity's ledger key, a dense code from the identity and firm codes
_KEYS = {
    "identity_firm": lambda ident, firm: ident * _span(firm) + firm,
    "identity": lambda ident, firm: ident,
    "firm": lambda ident, firm: firm,
    "global": lambda ident, firm: np.zeros_like(ident),
}


class KeyIndex:
    """A chronological stream's records under one key of nonnegative codes:
    `counts`, each record's count of its key's records at strictly earlier
    times, and the tables through which `sums` adds values the same way.

    The records are put in key order by numpy's default sort of one unique
    key packed from the key code and the position (_pack), which keeps each
    key's records in stream order. One key needs no sort."""

    def __init__(self, keys: np.ndarray, ts: np.ndarray):
        n, span = len(keys), _span(keys)
        at = np.arange(n)
        order = at if span == 1 else np.argsort(_pack([(keys, span), (at, n)]))
        keys, ts = keys[order], ts[order]
        run = _new(keys)  # where each key's run starts
        group = run | _new(ts)  # where each (key, time) group starts
        run_start = np.maximum.accumulate(np.where(run, at, 0))
        before = np.maximum.accumulate(np.where(group, at, 0)) - run_start
        self.counts = np.empty(n, np.int64)
        self.counts[order] = before
        # one table per run length: row r of a length's table lists its run's
        # stream positions and, for each, how many of the run's records its sum covers
        starts = np.flatnonzero(run)
        self._tables = [(order[rows], before[rows]) for _, rows in _by_length(starts, np.diff(starts, append=n))]

    def sums(self, values: np.ndarray) -> np.ndarray:
        """For each record, the sum of `values` over its key's records at
        strictly earlier times, added in stream order: each run's row holds
        a 0, then its values, summed left to right."""
        out = np.empty(len(values), values.dtype)
        for records, covered in self._tables:
            table = np.zeros((len(records), records.shape[1] + 1), values.dtype)
            table[:, 1:] = values[records]
            np.cumsum(table, axis=1, out=table)
            out[records] = np.take_along_axis(table, covered, axis=1)
        return out


# a panel's events of n analysts each, in announcement order, as a stack of k
SizeBucket = namedtuple(
    "SizeBucket",
    [
        "order",  # (k,) each event's position among the panel's events
        "rows",  # (k, n) the events' rows, in event order
    ],
)

# a panel's events laid out for scoring: in size buckets by ascending
# analyst count, in quarter runs (the events announced in one quarter,
# whose rows are contiguous), and the per-event columns no ledger changes
Layout = namedtuple(
    "Layout",
    [
        "buckets",  # the SizeBuckets, by ascending analyst count
        "quarters",  # the quarter index of each run, a list
        "edges",  # the panel row where each run starts, then the row count, a list
        "offset",  # each event's quarter index relative to the quarter of the panel's first stream record
        "simple",  # plain mean of each event's raw estimates
    ],
)


class Panel:
    """Chronological events over columns of their kept estimates, one event
    after another: event j is row j of `events`, and its estimates are rows
    bounds[j]:bounds[j+1]. A row's identity, analyst or broker by the
    panel's identity mode, is its stream record's."""

    def __init__(self, events, bounds, analyst, analyst_ids, value_cents, features, stream, records, report):
        self.events: ActualTable = events  # the scored events' actuals rows, in announcement order
        self.bounds = bounds  # (len(events) + 1,) row offsets
        self.analyst = analyst  # codes into analyst_ids
        self.analyst_ids: tuple[str, ...] = analyst_ids  # sorted
        self.value_cents = value_cents
        # (n, 4) FEATURE_NAMES[:4], which no ledger changes: age in days, freq
        # (pre-dedup submissions), firms covered in the period, top-decile flag
        self.features = features
        self.stream: Stream = stream
        self.records = records  # each kept estimate's position in the stream
        self.report: IngestReport = report
        self._normalized: dict[str, np.ndarray] = {}  # ledger_free by scaling

    @cached_property
    def layout(self) -> Layout:
        """The events laid out for scoring, once per panel. A bucket's means
        run over its innermost axis, the arithmetic of each event alone."""
        buckets = [SizeBucket(*bucket) for bucket in _by_length(self.bounds[:-1], np.diff(self.bounds))]
        simple = np.empty(len(self.events))
        for bucket in buckets:
            simple[bucket.order] = self.value_cents[bucket.rows].astype(float).mean(axis=-1)
        qidx = quarter_indices(self.events.announce_ts)
        first = np.flatnonzero(np.diff(qidx, prepend=qidx[:1] - 1))  # each run's first event; qidx never falls
        edges = self.bounds[np.append(first, len(qidx))].tolist()
        q0 = quarter_indices(self.stream.announce_ts[0]) if len(self.stream.announce_ts) else 0
        return Layout(buckets, qidx[first].tolist(), edges, qidx - q0, simple)

    def ledger_free(self, scaling: str) -> np.ndarray:
        """The rows' FEATURE_NAMES[:5], which no ledger pass changes, each
        normalized over its event under `scaling`, as (5, rows) in row order:
        the four features and the experience, the count of the row's stream
        record's (identity, firm) records at earlier announce times. Each
        size bucket is gathered from the (5, rows) columns straight into one
        contiguous (5, k, n) stack, once per scaling and panel."""
        if scaling not in self._normalized:
            columns = np.vstack([self.features.T, self.stream.index("identity_firm").counts[self.records]])
            out = np.empty(columns.shape)
            for bucket in self.layout.buckets:
                # take, not columns[:, rows]: that is a transposed view, whose means round differently
                out[:, bucket.rows] = normalize(columns.take(bucket.rows, axis=1), scaling)
            self._normalized[scaling] = out
        return self._normalized[scaling]

    def drop_ledger_free(self, scaling: str) -> None:
        """Let go of the scaling's ledger_free block, which no later ledger pass reads."""
        self._normalized.pop(scaling, None)


_INT64 = np.iinfo(np.int64)

# YYYY-MM-DDTHH:MM:SSZ, "0" marking a digit: XOR with it turns a field of that form into digits 0-9
# and zero punctuation, each at most _TS_MAX; the tens and units of century, year, ..., second
_TS_FORM = np.frombuffer(b"0000-00-00T00:00:00Z", np.uint8)[:, None]
_TS_MAX = np.where(_TS_FORM == ord("0"), 9, 0).astype(np.uint8)
_TS_TENS, _TS_UNITS = [0, 2, 5, 8, 11, 14, 17], [1, 3, 6, 9, 12, 15, 18]
# per two-digit month, its days in a common year (0 for no month) and from March 1st
_MONTH_DAYS = np.pad([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], (1, 87))
_MONTH_START = (153 * ((np.arange(100) + 9) % 12) + 2) // 5

# the digits of a canonical int64, which cannot overflow; the widest id key; a block's end padding
_INT_DIGITS, _ID_BYTES = 18, 64
_PAD = " " * _ID_BYTES


def _line_ends(data, start: int, stop: int) -> np.ndarray:
    """The position of each line end in data[start:stop] where open(newline="") ends a line: at an LF,
    at the LF of a CR LF, or at a lone CR, a CR at data[stop - 1] being lone."""
    buf = np.frombuffer(data, np.uint8, stop - start, start)
    if data.find(b"\r", start, stop) < 0:
        return np.flatnonzero(buf == ord("\n")) + start
    ends = np.flatnonzero((buf == ord("\n")) | (buf == ord("\r")))
    chars = buf[ends]
    crlf = (chars[:-1] == ord("\r")) & (chars[1:] == ord("\n")) & (np.diff(ends) == 1)  # its CR ends no line
    return ends[np.append(~crlf, True)] + start


# the lines of data[start:stop], the first of them physical line `line`, and the position of each line end among them
_Lines = namedtuple("_Lines", ["line", "data", "start", "stop", "ends"])


def _decoded(lines: _Lines, where: str) -> str:
    """The lines as text; an undecodable byte fails naming its file, `where`, and its line."""
    try:
        return str(memoryview(lines.data)[lines.start : lines.stop], "utf-8")
    except UnicodeDecodeError as exc:
        line, byte = lines.line + int(np.searchsorted(lines.ends, lines.start + exc.start)), exc.object[exc.start]
        raise ValueError(f"{where}line {line}: undecodable byte 0x{byte:02x}; the input must be UTF-8") from None


def _text_lines(pieces: Iterable[_Lines], where: str) -> Iterator[str]:
    """Each line of the pieces, as text split as by open(newline=""); a piece's text lives only in its StringIO."""
    for lines in pieces:
        yield from io.StringIO(_decoded(lines, where), newline="")


def read_lines(path: str) -> Iterator[str]:
    """Each line of a UTF-8 file as text, split as by open(newline=""); an
    undecodable byte fails naming the file and its line."""
    with open(path, "rb") as fh:
        yield from _text_lines(_binary_chunks(fh), f"{path}: ")


class _ByteBlock:
    """A block of rows whose fields are runs of UTF-8 bytes in one buffer,
    with the byte bounds of each schema field of each row and the physical
    line each row starts on: lines of quote-free CSV text (`tokenize`), or
    rows of fields packed column after column (`pack`). Each column converts
    in whole-column numpy passes over its fields' bytes, gathered as one key
    per field or as a (width, n) matrix; only fields not of canonical form
    are decoded, by int() or parse_ts."""

    def __init__(self, data: bytes, starts: list[np.ndarray], ends: list[np.ndarray], lines: np.ndarray):
        self.data = data  # at least _ID_BYTES past every field's start, so every gather stays in bounds
        self.buf = np.frombuffer(data, np.uint8)
        self.starts, self.ends = starts, ends  # per schema column, per row
        self.lines = lines  # per row

    @classmethod
    def pack(cls, rows: Sequence[tuple]):
        """The block of `rows`, each its physical line, then its fields in schema
        order as csv.reader gives them; the fields' bytes are joined column after
        column."""
        lines, *columns = zip(*rows)
        texts = list(chain.from_iterable(columns))
        data = "".join([*texts, _PAD]).encode()
        # in ASCII text, each field has as many bytes as characters
        lengths = map(len, texts if data.isascii() else map(str.encode, texts))
        lengths = np.fromiter(lengths, np.int64, len(texts)).reshape(len(columns), len(rows))
        ends = lengths.cumsum().reshape(lengths.shape)
        return cls(data, list(ends - lengths), list(ends), np.array(lines, np.int64))

    @classmethod
    def tokenize(cls, lines: _Lines, positions: Sequence[int], width: int):
        """The block of the lines as csv.reader splits them, each row's line its own, and the
        indexes and field counts of the lines too short for the fields at `positions`. Blank
        lines hold no row; a CR LF line ends at its CR. Fields are bounded by the commas of one
        scan, by a reshape where every line holds the header's `width` fields. None when
        csv.reader could read the lines otherwise: a quote, a NUL or a line past the field limit."""
        line, data, start, stop, eol = lines
        if data.find(b'"', start, stop) >= 0 or data.find(b"\0", start, stop) >= 0:
            return None  # csv.reader before 3.11 fails on a NUL
        buf = np.frombuffer(data, np.uint8)
        commas = np.flatnonzero(buf[start:stop] == ord(",")) + start
        if not len(eol) or eol[-1] != stop - 1:  # the last line ends where the lines do
            eol = np.append(eol, stop)
        line_start = np.concatenate([[start], eol[:-1] + 1])
        line_end = eol - ((buf[eol] == ord("\n")) & (buf[np.maximum(eol - 1, 0)] == ord("\r")))  # before a CR LF
        if (line_end - line_start).max() > csv.field_size_limit():
            return None
        bounds = commas.reshape(-1, width - 1).T if len(commas) == len(eol) * (width - 1) else None  # row p: p-th comma
        if bounds is not None and (bounds[0] >= line_start).all() and (bounds[-1] < eol).all():  # width - 1 a line
            bounds = np.ascontiguousarray(bounds)
            starts = [line_start if p == 0 else bounds[p - 1] + 1 for p in positions]
            ends = [line_end if p == width - 1 else bounds[p] for p in positions]
            return cls(data, starts, ends, line + np.arange(len(eol))), line_start[:0], line_start[:0]
        first = np.searchsorted(commas, line_start)  # the index of each line's first comma among the commas
        n_fields = np.searchsorted(commas, eol) - first + 1
        filled, enough = line_end > line_start, n_fields > max(positions)
        short, rows = np.flatnonzero(filled & ~enough), np.flatnonzero(filled & enough)
        first, line_start, line_end = first[rows], line_start[rows], line_end[rows]
        commas = np.append(commas, stop)  # past a line's last comma, its field ends at the line's end
        starts = [line_start if p == 0 else commas[first + p - 1] + 1 for p in positions]
        ends = [np.minimum(commas[first + p], line_end) for p in positions]
        return cls(data, starts, ends, line + rows), short, n_fields[short]

    def _bytes(self, starts: np.ndarray, ends: np.ndarray) -> list[bytes]:
        data = memoryview(self.data)
        return [data[s:e].tobytes() for s, e in zip(starts.tolist(), ends.tolist())]

    def _gather(self, starts: np.ndarray, dtype) -> np.ndarray:
        """The bytes from each of `starts` as one item of `dtype`, those past a field being the block's next."""
        return np.ndarray((len(self.buf) - np.dtype(dtype).itemsize + 1,), dtype, self.buf, 0, (1,))[starts]

    def _word(self, starts: np.ndarray, n_bytes: np.ndarray) -> np.ndarray:
        """The n_bytes bytes from each of `starts` as a little-endian uint64, zero past them; 0 for n_bytes <= 0."""
        return self._gather(starts, "<u8") & np.uint64(2**64 - 1) >> (64 - 8 * n_bytes).astype(np.uint64)

    def _matrix(self, starts: np.ndarray, width: int) -> np.ndarray:
        """The `width` bytes from each of `starts` as a (width, n) matrix, row j holding each one's byte j."""
        return np.ascontiguousarray(self._gather(starts, f"V{width}").view(np.uint8).reshape(len(starts), width).T)

    def _fallback(
        self, out: np.ndarray, i: int, rows: np.ndarray, name: str, errors: dict[int, str], convert: Callable
    ) -> None:
        """convert() of column i's fields in `rows`, one at a time, into
        out[rows]. A field that does not convert, or converts to a value
        outside the int64 range, reads 0, and its row gets the error message
        unless it has one already."""
        values = []
        for row, raw in zip(rows.tolist(), self._bytes(self.starts[i][rows], self.ends[i][rows])):
            try:
                value = convert(raw.decode())
            except (ValueError, TypeError) as exc:
                errors.setdefault(row, str(exc))
                value = 0
            if not _INT64.min <= value <= _INT64.max:
                errors.setdefault(row, f"{name} {value} outside the int64 range")
                value = 0
            values.append(value)
        out[rows] = values

    def int64s(self, i: int, name: str, errors: dict[int, str]) -> np.ndarray:
        """Fields of the form -?[0-9]{1,18} read as digit sums over the matrix of their last
        bytes, a row per decimal place; any other field goes through int()."""
        starts, ends = self.starts[i], self.ends[i]
        negative = self.buf[starts] == ord("-")
        n_digits = ends - starts - negative
        width = min(max(int(n_digits.max(initial=0)), 1), _INT_DIGITS)
        digits = self._matrix(np.maximum(ends - width, 0), width) ^ np.uint8(ord("0"))
        digits *= np.arange(width, 0, -1)[:, None] <= n_digits  # 0 before the field's first digit
        ok = (n_digits >= 1) & (n_digits <= _INT_DIGITS) & (ends >= width) & (digits.max(axis=0) <= 9)
        out = np.zeros(len(starts), np.int64)
        for row in digits:
            out = out * 10 + row
        np.negative(out, out=out, where=negative)
        self._fallback(out, i, np.flatnonzero(~ok), name, errors, int)
        return out

    def timestamps(self, i: int, name: str, errors: dict[int, str]) -> np.ndarray:
        """Unix seconds of ISO-8601 fields, equal to parse_ts of each.
        Fields of the exact form YYYY-MM-DDTHH:MM:SSZ naming a second on the
        proleptic Gregorian calendar, as datetime does, convert in passes
        over the rows of their (20, n) byte matrix; any other field goes
        through parse_ts."""
        starts, ends = self.starts[i], self.ends[i]
        chars = self._matrix(starts, 20) ^ _TS_FORM
        exact = (ends - starts == 20) & ~(chars > _TS_MAX).any(axis=0)
        chars *= exact  # other fields' bytes would index past the month tables
        century, year, month, day, hour, minute, second = (chars[_TS_TENS] * 10 + chars[_TS_UNITS]).astype(np.int64)
        year += century * 100
        # days from 0000-03-01 to March 1st of the year and of the year a date is in when years start in March
        march = [365 * y + y // 4 - y // 100 + y // 400 for y in (year, year - (month <= 2))]
        leap_day = (month == 2) & (march[0] - march[1] == 366)
        exact &= (year >= 1) & (day >= 1) & (day <= _MONTH_DAYS[month] + leap_day)  # no year 0
        exact &= (hour <= 23) & (minute <= 59) & (second <= 59)
        days = march[1] + _MONTH_START[month] + day - 719469  # since 1970-01-01
        out = days * 86400 + hour * 3600 + minute * 60 + second
        self._fallback(out, i, np.flatnonzero(~exact), name, errors, parse_ts)
        return out

    def codes(self, i: int, keep: Optional[np.ndarray], seen: dict) -> np.ndarray:
        """First-seen codes from `seen`, which keeps each distinct id's raw bytes, of the ids in
        column i's `keep` rows. Equal ids meet in the sort (_runs) of a key per id: its _word if
        no id passes 8 bytes, one sort; else up to _ID_BYTES its words' ranks packed (_pack);
        past that, or in a block with a NUL, where an id could end in one, its bytes."""
        starts, ends = self.starts[i], self.ends[i]
        if keep is not None:
            starts, ends = starts[keep], ends[keep]
        lengths = ends - starts
        width = max(8, -(-int(lengths.max(initial=0)) // 8) * 8)
        if width > _ID_BYTES or b"\0" in self.data:
            keys = np.array(self._bytes(starts, ends), object)
        elif width == 8:
            keys = self._word(starts, lengths)
        else:
            keys = _pack([_rank(self._word(starts + j, np.minimum(lengths - j, 8))) for j in range(0, width, 8)])
        order, runs, sizes = _runs(keys)
        ids = self._bytes(starts[order[runs]], ends[order[runs]])  # a row of each distinct id
        out = np.empty(len(keys), np.int64)
        out[order] = np.repeat(np.array([seen.setdefault(x, len(seen)) for x in ids], np.int64), sizes)
        return out


def _columns(block, schema, seen: list[Optional[dict]], errors: dict[int, str]) -> list[np.ndarray]:
    """The block's rows that convert, as one column per schema entry. Each
    row that does not gets the message for its first bad field in
    `errors`: the quarter, then the other fields in schema order, as a
    per-row parser checks them. Ids get first-seen codes from `seen`."""
    columns: list = [None] * len(schema)
    for i in sorted(range(len(schema)), key=lambda i: schema[i][2] != QUARTER):
        name, _, kind = schema[i]
        if kind == TIMESTAMP:
            columns[i] = block.timestamps(i, name, errors)
        elif kind != ID:
            columns[i] = block.int64s(i, name, errors)
        if kind == QUARTER:
            for j in np.flatnonzero((columns[i] < 1) | (columns[i] > 4)).tolist():
                errors.setdefault(j, f"{name} {columns[i][j]} outside 1..4")
    keep = None
    if errors:
        keep = np.ones(len(block.lines), bool)
        keep[list(errors)] = False
    return [
        block.codes(i, keep, index) if index is not None else column if keep is None else column[keep]
        for i, (column, index) in enumerate(zip(columns, seen))
    ]


def _sorted_codes(codes: np.ndarray, seen: dict) -> tuple[np.ndarray, tuple[str, ...]]:
    """Recode first-seen codes so that code order is id order, and decode each
    id of `seen` once: UTF-8 bytes sort as their text's code points do."""
    ids = sorted(seen)
    rank = np.empty(len(ids), np.int64)
    rank[np.array([seen[x] for x in ids], np.int64)] = np.arange(len(ids))
    return rank[codes], tuple(x.decode() for x in ids)


def _new(s: np.ndarray) -> np.ndarray:
    """Whether each entry of `s` differs from the one before it, the first always."""
    return np.r_[True, s[1:] != s[:-1]][: len(s)]


def _by_length(starts: np.ndarray, lengths: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The segments of `lengths` positions from `starts`, one part per
    distinct length in ascending order: each part's segment indexes,
    ascending, and its (k, length) table of their positions."""
    order = np.argsort(_pack([(lengths, _span(lengths)), (np.arange(len(lengths)), len(lengths))]))
    edges = np.append(np.flatnonzero(_new(lengths[order])), len(order))
    parts = [order[a:b] for a, b in zip(edges[:-1].tolist(), edges[1:].tolist())]
    return [(part, starts[part][:, None] + np.arange(lengths[part[0]])) for part in parts]


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order that sorts `key`, by numpy's default unstable sort, and the
    start and length of each run of equal keys in it."""
    order = np.argsort(key)
    starts = np.flatnonzero(_new(key[order]))
    return order, starts, np.diff(starts, append=len(key))


def _rank(*columns: np.ndarray) -> tuple[np.ndarray, int]:
    """Each row's rank among the distinct rows, in lexicographic order, and
    their number; a row is the tuple of its entries in int64 `columns`."""
    order, starts, sizes = _runs(_pack(list(map(_rank, columns))) if len(columns) > 1 else columns[0])
    rank = np.empty(len(order), np.int64)
    rank[order] = np.repeat(np.arange(len(starts)), sizes)
    return rank, len(starts)


def _pack(ranked: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """One int64 key per row that orders the rows as the tuples of their
    entries in `ranked` do, each a column of ranks in range(size) with its
    size. Only ranks are packed, never raw values, and before a column that
    could take the key past int64 the key is ranked again, so keys fit for
    fewer than 2**31 rows with sizes up to 2**32."""
    key, span = np.zeros(len(ranked[0][0]), np.int64), 1
    for rank, size in ranked:
        if span * size > 2**63:
            key, span = _rank(key)
        key, span = key * size + rank, span * size
    return key


def _lookup(keys: list[np.ndarray], key_ids: tuple[str, ...], ref: list[np.ndarray], ref_ids: tuple[str, ...]):
    """Position in `ref` of the first row equal to each row of `keys`, -1
    where none: the first row equal to each row of `ref` then `keys`. A row
    is the tuple of its entries in int64 columns, the first of them codes
    into `key_ids` or `ref_ids`, compared by id and ranked as key codes."""
    code_of = {x: i for i, x in enumerate(key_ids)}
    ref_codes = np.array([code_of.get(x, -1) for x in ref_ids] + [-1], np.int64)[ref[0]]  # -1: not in key_ids
    n = len(ref_codes)
    firm, *rest = (np.concatenate(pair) for pair in zip([ref_codes, *ref[1:]], keys))
    order, starts, sizes = _runs(_pack([(firm + 1, len(key_ids) + 1), *map(_rank, rest)]))
    first = np.empty(len(order), np.int64)
    first[order] = np.repeat(np.minimum.reduceat(order, starts), sizes)
    return np.where(first[n:] < n, first[n:], -1)


def _dedup(key: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each group of equal entries of `key`, in key order: its first position,
    size, and position of its latest `ts`, the later position on a tie."""
    order, starts, sizes = _runs(key)
    ts = ts[order]
    latest = np.where(ts == np.repeat(np.maximum.reduceat(ts, starts), sizes), order, -1)
    return np.minimum.reduceat(order, starts), sizes, np.maximum.reduceat(latest, starts)


def _chronological(acts: ActualTable, event: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
    """The order of records of the actuals rows `event` by those rows'
    (announce, firm, year, quarter), then by `first`, distinct in range(n)."""
    rank, size = _rank(acts.announce_ts, acts.firm, acts.year, acts.quarter)
    return np.argsort(_pack([(rank[event], size), (first, n)]))


def _binary_chunks(fh) -> Iterator[_Lines]:
    """A binary file's lines in blocks of _CHUNK_ROWS but for the last, each cut after a line end (_line_ends)
    and followed by at least _ID_BYTES more bytes. Reads are sized by the mean line so far to end near a block's end."""
    data = bytearray(fh.read(len(codecs.BOM_UTF8))).removeprefix(codecs.BOM_UTF8)  # the first block starts after a BOM
    line, got = 1, len(data)  # the block's first line; the bytes read so far, in which line + len(ends) - 1 lines end
    ends, scanned = np.empty(0, np.int64), 0  # data: the bytes past the last block; data[:scanned]'s ends
    while True:
        while len(ends) < _CHUNK_ROWS:
            more = fh.read(max(io.DEFAULT_BUFFER_SIZE, min(got, (_CHUNK_ROWS - len(ends)) * got // (line + len(ends)))))
            data += more
            stop = len(data) - (more[-1:] == b"\r")  # a CR that ends a read may be a CR LF's: the next read tells
            ends, scanned, got = np.concatenate([ends, _line_ends(data, scanned, stop)]), stop, got + len(more)
            if not more:
                break
        if not data:
            return
        stop = int(ends[_CHUNK_ROWS - 1]) + 1 if len(ends) >= _CHUNK_ROWS else len(data)
        data += _PAD.encode()  # in place, so that a block holds one copy of its bytes
        yield _Lines(line, data, 0, stop, ends[:_CHUNK_ROWS])
        line, data, ends, scanned = line + _CHUNK_ROWS, data[stop:-_ID_BYTES], ends[_CHUNK_ROWS:] - stop, scanned - stop


def _csv_rows(reader, offset: int, get: Callable, need: int, rejects: list[Reject]) -> Iterator[tuple]:
    """The physical line, then the named fields, of each non-blank row a
    csv.reader reads, its first line being physical line offset + 1. A row
    too short to hold every named field becomes a reject instead."""
    for row in reader:
        if len(row) >= need:
            yield (offset + reader.line_num, *get(row))
        elif row:
            rejects.append(_short_row(offset + reader.line_num, len(row), need))


def _short_row(line: int, n_fields: int, need: int) -> Reject:
    return Reject(line, f"malformed: {n_fields} fields, the header needs {need}")


def _parse(path, kind, table_type):
    """A table of the file's rows, the malformed rows as rejects in line
    order, and the physical line of each of the table's rows. The file
    is read in blocks of lines, an LF, CR LF or lone CR ending each. The byte
    tokenizer reads the lines after the header, which csv.reader reads; only
    a quote, a NUL or a line past the field limit hands a block to csv.reader,
    which reads it and the rest, packing their rows into blocks that convert
    as tokenized ones do (_ByteBlock.pack). Its errors fail with the line."""
    schema = table_type.SCHEMA
    where = f"{path}: "
    rejects: list[Reject] = []
    with open(path, "rb") as fh:
        chunks = _binary_chunks(fh)
        first = next(chunks, None)
        if first is None:
            raise ValueError(f"{kind} source has no readable header")
        texts = _text_lines(chain(iter([first]), chunks), where)
        reader, offset = csv.reader(texts), 0
        try:
            header, n = next(reader), reader.line_num
            tokenized = n <= len(first.ends)  # else the header runs on past the first block
            if tokenized:  # from the line after the header
                texts.close()  # the header's text goes
                first = _Lines(first.line + n, first.data, int(first.ends[n - 1]) + 1, first.stop, first.ends[n:])
                chunks = chain(iter([first]), chunks)
            del first  # the first block lives on in `chunks` alone: chain holds a spent iter(), but not its list
            position = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
            missing = [c for c, _, _ in schema if c not in position]
            if missing:
                raise ValueError(f"{kind} header missing columns: {missing}")
            positions = [position[c] for c, _, _ in schema]
            need = max(positions) + 1

            def blocks():
                nonlocal reader, offset
                if tokenized:
                    for piece in chunks:
                        if not piece.data.isascii():
                            _decoded(piece, where)  # the tokenizer reads bytes: check that they are UTF-8
                        tokens = _ByteBlock.tokenize(piece, positions, len(header))
                        if tokens is None:  # csv.reader reads on from here
                            reader, offset = csv.reader(_text_lines(chain([piece], chunks), where)), piece.line - 1
                            break
                        block, short, n_fields = tokens
                        rejects.extend(map(_short_row, (piece.line + short).tolist(), n_fields.tolist(), repeat(need)))
                        yield block
                    else:
                        return
                rows = _csv_rows(reader, offset, itemgetter(*positions), need, rejects)
                yield from map(_ByteBlock.pack, _batches(rows))

            table, lines = table_type._from_blocks(blocks(), rejects)
        except csv.Error as exc:
            raise ValueError(f"{where}line {offset + reader.line_num}: {exc}") from None
    rejects.sort(key=lambda r: r.line)
    return table, rejects, lines


def parse_estimates(path: str | os.PathLike) -> tuple[EstimateTable, list[Reject]]:
    """Parse an estimates file into an EstimateTable; malformed rows go to
    the reject list, in line order."""
    return _parse(path, "estimates", EstimateTable)[:2]


def parse_actuals(path: str | os.PathLike) -> tuple[ActualTable, list[Reject]]:
    """Parse an actuals file into an ActualTable; malformed rows go to the
    reject list, in line order. A firm-period given twice fails the parse
    with both physical lines."""
    table, rejects, lines = _parse(path, "actuals", ActualTable)
    columns = [table.firm, table.year, table.quarter]
    first = _lookup(columns, table.firm_ids, columns, table.firm_ids)
    repeats = np.flatnonzero(first != np.arange(len(table)))
    if len(repeats):
        i, j = first[repeats[0]], repeats[0]
        key = (table.firm_ids[table.firm[j]], (int(table.year[j]), int(table.quarter[j])))
        raise ValueError(f"{path}: duplicate actual for {key} on lines {lines[i]} and {lines[j]}")
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
    surviving estimates), minimum analyst count; `cfg` sets all but the
    prior-record rule, which always holds: an estimate is scored only with
    a record of its (identity, firm) pair at an earlier announce time to
    correct and weight it by. The ledger stream keeps every deduped
    window-valid prediction (including ones from unscored events) so
    downstream history never loses a real prediction.

    Each rule is an array pass over the table's columns, and the kept
    estimates' ledger-free features are computed here, once per panel.
    The join, the dedup, the censuses and the stream order each sort one
    key of codes and dense ranks, unique where order matters, which fits
    int64 for tables under 2**31 rows. The actuals give one row per
    firm-period, as parse_actuals ensures; an event is an actuals row, and
    the panel's events are those rows taken in announcement order.
    """
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; known: {list(IDENTITIES)}")
    t, acts = estimates, actuals
    report = IngestReport(total=len(t))

    # (b) horizon + time window, each row counted under the first rule it fails
    event = _lookup([t.firm, t.year, t.quarter], t.firm_ids, [acts.firm, acts.year, acts.quarter], acts.firm_ids)
    announce = np.append(acts.announce_ts, 0)[event]
    window = np.ones(len(t), bool)
    # each offset in seconds clipped to ±2**62: parsed announce times (years 1-9999)
    # are within ±2.6e11 s, so nothing wraps, and a clipped offset admits every estimate or none
    lead = max(-(2**62), min(cfg.min_lead_hours * 3600, 2**62))
    age = max(-(2**62), min(cfg.max_age_days * 86400, 2**62))
    for reason, failed in (
        ("no_matching_actual", event < 0),
        ("horizon_excluded", ~np.isin(t.horizon_code, list(HORIZON_CODES))),
        ("too_close_to_announcement", t.estimate_ts > announce - lead),
        ("too_old", t.estimate_ts < announce - age),
    ):
        n = int(np.count_nonzero(window & failed))
        if n:
            report.rejects[reason] += n
            window &= ~failed
    rows = np.flatnonzero(window)

    ids, ident_of = (t.broker_ids, t.broker) if identity == "broker" else (t.analyst_ids, t.analyst)
    ident, ev = ident_of[rows], event[rows]
    # (c) last estimate per (identity, event) group, the later input row on
    # a timestamp tie; freq is the group's pre-dedup size
    first, freq, last = _dedup(ident * len(acts) + ev, t.estimate_ts[rows])  # codes, so below 2**62
    report.rejects["superseded"] += len(rows) - len(freq)

    # censuses per period of the window-valid submissions: the firms each
    # identity covers (one deduped group per firm), and the brokers in the
    # top decile by distinct analysts; codes and ranks pack below 2**62
    period = _rank(acts.year, acts.quarter)[0][ev]
    _, cover, ncos = np.unique(period[last] * len(ids) + ident[last], return_inverse=True, return_counts=True)
    n_brokers, n_analysts = len(t.broker_ids), len(t.analyst_ids)
    pairs, pair = np.unique(period * n_brokers + t.broker[rows], return_inverse=True)
    # np.sort and a mask: numpy 2.4's flagless np.unique hashes, about 25x slower here
    trios = np.sort(pair * n_analysts + t.analyst[rows])
    census = np.bincount(trios[_new(trios)] // n_analysts, minlength=len(pairs))
    in_top = top10_brokers(pairs // n_brokers, census)  # one flag per (period, broker) pair
    ncos, top10 = ncos[cover], in_top[pair[last]]  # each group's, from its kept row
    del period, cover, pair, trios  # free the censuses' per-row arrays before the stream's are built

    # ledger stream, chronological by announcement; records tied on
    # (announce, firm, period) keep their group's first appearance order
    order = _chronological(acts, ev[last], first, len(rows))
    win, freq, ncos, top10 = rows[last[order]], freq[order], ncos[order], top10[order]
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

    # (d) the records with a prior, all records at one announce time treated
    # as simultaneous: a record has a prior when its (identity, firm) pair
    # has one at an earlier announce time, as the history ledger counts it
    survivors = np.flatnonzero(stream.index("identity_firm").counts)  # the index the ledger passes reuse
    if len(survivors) < len(win):
        report.rejects["no_prior_record"] += len(win) - len(survivors)

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
    log_info(__name__, "panel: %d events, %d estimates kept of %d", len(events), report.kept, report.total)

    # the kept estimates' columns, with the features no ledger changes
    kept_rows = win[kept]
    features = np.column_stack(
        [
            (stream_announce[kept] - t.estimate_ts[kept_rows]) / 86400.0,
            freq[kept],
            ncos[kept],
            top10[kept],
        ]
    )
    return Panel(
        events, bounds, t.analyst[kept_rows], t.analyst_ids, t.value_cents[kept_rows], features, stream, kept, report
    )
