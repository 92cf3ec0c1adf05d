"""Own-time error ledgers over a chronological stream of predictions.

Every ledger read is a stream record reading its own key at its own
announce time. So a ledger records a whole stream at once (int64 columns
of announce time, identity code and firm code, plus one value per record)
as each record's own-time prefix sums, which see no record at that time,
and a read indexes them by stream position.

The work splits in two. A `KeyIndex`, built once per stream and key
granularity (`StreamIndex`), holds what only the keys and times decide:
each record's count of its key's records at strictly earlier times, and
the row tables of each length of key run. A ledger then sums its own
values through those tables (`KeyIndex.sums`), so build_panel's
prior-record count and every ledger pass over one stream share an index.
The tables take memory in proportion to the records, one per length of key
run, however skewed the keys' record counts. Signed errors are summed as
int64 cents and divided only at read time, which equals Python's int / int
while every sum stays below 2**53 in magnitude; build_panel guards that
bound.
"""

from __future__ import annotations

import numpy as np


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

    The records are put in key order by numpy's default sort of the unique
    key code × records + position, which keeps each key's records in stream
    order. One key needs no sort; codes too wide for that product in int64
    take a stable sort of the codes themselves."""

    def __init__(self, keys: np.ndarray, ts: np.ndarray):
        n, span = len(keys), _span(keys)
        at = np.arange(n)
        if span == 1:
            order = at
        elif span * n <= 2**63:
            order = np.argsort(keys * n + at)
        else:
            order = np.argsort(keys, kind="stable")
        keys, ts = keys[order], ts[order]
        run = np.ones(n, bool)  # where each key's run starts
        run[1:] = keys[1:] != keys[:-1]
        group = run.copy()  # where each (key, time) group starts
        group[1:] |= ts[1:] != ts[:-1]
        run_start = np.maximum.accumulate(np.where(run, at, 0))
        before = np.maximum.accumulate(np.where(group, at, 0)) - run_start
        self.counts = np.empty(n, np.int64)
        self.counts[order] = before
        # one table per run length: row r of a length's table lists its run's
        # stream positions and, for each, how many of the run's records its sum covers
        starts = np.flatnonzero(run)
        lengths = np.diff(starts, append=n)
        by_length = np.argsort(lengths)
        self._tables = []
        for runs in np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1):
            if len(runs):  # the split of no runs is one empty part
                rows = starts[runs][:, None] + np.arange(lengths[runs[0]])
                self._tables.append((order[rows], before[rows]))

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


class StreamIndex:
    """A chronological stream's KeyIndex per ledger key granularity, each
    built on first use and kept with the stream."""

    def __init__(self, ts: np.ndarray, ident: np.ndarray, firm: np.ndarray):
        self._ts, self._ident, self._firm = ts, ident, firm
        self._built: dict[str, KeyIndex] = {}

    def __getitem__(self, granularity: str) -> KeyIndex:
        if granularity not in self._built:
            self._built[granularity] = KeyIndex(_KEYS[granularity](self._ident, self._firm), self._ts)
        return self._built[granularity]


def _mean(index: KeyIndex, values: np.ndarray) -> np.ndarray:
    count = index.counts
    return np.divide(index.sums(values), count, out=np.zeros(len(count)), where=count > 0)


class BiasTracker:
    """Each stream record's mean signed error (cents) over its earlier
    records under one bias key, 0 with none, read by stream position; the
    half key blends the firm and identity means."""

    def __init__(self, key: str = "identity_firm"):
        self.key = key
        self._keys = ("firm", "identity") if key == "half" else (key,)
        self._bias = np.zeros(0)

    def record(self, indexes: StreamIndex, err_cents: np.ndarray) -> None:
        """Record a whole chronological stream, through its indexes,
        replacing any earlier one."""
        means = [_mean(indexes[key], err_cents) for key in self._keys]
        self._bias = 0.5 * means[0] + 0.5 * means[1] if self.key == "half" else means[0]

    def bias(self, at: np.ndarray) -> np.ndarray:
        return self._bias[at]


class HistoryLedger:
    """Per (identity, firm) history, read by stream position: the count of
    a record's earlier records under its pair is the experience variable,
    the mean of their absolute adjusted errors the past-accuracy one."""

    def __init__(self):
        self._count, self._total = np.zeros(0, np.int64), np.zeros(0)

    def record(self, indexes: StreamIndex, aae: np.ndarray) -> None:
        """Record a whole chronological stream, through its indexes,
        replacing any earlier one."""
        index = indexes["identity_firm"]
        self._count, self._total = index.counts, index.sums(aae)

    def experience(self, at: np.ndarray) -> np.ndarray:
        return self._count[at]

    def mean_abs_error(self, at: np.ndarray) -> np.ndarray:
        """Each record's mean over its earlier records; ledger_state checks first that every one has some."""
        return self._total[at] / self._count[at]
