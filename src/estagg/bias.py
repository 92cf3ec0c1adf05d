"""Own-time error ledgers over a chronological stream of predictions.

Every ledger read is a stream record reading its own key at its own
announce time. So a ledger records a whole stream at once (int64 columns
of announce time, identity code and firm code, plus one value per record)
as each record's own-time prefix sums (`earlier`), which see no record at
that time, and a read indexes them by stream position. The sums take
memory in proportion to the records, one table per length of key run,
however skewed the keys' record counts. Signed errors are summed as int64
cents and divided only at read time, which equals Python's int / int while
every sum stays below 2**53 in magnitude; build_panel guards that bound.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def pair_key(ident: np.ndarray, firm: np.ndarray) -> np.ndarray:
    """The (identity, firm) ledger key, from codes below 2**31."""
    return (ident << 32) | firm


# each granularity's ledger key
_KEYS = {
    "identity_firm": pair_key,
    "identity": lambda ident, firm: ident,
    "firm": lambda ident, firm: firm,
    "global": lambda ident, firm: np.zeros_like(ident),
}


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


def _mean(count: np.ndarray, total: np.ndarray) -> np.ndarray:
    return np.divide(total, count, out=np.zeros(len(count)), where=count > 0)


class BiasTracker:
    """Each stream record's mean signed error (cents) over its earlier
    records under one bias key, 0 with none, read by stream position; the
    half key blends the firm and identity means."""

    def __init__(self, key: str = "identity_firm"):
        self.key = key
        self._keys = [_KEYS[part] for part in (("firm", "identity") if key == "half" else (key,))]
        self._bias = np.zeros(0)

    def record(self, ts: np.ndarray, ident: np.ndarray, firm: np.ndarray, err_cents: np.ndarray) -> None:
        """Record a whole chronological stream, replacing any earlier one."""
        means = [_mean(*earlier(key(ident, firm), ts, err_cents)) for key in self._keys]
        self._bias = 0.5 * means[0] + 0.5 * means[1] if self.key == "half" else means[0]

    def bias(self, at: np.ndarray) -> np.ndarray:
        return self._bias[at]


class HistoryLedger:
    """Per (identity, firm) history, read by stream position: the count of
    a record's earlier records under its pair is the experience variable,
    the mean of their absolute adjusted errors the past-accuracy one."""

    def __init__(self):
        self._count, self._total = np.zeros(0, np.int64), np.zeros(0)

    def record(self, ts: np.ndarray, ident: np.ndarray, firm: np.ndarray, aae: np.ndarray) -> None:
        """Record a whole chronological stream, replacing any earlier one."""
        self._count, self._total = earlier(pair_key(ident, firm), ts, aae)

    def experience(self, at: np.ndarray) -> np.ndarray:
        return self._count[at]

    def mean_abs_error(self, at: np.ndarray) -> np.ndarray:
        count = self._count[at]
        if not count.all():
            i = at[np.argmin(count)]
            raise RuntimeError(f"no prior history for stream record {i}; upstream filtering should prevent this")
        return self._total[at] / count
