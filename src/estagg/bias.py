"""Own-time error ledgers over a chronological stream of predictions.

Every ledger read is a stream record reading its own key at its own
announce time. So a ledger records a whole stream at once, as each
record's own-time prefix sums through the key index the stream keeps
(ingest's `Stream.index`), which see no record at that time, and a read
indexes them by stream position. Signed errors are summed as int64 cents
and divided only at read time, which equals Python's int / int while
every sum stays below 2**53 in magnitude; build_panel guards that bound.
"""

from __future__ import annotations

import numpy as np


def _mean(index, values: np.ndarray) -> np.ndarray:
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

    def record(self, stream, err_cents: np.ndarray) -> None:
        """Record a whole chronological stream, through its key indexes
        (`Stream.index`), replacing any earlier one."""
        means = [_mean(stream.index(key), err_cents) for key in self._keys]
        self._bias = 0.5 * means[0] + 0.5 * means[1] if self.key == "half" else means[0]

    def bias(self, at: np.ndarray) -> np.ndarray:
        return self._bias[at]


class HistoryLedger:
    """Per (identity, firm) history, read by stream position: the count of
    a record's earlier records under its pair is the experience variable,
    the mean of their absolute adjusted errors the past-accuracy one."""

    def __init__(self):
        self._count, self._total = np.zeros(0, np.int64), np.zeros(0)

    def record(self, stream, aae: np.ndarray) -> None:
        """Record a whole chronological stream, through its (identity, firm)
        key index (`Stream.index`), replacing any earlier one."""
        index = stream.index("identity_firm")
        self._count, self._total = index.counts, index.sums(aae)

    def experience(self, at: np.ndarray) -> np.ndarray:
        return self._count[at]

    def mean_abs_error(self, at: np.ndarray) -> np.ndarray:
        """Each record's mean over its earlier records; ledger_state checks first that every one has some."""
        return self._total[at] / self._count[at]
