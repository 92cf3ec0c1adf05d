"""Point-in-time error ledgers over a chronological stream of predictions.

A ledger records a whole stream at once (int64 columns of announce time,
identity code and firm code, plus one value per record) as per-key prefix
sums, each key's added in stream order. A read at time t is one
`searchsorted(..., side="left")` on (key, time rank): it sees every record
before t and none at t, so announcements at one timestamp cannot leak into
each other. Signed errors are summed as int64 cents and divided only at
read time, which equals Python's int / int while every sum stays below
2**53 in magnitude; build_panel guards that bound. The bias key
granularity is a configuration switch, not a separate code path.
"""

from __future__ import annotations

import numpy as np

# each granularity's ledger key, from identity and firm codes below 2**31
_KEYS = {
    "identity_firm": lambda ident, firm: (ident << 32) | firm,
    "identity": lambda ident, firm: ident,
    "firm": lambda ident, firm: firm,
    "global": lambda ident, firm: np.zeros_like(ident),
}


class _Ledger:
    """Per-key count and sum of the values of time-ordered records before a time."""

    def __init__(self, keys: np.ndarray, ts: np.ndarray, values: np.ndarray):
        order = np.argsort(keys, kind="stable")  # keeps each key's records in stream order
        self.keys, ts, values = keys[order], ts[order], values[order]
        _, starts, run = np.unique(self.keys, return_index=True, return_inverse=True)
        self.times = np.unique(ts)
        self.width = len(self.times) + 1
        # records ascend in (key start, time rank), and so do their slots
        self.slots = starts[run] * self.width + np.searchsorted(self.times, ts)
        # row r holds run r's values, each row summed left to right
        nth = np.arange(len(ts)) - starts[run]
        table = np.zeros((len(starts), nth.max(initial=-1) + 1), values.dtype)
        table[run, nth] = values
        np.cumsum(table, axis=1, out=table)
        # sums[1 + j]: the sum of record j's run through record j
        self.sums = np.append(np.zeros(1, values.dtype), table[run, nth])

    def read(self, keys: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Count and sum of the records of each key before each time."""
        lo = np.searchsorted(self.keys, keys, side="left")
        hi = np.searchsorted(self.keys, keys, side="right")
        slot = lo * self.width + np.searchsorted(self.times, ts, side="left")
        before = np.searchsorted(self.slots, slot, side="left")
        count = np.clip(before - lo, 0, hi - lo)  # an unrecorded key has lo == hi
        return count, self.sums[np.where(count > 0, lo + count, 0)]


_NONE = np.empty(0, np.int64)  # a stream with no records


def _mean(count: np.ndarray, total: np.ndarray) -> np.ndarray:
    return np.divide(total, count, out=np.zeros(len(count)), where=count > 0)


class BiasTracker:
    """Mean signed error (cents) of each read's earlier records under one
    bias key, 0 with none; the half key blends the firm and identity means."""

    def __init__(self, key: str = "identity_firm"):
        self.key = key
        self._keys = [_KEYS[part] for part in (("firm", "identity") if key == "half" else (key,))]
        self._ledgers = [_Ledger(_NONE, _NONE, _NONE) for _ in self._keys]

    def record(self, ts: np.ndarray, ident: np.ndarray, firm: np.ndarray, err_cents: np.ndarray) -> None:
        """Record a whole chronological stream, replacing any earlier one."""
        self._ledgers = [_Ledger(key(ident, firm), ts, err_cents) for key in self._keys]

    def bias(self, ts: np.ndarray, ident: np.ndarray, firm: np.ndarray) -> np.ndarray:
        means = [_mean(*ledger.read(key(ident, firm), ts)) for key, ledger in zip(self._keys, self._ledgers)]
        if self.key == "half":
            return 0.5 * means[0] + 0.5 * means[1]
        return means[0]


class HistoryLedger:
    """Per (identity, firm) coverage count and absolute-error history.

    The count of a pair's earlier records is the experience variable; the
    mean of their recorded absolute adjusted errors is the past-accuracy
    variable.
    """

    def __init__(self):
        self._ledger = _Ledger(_NONE, _NONE, _NONE)

    def record(self, ts: np.ndarray, ident: np.ndarray, firm: np.ndarray, aae: np.ndarray) -> None:
        """Record a whole chronological stream, replacing any earlier one."""
        self._ledger = _Ledger(_KEYS["identity_firm"](ident, firm), ts, aae)

    def experience(self, ts: np.ndarray, ident: np.ndarray, firm: np.ndarray) -> np.ndarray:
        return self._ledger.read(_KEYS["identity_firm"](ident, firm), ts)[0]

    def mean_abs_error(self, ts: np.ndarray, ident: np.ndarray, firm: np.ndarray) -> np.ndarray:
        count, total = self._ledger.read(_KEYS["identity_firm"](ident, firm), ts)
        if not count.all():
            i = int(np.argmin(count))
            raise RuntimeError(
                f"no prior history for identity {ident[i]}, firm {firm[i]} at {ts[i]}; "
                "upstream filtering should prevent this"
            )
        return total / count
