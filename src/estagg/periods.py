"""Calendar-quarter helpers shared across the pipeline."""

from datetime import datetime, timezone

import numpy as np

Quarter = tuple[int, int]  # (year, quarter 1..4)


def quarter_indices(ts: np.ndarray) -> np.ndarray:
    """The UTC calendar quarter of each unix-seconds timestamp as the
    monotone index year * 4 + (quarter - 1); consecutive quarters differ
    by exactly 1."""
    months = np.asarray(ts, np.int64).astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
    return (months + 1970 * 12) // 3  # months count from 1970-01


def quarter_from_index(idx: int) -> Quarter:
    return (idx // 4, idx % 4 + 1)


def parse_ts(text: str) -> int:
    """ISO-8601 timestamp to unix seconds; naive values are taken as UTC."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_ts(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
