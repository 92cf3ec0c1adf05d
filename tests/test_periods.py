from datetime import datetime, timezone

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from estagg.periods import quarter_indices
from oracles import quarter_index, quarter_of_ts

FIRST_TS = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
LAST_TS = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())


@st.composite
def quarter_edges(draw):
    """The last second of one quarter or the first of the next."""
    year, quarter = draw(st.integers(1, 9999)), draw(st.integers(1, 4))
    start = int(datetime(year, 3 * quarter - 2, 1, tzinfo=timezone.utc).timestamp())
    return max(FIRST_TS, start - draw(st.sampled_from([0, 1])))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(FIRST_TS, LAST_TS), st.integers(-86400, 86400), quarter_edges()), max_size=50))
def test_quarter_indices_equal_scalar_oracle(timestamps):
    got = quarter_indices(np.array(timestamps, np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [quarter_index(quarter_of_ts(t)) for t in timestamps]
