import tracemalloc
from itertools import groupby

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import constant_bias_panel, replay_mode
from estagg import bias, ingest
from estagg.aggregate import BIAS_KEYS, ModeConfig
from estagg.ingest import FilterConfig, build_panel
import oracles
from oracles import BiasTracker, ErrorLedger, HistoryLedger, blended_bias, outcome_views


def replayed(offset):
    """Scored outcomes of a panel where all eight analysts miss the actual
    (100 cents) by the same offset every quarter."""
    ests, acts = constant_bias_panel([offset] * 8)
    return outcome_views(replay_mode(build_panel(ests, acts, FilterConfig()), ModeConfig()))


class TestSignedError:
    # the replay records prediction minus actual, so subtracting the learned
    # bias lands exactly on the actual whatever the sign of the miss
    def test_positive(self):
        outcomes = replayed(5)
        assert outcomes and all(o.simple_consensus == 105.0 and o.improved == 100.0 for o in outcomes)

    def test_negative(self):
        outcomes = replayed(-5)
        assert outcomes and all(o.simple_consensus == 95.0 and o.improved == 100.0 for o in outcomes)

    def test_identity(self):
        outcomes = replayed(0)
        assert outcomes and all(o.simple_consensus == o.improved == 100.0 for o in outcomes)


class TestErrorLedger:
    def test_no_history_is_zero(self):
        assert ErrorLedger().bias("A", "F") == 0.0

    def test_mean_of_history(self):
        ledger = ErrorLedger()
        for err in (2, -1, 5):
            ledger.record("A", "F", err)
        assert ledger.bias("A", "F") == 2.0

    def test_incremental_update(self):
        ledger = ErrorLedger()
        ledger.record("A", "F", 3)
        ledger.record("A", "F", 7)
        assert ledger.bias("A", "F") == 5.0

    def test_single_record(self):
        ledger = ErrorLedger()
        ledger.record("A", "F", 4)
        assert ledger.bias("A", "F") == 4.0

    def test_key_isolation(self):
        pair = ErrorLedger("identity_firm")
        pair.record("A", "F1", 10)
        assert pair.bias("A", "F2") == 0.0
        ident = ErrorLedger("identity")
        ident.record("A", "F1", 10)
        assert ident.bias("A", "F2") == 10.0

    def test_granularities(self):
        for gran, expect in [
            ("identity_firm", 0.0),
            ("identity", 10.0),
            ("firm", 0.0),
            ("global", 10.0),
        ]:
            ledger = ErrorLedger(gran)
            ledger.record("A", "F1", 10)
            assert ledger.bias("A", "F2") == expect, gran

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_incremental_equals_batch(self, errs):
        # exact equality: integer sums keep the division identical
        ledger = ErrorLedger()
        for e in errs:
            ledger.record("A", "F", e)
        assert ledger.bias("A", "F") == sum(errs) / len(errs)


class TestBlendedBias:
    def test_half_half(self):
        assert blended_bias(4.0, 2.0, 0.5) == 3.0

    def test_identity(self):
        for lam in (0.0, 0.3, 1.0):
            assert blended_bias(7.0, 7.0, lam) == 7.0

    def test_one_sided(self):
        assert blended_bias(6.0, 0.0, 0.5) == 3.0


class TestBiasTracker:
    def test_half_mode_blends_firm_and_identity(self):
        tr = BiasTracker("half")
        tr.record("A", "F", 4)  # firm bias 4, identity bias 4
        tr.record("B", "F", 0)  # firm bias 2
        assert tr.bias("A", "F") == 0.5 * 2.0 + 0.5 * 4.0

    def test_plain_mode_delegates(self):
        tr = BiasTracker("identity_firm")
        tr.record("A", "F", 8)
        assert tr.bias("A", "F") == 8.0
        assert tr.bias("A", "G") == 0.0


class TestHistoryLedger:
    def test_experience_counts_records(self):
        h = HistoryLedger()
        assert h.experience("A", "F") == 0
        h.record("A", "F", 3.0)
        h.record("A", "F", 5.0)
        assert h.experience("A", "F") == 2
        assert h.mean_abs_error("A", "F") == 4.0

    def test_empty_history_raises(self):
        with pytest.raises(RuntimeError):
            HistoryLedger().mean_abs_error("A", "F")


def columns(records):
    """(ts, identity, firm, value) records as four arrays, ids as codes."""
    ts, ident, firm, values = zip(*records)
    return np.array(ts, np.int64), np.array(ident, np.int64), np.array(firm, np.int64), np.array(values)


def keyed_stream(ts, ident, firm):
    """A stream of records with these times and keys alone: a ledger reads
    only the key indexes the stream builds."""
    return ingest.Stream(ts, ident, firm, None, (), ())


def recorded(ledger, records):
    """`ledger` after recording `records`, a stream in time order, through
    the stream's key indexes."""
    ts, ident, firm, values = columns(records)
    ledger.record(keyed_stream(ts, ident, firm), values)
    return ledger


def biases(key, records):
    """Each record's bias from an estagg.bias.BiasTracker under `key` that
    recorded `records`."""
    return recorded(bias.BiasTracker(key), records).bias(np.arange(len(records))).tolist()


def history(records):
    return recorded(bias.HistoryLedger(), records)


def dict_reads(records, key):
    """Each record's bias under `key`, experience and mean past absolute
    error (None without history) from the dict ledgers of oracles, each
    read before its timestamp's records are recorded; records are (ts,
    identity, firm, signed error, absolute adjusted error) in time order."""
    want, counts, means = [], [], []
    dict_bias, dict_history = BiasTracker(key), HistoryLedger()
    for _, group in groupby(records, key=lambda r: r[0]):
        group = list(group)
        for _, i, f, _, _ in group:
            want.append(dict_bias.bias(i, f))
            counts.append(dict_history.experience(i, f))
            means.append(dict_history.mean_abs_error(i, f) if counts[-1] else None)
        for _, i, f, e, a in group:
            dict_bias.record(i, f, e)
            dict_history.record(i, f, a)
    return want, counts, means


@st.composite
def skewed_streams(draw):
    """(ts, identity, firm, signed error, absolute adjusted error) records in
    time order, with tied times, one heavily recorded identity and firm,
    keys of one record, and codes either small or spread up to 2**31."""
    n = draw(st.integers(1, 60))
    ts = sorted(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    wide = draw(st.booleans())  # the identity-firm key code times n passes int64

    def code(i, kind):
        c = {"skewed": 0, "few": 1 + i % 3, "once": 4 + i}[kind]
        return c << 25 if wide else c

    kinds = st.sampled_from(["skewed", "skewed", "few", "once"])
    return [
        (
            ts[i],
            code(i, draw(kinds)),
            code(i, draw(kinds)),
            draw(st.integers(-(2**40), 2**40)),
            draw(st.floats(0.0, 1e6)),
        )
        for i in range(n)
    ]


class TestPointInTimeLedgers:
    """The dict-ledger cases above, fed to the array ledgers of estagg.bias
    as streams; each record reads its own key at its own time."""

    def test_no_history_is_zero(self):
        assert biases("identity_firm", [(1, 0, 0, 8), (5, 1, 0, 0)]) == [0.0, 0.0]
        assert history([(1, 0, 0, 8.0)]).experience(np.array([0])).tolist() == [0]

    def test_read_excludes_records_at_its_time(self):
        assert biases("global", [(10, 0, 0, 2), (20, 0, 0, 4), (20, 1, 1, 6), (21, 0, 0, 0)]) == [0.0, 2.0, 2.0, 4.0]
        h = history([(10, 0, 0, 1.0), (20, 0, 0, 3.0), (20, 0, 0, 5.0), (21, 0, 0, 0.0)])
        assert h.experience(np.arange(4)).tolist() == [0, 1, 1, 3]

    def test_mean_of_history(self):
        assert biases("identity_firm", [(1, 0, 0, 2), (2, 0, 0, -1), (3, 0, 0, 5), (4, 0, 0, 0)]) == [0.0, 2.0, 0.5, 2.0]

    def test_key_isolation(self):
        # analyst 0 records at firm 1, then at firm 2
        for key, expect in [("identity_firm", 0.0), ("identity", 10.0), ("firm", 0.0), ("global", 10.0)]:
            assert biases(key, [(1, 0, 1, 10), (2, 0, 2, 0)])[1] == expect, key

    def test_half_blends_firm_and_identity(self):
        assert biases("half", [(1, 0, 0, 4), (2, 1, 0, 0), (3, 0, 0, 0)])[2] == 0.5 * 2.0 + 0.5 * 4.0

    def test_history_counts_and_means(self):
        h = history([(1, 0, 0, 3.0), (2, 0, 0, 5.0), (2, 0, 1, 7.0), (3, 0, 0, 0.0)])
        assert h.experience(np.arange(4)).tolist() == [0, 1, 0, 2]
        assert h.mean_abs_error(np.array([3, 1])).tolist() == [4.0, 3.0]
        h = history([(1, 0, 0, 3.0), (2, 0, 0, 1.0), (2, 1, 0, 1.0)])
        assert h.mean_abs_error(np.array([1])).tolist() == [3.0]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 6),  # timestamp
                st.integers(0, 3),  # identity
                st.integers(0, 3),  # firm
                st.integers(-(2**40), 2**40),  # signed error
                st.floats(0.0, 1e6),  # absolute adjusted error
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_dict_ledgers_read_before_each_time(self, records):
        # the dict ledgers answer each record's reads before recording its
        # timestamp's records; the array ledgers must give the same bits
        records.sort(key=lambda r: r[0])
        self.check_against_dict_ledgers(records)

    @staticmethod
    def check_against_dict_ledgers(records):
        every = np.arange(len(records))
        ts, ident, firm, err, aae = (np.array(c) for c in zip(*records))
        stream = keyed_stream(ts, ident, firm)
        array_history = bias.HistoryLedger()
        array_history.record(stream, aae)
        for key in BIAS_KEYS:
            tracker = bias.BiasTracker(key)
            tracker.record(stream, err)
            want, counts, means = dict_reads(records, key)
            assert tracker.bias(every).tolist() == want, key
        assert array_history.experience(every).tolist() == counts
        known = every[np.array(counts) > 0]
        assert array_history.mean_abs_error(known).tolist() == [m for m in means if m is not None]

    @given(skewed_streams())
    @example(  # identity-firm codes 0 and 2**61 (span 2**31), times 8 records, agree modulo 2**64
        [(t, (t % 2) << 30, (t // 7) * (2**31 - 1), t - 3, float(t)) for t in range(8)]
    )
    @settings(max_examples=100, deadline=None)
    def test_one_index_per_key_gives_the_bits_of_separate_calls(self, records):
        # one index per granularity feeds a count-only read and two value
        # columns; each must equal a call of the one-call oracles.earlier,
        # keyed here by (identity << 32) | firm, an encoding of its own
        ts, ident, firm, err, aae = (np.array(c) for c in zip(*records))
        stream = keyed_stream(ts, ident, firm)
        keys = {"identity_firm": (ident << 32) | firm, "identity": ident, "firm": firm, "global": np.zeros_like(ident)}
        for granularity, key in keys.items():
            index = stream.index(granularity)
            assert index is stream.index(granularity)
            count, _ = oracles.earlier(key, ts)
            assert index.counts.dtype == count.dtype and index.counts.tolist() == count.tolist(), granularity
            for values in (err, aae):
                want = oracles.earlier(key, ts, values)[1]
                assert index.sums(values).tobytes() == want.tobytes(), granularity
        self.check_against_dict_ledgers(records)

    def test_sums_take_memory_in_proportion_to_the_records(self):
        # one key of 10,000 records among 1,000 keys of 2: a zero-padded
        # table of one row per key run and one column per record of the
        # longest run would hold about 10 million entries for 12,000 records
        rng = np.random.default_rng(3)
        keys = rng.permutation(np.concatenate([np.zeros(10_000, np.int64), np.repeat(np.arange(1, 1001), 2)]))
        ts, values = np.arange(len(keys)), rng.standard_normal(len(keys))
        tracemalloc.start()
        try:
            index = ingest.KeyIndex(keys, ts)
            count, total = index.counts, index.sums(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        big = np.flatnonzero(keys == 0)
        assert count[big].tolist() == list(range(10_000))
        assert total[big[-1]] == np.cumsum(values[big])[-2]
