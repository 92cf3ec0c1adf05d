import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from estagg.features import SCALINGS, normalize, normalize_event, top10_brokers
from oracles import HistoryLedger


def mean_abs_error(history):
    """The past-accuracy variable after recording `history` for one pair."""
    ledger = HistoryLedger()
    for aae in history:
        ledger.record("A", "F", aae)
    return ledger.mean_abs_error("A", "F")


def decile(census):
    """One period's top-decile brokers by the array form, which must agree
    with the dict oracle."""
    flags = top10_brokers(np.zeros(len(census), np.int64), np.array(list(census.values()), np.int64))
    got = {b for b, flag in zip(census, flags.tolist()) if flag}
    assert got == oracles.top10_brokers(census)
    return got


class TestTop10:
    def test_decile_boundary(self):
        census = {f"B{i}": 10 - i for i in range(10)}  # counts 10..1
        assert decile(census) == {"B0"}

    def test_single_broker_degenerate_decile(self):
        assert decile({"B": 1}) == {"B"}

    def test_ties_at_cutoff_all_included(self):
        # 20 brokers -> cutoff rank 2; two brokers tie at the 2nd-largest count
        census = {"B0": 30, "B1": 20, "B2": 20}
        census.update({f"B{i}": 19 - i for i in range(3, 20)})
        # oracle: enumerate ranks, everyone with count >= 2nd-largest is in
        counts = sorted(census.values(), reverse=True)
        threshold = counts[1]
        expected = {b for b, c in census.items() if c >= threshold}
        assert decile(census) == expected
        assert expected == {"B0", "B1", "B2"}

    def test_empty_census(self):
        assert decile({}) == set()

    @given(st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=45), max_size=6), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_oracle_per_period(self, periods, rnd):
        # small counts tie at the cutoff often, up to 45 brokers put the
        # cutoff at the 1st to 5th count, and entries come in any order
        entries = [(p, b, n) for p, counts in enumerate(periods) for b, n in enumerate(counts)]
        rnd.shuffle(entries)
        period = np.array([p for p, _, _ in entries], np.int64)
        census = np.array([n for _, _, n in entries], np.int64)
        flags = top10_brokers(period, census)
        for p, counts in enumerate(periods):
            top = oracles.top10_brokers({b: n for b, n in enumerate(counts)})
            assert {b for (q, b, _), flag in zip(entries, flags.tolist()) if q == p and flag} == top


class TestMae:
    def test_mean(self):
        assert mean_abs_error([3.0, 5.0]) == 4.0

    def test_single(self):
        assert mean_abs_error([7.0]) == 7.0

    def test_unsigned_history(self):
        # when bias correction is off, the history holds plain |error|
        assert mean_abs_error([abs(-3.0), abs(5.0)]) == 4.0

    def test_empty_raises(self):
        with pytest.raises(RuntimeError):
            mean_abs_error([])


class TestNormalize:
    def test_age_example(self):
        out = normalize(np.array([10.0, 20.0, 30.0]))
        assert np.allclose(out, [-0.5, 0.0, 0.5])

    def test_zero_mean_guard(self):
        out = normalize(np.array([0.0, 0.0, 0.0]))
        assert np.all(out == 0.0)

    def test_identical_values(self):
        out = normalize(np.array([2.0, 2.0, 2.0]))
        assert np.all(out == 0.0)

    def test_centered_mode(self):
        out = normalize(np.array([10.0, 20.0, 30.0]), scaling="centered")
        assert np.allclose(out, [-10.0, 0.0, 10.0])

    @given(
        arrays(
            float,
            st.integers(min_value=2, max_value=30),
            elements=st.floats(min_value=0.01, max_value=1e6),
        )
    )
    @settings(max_examples=150)
    def test_zero_mean_property(self, values):
        out = normalize(values)
        assert abs(out.mean()) < 1e-12

    @given(
        arrays(
            float,
            st.integers(min_value=2, max_value=20),
            elements=st.floats(min_value=0.01, max_value=1e4),
        ),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=150)
    def test_scale_invariance(self, values, c):
        assert np.allclose(normalize(values), normalize(values * c), atol=1e-9)


class TestNormalizeEvent:
    def test_event_matrix_shapes_and_guard(self):
        # two events of three analysts: past errors, then dependent values
        mae = np.array([[10.0, 20.0, 30.0], [0.0, 0.0, 0.0]])
        aae = np.array([[2.0, 2.0, 2.0], [1.0, 3.0, 5.0]])
        X, y = normalize_event(mae, aae)
        assert X.shape == y.shape == (2, 3)
        assert np.allclose(X[0], [-0.5, 0.0, 0.5])
        assert np.all(X[1] == 0.0)  # all-zero past errors on the event
        assert np.all(y[0] == 0.0)  # identical dependent values
        assert np.allclose(y[1], [-2 / 3, 0.0, 2 / 3])
        x, y = normalize_event(mae[0], aae[0])  # one event alone
        assert x.shape == y.shape == (3,)
        assert x.tobytes() == X[0].tobytes() and np.all(y == 0.0)

    @given(st.data(), st.sampled_from(SCALINGS))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_event_oracle(self, data, scaling):
        shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 20)))
        values = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4))
        mae, aae = (data.draw(arrays(float, shape, elements=values)) for _ in range(2))
        mae[data.draw(st.integers(0, shape[0] - 1))] = 0.0  # an event on normalize's zero-mean path
        X, y = normalize_event(mae, aae, scaling)
        for event in range(shape[0]):
            want_X, want_y = oracles.normalize_event(mae[event][:, None], aae[event], scaling)
            assert X[event].tobytes() == want_X[:, 0].tobytes()
            assert y[event].tobytes() == want_y.tobytes()
