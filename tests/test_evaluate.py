import math
import statistics
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import actual_rows, estimate_rows, load_synth, panel_of
from estagg.evaluate import (
    NEG_INF,
    average_stat,
    descriptive_stats,
    median_stat,
    surprise_improvement,
    trend_stat,
)
from estagg.ingest import FilterConfig, build_panel
from estagg.synth import SynthSpec
from oracles import (
    SurprisePair,
    actuals_from_rows_oracle,
    build_panel_oracle,
    closest_analyst,
    estimates_from_rows_oracle,
    panel_analysts,
    panel_events,
    panel_idents,
)

RNG = np.random.default_rng(99)


def pairs(originals, improveds):
    """Paired surprises as the statistics take them: two float64 arrays."""
    return np.asarray(originals, float), np.asarray(improveds, float)


def improvement(original, improved):
    (value,) = surprise_improvement(*pairs([original], [improved])).tolist()
    return value


class TestSurpriseImprovement:
    def test_quarter_improvement(self):
        assert improvement(4.0, 3.0) == 0.25

    def test_no_change(self):
        assert improvement(5.0, 5.0) == 0.0
        assert improvement(5.0, -5.0) == 0.0  # magnitude only

    def test_zero_original_nonzero_improved(self):
        assert improvement(0.0, 2.0) == NEG_INF

    def test_both_zero(self):
        assert improvement(0.0, 0.0) == 0.0


class TestMedianStat:
    def test_odd(self):
        assert median_stat([0.1, 0.3, 0.5]) == 0.3

    def test_even(self):
        assert median_stat([0.2, 0.4]) == pytest.approx(0.3)

    def test_sort_oracle_on_random_values(self):
        vals = RNG.normal(size=101).tolist()
        assert median_stat(vals) == statistics.median(vals)

    def test_sentinels_ordinal(self):
        assert median_stat([NEG_INF, 0.2, 0.5]) == 0.2
        assert median_stat([NEG_INF, NEG_INF, 0.2]) == NEG_INF

    def test_even_with_middle_sentinel_returns_finite_neighbor(self):
        assert median_stat([NEG_INF, 0.4]) == 0.4
        assert median_stat([NEG_INF, NEG_INF, 0.4, 0.6]) == 0.4

    def test_even_with_two_equal_sentinels(self):
        assert median_stat([NEG_INF, NEG_INF, NEG_INF, 0.4]) == NEG_INF

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median_stat([])


class TestAverageStat:
    def test_half_improvement(self):
        assert average_stat(*pairs([4, 6], [2, 3])) == 0.5

    def test_no_improvement(self):
        ps = pairs([4, -6], [4, -6])
        assert average_stat(*ps) == 0.0

    def test_all_zero_originals_absent(self):
        assert average_stat(*pairs([0.0, 0.0], [1.0, 2.0])) is None

    def test_summation_oracle(self):
        o = RNG.normal(size=500)
        i = RNG.normal(size=500)
        expected = 1.0 - math.fsum(abs(x) for x in i) / math.fsum(abs(x) for x in o)
        assert average_stat(o, i) == pytest.approx(expected, abs=1e-12)

    def test_incremental_equals_batch(self):
        o = RNG.normal(size=100)
        i = RNG.normal(size=100)
        num = den = 0.0
        for a, b in zip(o, i):
            num += abs(b)
            den += abs(a)
        assert average_stat(*pairs(o, i)) == pytest.approx(1.0 - num / den, abs=1e-12)


class TestTrendStat:
    def test_exact_half_slope(self):
        o = np.linspace(-5, 5, 20)
        t, r2 = trend_stat(*pairs(o, 0.5 * o))
        assert t == pytest.approx(0.5, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-10)

    def test_identity_line(self):
        o = np.linspace(-5, 5, 20)
        t, _ = trend_stat(*pairs(o, o))
        assert t == pytest.approx(0.0, abs=1e-10)

    def test_closed_form_oracle(self):
        o = RNG.normal(size=300)
        i = 0.4 * o + RNG.normal(scale=0.2, size=300)
        t, r2 = trend_stat(*pairs(o, i))
        slope = np.cov(o, i, bias=True)[0, 1] / np.var(o)
        assert t == pytest.approx(1.0 - slope, abs=1e-10)
        corr = np.corrcoef(o, i)[0, 1]
        assert r2 == pytest.approx(corr**2, abs=1e-10)

    def test_antisymmetric_data_zero_intercept(self):
        o = RNG.normal(size=100)
        i = 0.3 * o + 0.1 * np.sin(o)
        full_o = np.concatenate([o, -o])
        full_i = np.concatenate([i, -i])
        A = np.column_stack([full_o, np.ones_like(full_o)])
        coef, *_ = np.linalg.lstsq(A, full_i, rcond=None)
        assert abs(coef[1]) < 1e-10

    def test_degenerate_inputs_absent(self):
        assert trend_stat(*pairs([1, 2], [1, 2])) is None
        assert trend_stat(*pairs([3, 3, 3], [1, 2, 3])) is None


# surprises as scoring makes them: zero, or at least a cent's fraction, so no
# ratio overflows
SURPRISES = st.one_of(
    st.just(0.0),
    st.floats(1e-3, 1e6),
    st.floats(-1e6, -1e-3),
    st.integers(-50, 50).map(float),
)


class TestArrayStatisticsMatchScalarOracles:
    """The array statistics against the per-pair scalar forms in
    tests/oracles.py, bit for bit."""

    @given(st.lists(st.tuples(SURPRISES, SURPRISES), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_random_pairs(self, surprises):
        original, improved = pairs(*zip(*surprises))
        scalar_pairs = [SurprisePair(o, i) for o, i in surprises]
        values = surprise_improvement(original, improved)
        want = [oracles.surprise_improvement(o, i) for o, i in surprises]
        assert values.dtype == np.float64
        assert values.tobytes() == np.array(want).tobytes()
        assert median_stat(values) == oracles.median_stat(want)
        got, expected = average_stat(original, improved), oracles.average_stat(scalar_pairs)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize(
        "values",
        [
            [0.5, NEG_INF, 0.25],  # odd, a sentinel below the middle
            [NEG_INF, NEG_INF, 0.0],  # odd, the middle is a sentinel
            [0.0, 0.5, 0.25, 0.75],  # even, the zero-original sentinel 0.0 in the middle
            [NEG_INF, 0.0, NEG_INF, 0.3],  # even, one -inf in the middle pair
            [NEG_INF] * 4,  # even, two equal sentinels
            [0.1],
        ],
    )
    def test_median_counts_and_sentinels(self, values):
        assert median_stat(np.array(values)) == oracles.median_stat(values)

    def test_sum_where_pairwise_addition_differs(self):
        # 1 + 2**-53 rounds back to 1 when added one at a time, but the small
        # terms summed pairwise first reach 1 + 4000 * 2**-53
        original = np.array([1.0] + [2.0**-53] * 4000)
        improved = original[::-1] / 3
        left_to_right = sum(original.tolist())
        assert np.sum(original) != left_to_right == 1.0
        scalar_pairs = [SurprisePair(o, i) for o, i in zip(original.tolist(), improved.tolist())]
        assert average_stat(original, improved) == oracles.average_stat(scalar_pairs)


class TestClosestAnalyst:
    def _closest(self, values, actual, bias_lookup=None):
        panel = panel_of([(actual, values)])
        return closest_analyst(panel, panel_events(panel)[0], bias_lookup)

    def test_min_abs_error(self):
        assert self._closest([98, 101, 103], 100) == 1

    def test_exact_hit(self):
        assert self._closest([98, 100, 103], 100) == 0

    def test_exact_hit_gives_full_improvement(self):
        best = self._closest([98, 100, 103], 100)
        consensus = sum([98, 100, 103]) / 3
        assert improvement(consensus - 100, best) == 1.0

    def test_bias_adjusted_lookup(self):
        assert self._closest([98, 104], 100, bias_lookup=lambda i, f: 4.0 if i == "A1" else 0.0) == 0


class TestDescriptiveStats:
    def test_single_event_in_range(self, small_panel_inputs):
        stats = descriptive_stats(panel_of([(100, [98, 102])]))
        assert stats["actual_in_range_share"] == 1.0
        assert stats["n_symbols"] == 1
        assert stats["n_predictions"] == 2

    def test_broker_panel_counts_analysts(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        cfg = FilterConfig(min_analysts=3)
        panel = build_panel(ests, acts, cfg, identity="broker")
        oracle_acts = actuals_from_rows_oracle(actual_rows(acts))
        oracle = build_panel_oracle(estimates_from_rows_oracle(estimate_rows(ests)), oracle_acts, cfg, "broker")
        analysts = {e.analyst_id for ev in oracle.events for e in ev.estimates}
        assert descriptive_stats(panel)["n_analysts"] == len(analysts) > len(set(panel_idents(panel)))
        assert set(panel_analysts(panel)) == analysts

    def test_negative_surprise_share(self):
        # consensus 100; actuals 99 (negative), 101, 101
        stats = descriptive_stats(panel_of([(a, [100, 100]) for a in [99, 101, 101]]))
        assert stats["negative_surprise_share"] == pytest.approx(1 / 3)

    def test_calibrated_negative_share_matches_generator(self):
        spec = SynthSpec(
            n_firms=40,
            n_analysts=200,
            n_quarters=24,
            analysts_per_event=10,
            bias_scale=2.0,
            noise_scale=3.0,
            common_scale=6.0,
            negative_surprise_target=0.30,
            seed=2024,
        )
        ests, acts, _ = load_synth(spec)
        panel = build_panel(ests, acts, FilterConfig())
        stats = descriptive_stats(panel)
        assert abs(stats["negative_surprise_share"] - 0.30) < 0.03

    @staticmethod
    def assert_same_as_oracle(panel):
        got, want = descriptive_stats(panel), oracles.descriptive_stats(panel)
        assert got == want

        def float_bits(stats):
            return {key: struct.pack("<d", value) for key, value in stats.items() if isinstance(value, float)}

        assert float_bits(got) == float_bits(want) and len(float_bits(got)) == 4

    @pytest.mark.parametrize("identity", ["analyst", "broker"])
    def test_golden_panel_matches_per_event_oracle(self, small_panel_inputs, identity):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig(min_analysts=3), identity=identity)  # 4 to 6 brokers an event
        assert len(panel.events)
        self.assert_same_as_oracle(panel)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mixed_sizes_match_per_event_oracle(self, data):
        # events of 1 to 12 values whose absolute sums stay below 2**53
        value = st.integers(-(2**48), 2**48)
        event = st.tuples(value, st.lists(value, min_size=1, max_size=12))
        events = data.draw(st.lists(event, min_size=1, max_size=30))
        self.assert_same_as_oracle(panel_of(events))

    def test_past_2_53_reads_the_float_consensus(self):
        # the values sum to 2**53 + 1, which the float mean rounds to 2**53
        panel = panel_of([(0, [2**53, 1, 0])])
        assert descriptive_stats(panel)["mean_abs_surprise_cents"] == 2**53 / 3 == panel.layout.simple[0]
        assert oracles.descriptive_stats(panel)["mean_abs_surprise_cents"] == (2**53 + 1) // 3
