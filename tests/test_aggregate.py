import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_bias_panel, replay_mode, replay_with_weights
from estagg.aggregate import ModeConfig, default_mode_matrix, modes_by_label, weight_vector
from estagg.ingest import FilterConfig, build_panel
from estagg.replay import ledger_state
from oracles import outcome_views, panel_events, panel_idents, weight


class TestWeight:
    def test_unit_margin(self):
        preds = np.array([-1.0, 0.0, 1.0])
        w = weight_vector(preds, 1.2)
        assert w[0] == 1.0  # (0 - (-1))^1.2 = 1
        assert w[1] == 0.0  # at the mean -> excluded
        assert w[2] == 0.0  # above the mean -> excluded

    def test_all_equal_degenerate(self):
        w = weight_vector(np.array([0.4, 0.4, 0.4]), 1.2)
        assert w.sum() == 0.0

    def test_against_high_precision_oracle(self):
        import mpmath

        preds = [-0.2, 0.0, 0.3]
        mean = sum(preds) / 3
        w = weight_vector(np.array(preds), 1.2)
        for wi, p in zip(w, preds):
            if p >= mean:
                assert wi == 0.0
            else:
                expected = mpmath.power(mpmath.mpf(mean) - mpmath.mpf(p), mpmath.mpf("1.2"))
                assert abs(wi - float(expected)) < 1e-14

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=12),
        st.floats(min_value=0.5, max_value=4.0),
    )
    @settings(max_examples=100)
    def test_zero_at_or_above_the_mean_and_the_exponent_moves_only_positive_entries(self, preds, r):
        preds = np.array(preds)
        w = weight_vector(preds, r)
        assert not w[preds >= preds.mean()].any()
        # the excluded set depends only on the sign of the margin
        assert np.flatnonzero(w).tolist() == np.flatnonzero(weight_vector(preds, 1.2)).tolist()

    def test_scalar_matches_vector(self):
        preds = np.array([-0.5, -0.1, 0.2, 0.2])
        mean = preds.mean()
        w = weight_vector(preds, 2.0)
        for wi, p in zip(w, preds):
            assert wi == weight(float(p), float(mean), 2.0)

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=12),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=12),
    )
    @settings(max_examples=100)
    def test_weighted_average_is_convex(self, preds, values):
        n = min(len(preds), len(values))
        preds, values = np.array(preds[:n]), np.array(values[:n])
        w = weight_vector(preds, 1.2)
        if w.sum() == 0:
            return
        avg = np.dot(w, values) / w.sum()
        positive = values[w > 0]
        assert positive.min() - 1e-9 <= avg <= positive.max() + 1e-9


def replayed_simple_consensus(offsets, actual=100):
    """The replay's simple consensus of the scored events of a panel where
    each analyst misses the actual by a fixed offset."""
    ests, acts = constant_bias_panel(offsets, actual=actual)
    panel = build_panel(ests, acts, FilterConfig(min_analysts=len(offsets)))
    outcomes = outcome_views(replay_mode(panel, ModeConfig()))
    assert outcomes
    return {o.simple_consensus for o in outcomes}


class TestSimpleConsensus:
    def test_two_values(self):
        assert replayed_simple_consensus([3, 5]) == {104.0}

    def test_identity(self):
        assert replayed_simple_consensus([0], actual=42) == {42.0}

    def test_against_exact_sum_oracle(self):
        import math

        rng = np.random.default_rng(7)
        offsets = rng.integers(-50, 51, size=8).tolist()
        expected = math.fsum(100 + o for o in offsets) / 8
        (got,) = replayed_simple_consensus(offsets)
        assert abs(got - expected) < 1e-12


class TestModeConfig:
    def test_invalid_exponent(self):
        for exponent in (0.0, -1.2, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="exponent must be positive and finite"):
                ModeConfig(exponent=exponent)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"scaling": "standardized"}, "unknown scaling 'standardized'"),
            ({"identity": "desk"}, "unknown identity 'desk'"),
            ({"method": "median"}, "unknown method 'median'"),
            ({"bias_key": "sector"}, "unknown bias_key 'sector'"),
        ],
    )
    def test_unknown_setting_rejected(self, setting, message):
        with pytest.raises(ValueError, match=message):
            ModeConfig(**setting)

    def test_no_bias_and_equal_weights_accepted(self):
        mode = ModeConfig(bias_key=None, method="equal")
        assert (mode.bias_key, mode.method) == (None, "equal")

    @pytest.mark.parametrize(
        "setting, known",
        [
            ({"method": "median"}, "['weighted', 'equal', 'closest']"),
            ({"bias_key": "sector"}, "['identity_firm', 'identity', 'firm', 'global', 'half', None]"),
        ],
    )
    def test_unknown_choice_lists_known_values(self, setting, known):
        with pytest.raises(ValueError) as exc:
            ModeConfig(**setting)
        assert str(exc.value).endswith(f"; known: {known}")

    def test_build_panel_rejects_unknown_identity(self):
        ests, acts = constant_bias_panel([0] * 8)
        with pytest.raises(ValueError, match="unknown identity 'desk'"):
            build_panel(ests, acts, FilterConfig(), identity="desk")

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            ModeConfig(min_lead_hours=24)

    def test_default_matrix_covers_all_rows(self):
        labels = {m.label for m in default_mode_matrix()}
        assert labels == {
            "full",
            "no_expertise",
            "no_bias",
            "no_age",
            "no_freq",
            "no_top10",
            "no_ncos",
            "no_exp",
            "no_mae",
            "no_scaling",
            "bias_global",
            "bias_firm",
            "bias_analyst",
            "bias_half",
            "institution",
            "exponent_2",
            "cutoff_30d",
            "cutoff_60d",
            "closest",
            "closest_raw",
        }

    def test_exponent_override_reaches_every_mode_but_exponent_2(self):
        modes = default_mode_matrix(1.5)
        assert {m.label: m.exponent for m in modes} == {m.label: 2.0 if m.label == "exponent_2" else 1.5 for m in modes}
        assert len({m.replace(label="") for m in modes}) == len(modes) == 20
        labels = [m.label for m in modes]
        assert modes_by_label(labels, 1.5) == modes

    def test_modes_by_label_unknown(self):
        with pytest.raises(ValueError):
            modes_by_label(["nope"])

    def test_modes_by_label_empty_or_repeated(self):
        with pytest.raises(ValueError, match="no mode selected"):
            modes_by_label([])
        with pytest.raises(ValueError, match="mode 'no_bias' selected twice"):
            modes_by_label(["no_bias", "full", "no_bias"])
        assert [m.label for m in modes_by_label(["no_bias", "full"])] == ["no_bias", "full"]


class TestImprovedConsensus:
    def test_known_bias_zero_noise_recovers_actual(self):
        biases = [8, -4, 6, -2, 10, -6, 4, 2]
        ests, acts = constant_bias_panel(biases)
        panel = build_panel(ests, acts, FilterConfig())
        rr = replay_mode(panel, ModeConfig())
        assert len(rr.improved) == 3  # first event only feeds history
        for o in outcome_views(rr):
            assert o.improved == pytest.approx(100.0, abs=1e-9)
            assert o.simple_consensus == pytest.approx(100 + np.mean(biases), abs=1e-9)

    def test_reduction_to_simple_consensus(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        mode = ModeConfig(label="plain", bias_key=None, method="equal")
        rr = replay_mode(panel, mode)
        assert len(rr.improved)
        for o in outcome_views(rr):
            assert o.improved == o.simple_consensus  # bitwise: same mean

    def test_weights_sum_to_one_or_fallback(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        rr, weights = replay_with_weights(ests, acts, FilterConfig(), ModeConfig())
        adjusted = ledger_state(rr.panel, ModeConfig().bias_key).adjusted
        for ev, o, w in zip(panel_events(rr.panel), outcome_views(rr), weights):
            assert w.shape == (o.n_analysts,)
            assert sum(w.tolist()) == pytest.approx(1.0, abs=1e-9)
            assert o.improved == pytest.approx(w @ adjusted[ev.rows], rel=1e-12)

    def test_convexity_over_raw_predictions_without_bias(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        values = {(e.firm_id, e.period): panel.value_cents[e.rows].tolist() for e in panel_events(panel)}
        rr = replay_mode(panel, ModeConfig(label="exp_only", bias_key=None))
        for o in outcome_views(rr):
            vals = values[(o.firm_id, o.period)]
            assert min(vals) - 1e-9 <= o.improved <= max(vals) + 1e-9

    def test_determinism(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        r1 = replay_mode(panel, ModeConfig())
        r2 = replay_mode(panel, ModeConfig())
        assert [(o.improved, o.simple_consensus, o.fallback_reason) for o in outcome_views(r1)] == [
            (o.improved, o.simple_consensus, o.fallback_reason) for o in outcome_views(r2)
        ]
        assert r1.improved.tobytes() == r2.improved.tobytes()

    def test_one_analyst_dominates(self):
        # hand-driven: weights one-hot -> improved equals that adjusted value
        from estagg.aggregate import weight_vector

        preds = np.array([-1.0, 0.5, 0.5, 0.5])
        w = weight_vector(preds, 1.2)
        values = np.array([101.0, 90.0, 95.0, 130.0])
        assert np.dot(w, values) / w.sum() == pytest.approx(101.0)

    def test_institution_identity_dedups_per_broker(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig(min_analysts=2), identity="broker")
        for ev in panel_events(panel):
            idents = panel_idents(panel)[ev.rows]
            assert len(idents) == len(set(idents))
            assert all(i.startswith("B") for i in idents)

    def test_exponent_change_only_affects_positive_weight_rows(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        _, w12 = replay_with_weights(ests, acts, FilterConfig(), ModeConfig(exponent=1.2))
        _, w20 = replay_with_weights(ests, acts, FilterConfig(), ModeConfig(label="exponent_2", exponent=2.0))
        for a, b in zip(w12, w20):
            za = np.flatnonzero(a == 0.0).tolist()
            zb = np.flatnonzero(b == 0.0).tolist()
            assert za == zb  # the excluded set depends only on the sign of the margin
