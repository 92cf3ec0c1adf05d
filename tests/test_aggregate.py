import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_bias_panel
from estagg.aggregate import ModeConfig, default_mode_matrix, modes_by_label, weight_vector
from estagg.ingest import FilterConfig, build_panel
from estagg.replay import run_mode
from oracles import weight


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
    outcomes = run_mode(panel, ModeConfig()).outcomes
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
        with pytest.raises(ValueError):
            ModeConfig(exponent=0.0)

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

    def test_modes_by_label_unknown(self):
        with pytest.raises(ValueError):
            modes_by_label(["nope"])


class TestImprovedConsensus:
    def test_known_bias_zero_noise_recovers_actual(self):
        biases = [8, -4, 6, -2, 10, -6, 4, 2]
        ests, acts = constant_bias_panel(biases)
        panel = build_panel(ests, acts, FilterConfig())
        rr = run_mode(panel, ModeConfig())
        assert len(rr.outcomes) == 3  # first event only feeds history
        for o in rr.outcomes:
            assert o.improved == pytest.approx(100.0, abs=1e-9)
            assert o.simple_consensus == pytest.approx(100 + np.mean(biases), abs=1e-9)

    def test_reduction_to_simple_consensus(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        mode = ModeConfig(label="plain", use_bias=False, use_expertise=False)
        rr = run_mode(panel, mode)
        assert rr.outcomes
        for o in rr.outcomes:
            assert o.improved == o.simple_consensus  # bitwise: same mean

    def test_weights_sum_to_one_or_fallback(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        rr = run_mode(panel, ModeConfig())
        for o in rr.outcomes:
            assert o.weights.shape == (o.n_analysts,)
            assert sum(o.weights.tolist()) == pytest.approx(1.0, abs=1e-9)

    def test_convexity_over_raw_predictions_without_bias(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        values = {(e.firm_id, e.period): panel.value_cents[e.rows].tolist() for e in panel.events}
        rr = run_mode(panel, ModeConfig(label="exp_only", use_bias=False))
        for o in rr.outcomes:
            vals = values[(o.firm_id, o.period)]
            assert min(vals) - 1e-9 <= o.improved <= max(vals) + 1e-9

    def test_determinism(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        r1 = run_mode(panel, ModeConfig())
        r2 = run_mode(panel, ModeConfig())
        assert [(o.improved, o.simple_consensus, o.weights.tobytes()) for o in r1.outcomes] == [
            (o.improved, o.simple_consensus, o.weights.tobytes()) for o in r2.outcomes
        ]

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
        for ev in panel.events:
            idents = panel.idents[ev.rows]
            assert len(idents) == len(set(idents))
            assert all(i.startswith("B") for i in idents)

    def test_exponent_change_only_affects_positive_weight_rows(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        r12 = run_mode(panel, ModeConfig(exponent=1.2))
        r20 = run_mode(panel, ModeConfig(label="exponent_2", exponent=2.0))
        for a, b in zip(r12.outcomes, r20.outcomes):
            za = np.flatnonzero(a.weights == 0.0).tolist()
            zb = np.flatnonzero(b.weights == 0.0).tolist()
            assert za == zb  # the excluded set depends only on the sign of the margin
