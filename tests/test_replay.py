import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import actuals_from_rows, estimate_rows, estimates_from_rows, load_synth, outcome_fields
from estagg import evaluate, replay
from estagg.aggregate import ModeConfig, default_mode_matrix
from estagg.bias import BiasTracker
from estagg.evaluate import PanelSource, evaluate_mode, run_mode_matrix
from estagg.ingest import FilterConfig, build_panel
from estagg.model import mask_without
from estagg.periods import format_ts, parse_ts, quarter_index, quarter_of_ts
from estagg.replay import ledger_key, ledger_state, run_mode
from estagg.synth import SynthSpec
from oracles import build_panel_oracle, columnar_panel, estimates_from_rows_oracle, replay_oracle


def outcomes_by_key(rr):
    return {(o.firm_id, o.period): (o.improved, o.simple_consensus, o.fallback_reason) for o in rr.outcomes}


@pytest.fixture(scope="module")
def inputs():
    spec = SynthSpec(
        n_firms=6,
        n_analysts=40,
        n_quarters=10,
        analysts_per_event=9,
        bias_scale=4.0,
        noise_scale=3.0,
        common_scale=2.0,
        seed=314,
    )
    return load_synth(spec)


class TestTemporalHygiene:
    def test_future_events_do_not_change_past_outputs(self, inputs):
        ests, acts, _ = inputs
        full_panel = build_panel(ests, acts, FilterConfig())
        full = run_mode(full_panel, ModeConfig())

        cut_q = sorted({quarter_index(a.period) for a in acts})[5]
        acts_cut = [a for a in acts if quarter_index(a.period) <= cut_q]
        keep = {(a.firm_id, a.period) for a in acts_cut}
        ests_cut = estimates_from_rows([r for r in estimate_rows(ests) if (r[2], (r[3], r[4])) in keep])
        truncated = run_mode(build_panel(ests_cut, acts_cut, FilterConfig()), ModeConfig())

        trunc = outcomes_by_key(truncated)
        for o in full.outcomes:
            if quarter_index(o.period) <= cut_q:
                assert trunc[(o.firm_id, o.period)] == (o.improved, o.simple_consensus, o.fallback_reason)

    def test_first_quarter_has_no_model_and_falls_back(self, inputs):
        ests, acts, _ = inputs
        rr = run_mode(build_panel(ests, acts, FilterConfig()), ModeConfig())
        first = min(o.quarter_offset for o in rr.outcomes)
        for o in rr.outcomes:
            if o.quarter_offset == first:
                assert o.fallback_reason == "no_previous_model"

    def test_models_only_from_scored_quarters(self, inputs):
        ests, acts, _ = inputs
        panel = build_panel(ests, acts, FilterConfig())
        rr = run_mode(panel, ModeConfig())
        scored_quarters = {quarter_index(quarter_of_ts(o.announce_ts)) for o in rr.outcomes}
        model_quarters = {quarter_index(m.quarter) for m in rr.models}
        assert model_quarters <= scored_quarters


class TestSimultaneousAnnouncements:
    def _inputs(self, f1_actual):
        # analyst A0 covers F1 and F2; both announce at the same instant.
        # under analyst-level bias keying, F1's outcome must not leak into
        # the bias used for F2 at that same instant.
        announce = "2011-06-01T00:00:00Z"
        prior = "2011-03-01T00:00:00Z"
        est_rows, act_rows = [], []
        for firm, actual in (("F1", f1_actual), ("F2", 100)):
            act_rows.append((firm, 2011, 2, announce, actual))
            act_rows.append((firm, 2011, 1, prior, 100))
            for i in range(8):
                ts_p = format_ts(parse_ts(prior) - 10 * 86400)
                ts_t = format_ts(parse_ts(announce) - 10 * 86400)
                est_rows.append((f"A{i}", "B1", firm, 2011, 1, ts_p, 6, 100 + i))
                est_rows.append((f"A{i}", "B1", firm, 2011, 2, ts_t, 6, 100 + i))
        return estimates_from_rows(est_rows), actuals_from_rows(act_rows)

    def test_no_within_timestamp_leak(self):
        mode = ModeConfig(bias_key="identity")
        base = run_mode(build_panel(*self._inputs(100), FilterConfig()), mode)
        moved = run_mode(build_panel(*self._inputs(140), FilterConfig()), mode)
        f2_base = [o for o in base.outcomes if o.firm_id == "F2"]
        f2_moved = [o for o in moved.outcomes if o.firm_id == "F2"]
        assert [o.improved for o in f2_base] == [o.improved for o in f2_moved]


class TestScaleInvariance:
    def test_multiplying_money_scales_consensus(self, small_panel_inputs):
        from dataclasses import replace

        ests, acts, _ = small_panel_inputs
        c = 3
        ests_s = replace(ests, value_cents=ests.value_cents * c)
        acts_s = [replace(a, value_cents=a.value_cents * c) for a in acts]
        r1 = run_mode(build_panel(ests, acts, FilterConfig()), ModeConfig())
        r2 = run_mode(
            build_panel(ests_s, acts_s, FilterConfig(surprise_cap_cents=50 * c)), ModeConfig()
        )
        assert len(r1.outcomes) == len(r2.outcomes)
        for a, b in zip(r1.outcomes, r2.outcomes):
            assert b.simple_consensus == pytest.approx(c * a.simple_consensus, rel=1e-12)
            assert b.improved == pytest.approx(c * a.improved, rel=1e-9)


class TestSharedState:
    """The matrix scores modes that share a ledger pass from one state; the
    results must equal each mode replayed on its own, bit for bit."""

    BURN_IN = 4

    @pytest.fixture(scope="class")
    def source(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        return PanelSource(ests, acts, FilterConfig())

    @pytest.fixture(scope="class")
    def oracle(self, source):
        """Each mode replayed per event on the per-row oracle's panel."""
        ests = estimates_from_rows_oracle(estimate_rows(source.estimates))
        out = {}
        for m in default_mode_matrix():
            identity, min_lead_hours = source.panel_key(m)
            cfg = replace(source.cfg, min_lead_hours=min_lead_hours)
            out[m.label] = replay_oracle(build_panel_oracle(ests, source.actuals, cfg, identity), m)
        return out

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    def test_matrix_matches_per_mode_oracle(self, source, oracle, reverse):
        modes = default_mode_matrix()[:: -1 if reverse else 1]
        results, details = run_mode_matrix(source, modes, burn_in=self.BURN_IN)
        labels = [m.label for m in modes]
        assert [r.label for r in results] == labels
        assert list(details) == labels
        for mode, result in zip(modes, results):
            got, want = details[mode.label], oracle[mode.label]
            assert len(got.outcomes) == len(want.outcomes)
            for a, b in zip(got.outcomes, want.outcomes):
                assert outcome_fields(a) == outcome_fields(b)
            assert [(m.quarter, m.beta.tobytes(), m.n_obs, m.rss) for m in got.models] == [
                (m.quarter, m.beta.tobytes(), m.n_obs, m.rss) for m in want.models
            ]
            assert result == evaluate_mode(want, mode, self.BURN_IN)

    def test_one_ledger_pass_and_normalization_per_shared_state(self, source, monkeypatch):
        passes = []
        normalized = []

        def counting_ledger_state(panel, key):
            passes.append(panel)
            return ledger_state(panel, key)

        def counting_normalize_event(features, aae, scaling):
            normalized.extend([scaling] * len(features))
            return normalize_event(features, aae, scaling)

        normalize_event = replay.normalize_event
        monkeypatch.setattr(evaluate, "ledger_state", counting_ledger_state)
        monkeypatch.setattr(replay, "ledger_state", counting_ledger_state)
        monkeypatch.setattr(replay, "normalize_event", counting_normalize_event)
        modes = default_mode_matrix()
        run_mode_matrix(source, modes, burn_in=self.BURN_IN)
        # full and 10 of its variants; no_bias and closest_raw; the four bias
        # keys; institution; the two recency cutoffs
        assert len(passes) == 9
        # only full's pass has a second scaling (no_scaling)
        full_events = len(source.panel_for(modes[0]).events)
        assert normalized.count("centered") == full_events
        assert normalized.count("normalized") == sum(len(p.events) for p in passes)

    def test_state_from_another_ledger_rejected(self, source):
        full, no_bias = default_mode_matrix()[:3:2]
        panel = source.panel_for(full)
        state = ledger_state(panel, ledger_key(full))
        with pytest.raises(ValueError, match="ledger state"):
            run_mode(panel, no_bias, state)

    def test_no_bias_pass_keeps_no_bias_ledger(self, source, monkeypatch):
        made = []

        class CountingTracker(BiasTracker):
            def __init__(self, key):
                made.append(key)
                super().__init__(key)

        monkeypatch.setattr(replay, "BiasTracker", CountingTracker)
        full, no_bias = default_mode_matrix()[:3:2]
        panel = source.panel_for(full)
        assert ledger_state(panel, ledger_key(no_bias)).events
        assert made == []
        ledger_state(panel, ledger_key(full))
        assert made == [full.bias_key]


def mixed_size_rows(pick):
    """Estimate and actual rows for two to four firms over five quarters,
    with 2011Q4 left empty; `pick(lo, hi)` draws each free choice.

    F0 has all eight analysts every quarter and the other firms two to six
    of A2-A7, so event sizes mix within a quarter. A0 and A1 share broker
    B0, each quarter's only top-decile broker, so the other firms' events
    have an all-zero top-decile column. Values lie within 3 cents of the
    actual, which makes ties for the closest analyst common.
    """
    day = 86400
    est_rows, act_rows = [], []
    firms = [f"F{k}" for k in range(pick(2, 4))]
    for year, quarter in ((2011, 1), (2011, 2), (2011, 3), (2012, 1), (2012, 2)):
        announce = parse_ts(f"{year}-{3 * quarter - 1:02d}-15T00:00:00Z") + pick(0, 2) * day
        for k, firm in enumerate(firms):
            actual = 100 + pick(-20, 20)
            act_rows.append((firm, year, quarter, format_ts(announce), actual))
            members = range(8) if k == 0 else [i for i in range(2, 8) if pick(0, 1)] or [2, 3]
            for i in members:
                ts = announce - pick(3, 40) * day
                for _ in range(pick(1, 2)):  # an earlier submission raises freq
                    est_rows.append(
                        (f"A{i}", "B0" if i < 2 else f"B{i}", firm, year, quarter, format_ts(ts), 6, actual + pick(-3, 3))
                    )
                    ts -= day
    return est_rows, act_rows


def _top10_only():
    return ModeConfig(label="top10_only", variable_mask=mask_without("age", "freq", "ncos", "exp", "mae"))


class TestSizeBuckets:
    """Bucketed scoring against the per-event oracle on panels whose
    quarters mix event sizes."""

    MODES = [
        m
        for m in default_mode_matrix()
        if m.label in ("full", "no_expertise", "no_scaling", "bias_half", "exponent_2", "closest", "closest_raw")
    ] + [_top10_only()]

    @staticmethod
    def replays(est_rows, act_rows):
        """Each mode scored from shared ledger passes on the columnar form of
        the oracle's panel, and replayed per event by the oracle."""
        oracle_panel = build_panel_oracle(
            estimates_from_rows_oracle(est_rows), actuals_from_rows(act_rows), FilterConfig(min_analysts=2)
        )
        panel = columnar_panel(oracle_panel)
        states = {}
        out = {}
        for mode in TestSizeBuckets.MODES:
            key = ledger_key(mode)
            if key not in states:
                states[key] = ledger_state(panel, key)
            out[mode.label] = (panel, run_mode(panel, mode, states[key]), replay_oracle(oracle_panel, mode))
        return out

    @staticmethod
    def assert_same(got, want):
        def fields(result):
            return (
                [(outcome_fields(o), struct.pack("<d", o.improved)) for o in result.outcomes],
                [(m.quarter, m.beta.tobytes(), m.n_obs, m.rss) for m in result.models],
            )

        assert fields(got) == fields(want)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_event_oracle(self, data):
        rows = mixed_size_rows(lambda lo, hi: data.draw(st.integers(lo, hi)))
        for _, got, want in self.replays(*rows).values():
            self.assert_same(got, want)

    def test_fixed_panel_covers_each_case(self):
        rng = np.random.default_rng(22)  # four firms, 14 scored events of five sizes
        results = self.replays(*mixed_size_rows(lambda lo, hi: int(rng.integers(lo, hi + 1))))
        for _, got, want in results.values():
            self.assert_same(got, want)

        panel, full, _ = results["full"]
        sizes = {}
        for o in full.outcomes:
            sizes.setdefault(o.quarter_offset, set()).add(o.n_analysts)
        assert any(len(s) > 1 for s in sizes.values())
        assert any(not panel.features[ev.rows, 3].any() for ev in panel.events)
        first = min(sizes)
        assert any(o.fallback_reason == "no_previous_model" and o.quarter_offset > first for o in full.outcomes)
        assert any(o.fallback_reason == "degenerate_weights" for o in results["top10_only"][1].outcomes)
        _, closest_raw, _ = results["closest_raw"]
        ties = 0
        for ev, o in zip(panel.events, closest_raw.outcomes):
            errors = np.abs(panel.value_cents[ev.rows] - ev.actual_cents)
            ties += int(np.count_nonzero(errors == errors.min()) > 1)
            assert o.weights[np.argmin(errors)] == 1.0  # the first of tied analysts
        assert ties > 0


class TestPriorRecord:
    def test_estimate_without_prior_record_cannot_be_scored(self):
        # with the prior-record rule off, a first-time estimate reaches
        # scoring, which has no experience or past error to give it
        announce = "2011-06-01T00:00:00Z"
        ts = format_ts(parse_ts(announce) - 10 * 86400)
        est_rows = [(f"A{i}", "B1", "F1", 2011, 2, ts, 6, 100) for i in range(8)]
        acts = actuals_from_rows([("F1", 2011, 2, announce, 100)])
        panel = build_panel(estimates_from_rows(est_rows), acts, FilterConfig(require_prior_record=False))
        assert len(panel.events) == 1
        for mode in (ModeConfig(), ModeConfig(label="no_bias", use_bias=False)):
            with pytest.raises(RuntimeError, match="without prior record reached scoring: A0/F1"):
                run_mode(panel, mode)
