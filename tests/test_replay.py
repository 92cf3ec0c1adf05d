import csv
import struct
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    actual_rows,
    actuals_from_rows,
    assert_fits_match_per_quarter_oracle,
    estimate_rows,
    estimates_from_rows,
    load_synth,
    mixed_size_rows,
    outcome_fields,
    panel_of,
    replay_mode,
    replay_with_weights,
)
from estagg import evaluate, features, ingest, replay
from estagg.aggregate import ModeConfig, default_mode_matrix, weight_vector
from estagg.bias import BiasTracker
from estagg.cli import _event_fields, _write_events
from estagg.evaluate import PanelSource, run_mode_matrix
from estagg.features import SCALINGS
from estagg.ingest import ActualTable, FilterConfig, IngestReport, Panel, Stream, build_panel
from estagg.model import mask_without
from estagg.periods import format_ts, parse_ts, quarter_indices
from estagg.replay import LedgerState, ledger_state, run_mode
from estagg.synth import SynthSpec
import oracles
from oracles import (
    actuals_from_rows_oracle,
    build_panel_oracle,
    columnar_panel,
    estimates_from_rows_oracle,
    outcome_views,
    panel_events,
    quarter_index,
    quarter_of_ts,
    replay_oracle,
    replay_view,
)


def outcomes_by_key(rr):
    return {(o.firm_id, o.period): (o.improved, o.simple_consensus, o.fallback_reason) for o in outcome_views(rr)}


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
        full = replay_mode(full_panel, ModeConfig())

        cut_q = sorted({quarter_index((r[1], r[2])) for r in actual_rows(acts)})[5]
        act_rows_cut = [r for r in actual_rows(acts) if quarter_index((r[1], r[2])) <= cut_q]
        keep = {(r[0], (r[1], r[2])) for r in act_rows_cut}
        ests_cut = estimates_from_rows([r for r in estimate_rows(ests) if (r[2], (r[3], r[4])) in keep])
        truncated = replay_mode(build_panel(ests_cut, actuals_from_rows(act_rows_cut), FilterConfig()), ModeConfig())

        trunc = outcomes_by_key(truncated)
        for o in outcome_views(full):
            if quarter_index(o.period) <= cut_q:
                assert trunc[(o.firm_id, o.period)] == (o.improved, o.simple_consensus, o.fallback_reason)

    def test_first_quarter_has_no_model_and_falls_back(self, inputs):
        ests, acts, _ = inputs
        rr = replay_mode(build_panel(ests, acts, FilterConfig()), ModeConfig())
        first = min(o.quarter_offset for o in outcome_views(rr))
        for o in outcome_views(rr):
            if o.quarter_offset == first:
                assert o.fallback_reason == "no_previous_model"

    def test_models_only_from_scored_quarters(self, inputs):
        ests, acts, _ = inputs
        panel = build_panel(ests, acts, FilterConfig())
        rr = replay_mode(panel, ModeConfig())
        scored_quarters = {quarter_index(quarter_of_ts(o.announce_ts)) for o in outcome_views(rr)}
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
        base = replay_mode(build_panel(*self._inputs(100), FilterConfig()), mode)
        moved = replay_mode(build_panel(*self._inputs(140), FilterConfig()), mode)
        f2_base = [o for o in outcome_views(base) if o.firm_id == "F2"]
        f2_moved = [o for o in outcome_views(moved) if o.firm_id == "F2"]
        assert [o.improved for o in f2_base] == [o.improved for o in f2_moved]


class TestScaleInvariance:
    def test_multiplying_money_scales_consensus(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        c = 3
        ests_s = ests.replace(value_cents=ests.value_cents * c)
        acts_s = acts.replace(value_cents=acts.value_cents * c)
        r1 = replay_mode(build_panel(ests, acts, FilterConfig()), ModeConfig())
        r2 = replay_mode(
            build_panel(ests_s, acts_s, FilterConfig(surprise_cap_cents=50 * c)), ModeConfig()
        )
        assert len(r1.improved) == len(r2.improved)
        for a, b in zip(outcome_views(r1), outcome_views(r2)):
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
        acts = actuals_from_rows_oracle(actual_rows(source.actuals))
        out = {}
        for m in default_mode_matrix():
            identity, min_lead_hours = source.panel_key(m)
            cfg = source.cfg._replace(min_lead_hours=min_lead_hours)
            out[m.label] = replay_oracle(build_panel_oracle(ests, acts, cfg, identity), m)
        return out

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    def test_matrix_matches_per_mode_oracle(self, source, oracle, reverse):
        modes = default_mode_matrix()[:: -1 if reverse else 1]
        handed_out = []
        for i, replay, result in run_mode_matrix(source, modes, burn_in=self.BURN_IN):
            handed_out.append(i)
            mode = modes[i]
            assert result.label == mode.label
            got, want = replay_view(replay), oracle[mode.label]
            assert len(got.outcomes) == len(want.outcomes)
            for a, b in zip(got.outcomes, want.outcomes):
                assert outcome_fields(a) == outcome_fields(b)
            assert [(m.quarter, m.beta.tobytes(), m.n_obs, m.rss) for m in got.models] == [
                (m.quarter, m.beta.tobytes(), m.n_obs, m.rss) for m in want.models
            ]
            assert result == oracles.evaluate_mode(want, mode, self.BURN_IN)
        assert sorted(handed_out) == list(range(len(modes)))

    def test_one_ledger_pass_and_normalization_per_shared_state(self, source, monkeypatch):
        passes = []
        normalized = []
        rows = []  # (ledger pass, scaling, weak reference to the rows) per scaling's rows built
        fits = []  # (ledger pass, scaling, mask) per fit

        def counting_ledger_state(panel, key):
            passes.append(panel)
            return ledger_state(panel, key)

        def counting_normalize_event(mae, aae, scaling):
            normalized.extend([scaling] * len(mae))
            return normalize_event(mae, aae, scaling)

        def watching_quarter_grams(X, edges):
            rows.append((len(passes), normalized[-1], weakref.ref(X)))
            return quarter_grams(X, edges)

        def counting_fit_period(X, y, edges, quarters, grams, mask):
            fits.append((len(passes), rows[-1][1], mask))
            return fit_period(X, y, edges, quarters, grams, mask)

        normalize_event, quarter_grams, fit_period = replay.normalize_event, replay.quarter_grams, replay.fit_period
        monkeypatch.setattr(evaluate, "ledger_state", counting_ledger_state)
        monkeypatch.setattr(replay, "normalize_event", counting_normalize_event)
        monkeypatch.setattr(replay, "quarter_grams", watching_quarter_grams)
        monkeypatch.setattr(replay, "fit_period", counting_fit_period)
        modes = default_mode_matrix()
        for _ in run_mode_matrix(source, modes, burn_in=self.BURN_IN):
            # no ledger pass holds a second scaling's rows after any mode
            alive = [(p, scaling) for p, scaling, ref in rows if ref() is not None]
            assert len(alive) == len({p for p, _ in alive}) == 1
        # each (pass, scaling) is normalized once, and each (pass, scaling, mask) fit once
        assert len(rows) == len({(p, scaling) for p, scaling, _ in rows}) == len(passes) + 1
        keys = {(source.panel_key(m), m.bias_key, m.scaling, m.variable_mask) for m in modes}
        assert len(fits) == len(set(fits)) == len(keys)
        # full and 10 of its variants; no_bias and closest_raw; the four bias
        # keys; institution; the two recency cutoffs
        assert len(passes) == 9
        # only full's pass has a second scaling (no_scaling)
        full_events = len(source.panel_for(modes[0]).events)
        assert normalized.count("centered") == full_events
        assert normalized.count("normalized") == sum(len(p.events) for p in passes)

    def test_ledger_free_block_dropped_after_its_last_group(self, source):
        # no_scaling is the one mode under `centered`, scored last in the default
        # panel's identity_firm pass; that panel's later groups hold no `centered` block
        modes = default_mode_matrix()
        held = []  # (label, panel, the scalings that panel holds) as each mode is handed out
        for i, replay, _ in run_mode_matrix(source, modes, burn_in=self.BURN_IN):
            held.append((modes[i].label, replay.panel, sorted(replay.panel._normalized)))
        at = [label for label, _, _ in held].index("no_scaling")
        assert held[at][2] == ["centered", "normalized"]
        later = [scalings for _, panel, scalings in held[at + 1 :] if panel is held[at][1]]
        assert later and all(scalings == ["normalized"] for scalings in later)

    def test_every_normalized_stack_is_c_contiguous(self, small_panel_inputs, monkeypatch):
        # a strided stack's means round differently from the per-event oracle's
        ests, acts, _ = small_panel_inputs
        stacks = {"ledger_free": [], "normalize_event": []}

        def spy(name):
            def counting_normalize(values, scaling):
                stacks[name].append(values.flags.c_contiguous)
                return normalize(values, scaling)

            return counting_normalize

        normalize = features.normalize
        monkeypatch.setattr(ingest, "normalize", spy("ledger_free"))
        monkeypatch.setattr(features, "normalize", spy("normalize_event"))
        for _ in run_mode_matrix(PanelSource(ests, acts, FilterConfig()), default_mode_matrix(), burn_in=self.BURN_IN):
            pass
        assert all(stacks["ledger_free"]) and all(stacks["normalize_event"])
        assert stacks["ledger_free"] and stacks["normalize_event"]

    def test_each_panel_is_laid_out_once(self, source, monkeypatch):
        laid_out = []  # (panel, layout) per computation

        def counting_layout(panel):
            laid_out.append((panel, lay_out(panel)))
            return laid_out[-1][1]

        lay_out = Panel.layout.func
        layout = cached_property(counting_layout)
        layout.__set_name__(Panel, "layout")
        monkeypatch.setattr(Panel, "layout", layout)
        fresh = PanelSource(source.estimates, source.actuals, source.cfg)
        modes = default_mode_matrix()
        for i, replay, _ in run_mode_matrix(fresh, modes, burn_in=self.BURN_IN):
            # the source holds the panel until another is asked for
            panel = fresh.panel_for(modes[i])
            assert replay.panel is panel
            assert [layout for p, layout in laid_out if p is panel] == [panel.layout]
        # nine ledger passes over four panels: analyst identity at the three
        # cutoffs, and broker identity
        assert len(laid_out) == len({fresh.panel_key(m) for m in modes}) == 4
        # the source holds only the broker panel, so full's is built and laid out again
        full, no_bias = modes[0], modes[2]
        panel = fresh.panel_for(full)
        assert all(p is not panel for p, _ in laid_out)
        first, second = ledger_state(panel, full.bias_key), ledger_state(panel, no_bias.bias_key)
        assert first.panel.layout is second.panel.layout is panel.layout
        assert len(laid_out) == 5

    def test_state_from_another_ledger_rejected(self, source):
        full, no_bias = default_mode_matrix()[:3:2]
        state = ledger_state(source.panel_for(full), full.bias_key)
        for other in (no_bias, full.replace(label="bias_global", bias_key="global")):
            with pytest.raises(ValueError, match="ledger state is for bias key 'identity_firm'"):
                run_mode(state, other)
        with pytest.raises(ValueError, match="ledger state is for bias key None"):
            run_mode(ledger_state(source.panel_for(full), None), full)

    def test_no_bias_pass_keeps_no_bias_ledger(self, source, monkeypatch):
        made = []

        class CountingTracker(BiasTracker):
            def __init__(self, key):
                made.append(key)
                super().__init__(key)

        monkeypatch.setattr(replay, "BiasTracker", CountingTracker)
        full, no_bias = default_mode_matrix()[:3:2]
        panel = source.panel_for(full)
        assert len(ledger_state(panel, no_bias.bias_key).aae)
        assert made == []
        ledger_state(panel, full.bias_key)
        assert made == [full.bias_key]

    def test_one_index_per_key_and_one_normalization_per_scaling(self, source, monkeypatch):
        built = []  # per index built: whether its keys vary, and its sorts of the stream's length
        sorts = []

        class CountingIndex(ingest.KeyIndex):
            def __init__(self, keys, ts):
                sorts.clear()
                super().__init__(keys, ts)
                built.append((bool(keys.any()), sorts.count(len(keys))))

        def counting_argsort(a, *args, **kwargs):
            sorts.append(len(a))
            return argsort(a, *args, **kwargs)

        def counting_ledger_free(panel, scaling):
            if scaling not in panel._normalized:
                normalized.append((next(i for i, ref in enumerate(panels) if ref() is panel), scaling))
            return ledger_free(panel, scaling)

        def counting_build_panel(*args, **kwargs):
            assert all(ref() is None for ref in panels)  # the last panel went before this build
            panel = build_panel(*args, **kwargs)
            panels.append(weakref.ref(panel))
            return panel

        argsort, ledger_free, normalized = np.argsort, Panel.ledger_free, []
        build_panel, panels = evaluate.build_panel, []  # a weak reference to each panel, in build order
        monkeypatch.setattr(ingest, "KeyIndex", CountingIndex)
        monkeypatch.setattr(np, "argsort", counting_argsort)
        monkeypatch.setattr(Panel, "ledger_free", counting_ledger_free)
        monkeypatch.setattr(evaluate, "build_panel", counting_build_panel)

        fresh = PanelSource(source.estimates, source.actuals, source.cfg)
        for _, result, _ in run_mode_matrix(fresh, default_mode_matrix(), burn_in=self.BURN_IN):
            # the mode's panel, and with it its indexes and normalized
            # columns, is the one alive: every earlier panel's last group is done
            assert panels[-1]() is result.panel
            assert [ref() is not None for ref in panels] == [False] * (len(panels) - 1) + [True]
            del result
        assert len(panels) == 4 and panels[-1]() is not None
        fresh.ingest_summary()  # the summary of the default panel, built first, lets the last panel go
        assert len(panels) == 4 and all(ref() is None for ref in panels)
        # identity-firm on each panel (build_panel's prior-record count and
        # every history ledger), and the global, firm and identity keys of
        # the default panel, the half key reusing the last two
        assert sorted(built) == [(False, 0)] + [(True, 1)] * 6
        # both scalings of the default panel, and one of each other panel
        assert len(normalized) == len(set(normalized)) == 5

    def test_batched_fits_match_per_quarter_oracle_under_both_scalings(self, source):
        full = default_mode_matrix()[0]
        panel = source.panel_for(full)
        state = ledger_state(panel, full.bias_key)
        # each run of events announced in one quarter, recomputed event by event
        quarters, edges = [], []
        for q, start in zip(quarter_indices(panel.events.announce_ts).tolist(), panel.bounds.tolist()):
            if not quarters or q != quarters[-1]:
                quarters.append(q)
                edges.append(start)
        edges.append(int(panel.bounds[-1]))
        assert len(quarters) > 1
        assert panel.layout.quarters == quarters and panel.layout.edges == edges
        edges = panel.layout.edges
        for scaling in SCALINGS:
            X, y = state.rows(scaling)
            # and a last quarter of 4 rows, fewer than most masks' active variables
            X, y = np.concatenate([X, X[-4:]]), np.concatenate([y, y[-4:]])
            for mask in sorted({m.variable_mask for m in default_mode_matrix()}):
                assert_fits_match_per_quarter_oracle(X, y, edges + [edges[-1] + 4], mask)


def stacked_state(events):
    """A ledger pass over a hand-made panel whose events are `events`, each
    an (n, 6) feature matrix and its (n,) dependent values, all announced
    at one time in 2011Q1. Each row has an identity of its own whose
    experience column (an integer count) is made by as many stream records
    of its pair before the announcement."""
    sizes = [len(F) for F, _ in events]
    F = np.concatenate([F for F, _ in events])
    rows = np.arange(len(F))
    firm = np.repeat(np.arange(len(events)), sizes)
    prior = np.repeat(rows, F[:, 4].astype(np.int64))  # each row's earlier records
    announce = parse_ts("2011-03-01T00:00:00Z")
    stream = Stream(
        np.concatenate([np.zeros(len(prior), np.int64), np.full(len(F), announce)]),
        np.concatenate([prior, rows]),
        np.concatenate([firm[prior], firm]),
        np.zeros(len(prior) + len(F), np.int64),
        tuple(f"A{i:04d}" for i in rows),
        tuple(f"F{j:04d}" for j in range(len(events))),
    )
    k = len(events)
    acts = ActualTable(
        firm=np.arange(k),
        year=np.full(k, 2011),
        quarter=np.ones(k, np.int64),
        announce_ts=np.full(k, announce),
        value_cents=np.zeros(k, np.int64),
        firm_ids=stream.firm_ids,
    )
    bounds = np.cumsum([0] + sizes)
    panel = Panel(acts, bounds, rows, stream.ident_ids, np.zeros(len(F), np.int64), F[:, :4], stream, len(prior) + rows, IngestReport())
    aae = np.concatenate([a for _, a in events])
    return LedgerState(panel, None, np.zeros(len(F)), aae, F[:, 5].copy())


class TestLedgerFreeNormalization:
    """The panel's ledger-free columns, normalized once per scaling, plus
    each pass's normalized past error and dependent values against the
    per-event oracle."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_per_event_oracle(self, data):
        def column(n, low, high, integer):
            # a column of zeros takes normalize's zero-mean path
            if data.draw(st.integers(0, 4)) == 0:
                return [0.0] * n
            values = st.integers(low, high) if integer else st.floats(low, high)
            return [float(v) for v in data.draw(st.lists(values, min_size=n, max_size=n))]

        events = []
        for n in data.draw(st.lists(st.sampled_from([1, 2, 3, 8, 9, 17]), min_size=1, max_size=8)):
            F = np.column_stack(
                [
                    column(n, 0.0, 400.0, False),  # age
                    column(n, 1, 5, True),  # freq
                    column(n, 1, 30, True),  # ncos
                    column(n, 0, 1, True),  # top10
                    column(n, 0, 3, True),  # exp
                    column(n, 0.0, 1e4, False),  # mae
                ]
            )
            events.append((F, np.array(column(n, 0.0, 1e4, False))))
        state = stacked_state(events)
        for scaling in SCALINGS:
            X, y = state.rows(scaling)
            for (F, aae), start, stop in zip(events, state.panel.bounds, state.panel.bounds[1:]):
                want_X, want_y = oracles.normalize_event(F, aae, scaling)
                assert X[start:stop].tobytes() == np.ascontiguousarray(want_X).tobytes()
                assert y[start:stop].tobytes() == want_y.tobytes()

def _top10_only():
    return ModeConfig(label="top10_only", variable_mask=mask_without("age", "freq", "ncos", "exp", "mae"))


class TestSizeBuckets:
    """Bucketed scoring against the per-event oracle on panels whose
    quarters mix event sizes."""

    # every ledger key: each bias key, no bias, and broker identity
    MODES = [
        m
        for m in default_mode_matrix()
        if m.label
        in (
            "full",
            "no_expertise",
            "no_scaling",
            "bias_global",
            "bias_firm",
            "bias_analyst",
            "bias_half",
            "institution",
            "exponent_2",
            "closest",
            "closest_raw",
        )
    ] + [_top10_only()]

    @staticmethod
    def replays(est_rows, act_rows):
        """Each mode scored from shared ledger passes on the columnar form of
        the oracle's panel for its identity, and replayed per event by the
        oracle."""
        ests, acts = estimates_from_rows_oracle(est_rows), actuals_from_rows_oracle(act_rows)
        panels, states, out = {}, {}, {}
        for mode in TestSizeBuckets.MODES:
            if mode.identity not in panels:
                oracle_panel = build_panel_oracle(ests, acts, FilterConfig(min_analysts=2), mode.identity)
                panels[mode.identity] = oracle_panel, columnar_panel(oracle_panel)
            oracle_panel, panel = panels[mode.identity]
            key = (mode.identity, mode.bias_key)
            if key not in states:
                states[key] = ledger_state(panel, mode.bias_key)
            out[mode.label] = (panel, run_mode(states[key], mode), replay_oracle(oracle_panel, mode))
        return out

    @staticmethod
    def assert_same(got, want):
        got = replay_view(got)

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
        full = replay_view(full)
        sizes = {}
        for o in full.outcomes:
            sizes.setdefault(o.quarter_offset, set()).add(o.n_analysts)
        assert any(len(s) > 1 for s in sizes.values())
        assert any(not panel.features[ev.rows, 3].any() for ev in panel_events(panel))
        first = min(sizes)
        assert any(o.fallback_reason == "no_previous_model" and o.quarter_offset > first for o in full.outcomes)
        assert any(o.fallback_reason == "degenerate_weights" for o in outcome_views(results["top10_only"][1]))
        assert len(results["institution"][1].improved)
        _, closest_raw, want = results["closest_raw"]
        ties = split = 0
        for ev, o, w in zip(panel_events(panel), outcome_views(closest_raw), want.outcomes):
            values = panel.value_cents[ev.rows]
            errors = np.abs(values - ev.actual_cents)
            ties += int(np.count_nonzero(errors == errors.min()) > 1)
            split += int(len(set(values[errors == errors.min()].tolist())) > 1)  # tied above and below the actual
            assert w.weights[np.argmin(errors)] == 1.0  # the first of tied analysts
            assert o.improved == values[np.argmin(errors)]
        assert ties > 0 and split > 0

    def test_a_replay_keeps_only_what_an_artifact_reads(self):
        # no per-row weights: the artifacts read each event's consensus and fallback alone
        assert replay.ReplayResult._fields == ("panel", "improved", "fallback_reason", "models")

    def test_bucket_records_are_the_result_columns(self):
        # the fixed panel above; between them its modes take every fallback
        rng = np.random.default_rng(22)
        results = self.replays(*mixed_size_rows(lambda lo, hi: int(rng.integers(lo, hi + 1))))
        reasons = set()
        for mode in self.MODES:
            panel, result, want = results[mode.label]
            self.assert_same(result, want)
            state = ledger_state(panel, mode.bias_key)
            predicted = state.predicted(mode.scaling, mode.variable_mask) if mode.method == "weighted" else None
            for bucket in panel.layout.buckets:
                records = replay.improved_consensus(state, bucket, mode, predicted)
                assert isinstance(records, np.recarray) and records.shape == bucket.order.shape
                # exactly what the result keeps; perfbench's tracer reads the first record's code
                assert records.dtype.names == ("improved", "fallback_reason")
                assert type(records[0].fallback_reason) is np.int8 and records[0].fallback_reason in (0, 1, 2)
                assert records.improved.tobytes() == result.improved[bucket.order].tobytes()
                assert records.fallback_reason.dtype == result.fallback_reason.dtype == np.int8
                assert records.fallback_reason.tolist() == result.fallback_reason[bucket.order].tolist()
            reasons.update(result.fallback_reason.tolist())
            # the oracle's weights, behind each event's improved consensus
            weights = [o.weights for o in want.outcomes]
            weighted = result.fallback_reason == 0
            sums = np.array([w.sum() for w in weights])
            assert sums[weighted].tolist() == pytest.approx([1.0] * int(weighted.sum()), abs=1e-12)
            for ev, w, improved in zip(panel_events(panel), weights, result.improved.tolist()):
                assert improved == pytest.approx(w @ state.adjusted[ev.rows], rel=1e-12)
        assert reasons == {0, 1, 2}

    def test_events_file_names_every_fallback(self, tmp_path):
        # the fixed panel above, whose top10_only replay takes every fallback
        rng = np.random.default_rng(22)
        results = self.replays(*mixed_size_rows(lambda lo, hi: int(rng.integers(lo, hi + 1))))
        panel, result, _ = results["top10_only"]
        path = tmp_path / "events_top10_only.csv"
        _write_events(str(path), result, _event_fields(panel, burn_in=2))
        with open(path, newline="") as fh:
            names = {row["fallback_reason"] for row in csv.DictReader(fh)}
        assert names == {"", "no_previous_model", "degenerate_weights"}
        assert path.read_text() == oracles.events_file(outcome_views(result), burn_in=2)


class TestPreviousCalendarQuarter:
    """An event is weighted by its previous calendar quarter's model alone:
    a quarter with no events has no model, and the quarter after it falls
    back rather than reaching further back."""

    QUARTERS = ((2010, 4), (2011, 1), (2011, 2), (2011, 4))  # none in 2011Q3; 2010Q4's records only seed the ledgers

    def rows(self):
        """Three firms of four analysts and F9 of A0 alone, each quarter."""
        rng = np.random.default_rng(5)
        est_rows, act_rows = [], []
        for year, quarter in self.QUARTERS:
            announce = parse_ts(f"{year}-{3 * quarter - 1:02d}-15T00:00:00Z")
            for firm, members in (("F0", range(4)), ("F1", range(4)), ("F2", range(4)), ("F9", [0])):
                actual = 100 + int(rng.integers(-20, 21))
                act_rows.append((firm, year, quarter, format_ts(announce), actual))
                for i in members:
                    ts = format_ts(announce - int(rng.integers(3, 40)) * 86400)
                    est_rows.append((f"A{i}", f"B{i}", firm, year, quarter, ts, 6, actual + int(rng.integers(-9, 10))))
        return est_rows, act_rows

    def test_only_the_previous_calendar_quarter_model_weights(self):
        est_rows, act_rows = self.rows()
        mode = ModeConfig()
        ests, acts = estimates_from_rows(est_rows), actuals_from_rows(act_rows)
        result, weights = replay_with_weights(ests, acts, FilterConfig(min_analysts=1), mode)
        panel = result.panel
        state = ledger_state(panel, mode.bias_key)
        models = state.models(mode.scaling, mode.variable_mask)
        q1, q2, q4 = (quarter_index((2011, q)) for q in (1, 2, 4))
        assert sorted(models) == [q1, q2, q4]
        qidx = quarter_indices(panel.events.announce_ts)
        sizes = np.diff(panel.bounds)
        # neither 2010Q4 nor 2011Q3 has a model, though 2011Q2 has one
        for q in (q1, q4):
            assert (qidx == q).sum() == 4 and set(result.fallback_reason[qidx == q].tolist()) == {1}
        # 2011Q2's events are weighted from 2011Q1's model, per event
        X, _ = state.rows(mode.scaling)
        in_q2 = np.flatnonzero((qidx == q2) & (sizes > 1))
        assert len(in_q2) == 3 and result.fallback_reason[in_q2].tolist() == [0, 0, 0]
        for j in in_q2:
            rows = slice(panel.bounds[j], panel.bounds[j + 1])
            w = weight_vector(X[rows] @ models[q1].beta, mode.exponent)
            assert result.improved[j] == pytest.approx(w @ state.adjusted[rows] / w.sum(), rel=1e-12)
            assert weights[j] == pytest.approx(w / w.sum(), rel=1e-12)
        # a lone analyst is never below the event's mean predicted error, so
        # its event takes the degenerate fallback: its bias-adjusted estimate
        (lone,) = np.flatnonzero((qidx == q2) & (sizes == 1))
        actual = {(f, y, q): a for f, y, q, _, a in act_rows}
        errors = [v - actual[f, y, q] for a, _, f, y, q, _, _, v in est_rows if (a, f) == ("A0", "F9")]
        assert result.fallback_reason[lone] == 2 and weights[lone].tolist() == [1.0]
        assert result.improved[lone] == actual["F9", 2011, 2] + errors[2] - (errors[0] + errors[1]) / 2


class TestPriorRecord:
    def test_estimate_without_prior_record_cannot_be_scored(self):
        # build_panel drops a first-time estimate, so a panel built by hand
        # brings one to scoring, which has no experience or past error to
        # give it: panel_of's stream is its own kept rows, all at one time
        panel = panel_of([(100, [100] * 8)])
        for mode in (ModeConfig(), ModeConfig(label="no_bias", bias_key=None)):
            with pytest.raises(RuntimeError, match="without prior record reached scoring: A0/F0"):
                replay_mode(panel, mode)
