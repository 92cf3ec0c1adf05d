import gc
import io
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_PANEL_SPEC, actuals_from_rows, estimate_rows, estimates_from_rows, replay_outcome
from estagg.aggregate import ModeConfig
from estagg.ingest import (
    ACTUAL_COLUMNS,
    Actual,
    EstimateTable,
    FilterConfig,
    Reject,
    build_panel,
    cross_check_actuals,
    parse_actuals,
    parse_estimates,
)
from estagg.periods import format_ts, parse_ts
from estagg.replay import run_mode
from estagg.synth import SynthSpec, generate, generate_rows
from oracles import (
    build_panel_oracle,
    columnar_panel,
    estimates_from_rows_oracle,
    parse_estimates_oracle,
    replay_oracle,
)

HEADER = "analyst_id,broker_id,firm_id,period_year,period_quarter,estimate_ts,horizon_code,value_cents\n"

ANNOUNCE = "2011-05-01T00:00:00Z"
ANNOUNCE_TS = parse_ts(ANNOUNCE)
PRIOR_ANNOUNCE = "2011-02-01T00:00:00Z"


def days_before(announce_ts, days):
    return format_ts(announce_ts - days * 86400)


def make_rows(n_analysts=8, values=None, with_prior=True):
    """One target event (2011, Q1->Q2 style) with optional per-analyst
    history, as estimate rows and actuals."""
    values = values or [100] * n_analysts
    est_rows = []
    act_rows = [("F1", 2011, 2, ANNOUNCE, 100)]
    if with_prior:
        act_rows.append(("F1", 2011, 1, PRIOR_ANNOUNCE, 100))
    for i in range(n_analysts):
        a = f"A{i}"
        if with_prior:
            est_rows.append((a, "B1", "F1", 2011, 1, days_before(parse_ts(PRIOR_ANNOUNCE), 10), 6, 100))
        est_rows.append((a, "B1", "F1", 2011, 2, days_before(ANNOUNCE_TS, 10 + i), 6, values[i]))
    return est_rows, actuals_from_rows(act_rows)


def make_inputs(n_analysts=8, values=None, with_prior=True):
    est_rows, acts = make_rows(n_analysts, values, with_prior)
    return estimates_from_rows(est_rows), acts


def target_event(panel):
    for ev in panel.events:
        if ev.period == (2011, 2):
            return ev
    return None


def kept_estimate(panel, ev, identity):
    """The value and the four ledger-free features of one identity's kept
    estimate in an event."""
    i = ev.rows.start + panel.idents[ev.rows].index(identity)
    return int(panel.value_cents[i]), panel.features[i].tolist()


class TestParsing:
    def test_single_valid_row(self):
        src = io.StringIO(HEADER + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n")
        ests, rejects = parse_estimates(src)
        assert len(ests) == 1 and not rejects
        assert estimate_rows(ests) == [("A1", "B1", "F1", 2011, 2, "2011-03-01T00:00:00Z", 6, 105)]

    def test_non_numeric_value_rejected(self):
        src = io.StringIO(HEADER + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,abc\n")
        ests, rejects = parse_estimates(src)
        assert not ests
        assert len(rejects) == 1 and rejects[0].line == 2

    def test_reject_line_counts_skipped_blank_lines(self):
        # the parser skips the blank lines; the reject still names the
        # physical line 5 of the source
        src = io.StringIO(
            HEADER
            + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n\n\n"
            + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,abc\n"
        )
        ests, rejects = parse_estimates(src)
        assert len(ests) == 1
        assert [r.line for r in rejects] == [5]
        assert not src.closed  # a caller's stream stays open

    @pytest.mark.parametrize("quarter", [0, 7])
    def test_out_of_range_quarter_rejected(self, quarter):
        ests, rejects = parse_estimates(
            io.StringIO(
                HEADER
                + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n"
                + f"A1,B1,F1,2011,{quarter},2011-03-01T00:00:00Z,6,105\n"
            )
        )
        assert [(r[3], r[4]) for r in estimate_rows(ests)] == [(2011, 2)]
        assert [r.line for r in rejects] == [3]
        assert rejects[0].reason.startswith("malformed: period_quarter")
        acts, rejects = parse_actuals(
            io.StringIO(
                ",".join(ACTUAL_COLUMNS) + "\n"
                + f"F1,2011,{quarter},2011-06-01T00:00:00Z,100\n"
                + "F1,2011,1,2011-06-01T00:00:00Z,100\n"
            )
        )
        assert [a.period for a in acts] == [(2011, 1)]
        assert [r.line for r in rejects] == [2]
        assert rejects[0].reason.startswith("malformed: period_quarter")

    def test_duplicated_actual_fails_with_both_lines(self):
        # a malformed row for the same firm-period is a reject, not a duplicate
        src = io.StringIO(
            ",".join(ACTUAL_COLUMNS) + "\n"
            + "F1,2011,1,2011-06-01T00:00:00Z,100\n"
            + "F1,2011,2,2011-09-01T00:00:00Z,1.5\n"
            + "F1,2011,2,2011-09-01T00:00:00Z,100\n\n"
            + "F1,2011,2,2011-09-01T00:00:00Z,100\n"
        )
        with pytest.raises(ValueError, match=r"^duplicate actual for \('F1', \(2011, 2\)\) on lines 4 and 6$"):
            parse_actuals(src)

    def test_actual_outside_int64_range_rejected(self):
        big = 10**20
        acts, rejects = parse_actuals(
            io.StringIO(
                ",".join(ACTUAL_COLUMNS) + "\n"
                + "F1,2011,1,2011-06-01T00:00:00Z,100\n"
                + f"F1,2011,2,2011-09-01T00:00:00Z,{big}\n"
                + f"F1,2011,3,2011-12-01T00:00:00Z,{-big}\n"
                + f"F1,{big},2,2011-09-01T00:00:00Z,100\n"
                + f"F1,2011,4,2012-03-01T00:00:00Z,{2**63 - 1}\n"
            )
        )
        assert [(a.period, a.value_cents) for a in acts] == [((2011, 1), 100), ((2011, 4), 2**63 - 1)]
        assert rejects == [
            Reject(3, f"malformed: value_cents {big} outside the int64 range"),
            Reject(4, f"malformed: value_cents {-big} outside the int64 range"),
            Reject(5, f"malformed: period_year {big} outside the int64 range"),
        ]

    def test_parsers_close_the_files_they_open(self, tmp_path, monkeypatch):
        paths = generate(SynthSpec(n_firms=2, n_analysts=10, n_quarters=2, seed=3), str(tmp_path))
        # a ResourceWarning raised as an error in a finalizer is unraisable,
        # so collect those instead of letting them print
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        bad_header = tmp_path / "bad_header.csv"
        bad_header.write_text("foo,bar\n1,2\n")
        bad_row = tmp_path / "bad_row.csv"
        bad_row.write_text(HEADER + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,abc\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            table, _ = parse_estimates(paths["estimates"])
            assert isinstance(table, EstimateTable) and len(table) == 2 * 2 * 8
            assert parse_estimates(str(bad_row))[1][0].line == 2
            with pytest.raises(ValueError):
                parse_estimates(str(bad_header))
            parse_actuals(paths["actuals"])
            gc.collect()
        assert [u.exc_value for u in unraisable] == []

    def test_missing_header_is_hard_failure(self):
        with pytest.raises(ValueError):
            parse_estimates(io.StringIO("foo,bar\n1,2\n"))

    def test_synth_file_row_count(self, tmp_path):
        # the generator emits exactly firms * quarters * analysts_per_event rows
        spec = SynthSpec(n_firms=5, n_analysts=20, n_quarters=10, analysts_per_event=20, seed=3)
        paths = generate(spec, str(tmp_path))
        ests, rejects = parse_estimates(paths["estimates"])
        assert len(ests) == 5 * 10 * 20
        assert not rejects
        acts, rejects = parse_actuals(paths["actuals"])
        assert len(acts) == 5 * 10
        assert not rejects


class TestCrossCheck:
    def test_matching_kept(self):
        a = Actual("F", (2011, 1), 0, 100)
        assert cross_check_actuals([a], [a]) == [a]

    def test_mismatch_discarded(self):
        a = Actual("F", (2011, 1), 0, 100)
        b = Actual("F", (2011, 1), 0, 101)
        assert cross_check_actuals([a], [b]) == []

    def test_missing_secondary_discarded(self):
        a = Actual("F", (2011, 1), 0, 100)
        assert cross_check_actuals([a], []) == []


class TestFilters:
    def test_seven_analysts_dropped_eight_kept(self):
        ests, acts = make_inputs(n_analysts=7)
        panel = build_panel(ests, acts, FilterConfig())
        assert target_event(panel) is None
        assert panel.report.rejects["below_min_analysts"] == 7

        ests, acts = make_inputs(n_analysts=8)
        panel = build_panel(ests, acts, FilterConfig())
        assert target_event(panel) is not None

    def test_surprise_cap(self):
        # consensus 151 vs actual 100 -> |surprise| 51 > 50 -> dropped
        ests, acts = make_inputs(values=[151] * 8)
        panel = build_panel(ests, acts, FilterConfig())
        assert target_event(panel) is None
        assert panel.report.rejects["surprise_cap"] == 8
        # exactly 50 is kept
        ests, acts = make_inputs(values=[150] * 8)
        panel = build_panel(ests, acts, FilterConfig())
        assert target_event(panel) is not None

    def test_lead_time_window(self):
        ests, acts = make_rows(n_analysts=8)
        late = [("A0", "B1", "F1", 2011, 2, days_before(ANNOUNCE_TS, 1), 6, 100)]
        panel = build_panel(estimates_from_rows(ests + late), acts, FilterConfig())
        # the 24h estimate is rejected, so A0's 10-day estimate still stands
        assert panel.report.rejects["too_close_to_announcement"] == 1
        ev = target_event(panel)
        assert len(panel.idents[ev.rows]) == 8

    def test_stale_estimate_dropped(self):
        ests, acts = make_rows(n_analysts=8)
        stale = [("A9", "B1", "F1", 2011, 2, days_before(ANNOUNCE_TS, 400), 6, 100)]
        panel = build_panel(estimates_from_rows(ests + stale), acts, FilterConfig())
        assert panel.report.rejects["too_old"] == 1

    def test_horizon_code_filter(self):
        ests, acts = make_rows(n_analysts=8)
        bad = [("A9", "B1", "F1", 2011, 2, days_before(ANNOUNCE_TS, 20), 1, 100)]
        panel = build_panel(estimates_from_rows(ests + bad), acts, FilterConfig())
        assert panel.report.rejects["horizon_excluded"] == 1

    def test_last_estimate_wins_with_input_order_tie(self):
        ests, acts = make_rows(n_analysts=8)
        ts = days_before(ANNOUNCE_TS, 30)
        extra = [
            ("A0", "B1", "F1", 2011, 2, ts, 6, 111),
            ("A0", "B1", "F1", 2011, 2, ts, 6, 112),  # same timestamp, later row wins
        ]
        # the original A0 estimate is 10 days out, i.e. later than these
        panel = build_panel(estimates_from_rows(extra + ests), acts, FilterConfig())
        value, (age, freq, _, _) = kept_estimate(panel, target_event(panel), "A0")
        assert value == 100 and age == 10.0  # latest timestamp still wins
        assert freq == 3  # superseded submissions count toward frequency

        # drop the 10-day estimate so the tie decides
        ests_no_a0_target = [r for r in ests if not (r[0] == "A0" and (r[3], r[4]) == (2011, 2))]
        panel = build_panel(estimates_from_rows(extra + ests_no_a0_target), acts, FilterConfig())
        value, (age, *_) = kept_estimate(panel, target_event(panel), "A0")
        assert value == 112 and age == 30.0

    def test_no_prior_record_dropped(self):
        ests, acts = make_inputs(n_analysts=9, with_prior=False)
        panel = build_panel(ests, acts, FilterConfig())
        assert target_event(panel) is None
        assert panel.report.rejects["no_prior_record"] == 9
        # but the predictions still enter the ledger stream as history
        assert len(panel.stream) == 9


class TestPanelProperties:
    def test_every_estimate_accounted_once(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        assert panel.report.kept + sum(panel.report.rejects.values()) == len(ests)

    def test_deterministic_output(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        p1 = build_panel(ests, acts, FilterConfig())
        p2 = build_panel(ests, acts, FilterConfig())
        assert p1.events == p2.events
        assert p1.idents == p2.idents and p1.analysts == p2.analysts
        assert p1.value_cents.tolist() == p2.value_cents.tolist()
        assert p1.features.tobytes() == p2.features.tobytes()
        assert p1.stream == p2.stream

    def test_events_sorted_by_announce_then_firm(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        keys = [(e.announce_ts, e.firm_id) for e in panel.events]
        assert keys == sorted(keys)

    def test_idempotent_without_history_rule(self, small_panel_inputs):
        # the prior-record rule consumes history, so idempotence is checked
        # with it off: re-feeding the kept estimates reproduces the events
        ests, acts, _ = small_panel_inputs
        cfg = FilterConfig(require_prior_record=False)
        p1 = build_panel(ests, acts, cfg)
        # the panel keeps no broker, and its age column gives back each
        # estimate's timestamp
        refed = [
            (analyst, "B1", ev.firm_id, *ev.period, format_ts(ev.announce_ts - round(age * 86400)), 6, value)
            for ev in p1.events
            for analyst, value, age in zip(
                p1.analysts[ev.rows], p1.value_cents[ev.rows].tolist(), p1.features[ev.rows, 0].tolist()
            )
        ]
        p2 = build_panel(estimates_from_rows(refed), acts, cfg)
        assert [(e.firm_id, e.period) for e in p2.events] == [
            (e.firm_id, e.period) for e in p1.events
        ]
        for e1, e2 in zip(p1.events, p2.events):
            assert p1.value_cents[e1.rows].tolist() == p2.value_cents[e2.rows].tolist()

    def test_duplicate_actual_rejected(self):
        acts = actuals_from_rows(
            [("F1", 2011, 2, ANNOUNCE, 100), ("F1", 2011, 2, ANNOUNCE, 101)]
        )
        with pytest.raises(ValueError):
            build_panel(estimates_from_rows([]), acts, FilterConfig())


# one mode per ledger key kind: bias per identity-firm, no bias, the blend
REPLAY_MODES = (ModeConfig(), ModeConfig(label="no_bias", use_bias=False), ModeConfig(label="bias_half", bias_key="half"))


def assert_same_panel(rows, oracle_ests, acts, cfg, identity):
    """The columnar build_panel equals the per-row oracle on every output,
    and replays as the per-event oracle replays the oracle's panel."""
    got = build_panel(rows, acts, cfg, identity)
    oracle = build_panel_oracle(oracle_ests, acts, cfg, identity)
    want = columnar_panel(oracle)
    assert got.events == want.events
    assert got.idents == want.idents
    assert got.analysts == want.analysts
    assert got.value_cents.dtype == want.value_cents.dtype == np.int64
    assert got.value_cents.tolist() == want.value_cents.tolist()
    # bit for bit, in the same layout
    assert got.features.dtype == want.features.dtype == np.float64
    assert got.features.shape == want.features.shape
    assert got.features.flags.c_contiguous
    assert got.features.tobytes() == want.features.tobytes()
    assert got.stream == want.stream
    assert got.report.total == want.report.total
    assert got.report.kept == want.report.kept
    # the exact keys, so a reason counted as 0 is kept or left out alike
    assert dict(got.report.rejects) == dict(want.report.rejects)
    for mode in REPLAY_MODES:
        assert replay_outcome(run_mode, got, mode) == replay_outcome(replay_oracle, oracle, mode)


def revision_rows(est_rows, act_rows, seed):
    """Every estimate plus shuffled revisions: earlier and tied-timestamp
    duplicates of its (analyst, firm, period), excluded horizons, and rows
    too old or too close to the announcement."""
    rng = np.random.default_rng(seed)
    announce = {(f, y, q): parse_ts(ts) for f, y, q, ts, _ in act_rows}
    rows = list(est_rows)
    for analyst, broker, firm, year, quarter, ts_text, code, value in est_rows:
        ts, ann = parse_ts(ts_text), announce[(firm, year, quarter)]
        head = (analyst, broker, firm, year, quarter)
        for _ in range(int(rng.integers(0, 3))):
            earlier = format_ts(ts - int(rng.integers(1, 400)) * 3600)
            rows.append(head + (earlier, code, value + int(rng.integers(-9, 10))))
        if rng.random() < 0.3:
            rows.append(head + (ts_text, code, value + 1))  # a tie on estimate_ts
        if rng.random() < 0.2:
            rows.append(head + (ts_text, 1, value))
        if rng.random() < 0.2:
            rows.append(head + (format_ts(ann - 400 * 86400), code, value))
        if rng.random() < 0.2:
            rows.append(head + (format_ts(ann - int(rng.integers(0, 47)) * 3600), code, value))
        if rng.random() < 0.05:
            rows.append((analyst, broker, firm, year + 30, quarter, ts_text, code, value))  # no actual
    return [rows[i] for i in rng.permutation(len(rows))]


CUTOFFS = [48, 720, 1440]


class TestColumnarMatchesOracle:
    """build_panel and parse_estimates against the per-row implementations
    they replaced, kept in tests/oracles.py, and run_mode on the columnar
    panel against the per-event replay of the oracle's object panel."""

    @pytest.mark.parametrize("identity", ["analyst", "broker"])
    @pytest.mark.parametrize("min_lead_hours", CUTOFFS)
    def test_small_panel(self, identity, min_lead_hours):
        est_rows, act_rows, _ = generate_rows(SMALL_PANEL_SPEC)
        assert_same_panel(
            estimates_from_rows(est_rows),
            estimates_from_rows_oracle(est_rows),
            actuals_from_rows(act_rows),
            FilterConfig(min_lead_hours=min_lead_hours),
            identity,
        )

    @pytest.mark.parametrize("min_lead_hours", CUTOFFS)
    def test_small_broker_panel_with_scored_events(self, min_lead_hours):
        # the default 8-analyst minimum leaves the broker panels above empty
        est_rows, act_rows, _ = generate_rows(SMALL_PANEL_SPEC)
        cfg = FilterConfig(min_lead_hours=min_lead_hours, min_analysts=3)
        ests = estimates_from_rows(est_rows)
        assert build_panel(ests, actuals_from_rows(act_rows), cfg, "broker").events
        assert_same_panel(ests, estimates_from_rows_oracle(est_rows), actuals_from_rows(act_rows), cfg, "broker")

    @pytest.mark.parametrize("identity", ["analyst", "broker"])
    @pytest.mark.parametrize("min_lead_hours", CUTOFFS)
    def test_shuffled_revision_panel(self, identity, min_lead_hours):
        est_rows, act_rows, _ = generate_rows(SMALL_PANEL_SPEC)
        rows = revision_rows(est_rows, act_rows, seed=min_lead_hours)
        for require in (True, False):
            cfg = FilterConfig(min_lead_hours=min_lead_hours, require_prior_record=require)
            assert_same_panel(
                estimates_from_rows(rows), estimates_from_rows_oracle(rows), actuals_from_rows(act_rows), cfg, identity
            )

    def test_csv_edge_cases(self):
        header = (
            "note,value_cents,horizon_code,estimate_ts,period_quarter,period_year,"
            "firm_id,broker_id,analyst_id,extra\n"
        )
        text = header + "".join(
            [
                "x,100,6,2011-03-01T00:00:00Z,2,2011,F1,B1,A1,\n",  # line 2
                "\n",
                "x,101,6,2011-03-01T03:00:00+05:00,2,2011,F1,B1,A2\n",  # short by an unread column
                "x,102,6,2011-03-01T00:00:00,2,2011,F1,B2,A3,,,\n",  # naive, long row
                "x,103,6,2011-03-02,2,2011,F1,B2,A4,\n",  # date only
                "x,12.5,6,2011-03-01T00:00:00Z,2,2011,F1,B1,A5,\n",  # line 7: non-integer cents
                "x,abc,6,2011-03-01T00:00:00Z,2,2011,F1,B1,A6,\n",
                "x,104,6,2011-03-01T00:00:00Z,2\n",  # line 9: short
                "\n",
                "x,105,6,2011-02-30T00:00:00Z,2,2011,F1,B1,A7,\n",  # line 11: no such day
                "x,106,6,0000-03-01T00:00:00Z,2,2011,F1,B1,A8,\n",  # year 0
                "x,107,6,2011-03-01T00:00:00Z,5,2011,F1,B1,A9,\n",  # line 13: quarter
                "x,108,x6,2011-03-01T00:00:00Z,2,2011,F1,B1,A10,\n",
                "x,109,6,2011-03-01T00:00:00Zjunk,2,2011,F1,B1,A11,\n",
                "x,110,7,2011-03-01T00:00:00.5Z,2,2011,F2,B1,A1,\n",
                ' x,"111",6,2011-03-01T00:00:00Z, 2 ,2011,F2,B1,A1\n',
                "x,abc,x6,junk,5,20x1,F1,B1,A13,\n",  # line 18, every field bad: the quarter is named
                "x,abc,x6,junk,2,20x1,F1,B1,A14,\n",  # then the year
            ]
        )
        table, rejects = parse_estimates(io.StringIO(text))
        ests, oracle_rejects = parse_estimates_oracle(io.StringIO(text))
        assert [r.line for r in rejects] == [r.line for r in oracle_rejects] == [7, 8, 9, 11, 12, 13, 14, 15, 18, 19]
        assert rejects[2].reason == "malformed: 5 fields, the header needs 9"
        # every other reason is the per-row parser's
        assert [r for r in rejects if r.line != 9] == [r for r in oracle_rejects if r.line != 9]
        assert estimate_rows(table) == [
            (e.analyst_id, e.broker_id, e.firm_id, *e.period, format_ts(e.estimate_ts), e.horizon_code, e.value_cents)
            for e in ests
        ]
        acts = actuals_from_rows([(firm, 2011, 2, "2011-04-20T00:00:00Z", 100) for firm in ("F1", "F2")])
        assert_same_panel(table, ests, acts, FilterConfig(min_analysts=1, require_prior_record=False), "analyst")

    @pytest.mark.parametrize(
        "ts",
        [
            "0000-03-01T00:00:00Z",  # datetime64 reads year 0
            "2011-03-01T00:00:00Z\x00junk",  # 20 characters up to the NUL
        ],
    )
    def test_fast_path_look_alike_rejected_in_a_chunk_of_valid_rows(self, ts):
        # texts the datetime64 path could read but parse_ts refuses
        text = HEADER + f"A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,100\nA1,B1,F1,2011,2,{ts},6,100\n"
        table, rejects = parse_estimates(io.StringIO(text))
        assert len(table) == 1
        assert [r.line for r in rejects] == [3]
        assert rejects == parse_estimates_oracle(io.StringIO(text))[1]

    def test_rows_across_conversion_chunks(self):
        # ids seen in one chunk keep their code in the next, and a bad row
        # past the first chunk is named by its physical line
        rows = [
            f"A{i % 97},B{i % 13},F{i % 7},2011,{i % 4 + 1},2011-03-01T{i % 24:02d}:00:00Z,6,{100 + i % 9}\n"
            for i in range(40000)
        ]
        rows[30000] = "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,1e3\n"
        rows[35000] = "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,99999999999999999999\n"
        text = HEADER + "".join(rows)
        table, rejects = parse_estimates(io.StringIO(text))
        ests, oracle_rejects = parse_estimates_oracle(io.StringIO(text))
        assert [r.line for r in rejects] == [30002, 35002]
        assert rejects[0] == oracle_rejects[0]
        assert rejects[1].reason == "malformed: value_cents 99999999999999999999 outside the int64 range"
        assert estimate_rows(table) == [
            (e.analyst_id, e.broker_id, e.firm_id, *e.period, format_ts(e.estimate_ts), e.horizon_code, e.value_cents)
            for e in ests
            if e.value_cents < 2**63
        ]

    def test_row_short_of_an_id_column_rejected(self):
        # the per-row parser took a missing id as None; the row is rejected
        text = "period_year,period_quarter,estimate_ts,horizon_code,value_cents,firm_id,broker_id,analyst_id\n"
        text += "2011,2,2011-03-01T00:00:00Z,6,100,F1,B1\n"
        assert parse_estimates_oracle(io.StringIO(text))[0][0].analyst_id is None
        table, rejects = parse_estimates(io.StringIO(text))
        assert len(table) == 0
        assert rejects == [Reject(2, "malformed: 7 fields, the header needs 8")]

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 3),  # analyst
                st.integers(0, 2),  # broker
                st.integers(0, 1),  # firm
                st.sampled_from([(2011, 1), (2011, 2), (2011, 3), (2012, 1)]),
                st.sampled_from([240, 2000, 60, 720, 24, -30, 9000]),  # hours before the base date
                st.sampled_from([6, 7, 1]),
                st.integers(95, 105),
            ),
            min_size=10,
            max_size=100,
        ),
        shifts=st.lists(st.sampled_from([0, 24, None]), min_size=8, max_size=8),
        min_analysts=st.integers(1, 3),
        cap=st.sampled_from([50, 2]),
        min_lead_hours=st.sampled_from([48, 720, 0]),
        require=st.booleans(),
        identity=st.sampled_from(["analyst", "broker"]),
    )
    def test_random_panels(self, rows, shifts, min_analysts, cap, min_lead_hours, require, identity):
        periods = [(2011, 1), (2011, 2), (2011, 3), (2012, 1)]
        base = {p: parse_ts(f"{p[0]}-{3 * p[1] + 1:02d}-15T00:00:00Z") for p in periods}
        # an actual per (firm, period) unless its shift is None; equal
        # shifts give simultaneous announcements across firms
        act_rows = [
            (f"F{f}", *p, format_ts(base[p] + shift * 3600), 100)
            for (f, p), shift in zip(((f, p) for f in range(2) for p in periods), shifts)
            if shift is not None
        ]
        est_rows = [
            (f"A{a}", f"B{b}", f"F{f}", *p, format_ts(base[p] - hours * 3600), code, value)
            for a, b, f, p, hours, code, value in rows
        ]
        cfg = FilterConfig(
            min_analysts=min_analysts,
            surprise_cap_cents=cap,
            min_lead_hours=min_lead_hours,
            require_prior_record=require,
        )
        acts = actuals_from_rows(act_rows)
        assert_same_panel(estimates_from_rows(est_rows), estimates_from_rows_oracle(est_rows), acts, cfg, identity)
