import codecs
import csv
import gc
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_PANEL_SPEC,
    actual_rows,
    actuals_from_rows,
    constant_bias_panel,
    estimate_rows,
    estimates_from_rows,
    replay_mode,
    replay_outcome,
    stream_rows,
)
from estagg import ingest
from estagg.aggregate import ModeConfig
from estagg.ingest import (
    _CHUNK_ROWS,
    ACTUAL_COLUMNS,
    ID,
    INT64,
    QUARTER,
    TIMESTAMP,
    ActualTable,
    EstimateTable,
    FilterConfig,
    Reject,
    build_panel,
    cross_check_actuals,
    parse_actuals,
    parse_estimates,
    read_lines,
)
from estagg.periods import format_ts, parse_ts
from estagg.synth import SynthSpec, generate, generate_rows
from oracles import (
    actuals_from_rows_oracle,
    build_panel_oracle,
    columnar_panel,
    cross_check_actuals_oracle,
    dedup_oracle,
    estimates_from_rows_oracle,
    first_equal_oracle,
    lookup_oracle,
    panel_analysts,
    panel_events,
    panel_idents,
    parse_actuals_oracle,
    parse_estimates_oracle,
    replay_oracle,
    stream_order_oracle,
)

HEADER = "analyst_id,broker_id,firm_id,period_year,period_quarter,estimate_ts,horizon_code,value_cents\n"

ANNOUNCE = "2011-05-01T00:00:00Z"
ANNOUNCE_TS = parse_ts(ANNOUNCE)
PRIOR_ANNOUNCE = "2011-02-01T00:00:00Z"


def with_quotes(text, quoted):
    """The text with its one quoted field, or with that field's quotes
    dropped, which leaves every row's fields as they were."""
    assert text.count('"') == 2
    return text if quoted else text.replace('"', "")


def written(directory, text, name="input.csv"):
    """The path, as a str, of a file in `directory` holding the UTF-8 text,
    its line ends as given."""
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


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
    for ev in panel_events(panel):
        if ev.period == (2011, 2):
            return ev
    return None


def kept_estimate(panel, ev, identity):
    """The value and the four ledger-free features of one identity's kept
    estimate in an event."""
    i = ev.rows.start + panel_idents(panel)[ev.rows].index(identity)
    return int(panel.value_cents[i]), panel.features[i].tolist()


class TestParsing:
    def test_single_valid_row(self, tmp_path):
        ests, rejects = parse_estimates(written(tmp_path, HEADER + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n"))
        assert len(ests) == 1 and not rejects
        assert estimate_rows(ests) == [("A1", "B1", "F1", 2011, 2, "2011-03-01T00:00:00Z", 6, 105)]

    def test_non_numeric_value_rejected(self, tmp_path):
        ests, rejects = parse_estimates(written(tmp_path, HEADER + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,abc\n"))
        assert not ests
        assert len(rejects) == 1 and rejects[0].line == 2

    def test_reject_line_counts_skipped_blank_lines(self, tmp_path):
        # the parser skips the blank lines; the reject still names the
        # physical line 5 of the source
        text = (
            HEADER
            + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n\n\n"
            + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,abc\n"
        )
        ests, rejects = parse_estimates(written(tmp_path, text))
        assert len(ests) == 1
        assert [r.line for r in rejects] == [5]

    @pytest.mark.parametrize("quarter", [0, 7, 2**63])
    def test_out_of_range_quarter_rejected(self, tmp_path, quarter):
        ests, rejects = parse_estimates(
            written(
                tmp_path,
                HEADER
                + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n"
                + f"A1,B1,F1,2011,{quarter},2011-03-01T00:00:00Z,6,105\n",
            )
        )
        assert [(r[3], r[4]) for r in estimate_rows(ests)] == [(2011, 2)]
        assert [r.line for r in rejects] == [3]
        assert rejects[0].reason.startswith("malformed: period_quarter")
        acts, rejects = parse_actuals(
            written(
                tmp_path,
                ",".join(ACTUAL_COLUMNS) + "\n"
                + f"F1,2011,{quarter},2011-06-01T00:00:00Z,100\n"
                + "F1,2011,1,2011-06-01T00:00:00Z,100\n",
            )
        )
        assert [(r[1], r[2]) for r in actual_rows(acts)] == [(2011, 1)]
        assert [r.line for r in rejects] == [2]
        assert rejects[0].reason.startswith("malformed: period_quarter")

    def test_duplicated_actual_fails_with_both_lines(self, tmp_path):
        # a malformed row for the same firm-period is a reject, not a
        # duplicate; the first repeated row is named, as the per-row parser
        # names it
        text = (
            ",".join(ACTUAL_COLUMNS) + "\n"
            + "F1,2011,1,2011-06-01T00:00:00Z,100\n"
            + "F1,2011,2,2011-09-01T00:00:00Z,1.5\n"
            + "F1,2011,2,2011-09-01T00:00:00Z,100\n\n"
            + "F1,2011,2,2011-09-01T00:00:00Z,100\n"
            + "F1,2011,1,2011-06-01T00:00:00Z,100\n"
        )
        path = written(tmp_path, text)
        error = rf"^{path}: duplicate actual for \('F1', \(2011, 2\)\) on lines 4 and 6$"
        for parse in (parse_actuals, parse_actuals_oracle):
            with pytest.raises(ValueError, match=error):
                parse(path)

    def test_actual_outside_int64_range_rejected(self, tmp_path):
        big = 10**20
        acts, rejects = parse_actuals(
            written(
                tmp_path,
                ",".join(ACTUAL_COLUMNS) + "\n"
                + "F1,2011,1,2011-06-01T00:00:00Z,100\n"
                + f"F1,2011,2,2011-09-01T00:00:00Z,{big}\n"
                + f"F1,2011,3,2011-12-01T00:00:00Z,{-big}\n"
                + f"F1,{big},2,2011-09-01T00:00:00Z,100\n"
                + f"F1,2011,4,2012-03-01T00:00:00Z,{2**63 - 1}\n",
            )
        )
        assert [((r[1], r[2]), r[4]) for r in actual_rows(acts)] == [((2011, 1), 100), ((2011, 4), 2**63 - 1)]
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
            assert isinstance(parse_actuals(paths["actuals"])[0], ActualTable)
            gc.collect()
        assert [u.exc_value for u in unraisable] == []

    def test_missing_header_is_hard_failure(self, tmp_path):
        with pytest.raises(ValueError):
            parse_estimates(written(tmp_path, "foo,bar\n1,2\n"))

    def test_path_like_source(self, tmp_path):
        # a pathlib.Path parses as its str, and its errors name it
        path = tmp_path / "estimates.csv"
        path.write_text(HEADER + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\nA2,B1,F1,2011,2,junk,6,105\n")
        table, rejects = parse_estimates(path)
        want_table, want_rejects = parse_estimates(str(path))
        assert table_state(table) == table_state(want_table) and len(table) == 1
        assert rejects == want_rejects == [Reject(3, "malformed: Invalid isoformat string: 'junk'")]
        path.write_bytes(HEADER.encode() + b"\xffA1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n")
        with pytest.raises(ValueError, match=rf"^{path}: line 2: undecodable byte 0xff;"):
            parse_estimates(path)
        path = tmp_path / "actuals.csv"
        path.write_text(",".join(ACTUAL_COLUMNS) + "\n" + "F1,2011,1,2011-06-01T00:00:00Z,100\n" * 2)
        with pytest.raises(ValueError, match=rf"^{path}: duplicate actual for \('F1', \(2011, 1\)\) on lines 2 and 3"):
            parse_actuals(path)

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


def cross_checked(primary, secondary):
    """The rows of primary that cross_check_actuals keeps, both given as
    actual rows."""
    return actual_rows(cross_check_actuals(actuals_from_rows(primary), actuals_from_rows(secondary)))


class TestCrossCheck:
    A = ("F", 2011, 1, "2011-04-01T00:00:00Z", 100)

    def test_matching_kept(self):
        assert cross_checked([self.A], [self.A]) == [self.A]

    def test_mismatch_discarded(self):
        assert cross_checked([self.A], [self.A[:-1] + (101,)]) == []

    def test_missing_secondary_discarded(self):
        assert cross_checked([self.A], []) == []

    @settings(max_examples=100, deadline=None)
    @given(
        primary=st.dictionaries(
            st.tuples(st.sampled_from(["F0", "F1", "F2"]), st.sampled_from([1999, 2011]), st.integers(1, 4)),
            st.tuples(st.integers(0, 3), st.integers(99, 101)),
            max_size=24,
        ),
        secondary=st.dictionaries(
            st.tuples(st.sampled_from(["F1", "F2", "F3"]), st.sampled_from([1999, 2011]), st.integers(1, 4)),
            st.tuples(st.integers(0, 3), st.integers(99, 101)),
            max_size=24,
        ),
    )
    def test_matches_dict_oracle(self, primary, secondary):
        # the two sources intern different firm sets, and a check row's
        # announcement time does not matter
        def rows(actuals):
            return [(f, y, q, format_ts(ANNOUNCE_TS + day * 86400), v) for (f, y, q), (day, v) in actuals.items()]

        primary, secondary = rows(primary), rows(secondary)
        table = actuals_from_rows(primary)
        kept = cross_check_actuals(table, actuals_from_rows(secondary))
        want = cross_check_actuals_oracle(actuals_from_rows_oracle(primary), actuals_from_rows_oracle(secondary))
        assert actual_rows(kept) == [(a.firm_id, *a.period, format_ts(a.announce_ts), a.value_cents) for a in want]
        assert kept.firm_ids == table.firm_ids
        assert len(table) - len(kept) == len(primary) - len(want)


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
        assert len(panel_idents(panel)[ev.rows]) == 8

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
        assert len(panel.stream.announce_ts) == 9


class TestExactnessGuard:
    # four quarters of eight analysts whose first misses by `offset` cents:
    # the stream's absolute errors sum to 4 * offset
    def test_sum_just_below_2_53_builds(self):
        panel = build_panel(*constant_bias_panel([2**51 - 1] + [0] * 7), FilterConfig())
        assert int(np.abs(panel.stream.error_cents).sum()) == 2**53 - 4

    def test_sum_reaching_2_53_fails_naming_the_record(self):
        with pytest.raises(ValueError, match=r"reach 2\*\*53 cents at firm F1 period 2011Q4"):
            build_panel(*constant_bias_panel([2**51] + [0] * 7), FilterConfig())

    # at the int64 edges: each first analyst's estimate is actual + offset
    @pytest.mark.parametrize(
        "offset, actual",
        [
            (2**64 - 2, -(2**63) + 1),  # 2**63 - 1 minus -2**63 + 1 wraps int64 to -2
            (-(2**64) + 2, 2**63 - 1),  # -2**63 + 1 minus 2**63 - 1 wraps to 2
            (-(2**63), 0),  # exactly -2**63, whose int64 abs is itself
        ],
        ids=["wraps_to_minus_2", "wraps_to_2", "minus_2_63"],
    )
    def test_error_past_int64_fails_at_its_first_record(self, offset, actual):
        with pytest.raises(ValueError, match=r"reach 2\*\*53 cents at firm F1 period 2011Q1"):
            build_panel(*constant_bias_panel([offset] + [0] * 7, actual=actual), FilterConfig())

    @pytest.mark.parametrize("actual", [2**63 - 8, -(2**63) + 8])
    def test_huge_but_close_values_build_exactly(self, actual):
        ests, acts = constant_bias_panel([-7, 7, -3, 0, 5, 1, -1, 2], actual=actual)
        panel = build_panel(ests, acts, FilterConfig())
        assert len(panel.events) == 3
        oracle = build_panel_oracle(
            estimates_from_rows_oracle(estimate_rows(ests)), actuals_from_rows_oracle(actual_rows(acts)), FilterConfig()
        )
        assert panel.stream.error_cents.tolist() == [r.value_cents - r.actual_cents for r in oracle.stream]


class TestPanelProperties:
    def test_every_estimate_accounted_once(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        assert panel.report.kept + sum(panel.report.rejects.values()) == len(ests)

    def test_deterministic_output(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        p1 = build_panel(ests, acts, FilterConfig())
        p2 = build_panel(ests, acts, FilterConfig())
        assert panel_events(p1) == panel_events(p2)
        assert p1.bounds.tolist() == p2.bounds.tolist()
        assert panel_idents(p1) == panel_idents(p2) and panel_analysts(p1) == panel_analysts(p2)
        assert p1.value_cents.tolist() == p2.value_cents.tolist()
        assert p1.features.tobytes() == p2.features.tobytes()
        assert stream_rows(p1) == stream_rows(p2)
        assert p1.records.tolist() == p2.records.tolist()

    def test_events_sorted_by_announce_then_firm(self, small_panel_inputs):
        ests, acts, _ = small_panel_inputs
        panel = build_panel(ests, acts, FilterConfig())
        keys = [(e.announce_ts, e.firm_id) for e in panel_events(panel)]
        assert keys == sorted(keys)

    def test_idempotent_on_its_stream(self, small_panel_inputs):
        # re-feeding a panel's stream, one estimate per record, reproduces
        # the stream, so the prior-record rule reads the same history, and
        # with it the kept estimates and events; a kept record's age column
        # gives back its timestamp, and any other record is 10 days out
        ests, acts, _ = small_panel_inputs
        p1 = build_panel(ests, acts, FilterConfig())
        columns = (acts.firm, acts.year, acts.quarter, acts.announce_ts, acts.value_cents)
        event = {(acts.firm_ids[f], ts): (y, q, v) for f, y, q, ts, v in zip(*(c.tolist() for c in columns))}
        assert len(event) == len(acts)
        age = dict(zip(p1.records.tolist(), p1.features[:, 0].tolist()))
        refed = []
        for i, (ts, analyst, firm, error) in enumerate(stream_rows(p1)):
            year, quarter, actual = event[firm, ts]
            estimate_ts = format_ts(ts - round(age.get(i, 10.0) * 86400))
            refed.append((analyst, "B1", firm, year, quarter, estimate_ts, 6, actual + error))
        p2 = build_panel(estimates_from_rows(refed), acts, FilterConfig())
        assert stream_rows(p2) == stream_rows(p1)
        assert p2.records.tolist() == p1.records.tolist()
        assert panel_events(p2) == panel_events(p1)
        assert p2.value_cents.tolist() == p1.value_cents.tolist()
        assert p1.report.rejects["no_prior_record"] > 0
        for reason in ("no_prior_record", "surprise_cap", "below_min_analysts"):
            assert p2.report.rejects[reason] == p1.report.rejects[reason]


# one mode per ledger key kind: bias per identity-firm, no bias, the blend
REPLAY_MODES = (ModeConfig(), ModeConfig(label="no_bias", bias_key=None), ModeConfig(label="bias_half", bias_key="half"))


def assert_same_panel(rows, oracle_ests, act_rows, cfg, identity):
    """The columnar build_panel equals the per-row oracle on every output,
    and replays as the per-event oracle replays the oracle's panel."""
    got = build_panel(rows, actuals_from_rows(act_rows), cfg, identity)
    oracle = build_panel_oracle(oracle_ests, actuals_from_rows_oracle(act_rows), cfg, identity)
    assert_panel_equals(got, columnar_panel(oracle))
    for mode in REPLAY_MODES:
        assert replay_outcome(replay_mode, got, mode) == replay_outcome(replay_oracle, oracle, mode)


def assert_panel_equals(got, want):
    """Every output of build_panel equal to the oracle's columnar panel."""
    assert all(c.dtype == np.int64 for c in (got.events.firm, got.events.announce_ts, got.bounds))
    assert panel_events(got) == panel_events(want)
    assert panel_idents(got) == panel_idents(want)
    assert panel_analysts(got) == panel_analysts(want)
    assert got.analyst.dtype == np.int64
    assert got.value_cents.dtype == want.value_cents.dtype == np.int64
    assert got.value_cents.tolist() == want.value_cents.tolist()
    # bit for bit, in the same layout
    assert got.features.dtype == want.features.dtype == np.float64
    assert got.features.shape == want.features.shape
    assert got.features.flags.c_contiguous
    assert got.features.tobytes() == want.features.tobytes()
    assert all(c.dtype == np.int64 for c in (got.stream.announce_ts, got.stream.ident, got.stream.firm))
    assert got.stream.error_cents.dtype == np.int64
    assert stream_rows(got) == stream_rows(want)
    assert got.records.tolist() == want.records.tolist()
    assert got.report.total == want.report.total
    assert got.report.kept == want.report.kept
    # the exact keys, so a reason counted as 0 is kept or left out alike
    assert dict(got.report.rejects) == dict(want.report.rejects)


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
            act_rows,
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
        assert_same_panel(ests, estimates_from_rows_oracle(est_rows), act_rows, cfg, "broker")

    @pytest.mark.parametrize("identity", ["analyst", "broker"])
    @pytest.mark.parametrize("min_lead_hours", CUTOFFS)
    def test_shuffled_revision_panel(self, identity, min_lead_hours):
        est_rows, act_rows, _ = generate_rows(SMALL_PANEL_SPEC)
        rows = revision_rows(est_rows, act_rows, seed=min_lead_hours)
        cfg = FilterConfig(min_lead_hours=min_lead_hours)
        assert_same_panel(estimates_from_rows(rows), estimates_from_rows_oracle(rows), act_rows, cfg, identity)

    def test_csv_edge_cases(self, tmp_path):
        self.csv_edge_cases(tmp_path, quoted=True)

    def test_csv_edge_cases_quote_free(self, tmp_path):
        self.csv_edge_cases(tmp_path, quoted=False)

    def csv_edge_cases(self, tmp_path, quoted):
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
                # lines 20-24: a 2011Q1 estimate of each pair above, its prior record
                *(
                    f"x,99,6,2011-01-15T00:00:00Z,1,2011,{firm},B1,{analyst},\n"
                    for firm, analyst in (("F1", "A1"), ("F1", "A2"), ("F1", "A3"), ("F1", "A4"), ("F2", "A1"))
                ),
            ]
        )
        path = written(tmp_path, with_quotes(text, quoted))
        table, rejects = parse_estimates(path)
        ests, oracle_rejects = parse_estimates_oracle(path)
        assert [r.line for r in rejects] == [r.line for r in oracle_rejects] == [7, 8, 9, 11, 12, 13, 14, 15, 18, 19]
        assert rejects[2].reason == "malformed: 5 fields, the header needs 9"
        # every other reason is the per-row parser's
        assert [r for r in rejects if r.line != 9] == [r for r in oracle_rejects if r.line != 9]
        assert estimate_rows(table) == [
            (e.analyst_id, e.broker_id, e.firm_id, *e.period, format_ts(e.estimate_ts), e.horizon_code, e.value_cents)
            for e in ests
        ]
        announce = {1: PRIOR_ANNOUNCE, 2: "2011-04-20T00:00:00Z"}
        act_rows = [(firm, 2011, q, announce[q], 100) for q in (1, 2) for firm in ("F1", "F2")]
        cfg = FilterConfig(min_analysts=1)
        # every 2011Q2 row that parses is scored: A1's two F2 rows dedup to one
        panel = build_panel(table, actuals_from_rows(act_rows), cfg)
        sizes = [(e.firm_id, e.period, e.rows.stop - e.rows.start) for e in panel_events(panel)]
        assert sizes == [("F1", (2011, 2), 4), ("F2", (2011, 2), 1)]
        assert_same_panel(table, ests, act_rows, cfg, "analyst")

    @pytest.mark.parametrize(
        "ts",
        [
            "0000-03-01T00:00:00Z",  # datetime64 reads year 0
            "2011-03-01T00:00:00Z\x00junk",  # 20 characters up to the NUL
        ],
    )
    def test_fast_path_look_alike_rejected_in_a_chunk_of_valid_rows(self, tmp_path, ts):
        # texts the datetime64 path could read but parse_ts refuses
        path = written(tmp_path, HEADER + f"A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,100\nA1,B1,F1,2011,2,{ts},6,100\n")
        table, rejects = parse_estimates(path)
        assert len(table) == 1
        assert [r.line for r in rejects] == [3]
        assert rejects == parse_estimates_oracle(path)[1]

    @pytest.mark.parametrize("quoted", [False, True], ids=["bytes", "csv_reader"])
    def test_off_calendar_date_rejects_only_its_row(self, tmp_path, quoted):
        # every other exact-form timestamp of its block still converts in the
        # whole-column pass
        rows = [f"A{i % 7},B1,F1,2011,2,2011-03-{i % 28 + 1:02d}T{i % 24:02d}:00:00Z,6,{i}\n" for i in range(3000)]
        rows[1500] = rows[1500].replace(f"2011-03-{1500 % 28 + 1:02d}", "2011-02-30")
        if quoted:
            rows[0] = '"A0"' + rows[0][2:]
        path = written(tmp_path, HEADER + "".join(rows))
        table, rejects = parse_estimates(path)
        ests, oracle_rejects = parse_estimates_oracle(path)
        assert rejects == oracle_rejects == [Reject(1502, "malformed: day is out of range for month")]
        assert table.estimate_ts.tolist() == [e.estimate_ts for e in ests]

    def test_rows_across_conversion_chunks(self, tmp_path):
        self.rows_across_conversion_chunks(tmp_path, quoted=False)

    def test_rows_across_conversion_chunks_quoted_past_the_first(self, tmp_path):
        self.rows_across_conversion_chunks(tmp_path, quoted=True)

    def rows_across_conversion_chunks(self, tmp_path, quoted):
        # ids seen in one block keep their code in the next, and a bad row
        # past the first block is named by its physical line, in both files;
        # quoted, csv.reader reads from the second block on
        n = 40000
        assert n > 2 * _CHUNK_ROWS
        rows = [
            f"A{i % 97},B{i % 13},F{i % 7},2011,{i % 4 + 1},2011-03-01T{i % 24:02d}:00:00Z,6,{100 + i % 9}\n"
            for i in range(n)
        ]
        # i // 388 and i % 388, which (i % 97, i % 4) determines, make each
        # firm-period distinct
        act_rows = [
            f"F{i % 97},{1900 + i // 388},{i % 4 + 1},2011-03-01T{i % 24:02d}:00:00Z,{100 + i % 9}\n" for i in range(n)
        ]
        for lines in (rows, act_rows):
            lines[30000] = lines[30000].rsplit(",", 1)[0] + ",1e3\n"
            lines[35000] = lines[35000].rsplit(",", 1)[0] + ",99999999999999999999\n"
            if quoted:
                lines[_CHUNK_ROWS + 7] = '"' + lines[_CHUNK_ROWS + 7].replace(",", '",', 1)
        too_big = Reject(35002, "malformed: value_cents 99999999999999999999 outside the int64 range")

        path = written(tmp_path, HEADER + "".join(rows))
        table, rejects = parse_estimates(path)
        ests, oracle_rejects = parse_estimates_oracle(path)
        assert [r.line for r in rejects] == [30002, 35002]
        assert rejects[0] == oracle_rejects[0]
        assert rejects[1] == too_big
        assert estimate_rows(table) == [
            (e.analyst_id, e.broker_id, e.firm_id, *e.period, format_ts(e.estimate_ts), e.horizon_code, e.value_cents)
            for e in ests
            if e.value_cents < 2**63
        ]

        path = written(tmp_path, ",".join(ACTUAL_COLUMNS) + "\n" + "".join(act_rows))
        table, rejects = parse_actuals(path)
        acts, oracle_rejects = parse_actuals_oracle(path)
        assert rejects == oracle_rejects
        assert [r.line for r in rejects] == [30002, 35002] and rejects[1] == too_big
        assert actual_rows(table) == [(a.firm_id, *a.period, format_ts(a.announce_ts), a.value_cents) for a in acts]
        assert len(table) == n - 2

        # line 2's firm-period again, at the end: each table row's line is
        # its block's, so the duplicate past the first block names both
        repeat = act_rows[0].rsplit(",", 1)[0] + ",777\n"
        path = written(tmp_path, ",".join(ACTUAL_COLUMNS) + "\n" + "".join(act_rows) + repeat, "repeated.csv")
        error = f"{path}: duplicate actual for ('F0', (1900, 1)) on lines 2 and {n + 2}"
        for parse in (parse_actuals, parse_actuals_oracle):
            with pytest.raises(ValueError) as exc:
                parse(path)
            assert str(exc.value) == error

    def test_actuals_csv_edge_cases(self, tmp_path):
        self.actuals_csv_edge_cases(tmp_path, quoted=True)

    def test_actuals_csv_edge_cases_quote_free(self, tmp_path):
        self.actuals_csv_edge_cases(tmp_path, quoted=False)

    def actuals_csv_edge_cases(self, tmp_path, quoted):
        header = "note,value_cents,announce_ts,period_quarter,period_year,firm_id,extra\n"
        big = 2**63
        text = header + "".join(
            [
                "x,100,2011-03-01T00:00:00Z,2,2011,F1,\n",  # line 2
                "\n",
                "x,101,2011-03-01T03:00:00+05:00,2,2011,F2\n",  # short by an unread column
                "x,102,2011-03-01T00:00:00,2,2011,F3,,,\n",  # naive, long row
                "x,103,2011-03-02,2,2011,F4,\n",  # date only
                "x,12.5,2011-03-01T00:00:00Z,2,2011,F5,\n",  # line 7: non-integer cents
                "x,abc,2011-03-01T00:00:00Z,2,2011,F6,\n",
                "x,104,2011-03-01T00:00:00Z\n",  # line 9: short
                "\n",
                "x,105,2011-02-30T00:00:00Z,2,2011,F7,\n",  # line 11: no such day
                "x,106,0000-03-01T00:00:00Z,2,2011,F8,\n",  # year 0
                "x,107,2011-03-01T00:00:00Z,5,2011,F9,\n",  # line 13: quarter
                "x,107,2011-03-01T00:00:00Z,0,2011,F9,\n",
                "x,109,2011-03-01T00:00:00Zjunk,2,2011,F11,\n",
                "x,110,2011-03-01T00:00:00.5Z,2,2011,F12,\n",
                ' x,"111",2011-03-01T00:00:00Z, 2 ,2011,F13\n',
                "x,abc,junk,5,20x1,F14,\n",  # line 18, every field bad: the quarter is named
                "x,abc,junk,2,20x1,F15,\n",  # then the year
                f"x,{big - 1},2011-03-01T00:00:00Z,2,{big - 1},F16,\n",  # line 20: the int64 bounds
                f"x,{-big},2011-03-01T00:00:00Z,2,{-big},F17,\n",
                f"x,{big},2011-03-01T00:00:00Z,2,2011,F18,\n",
                f"x,{-big - 1},2011-03-01T00:00:00Z,2,2011,F19,\n",
                f"x,100,2011-03-01T00:00:00Z,2,{big},F20,\n",
                f"x,100,2011-03-01T00:00:00Z,{big},2011,F21,\n",  # line 25
            ]
        )
        path = written(tmp_path, with_quotes(text, quoted))
        table, rejects = parse_actuals(path)
        acts, oracle_rejects = parse_actuals_oracle(path)
        assert [r.line for r in rejects] == [7, 8, 9, 11, 12, 13, 14, 15, 18, 19, 22, 23, 24, 25]
        # one reason changed: a quarter beyond int64 gets the estimates' wording
        assert rejects[:-1] == oracle_rejects[:-1]
        assert oracle_rejects[-1] == Reject(25, f"malformed: period_quarter {big} outside 1..4")
        assert rejects[-1] == Reject(25, f"malformed: period_quarter {big} outside the int64 range")
        assert rejects[2].reason == "malformed: 3 fields, the header needs 6"
        assert actual_rows(table) == [(a.firm_id, *a.period, format_ts(a.announce_ts), a.value_cents) for a in acts]
        assert [r[0] for r in actual_rows(table)] == ["F1", "F2", "F3", "F4", "F12", "F13", "F16", "F17"]

    def test_row_short_of_an_id_column_rejected(self, tmp_path):
        # the per-row parser took a missing id as None; the row is rejected
        text = "period_year,period_quarter,estimate_ts,horizon_code,value_cents,firm_id,broker_id,analyst_id\n"
        path = written(tmp_path, text + "2011,2,2011-03-01T00:00:00Z,6,100,F1,B1\n")
        assert parse_estimates_oracle(path)[0][0].analyst_id is None
        table, rejects = parse_estimates(path)
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
        cap=st.sampled_from([50, 2, 0, 2**64]),  # 2**64: no int64 overflow in the cap test
        min_lead_hours=st.sampled_from([48, 720, 0]),
        identity=st.sampled_from(["analyst", "broker"]),
    )
    def test_random_panels(self, rows, shifts, min_analysts, cap, min_lead_hours, identity):
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
        cfg = FilterConfig(min_analysts=min_analysts, surprise_cap_cents=cap, min_lead_hours=min_lead_hours)
        assert_same_panel(estimates_from_rows(est_rows), estimates_from_rows_oracle(est_rows), act_rows, cfg, identity)


# int64 values at and next to both bounds, and a few small ones; drawn from
# a short list so that rows often repeat
INT64_EDGES = (-(2**63), -(2**63 - 1), -1, 0, 1, 2**62, 2**63 - 2, 2**63 - 1)
EDGE_VALUES = st.sampled_from(INT64_EDGES)
FIRMS = ("F0", "F1", "F2", "F3")


def id_columns(rows, n_columns, extra_ids=()):
    """Rows of (firm id, int, int, int) as int64 columns, the first of the
    codes into the rows' sorted firm ids plus `extra_ids`, and those ids."""
    ids = tuple(sorted({r[0] for r in rows} | set(extra_ids)))
    code = {x: i for i, x in enumerate(ids)}
    columns = [np.array([code[r[0]] for r in rows], np.int64)]
    columns += [np.array([r[k] for r in rows], np.int64) for k in range(1, n_columns)]
    return columns, ids


def rank_oracle(columns):
    """Each row's position among the sorted distinct rows."""
    rows = list(zip(*(c.tolist() for c in columns)))
    distinct = sorted(set(rows))
    return [distinct.index(r) for r in rows], len(distinct)


class TestGroupingsMatchLexsortOracles:
    """The packed-key groupings of build_panel, cross_check_actuals and
    parse_actuals against the np.lexsort and np.unique forms they replaced,
    kept in tests/oracles.py, over int64 columns at both bounds."""

    ROW = st.tuples(st.sampled_from(FIRMS), EDGE_VALUES, EDGE_VALUES, EDGE_VALUES)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n_columns=st.sampled_from([3, 4]))
    def test_lookup_and_first_equal(self, data, n_columns):
        ref_rows = data.draw(st.lists(self.ROW, max_size=8))
        if ref_rows:
            # keys that are ref rows, and ref rows repeated: the first one wins
            key_rows = data.draw(st.lists(st.one_of(self.ROW, st.sampled_from(ref_rows)), max_size=24))
            ref_rows = data.draw(st.permutations(ref_rows + data.draw(st.lists(st.sampled_from(ref_rows), max_size=6))))
        else:
            key_rows = data.draw(st.lists(self.ROW, max_size=24))
        # ids without rows, as a table keeps after take(), on either side
        ref, ref_ids = id_columns(ref_rows, n_columns, data.draw(st.sets(st.sampled_from(FIRMS))))
        keys, key_ids = id_columns(key_rows, n_columns, data.draw(st.sets(st.sampled_from(FIRMS))))
        got = ingest._lookup(keys, key_ids, ref, ref_ids)
        assert got.dtype == np.int64
        assert got.tolist() == lookup_oracle(keys, key_ids, ref, ref_ids).tolist()
        # parse_actuals' duplicate check looks a table up in itself
        assert ingest._lookup(ref, ref_ids, ref, ref_ids).tolist() == first_equal_oracle(ref).tolist()
        rank, size = ingest._rank(*ref)
        assert (rank.tolist(), size) == rank_oracle(ref)

    def test_lookup_of_empty_tables(self):
        empty = [np.empty(0, np.int64)] * 3
        one = [np.zeros(1, np.int64)] * 3
        assert ingest._lookup(empty, ("F0",), one, ("F0",)).tolist() == []
        assert ingest._lookup(one, ("F0",), empty, ()).tolist() == [-1]
        assert ingest._lookup(empty, (), empty, ()).tolist() == []

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(EDGE_VALUES, st.sampled_from(INT64_EDGES[:3] + INT64_EDGES[-2:])), max_size=40)
    )
    @example(rows=[])
    @example(rows=[(0, 5)] * 30 + [(1, 5)] * 3 + [(0, 5)] * 2)  # one timestamp throughout each group
    def test_dedup(self, rows):
        key = np.array([k for k, _ in rows], np.int64)
        ts = np.array([t for _, t in rows], np.int64)
        got, want = ingest._dedup(key, ts), dedup_oracle(key, ts)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]

    def test_dedup_keeps_the_later_of_tied_rows(self):
        key = np.array([0] * 30 + [1] * 3 + [0] * 2, np.int64)
        first, freq, last = ingest._dedup(key, np.full(len(key), 5, np.int64))
        assert (first.tolist(), freq.tolist(), last.tolist()) == ([0, 30], [32, 3], [34, 32])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_stream_order(self, data):
        rows = data.draw(st.lists(st.tuples(st.sampled_from(FIRMS), EDGE_VALUES, EDGE_VALUES, EDGE_VALUES), max_size=8))
        (firm, year, quarter, announce), firm_ids = id_columns(rows, 4)
        zero = np.zeros(len(rows), np.int64)
        acts = ActualTable(
            firm=firm, year=year, quarter=quarter, announce_ts=announce, value_cents=zero, firm_ids=firm_ids
        )
        # many records per event, each with its own `first`
        event = np.array(data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=30)) if rows else [], np.int64)
        n = len(event) + data.draw(st.integers(0, 5))
        first = np.array(data.draw(st.permutations(range(n)))[: len(event)], np.int64)
        got = ingest._chronological(acts, event, first, n)
        assert got.tolist() == stream_order_oracle(acts, event, first).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.tuples(*[st.integers(0, 5)] * 3), max_size=20),
        sizes=st.tuples(*[st.sampled_from([6, 2**31, 2**32])] * 3),
    )
    def test_packed_keys_order_rows_and_never_wrap(self, rows, sizes):
        # a key past int64 is ranked again before the next column, here
        # when two or three of the sizes are large
        columns = [np.array([r[k] for r in rows], np.int64) for k in range(3)]
        key = ingest._pack(list(zip(columns, sizes)))
        # the keys rank as the rows do: ordered alike, equal where they are
        assert rank_oracle([key]) == rank_oracle(columns)
        assert (key >= 0).all()


def at_int64_edges(est_rows, act_rows, shift_to):
    """The rows as columnar tables and as oracle records, each year mapped
    to an int64 value at or next to a bound and every timestamp shifted
    next to the bound `shift_to`, so that a key packed from raw years or
    timestamps would wrap. The mapped years include -1 and 2**63 - 1, and
    0 and 2**62, which wrap to the same value times 4."""
    ests, acts = estimates_from_rows(est_rows), actuals_from_rows(act_rows)
    years = sorted(set(ests.year.tolist()) | set(acts.year.tolist()))
    edges = (-1, 2**63 - 1, 0, 2**62, -(2**63), 2**63 - 2, -(2**63 - 1), 1)
    assert len(years) <= len(edges)
    year_of = dict(zip(years, edges))
    times = np.concatenate([ests.estimate_ts, acts.announce_ts])
    # the window rules subtract up to 365 days from an announcement
    anchor, to = (int(times.max()), 2**63 - 1) if shift_to > 0 else (int(times.min()), -(2**63) + 366 * 86400)

    def edge_years(table):
        return np.array([year_of[y] for y in table.year.tolist()], np.int64)

    ests = ests.replace(year=edge_years(ests), estimate_ts=ests.estimate_ts - anchor + to)
    acts = acts.replace(year=edge_years(acts), announce_ts=acts.announce_ts - anchor + to)
    oracle_ests = [
        dc_replace(e, period=(year_of[e.period[0]], e.period[1]), estimate_ts=e.estimate_ts - anchor + to)
        for e in estimates_from_rows_oracle(est_rows)
    ]
    oracle_acts = [
        dc_replace(a, period=(year_of[a.period[0]], a.period[1]), announce_ts=a.announce_ts - anchor + to)
        for a in actuals_from_rows_oracle(act_rows)
    ]
    return ests, acts, oracle_ests, oracle_acts


class TestInt64Edges:
    """Packed keys hold ranks, never raw values: columns at the int64 bounds
    give the oracles' results. A key that multiplied raw years, cents or
    timestamps would wrap and join, dedup or order the wrong rows."""

    @pytest.mark.parametrize("identity", ["analyst", "broker"])
    @pytest.mark.parametrize("shift_to", [1, -1], ids=["max", "min"])
    def test_panel_at_int64_edges_matches_oracle(self, identity, shift_to):
        est_rows, act_rows, _ = generate_rows(SMALL_PANEL_SPEC)
        rows = revision_rows(est_rows, act_rows, seed=3)  # with rows of years no actual has
        ests, acts, oracle_ests, oracle_acts = at_int64_edges(rows, act_rows, shift_to)
        assert ests.estimate_ts.max() > 2**62 or ests.estimate_ts.min() < -(2**62)
        for cfg in (FilterConfig(), FilterConfig(min_analysts=3)):
            got = build_panel(ests, acts, cfg, identity)
            assert_panel_equals(got, columnar_panel(build_panel_oracle(oracle_ests, oracle_acts, cfg, identity)))
        assert len(got.events) > 0  # the 8-analyst minimum leaves no broker event

    @pytest.mark.parametrize(
        "cfg, window_rejects, kept",
        [
            (FilterConfig(max_age_days=10**15), {"too_close_to_announcement"}, True),
            (FilterConfig(max_age_days=-(10**15)), {"too_close_to_announcement", "too_old"}, False),
            (FilterConfig(min_lead_hours=10**16, max_age_days=10**16), {"too_close_to_announcement"}, False),
            (FilterConfig(min_lead_hours=-(10**16)), {"too_old"}, True),
        ],
        ids=["old_age", "negative_age", "long_lead", "negative_lead"],
    )
    def test_window_past_int64_seconds_matches_oracle(self, cfg, window_rejects, kept):
        # each window offset past int64 in seconds clips, never wraps: it
        # admits every estimate or none, as the oracle's exact integers do
        est_rows, act_rows, _ = generate_rows(SMALL_PANEL_SPEC)
        rows = revision_rows(est_rows, act_rows, seed=3)
        assert_same_panel(estimates_from_rows(rows), estimates_from_rows_oracle(rows), act_rows, cfg, "analyst")
        report = build_panel(estimates_from_rows(rows), actuals_from_rows(act_rows), cfg).report
        assert set(report.rejects) & {"too_close_to_announcement", "too_old"} == window_rejects
        assert (report.kept > 0) == kept

    def test_cross_check_with_cents_at_int64_edges(self):
        ts = format_ts(ANNOUNCE_TS)
        values = INT64_EDGES
        primary = [("F", 2011 + k // 4, k % 4 + 1, ts, v) for k, v in enumerate(values)]
        # the same value; the value with its sign bit flipped, equal to it
        # times any even number modulo 2**64; and its bitwise complement
        secondary = [
            (f, y, q, ts, v if k % 3 == 0 else v % 2**64 - 2**63 if k % 3 == 1 else -v - 1)
            for k, (f, y, q, _, v) in enumerate(primary)
        ]
        kept = cross_check_actuals(actuals_from_rows(primary), actuals_from_rows(secondary))
        want = cross_check_actuals_oracle(actuals_from_rows_oracle(primary), actuals_from_rows_oracle(secondary))
        assert actual_rows(kept) == [(a.firm_id, *a.period, format_ts(a.announce_ts), a.value_cents) for a in want]
        assert actual_rows(kept) == [primary[k] for k in range(len(primary)) if k % 3 == 0]


# Fields for the differential tests: canonical values, and texts each
# tokenizer must hand to the scalar int() or parse_ts, or reject with its
# message
BIG = 2**63
INT_TEXTS = st.one_of(
    st.integers(-(10**18) + 1, 10**18 - 1).map(str),
    st.sampled_from(
        ["+5", " 7", "7 ", "1_0", "٣", "", "-", "--1", "0x10", "1e3", "12.5", "007", "-0", "9" * 19, "9" * 20]
        + [str(v) for v in (BIG - 1, -BIG, BIG, -BIG - 1, 10**18, -(10**18))]
    ),
)
QUARTER_TEXTS = st.one_of(st.sampled_from(["1", "2", "3", "4"]), INT_TEXTS)
TS_TEXTS = st.one_of(
    st.datetimes().map(lambda d: d.replace(microsecond=0).isoformat() + "Z"),
    st.sampled_from(
        [
            "2011-02-30T00:00:00Z",  # off the calendar: parse_ts words the reject
            "1900-02-29T00:00:00Z",
            "2011-04-31T00:00:00Z",
            "2011-13-01T00:00:00Z",
            "2011-00-10T00:00:00Z",
            "2011-03-00T00:00:00Z",
            "0000-03-01T00:00:00Z",
            "2011-03-01T24:00:00Z",
            "2011-03-01T23:60:00Z",
            "2011-03-01T23:59:60Z",
            "2000-02-29T23:59:59Z",
            "0001-01-01T00:00:00Z",
            "9999-12-31T23:59:59Z",
            "2011-03-01T00:00:00",
            "2011-03-01T03:00:00+05:00",
            "2011-03-02",
            "2011-03-01T00:00:00.5Z",
            "2011-03-01 00:00:00Z",
            "２011-03-01T00:00:00Z",  # a fullwidth digit
            "junk",
            "",
        ]
    ),
)
# ids keyed as 1 to 8 uint64 words and past them: equal in their first 8 or 16
# bytes, of exactly 8, 16, 24, 64 and 65 bytes, with a two-byte character
# across a word boundary (é and è share their first byte)
WORD_IDS = (
    *("analyst-1", "analyst-2", "analyst-analyst-1", "analyst-analyst-2", "analyst-analyst-analyst-1"),
    *("y" * 8, "x" * 16, "x" * 24, "x" * 64, "x" * 65, "x" * 63 + "é"),
    *("abcdefgé", "abcdefgè", "abcdefgéh", "x" * 15 + "é", "x" * 15 + "è", "x" * 7 + "é" * 5),
)
ID_TEXTS = st.one_of(
    # ids about the 8 bytes a uint64 key holds, in ASCII and in two-byte characters
    st.sampled_from(["A1", "A2", "A1 ", "", "é", "Ωmega", "analyst", "analyst-", "analyst-9", "x" * 70, "é" * 33]),
    st.sampled_from(["é" * 3 + "x", "é" * 4, "é" * 4 + "x", "éé", "x" * 8 + "é"]),
    st.sampled_from(WORD_IDS),
    # no comma, quote, line end or NUL, which send a block to csv.reader;
    # other separators (\x0b, \x85, \u2028) are plain text to csv.reader
    st.text(st.characters(blacklist_characters=',"\r\n\x00', blacklist_categories=("Cs",)), max_size=10),
)
NOTE_TEXTS = st.sampled_from(["", "x", "note é"])
# quoted fields' texts: csv.reader reads each back whole, and the NUL ids
# would meet "A1" and "" in the zero-padded id keys; ids over 8, 64 bytes
QUOTED_TEXTS = ("a,b", 'say "hi"', "two\nlines", "A1\x00", "\x00", "analyst-10", "x" * 65, "é" * 40, "1,2", "2011\n")
KIND_TEXTS = {ID: ID_TEXTS, INT64: INT_TEXTS, QUARTER: QUARTER_TEXTS, TIMESTAMP: TS_TEXTS}


def beyond_int64(text):
    try:
        return not -BIG <= int(text) < BIG
    except ValueError:
        return False


@st.composite
def csv_texts(draw, table_type, block_rows):
    """A CSV text of the table's columns plus an unread last one: blank,
    short and long rows, or only rows of the header's width, line ends all
    LF, all CR LF, all CR or each its own, an optional final one, and up to
    three quoted fields in any column of rows after the first block, each
    its row's own text (None) or one of QUOTED_TEXTS. Also the text with
    every row the per-row oracles word differently blanked out: a value
    beyond int64, or a short row; a blanked row keeps its line breaks, as
    CR LFs, so every other row keeps its line unless a CR and an LF meet
    across a blanked row that has none. And a physical line past the first
    block, as open(newline="") counts lines, or None."""
    kinds = [kind for _, _, kind in table_type.SCHEMA]
    header = [column for column, _, _ in table_type.SCHEMA] + ["note"]
    rows, plain = [], []
    shapes = ["row", "row", "row", "blank", "short", "long"] if draw(st.booleans()) else ["row"]
    for _ in range(draw(st.integers(0, 3 * block_rows + 2))):
        shape = draw(st.sampled_from(shapes))
        row = [] if shape == "blank" else [draw(KIND_TEXTS[kind]) for kind in kinds] + [draw(NOTE_TEXTS)]
        if shape == "short":
            row = row[: draw(st.integers(1, len(kinds) - 1))]
        elif shape == "long":
            row += draw(st.lists(NOTE_TEXTS, min_size=1, max_size=3))
        rows.append(row)
        plain.append(shape in ("row", "long") and not any(beyond_int64(f) for f, k in zip(row, kinds) if k != ID))
    texts = st.sampled_from((None, *QUOTED_TEXTS))
    quoted = st.lists(st.tuples(st.integers(block_rows, len(rows) - 1), st.integers(0, 10), texts), max_size=3)
    for i, column, text in draw(quoted) if len(rows) > block_rows else ():
        if rows[i]:
            column %= len(rows[i])
            text = rows[i][column] if text is None else text
            rows[i] = rows[i][:column] + ['"' + text.replace('"', '""') + '"'] + rows[i][column + 1 :]
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", None]))  # None: each line's own
    ends = [end or draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in range(len(rows) + 1)]
    ends[-1] *= draw(st.booleans())  # the final line's
    oracle_rows = [row if ok else ["\r\n" * ",".join(row).count("\n")] for row, ok in zip(rows, plain)]
    texts = ["".join(map("".join, zip(map(",".join, [header, *table]), ends))) for table in (rows, oracle_rows)]
    n_lines = len(re.split("\r\n|\r|\n", texts[0]))
    return (*texts, draw(st.integers(block_rows + 2, n_lines)) if n_lines >= block_rows + 2 else None)


def table_state(table):
    """Every column and id tuple of a table, as plain values."""
    return {name: value if name.endswith("_ids") else value.tolist() for name, value in vars(table).items()}


def table_rows(table):
    """Each row of a table in schema order, ids as text."""
    columns = [
        [getattr(table, attr + "_ids")[c] for c in getattr(table, attr).tolist()]
        if kind == ID
        else getattr(table, attr).tolist()
        for _, attr, kind in table.SCHEMA
    ]
    return list(zip(*columns))


def record_row(record):
    """A per-row oracle's record as a table_rows row."""
    if hasattr(record, "analyst_id"):
        r = record
        return (r.analyst_id, r.broker_id, r.firm_id, *r.period, r.estimate_ts, r.horizon_code, r.value_cents)
    return (record.firm_id, *record.period, record.announce_ts, record.value_cents)


def outcome(parse, source):
    try:
        table, rejects = parse(source)
    except ValueError as exc:
        return "raises", str(exc)
    return table_state(table), rejects


def row_lines(table_type, source):
    """The physical line of each row of the file's table, one per row, or
    None where the parse fails."""
    try:
        table, _, lines = ingest._parse(source, "rows", table_type)
    except ValueError:
        return None
    assert len(lines) == len(table)
    return lines.tolist()


class TestByteTokenizer:
    """Quote-free blocks are tokenized as bytes; csv.reader reads the rest.
    Both must read any text as csv.reader and the per-row oracles do."""

    BLOCK_ROWS = 3

    def csv_reader_only(self, mp):
        mp.setattr(ingest._ByteBlock, "tokenize", classmethod(lambda cls, *args: None))

    def test_quote_free_blocks_are_tokenized_as_bytes(self, tmp_path, monkeypatch):
        # csv.reader starts at the first block holding a quote; the header
        # shares the first block, so blocks hold lines 1-2, 3-4 and 5-6, and
        # CR LF and lone CR line ends are the tokenizer's own
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 2)
        handed_over = []
        csv_rows = ingest._csv_rows

        def spy(reader, offset, *args):
            handed_over.append(offset + 1)
            return csv_rows(reader, offset, *args)

        monkeypatch.setattr(ingest, "_csv_rows", spy)
        row = "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n"
        for body, first in (
            (row * 5, None),
            (row * 3 + '"A1",B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n' + row, 5),
            (row + '"A1",B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n' + row * 3, 3),
            ('"A1",B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n' + row * 4, 2),
            (row * 4 + row.replace("\n", "\r\n"), None),
            ((row * 5).replace("\n", "\r\n"), None),
            (row * 4 + row.replace("\n", "\r"), None),
            ((row * 5).replace("\n", "\r"), None),
            (row * 2 + row.replace("\n", "\r\r\n") + row * 2, None),
        ):
            handed_over.clear()
            table, rejects = parse_estimates(written(tmp_path, HEADER + body))
            assert len(table) == 5 and not rejects
            assert handed_over == ([first] if first else [])

    def check(self, parse, parse_oracle, table_type, texts):
        """The parse of the text's file equals, table, rejects, exception and
        the table's row lines alike, its parse by csv.reader alone, and the
        parse of the oracle's text equals the per-row oracle's. With a byte
        0xff put at the start of the drawn line, the parse fails naming it."""
        text, oracle_text, bad_line = texts
        with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_CHUNK_ROWS", self.BLOCK_ROWS)
            path, oracle_path = written(work, text), written(work, oracle_text, "oracle.csv")
            got, got_lines = outcome(parse, path), row_lines(table_type, path)
            try:
                table, rejects = parse(oracle_path)
            except ValueError as exc:
                table, rejects = None, str(exc)
            if bad_line is not None:
                lines = re.split(b"(\r\n|\r|\n)", text.encode())  # each line, then its end
                lines[2 * bad_line - 2] = b"\xff" + lines[2 * bad_line - 2]
                bad_path = os.path.join(work, "bad.csv")
                with open(bad_path, "wb") as fh:
                    fh.write(b"".join(lines))
                error = f"{bad_path}: line {bad_line}: undecodable byte 0xff; the input must be UTF-8"
                assert outcome(parse, bad_path) == ("raises", error)
            self.csv_reader_only(mp)
            assert outcome(parse, path) == got
            assert row_lines(table_type, path) == got_lines
            try:
                records, oracle_rejects = parse_oracle(oracle_path)
            except ValueError as exc:
                assert (table, rejects) == (None, str(exc))
                return
        assert rejects == oracle_rejects
        assert table_rows(table) == [record_row(r) for r in records]

    @settings(max_examples=150, deadline=None)
    @given(texts=csv_texts(EstimateTable, BLOCK_ROWS))
    def test_estimates_match_csv_reader_and_oracle(self, texts):
        self.check(parse_estimates, parse_estimates_oracle, EstimateTable, texts)

    @settings(max_examples=150, deadline=None)
    @given(texts=csv_texts(ActualTable, BLOCK_ROWS))
    def test_actuals_match_csv_reader_and_oracle(self, texts):
        self.check(parse_actuals, parse_actuals_oracle, ActualTable, texts)

    def test_carriage_return_file_is_tokenized_block_by_block(self, tmp_path, monkeypatch):
        # lone CRs end lines as LFs do: a CR-ended file is cut into the
        # blocks of its LF-ended twin, each tokenized as bytes, none read by
        # csv.reader, and its parse takes about as much memory
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 1000)
        row = "A{},B{},F{},2011,2,2011-03-01T00:00:00Z,6,{}\n"
        text = HEADER + "".join(row.format(i % 97, i % 7, i % 13, i) for i in range(20000))
        tokenize, csv_rows = ingest._ByteBlock.tokenize.__func__, ingest._csv_rows
        first_lines, entered = [], []

        def spy(cls, lines, *args):
            first_lines.append(lines.line)
            return tokenize(cls, lines, *args)

        monkeypatch.setattr(ingest._ByteBlock, "tokenize", classmethod(spy))
        monkeypatch.setattr(ingest, "_csv_rows", lambda *args: entered.append(args) or csv_rows(*args))
        got = []
        for name, end in (("lf.csv", "\n"), ("cr.csv", "\r")):
            path = written(tmp_path, text.replace("\n", end), name)
            first_lines.clear()
            tracemalloc.start()
            try:
                table, rejects = parse_estimates(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            got.append((table_state(table), rejects, list(first_lines), peak))
        (lf, lf_rejects, lf_blocks, lf_peak), (cr, cr_rejects, cr_blocks, cr_peak) = got
        assert cr == lf and cr_rejects == lf_rejects == [] and len(lf["analyst"]) == 20000
        assert cr_blocks == lf_blocks == [2, *range(1001, 20002, 1000)]
        assert not entered
        assert cr_peak < 2 * lf_peak

    def test_cr_lf_across_two_reads_ends_one_line(self, tmp_path):
        # the first read ends between a CR and its LF: the CR waits for the
        # next read, so the pair ends one line, and the lines after it keep
        # their numbers
        row = "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\r\n"
        head = HEADER.replace("\n", "\r\n") + row * 100
        long_row = row.replace("A1", "A" * (io.DEFAULT_BUFFER_SIZE + 1 - len(head) - len(row) + 2), 1)
        text = head + long_row + row.replace("2011-03-01T00:00:00Z", "junk") + row
        assert text.index("\r\n", len(head)) == io.DEFAULT_BUFFER_SIZE - 1
        table, rejects = parse_estimates(written(tmp_path, text))
        assert len(table) == 102 and [r.line for r in rejects] == [103]

    @pytest.mark.parametrize(
        "text, n_rows",
        [
            ("", None),
            (HEADER.rstrip("\n"), 0),
            (HEADER, 0),
            (HEADER.replace("\n", "\r"), 0),
            (HEADER.replace("\n", "\r\n"), 0),
            (HEADER.replace("\n", "\r") + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\r" * 5, 5),
            (HEADER.replace("\n", "\r\n") + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\r\n" * 5, 5),
            (HEADER.replace("\n", ',"no\nte"\n') + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105,x\n" * 5, 5),
            (HEADER.replace("\n", ',"no\r\nte"\r') + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105,x\r" * 5, 5),
            (HEADER.replace("\n", ',"a\nb\rc\r\nd"\n') + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105,x\n" * 5, 5),
            (HEADER.replace("value_cents", '"value\ncents"') + "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n", None),
        ],
        ids=[
            "empty",
            "header_only_unended",
            "header_only_lf",
            "header_only_cr",
            "header_only_crlf",
            "header_ended_by_cr",
            "header_ended_by_crlf",
            "quoted_name_with_lf",
            "quoted_name_with_crlf_cr_ended",
            "header_past_the_first_block",
            "required_name_with_line_break",
        ],
    )
    def test_header_edge_cases_parse_as_csv_reader_alone(self, tmp_path, monkeypatch, text, n_rows):
        # the header is csv.reader's first record over the first block's
        # lines, which tokenize reads on from the line after it; with
        # two-line blocks, a header record of four lines runs past the first
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 2)
        path = written(tmp_path, text)
        got = outcome(parse_estimates, path)
        if n_rows is None:
            assert got[0] == "raises"
        else:
            assert len(got[0]["analyst"]) == n_rows and got[1] == []
        self.csv_reader_only(monkeypatch)
        assert outcome(parse_estimates, path) == got

    def test_path_with_carriage_return_line_ends(self, tmp_path, monkeypatch):
        # a lone CR ends a path's lines as open(newline="") splits them, the
        # header's included, so the file reads as its LF-ended twin, and an
        # undecodable byte fails naming its line so counted, in any block
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 2)
        row = "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105"
        lines = [HEADER.rstrip("\n"), row, row, row, "A2,B1,F1,2011,2,junk,6,105", row, row, row]
        path = tmp_path / "estimates.csv"
        got = []
        for ends in (["\n"], ["\r"], ["\r", "\n", "\r\n"], ["\n", "\r", "\n", "\n"]):
            for bad in (0, 2, 5, 8):
                text = [(line + ends[k % len(ends)]).encode() for k, line in enumerate(lines, 1)]
                path.write_bytes(b"".join(b"\xff" * (k == bad) + line for k, line in enumerate(text, 1)))
                if bad:
                    with pytest.raises(ValueError, match=rf"^{path}: line {bad}: undecodable byte 0xff;"):
                        parse_estimates(str(path))
                else:
                    table, rejects = parse_estimates(str(path))
                    got.append((table_state(table), rejects))
        assert all(g == got[0] for g in got) and len(got[0][1]) == 1 and got[0][1][0].line == 5

    def test_ids_equal_but_for_trailing_nuls_stay_apart(self, tmp_path):
        ids = ["A1", "A1\x00", "\x00", "", "A1\x00\x00", "A1", "analyst-10\x00"]
        text = HEADER + "".join(f"{a},B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n" for a in ids)
        table, rejects = parse_estimates(written(tmp_path, text))
        assert not rejects
        assert table.analyst_ids == tuple(sorted(set(ids)))
        assert [table.analyst_ids[c] for c in table.analyst.tolist()] == ids

    @pytest.mark.parametrize("block_rows", [2, 1000])
    def test_ids_of_every_word_count_group_by_their_text(self, tmp_path, monkeypatch, block_rows):
        # blocks of two lines key their ids by as many words as the wider
        # needs; one block of them all holds an id past 64 bytes: raw bytes
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", block_rows)
        ids = [*WORD_IDS, *WORD_IDS[::-1]]
        text = HEADER + "".join(f"{a},B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n" for a in ids)
        table, rejects = parse_estimates(written(tmp_path, text))
        assert not rejects
        assert table.analyst_ids == tuple(sorted(set(ids)))
        assert [table.analyst_ids[c] for c in table.analyst.tolist()] == ids

    def test_short_ids_sort_once_per_column_and_block_and_decode_once(self, tmp_path, monkeypatch):
        # the benchmark's ids have at most 8 bytes: each id column of a block
        # is grouped by one sort, and each distinct id of a column is decoded
        # once, however many blocks it is in (every field's text is taken
        # through _bytes; canonical numbers and timestamps are never decoded)
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 4)
        rows = [(f"A{i % 5:04d}", f"B{i % 3:03d}", f"F{i % 2:07d}") for i in range(20)]
        text = HEADER + "".join(f"{a},{b},{f},2011,2,2011-03-01T00:00:00Z,6,{i}\n" for i, (a, b, f) in enumerate(rows))
        sorts, blocks, decoded = [], [], []

        class Counted(bytes):
            def decode(self, *args):
                decoded.append(bytes(self))
                return super().decode(*args)

        argsort, columns, take = np.argsort, ingest._columns, ingest._ByteBlock._bytes
        monkeypatch.setattr(np, "argsort", lambda *args, **kw: sorts.append(1) or argsort(*args, **kw))
        monkeypatch.setattr(ingest, "_columns", lambda block, *args: blocks.append(block) or columns(block, *args))
        monkeypatch.setattr(ingest._ByteBlock, "_bytes", lambda self, *args: list(map(Counted, take(self, *args))))
        table, rejects = parse_estimates(written(tmp_path, text))
        assert not rejects and len(table) == 20
        assert len(blocks) == 6 and len(sorts) == 3 * len(blocks)
        assert sorted(decoded) == sorted(x.encode() for column in zip(*rows) for x in set(column))

    def test_line_past_the_field_limit_fails_as_csv_reader_fails(self, tmp_path):
        # csv.reader's error, with the file and the line of the field
        row = "A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105"
        text = HEADER + row + "\n" + row + "," + "x" * 60 + "\n" + row + "\n"
        path = tmp_path / "estimates.csv"
        path.write_text(text)
        limit = csv.field_size_limit(50)
        try:
            with pytest.raises(ValueError, match=rf"^{path}: line 3: field larger than field limit \(50\)$"):
                parse_estimates(str(path))
        finally:
            csv.field_size_limit(limit)


class TestUndecodableInput:
    """A byte that is not UTF-8 fails the parse with the file and its
    physical line, whatever the locale."""

    ROW = "1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n"
    TEXT = (HEADER + "A" + ROW + "\n" + "A\xff" + ROW).encode("latin-1")

    @pytest.mark.parametrize("quoted", [False, True], ids=["bytes", "csv_reader"])
    def test_path(self, tmp_path, quoted):
        path = tmp_path / "estimates.csv"
        path.write_bytes(self.TEXT.replace(b"A1,", b'"A1",') if quoted else self.TEXT)
        with pytest.raises(ValueError, match=rf"^{path}: line 4: undecodable byte 0xff; the input must be UTF-8$"):
            parse_estimates(str(path))

    def test_past_the_first_block(self, tmp_path):
        path = tmp_path / "estimates.csv"
        row = b"A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n"
        path.write_bytes(HEADER.encode() + row * (_CHUNK_ROWS + 5) + self.TEXT.splitlines(keepends=True)[-1])
        with pytest.raises(ValueError, match=rf"line {_CHUNK_ROWS + 7}: undecodable byte 0xff"):
            parse_estimates(str(path))

    def test_header(self, tmp_path):
        path = tmp_path / "actuals.csv"
        path.write_bytes(b"firm_id,period_year,period_quarter,announce_ts,value_cents,n\xe9\n")
        with pytest.raises(ValueError, match="line 1: undecodable byte 0xe9"):
            parse_actuals(str(path))

    def test_first_block_is_decoded_before_its_header_is_read(self, tmp_path, monkeypatch):
        # csv.reader reads the header from the first block's text, so an
        # undecodable byte in that block fails the parse ahead of a bad
        # header; one in a later block fails only after the header is read
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 4)
        path = tmp_path / "estimates.csv"
        row = "1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n"
        for ends in ("\n", "\r\n", "\r"):
            rows = [("A" + row).replace("\n", ends).encode(), ("A\xff" + row).replace("\n", ends).encode("latin-1")]
            path.write_bytes(b"foo,bar" + ends.encode() + rows[0] * 2 + rows[1] + rows[0] * 3)
            with pytest.raises(ValueError, match=rf"^{path}: line 4: undecodable byte 0xff;"):
                parse_estimates(str(path))
            path.write_bytes(b"foo,bar" + ends.encode() + rows[0] * 3 + rows[1] + rows[0] * 2)
            with pytest.raises(ValueError, match=r"^estimates header missing columns: \["):
                parse_estimates(str(path))

    def test_locale_does_not_change_what_parses(self, tmp_path):
        # under the C locale without UTF-8 mode, open() would read ASCII
        path = tmp_path / "estimates.csv"
        path.write_text(HEADER + "Ωmega,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(os.path.abspath(ingest.__file__)))
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        code = "import sys; from estagg.ingest import parse_estimates as p; print(ascii(p(sys.argv[1])[0].analyst_ids))"
        child = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True, timeout=60
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == ascii(("Ωmega",))


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is read off: the file parses as its
    text without the mark, and its lines count as in that text."""

    ROWS = ["A1,B1,F1,2011,2,2011-03-01T00:00:00Z,6,105\n", "A2,B1,F1,2011,2,junk,6,105\n"]

    @pytest.mark.parametrize("quoted", [False, True], ids=["bytes", "csv_reader"])
    def test_parses_as_the_text_without_it(self, tmp_path, quoted):
        text = (HEADER + "".join(self.ROWS)).encode()
        text = text.replace(b"A1,", b'"A1",') if quoted else text
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        table, rejects = parse_estimates(str(marked))
        want_table, want_rejects = parse_estimates(str(plain))
        assert table_state(table) == table_state(want_table) and table.analyst_ids == ("A1",)
        assert rejects == want_rejects == [Reject(3, "malformed: Invalid isoformat string: 'junk'")]

    @pytest.mark.parametrize("quoted", [False, True], ids=["bytes", "csv_reader"])
    def test_undecodable_byte_names_its_line(self, tmp_path, quoted):
        # the bad byte opens line 3; decoding with utf-8-sig would count it on line 2
        text = (HEADER + self.ROWS[0]).encode() + b"\xff" + self.ROWS[0].encode()
        path = tmp_path / "estimates.csv"
        path.write_bytes(codecs.BOM_UTF8 + (text.replace(b"A1,", b'"A1",') if quoted else text))
        with pytest.raises(ValueError, match=rf"^{path}: line 3: undecodable byte 0xff; the input must be UTF-8$"):
            parse_estimates(str(path))

    @pytest.mark.parametrize("content", [b"", codecs.BOM_UTF8], ids=["empty", "mark_only"])
    def test_mark_alone_is_an_empty_file(self, tmp_path, content):
        path = tmp_path / "actuals.csv"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=r"^actuals source has no readable header$"):
            parse_actuals(str(path))
        with pytest.raises(ValueError, match=r"^estimates source has no readable header$"):
            parse_estimates(str(path))
        assert list(read_lines(str(path))) == []
