import csv
import os
import tempfile
from dataclasses import asdict

import numpy as np
import pytest

from estagg.ingest import (
    ACTUAL_COLUMNS,
    ESTIMATE_COLUMNS,
    IngestReport,
    Panel,
    Stream,
    build_panel,
    parse_actuals,
    parse_estimates,
)
from estagg.periods import format_ts, parse_ts
from estagg.model import fit_period, quarter_grams
from estagg.replay import ReplayResult, ledger_state, run_mode
from estagg.synth import SynthSpec, generate_rows
import oracles
from oracles import replay_view


def _parsed(parse, header, rows):
    """The table `parse` reads from a CSV file of the header and rows, each
    field written by csv.writer, so an int as its str(); a reject raises."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        table, rejects = parse(path)
    if rejects:
        raise ValueError(f"line {rejects[0].line}: {rejects[0].reason}")
    return table


def estimates_from_rows(rows):
    return _parsed(parse_estimates, ESTIMATE_COLUMNS, rows)


def estimate_rows(table):
    """The rows of an EstimateTable in estimates_from_rows' input form."""
    columns = (table.analyst, table.broker, table.firm, table.year, table.quarter, table.estimate_ts)
    return [
        (table.analyst_ids[a], table.broker_ids[b], table.firm_ids[f], y, q, format_ts(ts), h, v)
        for a, b, f, y, q, ts, h, v in zip(
            *(c.tolist() for c in columns), table.horizon_code.tolist(), table.value_cents.tolist()
        )
    ]


def actuals_from_rows(rows):
    return _parsed(parse_actuals, ACTUAL_COLUMNS, rows)


def actual_rows(table):
    """The rows of an ActualTable in actuals_from_rows' input form."""
    return [
        (table.firm_ids[f], y, q, format_ts(ts), v)
        for f, y, q, ts, v in zip(
            *(c.tolist() for c in (table.firm, table.year, table.quarter, table.announce_ts, table.value_cents))
        )
    ]


def panel_of(events):
    """A hand-made panel: events (actual_cents, values) for firms F0, F1,
    ... in 2011Q1, announced at time 0, analyst Ai giving the i-th value.
    Its stream is its kept rows."""
    acts = actuals_from_rows([(f"F{k}", 2011, 1, format_ts(0), actual) for k, (actual, _) in enumerate(events)])
    sizes = [len(values) for _, values in events]
    values = np.array([v for _, event_values in events for v in event_values], np.int64)
    idents = tuple(f"A{i}" for n in sizes for i in range(n))
    ident_ids = tuple(sorted(set(idents)))
    stream = Stream(
        np.zeros(len(values), np.int64),
        np.array([ident_ids.index(i) for i in idents], np.int64),
        np.repeat(acts.firm, sizes),
        values - np.repeat(acts.value_cents, sizes),
        ident_ids,
        acts.firm_ids,
    )
    bounds = np.cumsum([0] + sizes, dtype=np.int64)
    features = np.zeros((len(values), 4))
    analyst = np.array([ident_ids.index(i) for i in idents], np.int64)
    return Panel(acts, bounds, analyst, ident_ids, values, features, stream, np.arange(len(values)), IngestReport())


def stream_rows(panel):
    """A panel's stream as (announce_ts, identity, firm_id, error_cents)
    tuples, ids by name."""
    s = panel.stream
    return list(
        zip(
            s.announce_ts.tolist(),
            [s.ident_ids[i] for i in s.ident.tolist()],
            [s.firm_ids[f] for f in s.firm.tolist()],
            s.error_cents.tolist(),
        )
    )


def outcome_fields(outcome):
    """An oracle Outcome's fields as values == can compare, all but its
    weights, which only replay_oracle gives."""
    fields = asdict(outcome)
    del fields["weights"]
    return fields


def replay_mode(panel, mode):
    """One mode replayed over a panel from a ledger pass of its own."""
    return run_mode(ledger_state(panel, mode.bias_key), mode)


def replay_with_weights(ests, acts, cfg, mode):
    """One mode replayed over build_panel's panel of the tables, and each
    event's weights from replay_oracle on the oracle's panel of them: the
    replay's outcomes are the oracle's, field for field, so these are the
    weights behind its `improved`."""
    result = replay_mode(build_panel(ests, acts, cfg, mode.identity), mode)
    oracle_panel = oracles.build_panel_oracle(
        oracles.estimates_from_rows_oracle(estimate_rows(ests)),
        oracles.actuals_from_rows_oracle(actual_rows(acts)),
        cfg,
        mode.identity,
    )
    outcomes = oracles.replay_oracle(oracle_panel, mode).outcomes
    assert list(map(outcome_fields, oracles.outcome_views(result))) == list(map(outcome_fields, outcomes))
    return result, [o.weights for o in outcomes]


def replay_outcome(replay, panel, mode):
    """The outcomes and models of a replay, or the message of the
    RuntimeError it raised; a ReplayResult is read through its object view."""
    try:
        result = replay(panel, mode)
    except RuntimeError as exc:
        return str(exc)
    if isinstance(result, ReplayResult):
        result = replay_view(result)
    return (
        [outcome_fields(o) for o in result.outcomes],
        [(m.quarter, m.beta.tobytes(), m.n_obs, m.rss) for m in result.models],
    )


def constant_bias_panel(biases, quarters=4, actual=100):
    """Every analyst misses the (constant) actual by a fixed amount."""
    est_rows, act_rows = [], []
    for q in range(1, quarters + 1):
        announce = f"2011-{3 * q:02d}-01T00:00:00Z"
        act_rows.append(("F1", 2011, q, announce, actual))
        ts = format_ts(parse_ts(announce) - 20 * 86400)
        for i, b in enumerate(biases):
            est_rows.append((f"A{i}", f"B{i % 3}", "F1", 2011, q, ts, 6, actual + b))
    return estimates_from_rows(est_rows), actuals_from_rows(act_rows)


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


def load_synth(spec: SynthSpec):
    est_rows, act_rows, ground_truth = generate_rows(spec)
    return estimates_from_rows(est_rows), actuals_from_rows(act_rows), ground_truth


SMALL_PANEL_SPEC = SynthSpec(
    n_firms=8,
    n_analysts=40,
    n_quarters=12,
    analysts_per_event=9,
    bias_scale=5.0,
    noise_scale=3.0,
    common_scale=2.0,
    seed=20240817,
)


@pytest.fixture(scope="session")
def small_panel_inputs():
    """A small deterministic panel reused by several integration tests."""
    return load_synth(SMALL_PANEL_SPEC)


def assert_fits_match_per_quarter_oracle(X, y, edges, mask):
    """fit_period's batched fits against oracles.fit_period on each
    quarter's rows alone: None for the same quarters, and the same bits."""
    quarters = [(2011 + i // 4, i % 4 + 1) for i in range(len(edges) - 1)]
    got = fit_period(X, y, edges, quarters, quarter_grams(X, edges), mask)
    assert len(got) == len(quarters)
    for model, quarter, start, stop in zip(got, quarters, edges, edges[1:]):
        want = oracles.fit_period(X[start:stop], y[start:stop], quarter, mask)
        assert (model is None) == (want is None)
        if want is not None:
            assert (model.quarter, model.beta.tobytes(), model.n_obs, model.rss) == (
                want.quarter,
                want.beta.tobytes(),
                want.n_obs,
                want.rss,
            )
            assert type(model.n_obs) is int
