from dataclasses import asdict

import numpy as np
import pytest

from estagg.ingest import Actual, EstimateTable, IngestReport, Panel, PanelEvent
from estagg.periods import format_ts, parse_ts
from estagg.synth import SynthSpec, generate_rows


def _raise(i, reason):
    raise ValueError(f"row {i}: {reason}")


def estimates_from_rows(rows):
    return EstimateTable.from_rows(rows, _raise)


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
    return [
        Actual(firm_id=r[0], period=(r[1], r[2]), announce_ts=parse_ts(r[3]), value_cents=r[4])
        for r in rows
    ]


def panel_of(events):
    """A hand-made panel with no stream: events (actual_cents, values) for
    firms F0, F1, ... in 2011Q1, analyst Ai giving the i-th value."""
    panel_events, idents, values = [], [], []
    for k, (actual, event_values) in enumerate(events):
        rows = slice(len(values), len(values) + len(event_values))
        panel_events.append(PanelEvent(f"F{k}", (2011, 1), actual, 0, rows))
        idents += [f"A{i}" for i in range(len(event_values))]
        values += event_values
    features = np.zeros((len(values), 4))
    return Panel(panel_events, tuple(idents), tuple(idents), np.array(values, np.int64), features, [], IngestReport())


def outcome_fields(outcome):
    """An EventAggregate's fields as values == can compare, its weights by
    dtype, shape and bytes."""
    fields = asdict(outcome)
    weights = fields.pop("weights")
    return fields, (weights.dtype.str, weights.shape, weights.tobytes())


def replay_outcome(replay, panel, mode):
    """The outcomes and models of a replay, or the message of the
    RuntimeError it raised."""
    try:
        result = replay(panel, mode)
    except RuntimeError as exc:
        return str(exc)
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
