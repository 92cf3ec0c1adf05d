import pytest

from estagg.ingest import Actual, EstimateTable
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
