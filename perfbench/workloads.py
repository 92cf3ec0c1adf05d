"""Benchmark workloads: seeded synthetic panels written as `estagg run` inputs.

Every workload runs with the default filter and burn-in settings. The matrix
workloads are plain `estagg.synth` panels, whose only ingest rejects are
`no_prior_record`. `revision_ingest` adds a revision layer on top of a synth
panel so that the dedup, horizon and age filters all have work to do; the
layer reports how many rows it injected per reject reason, so the run check
can compare `ingest_report.json` against them.

No workload passes `--min-lead-hours` or a config-file filter override: the
scoring path ignores that flag, so a run using it would measure a setting the
program does not apply.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from estagg.periods import format_ts, parse_ts
from estagg.synth import ACTUAL_HEADER, ESTIMATE_HEADER, SynthSpec, generate_rows

REVISIONS_PER_ESTIMATE = 4
EXCLUDED_HORIZON_SHARE = 0.1
TOO_OLD_SHARE = 0.1
VALID_HORIZON_CODES = (6, 7, 8, 9)
EXCLUDED_HORIZON_CODES = (1, 2, 3, 4, 5)
# default `max_age_days` of the panel filters
MAX_AGE_DAYS = 365
# synth estimates are at most 120 days old, so revisions up to 200 days
# earlier stay inside the 365-day window
MAX_REVISION_LAG_HOURS = 200 * 24

# reject reasons whose counts the generator controls; the rest
# (`no_prior_record`, `surprise_cap`, `below_min_analysts`) follow from the
# synth panel and the filters
CONTROLLED_REASONS = (
    "no_matching_actual",
    "horizon_excluded",
    "too_close_to_announcement",
    "too_old",
    "superseded",
)


@dataclass(frozen=True)
class Workload:
    name: str
    n_firms: int
    n_analysts: int
    analysts_per_event: int
    modes: str  # value passed to `estagg run --modes`
    revisions: bool = False
    n_quarters: int = 40

    def spec(self, seed: int) -> SynthSpec:
        return SynthSpec(
            n_firms=self.n_firms,
            n_analysts=self.n_analysts,
            n_quarters=self.n_quarters,
            analysts_per_event=self.analysts_per_event,
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # replay does most of the work, as many tiny per-event numpy calls
            # on 8-row events; ingest does under a quarter of it
            name="narrow_matrix",
            n_firms=20,
            n_analysts=200,
            analysts_per_event=8,
            modes="all",
        ),
        Workload(
            # the same modules as narrow_matrix used differently: per-estimate
            # ledger and feature traffic on 40-row events dominates
            name="wide_matrix",
            n_firms=9,
            n_analysts=400,
            analysts_per_event=40,
            modes="all",
        ),
        Workload(
            # parse and build_panel dominate, with every window filter and the
            # dedup rejecting rows; replay runs one mode only
            name="revision_ingest",
            n_firms=70,
            n_analysts=800,
            analysts_per_event=8,
            modes="full",
            revisions=True,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    estimates: str
    actuals: str
    n_estimates: int
    expected_rejects: dict  # reason -> count, for CONTROLLED_REASONS


def add_revisions(estimate_rows: list, actual_rows: list, seed: int) -> tuple[list, dict]:
    """Give every final estimate earlier revisions and some filtered extras.

    Each final estimate gets REVISIONS_PER_ESTIMATE strictly earlier rows
    from the same analyst (rejected as `superseded`); about 10% get one row
    with an excluded horizon code and about 10% one row older than the age
    window. The rows come back shuffled, with the reject counts injected per
    reason. The result depends only on the inputs and `seed`.
    """
    rng = np.random.default_rng((seed, 1))  # a stream synth does not use
    announce = {(f, y, q): parse_ts(ts) for f, y, q, ts, _ in actual_rows}
    n = len(estimate_rows)
    lag_h = rng.integers(1, MAX_REVISION_LAG_HOURS, size=(n, REVISIONS_PER_ESTIMATE))
    rev_code = rng.choice(VALID_HORIZON_CODES, size=(n, REVISIONS_PER_ESTIMATE))
    rev_delta = rng.integers(-15, 16, size=(n, REVISIONS_PER_ESTIMATE))
    has_excluded = rng.random(n) < EXCLUDED_HORIZON_SHARE
    excluded_code = rng.choice(EXCLUDED_HORIZON_CODES, size=n)
    excluded_lag_h = rng.integers(1, MAX_REVISION_LAG_HOURS, size=n)
    has_old = rng.random(n) < TOO_OLD_SHARE
    old_extra_days = rng.integers(1, 120, size=n)
    old_code = rng.choice(VALID_HORIZON_CODES, size=n)
    extra_delta = rng.integers(-15, 16, size=(n, 2))

    rows = list(estimate_rows)
    for i, (analyst, broker, firm, year, quarter, ts_text, _, value) in enumerate(estimate_rows):
        final_ts = parse_ts(ts_text)
        head = (analyst, broker, firm, year, quarter)
        for k in range(REVISIONS_PER_ESTIMATE):
            rows.append(
                head
                + (format_ts(final_ts - int(lag_h[i, k]) * 3600), int(rev_code[i, k]), value + int(rev_delta[i, k]))
            )
        if has_excluded[i]:
            rows.append(
                head
                + (format_ts(final_ts - int(excluded_lag_h[i]) * 3600), int(excluded_code[i]), value + int(extra_delta[i, 0]))
            )
        if has_old[i]:
            old_ts = announce[(firm, year, quarter)] - (MAX_AGE_DAYS + int(old_extra_days[i])) * 86400
            rows.append(head + (format_ts(old_ts), int(old_code[i]), value + int(extra_delta[i, 1])))

    order = rng.permutation(len(rows))
    injected = dict.fromkeys(CONTROLLED_REASONS, 0)
    injected["superseded"] = n * REVISIONS_PER_ESTIMATE
    injected["horizon_excluded"] = int(has_excluded.sum())
    injected["too_old"] = int(has_old.sum())
    return [rows[j] for j in order], injected


def _write_csv(path: str, header: str, rows: list) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def write_inputs(workload: Workload, seed: int, out_dir: str) -> Inputs:
    """Generate the workload's panel for `seed` and write it as CSV files."""
    estimate_rows, actual_rows, _ = generate_rows(workload.spec(seed))
    if workload.revisions:
        estimate_rows, expected = add_revisions(estimate_rows, actual_rows, seed)
    else:
        expected = dict.fromkeys(CONTROLLED_REASONS, 0)
    os.makedirs(out_dir, exist_ok=True)
    inputs = Inputs(
        estimates=os.path.join(out_dir, "estimates.csv"),
        actuals=os.path.join(out_dir, "actuals.csv"),
        n_estimates=len(estimate_rows),
        expected_rejects=expected,
    )
    _write_csv(inputs.estimates, ESTIMATE_HEADER, estimate_rows)
    _write_csv(inputs.actuals, ACTUAL_HEADER, actual_rows)
    return inputs
