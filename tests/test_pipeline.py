"""The whole pipeline against the whole oracle: `estagg run` on drawn raw
CSV text, and the chain of per-row references in tests/oracles.py on the
same files, must write the same artifacts byte for byte.

The drawn inputs are small and irregular: few firms, analysts, brokers
and quarters, analysts who move between brokers, revisions and ties on
the estimate timestamp, excluded horizons, rows too close to or too old
for the announcement, announcements shared across firms, quarters with no
actual, first-time pairs with no prior record, one-analyst and mixed-size
events, zero surprises, rows past the surprise cap and rows that fail to
parse, short rows among them. Some draws also give a check file, quote
every field or end every line with CR LF. The run's filter settings are
drawn too, some with an age window shorter than a mode's recency cutoff,
where a row both too close and too old counts as too close.
"""

import contextlib
import io
import json
import os
import random
import tempfile
from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from estagg import evaluate
from estagg.aggregate import MODE_DESCRIPTIONS, default_mode_matrix, modes_by_label
from estagg.cli import REJECT_SAMPLE_SIZE, main
from estagg.ingest import ACTUAL_COLUMNS, ESTIMATE_COLUMNS, FilterConfig, build_panel
from estagg.periods import format_ts, parse_ts

QUARTERS = [(2011, 1), (2011, 2), (2011, 3), (2011, 4), (2012, 1), (2012, 2)]
# each quarter's earliest announcement, a month and a half after it ends
BASE = {(y, q): parse_ts(f"{y + (q == 4)}-{3 * q % 12 + 2:02d}-15T00:00:00Z") for y, q in QUARTERS}
# hours before the announcement, mostly 10 days: too close (< 48), at the
# 48-hour floor and either side of the 30- and 60-day cutoffs, and too old (> 365 days)
LEADS = (240,) * 6 + (72, 48, 24, 719, 720, 1439, 1440, 2000, 8760, 9000)
HORIZONS = (6,) * 6 + (7, 8, 9, 1, 5)
# a row short of a field, or a field that fails to parse, by column: the
# estimates' year, quarter, timestamp, horizon or cents
ESTIMATE_DEFECTS = ("short", (3, "20x1"), (4, "5"), (5, "2011-02-30T00:00:00Z"), (6, "x6"), (7, "12.5"))
ACTUAL_DEFECTS = ("short", (2, "0"), (3, "junk"))
# the filter settings' values, each setting's default first; some ages fall
# short of the 30- and 60-day cutoffs, so a row can be both too close and too old
MIN_LEAD_HOURS = (48, 72, 240, 720)
MAX_AGE_DAYS = (365, 2, 10, 30, 45, 60, 400)
SURPRISE_CAPS = (50, 0, 2, 30, 1000)


def spoil(fields: list, defects: tuple, rng: random.Random) -> None:
    """Give the row's fields one of `defects`: "short" drops the last field, (column, text) replaces one."""
    defect = rng.choice(defects)
    if defect == "short":
        fields.pop()
    else:
        fields[defect[0]] = defect[1]


@st.composite
def pipeline_inputs(draw):
    """Raw estimates, actuals and maybe check-file text, with the run's
    settings. Hypothesis draws the panel's shape, the share of each kind of
    row and a seed; a generator seeded with it draws the rows at those shares."""
    # the largest shape first, where Hypothesis starts and shrinks to
    n_firms = draw(st.sampled_from((3, 2, 1)))
    n_analysts = draw(st.sampled_from((6, 5, 4, 3, 2, 1)))
    n_quarters = draw(st.sampled_from((6, 5, 4, 3, 2)))
    share = draw(
        st.fixed_dictionaries(
            {
                "absent": st.sampled_from((0.0, 0.2)),  # firm-quarters with no actual
                "skip": st.sampled_from((0.0, 0.3, 0.6)),  # analyst-cells with no estimate
                "revise": st.sampled_from((0.0, 0.3)),  # analyst-cells with a second submission
                "exact": st.sampled_from((0.0, 0.5)),  # estimates equal to the actual
                "defect": st.sampled_from((0.0, 0.05)),  # rows with a field that fails to parse
            }
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cells = [(f, p) for p in QUARTERS[:n_quarters] for f in range(n_firms)]
    # an actual per firm-quarter, each quarter's announcements often shared across firms
    actual = {
        cell: (BASE[cell[1]] + 3600 * rng.choice((0, 0, 24, 72)), 100 + rng.randint(-5, 5))
        for cell in cells
        if rng.random() >= share["absent"]
    }
    bias = [rng.randint(-3, 3) for _ in range(n_analysts)]
    estimates = []
    for (firm, (year, quarter)), analyst in ((cell, a) for cell in cells for a in range(n_analysts)):
        if rng.random() < share["skip"]:
            continue
        announce, value = actual.get((firm, (year, quarter)), (BASE[year, quarter], 100))
        for _ in range(1 + (rng.random() < share["revise"])):
            broker = (analyst + (rng.random() < 0.2)) % 3  # an analyst may move between brokers
            offset = 0 if rng.random() < share["exact"] else bias[analyst] + rng.choice((-1, 0, 1, 2, 60, -90))
            ts = format_ts(announce - 3600 * rng.choice(LEADS))
            fields = [f"A{analyst}", f"B{broker}", f"F{firm}", year, quarter, ts, rng.choice(HORIZONS), value + offset]
            fields = list(map(str, fields))
            if rng.random() < share["defect"]:
                spoil(fields, ESTIMATE_DEFECTS, rng)
            estimates.append(fields)
    rng.shuffle(estimates)
    actuals = []
    for (firm, (year, quarter)), (announce, value) in actual.items():
        fields = [f"F{firm}", str(year), str(quarter), format_ts(announce), str(value)]
        if rng.random() < share["defect"]:
            spoil(fields, ACTUAL_DEFECTS, rng)
        actuals.append(fields)
    check = None
    if draw(st.booleans()):  # each actual confirmed, dropped or contradicted
        fates = [rng.choice(("keep",) * 8 + ("drop", "change")) for _ in actuals]
        check = [
            [*fields[:4], str(int(fields[4]) + 1)] if fate == "change" and len(fields) == 5 else fields
            for fields, fate in zip(actuals, fates)
            if fate != "drop"
        ]
    quote, newline = draw(st.booleans()), draw(st.sampled_from(("\n", "\r\n")))

    def text(header, lines):
        wrap = (lambda x: f'"{x}"') if quote else str
        return "".join(",".join(map(wrap, fields)) + newline for fields in [list(header), *lines])

    files = {"estimates": text(ESTIMATE_COLUMNS, estimates), "actuals": text(ACTUAL_COLUMNS, actuals)}
    if check is not None:
        files["actuals_check"] = text(ACTUAL_COLUMNS, check)
    labels = st.lists(st.sampled_from(list(MODE_DESCRIPTIONS)), min_size=1, max_size=6, unique=True)
    min_lead_hours = draw(st.sampled_from(MIN_LEAD_HOURS))
    run = {
        "min_analysts": draw(st.integers(1, 4)),
        "surprise_cap_cents": draw(st.sampled_from(SURPRISE_CAPS)),
        "min_lead_hours": min_lead_hours,
        "max_age_days": draw(st.sampled_from([days for days in MAX_AGE_DAYS if days * 24 >= min_lead_hours])),
        "burn_in": draw(st.integers(1, 3)),
        "exponent": draw(st.sampled_from((1.2, 2.0, 0.5, 3.7))),
        "modes": draw(st.just("all") | labels.map(",".join)),
    }
    return files, run


def _json(value) -> str:
    """The JSON text of `value` as `run` writes its JSON files."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def oracle_artifacts(paths: dict, run: dict) -> tuple[dict, dict]:
    """Every artifact but manifest.json, by path relative to the run
    directory, from the oracles alone, and each mode's panel's nonzero
    reject counts by (identity, recency cutoff)."""
    estimates, est_rejects = oracles.parse_estimates_oracle(paths["estimates"])
    actuals, act_rejects = oracles.parse_actuals_oracle(paths["actuals"])
    parse_rejects = {"estimates": est_rejects, "actuals": act_rejects}
    report = {}
    if "actuals_check" in paths:
        check, parse_rejects["actuals_check"] = oracles.parse_actuals_oracle(paths["actuals_check"])
        confirmed = oracles.cross_check_actuals_oracle(actuals, check)
        report["actuals_check"] = {"confirmed": len(confirmed), "removed": len(actuals) - len(confirmed)}
        actuals = confirmed
    cfg = FilterConfig(**{key: run[key] for key in FilterConfig._fields})
    burn_in, labels = run["burn_in"], run["modes"]
    modes = default_mode_matrix(run["exponent"]) if labels == "all" else modes_by_label(labels.split(","), run["exponent"])

    files, results, panel_rejects = {}, [], {}
    for mode in modes:
        # a mode's recency cutoff never undercuts the filter's
        mode_cfg = cfg._replace(min_lead_hours=max(cfg.min_lead_hours, mode.min_lead_hours))
        mode_panel = oracles.build_panel_oracle(estimates, actuals, mode_cfg, mode.identity)
        panel_rejects[mode.identity, mode_cfg.min_lead_hours] = +Counter(mode_panel.report.rejects)
        replay = oracles.replay_oracle(mode_panel, mode)
        result = oracles.evaluate_mode(replay, mode, burn_in)
        results.append(result)
        files[f"models/{mode.label}.csv"] = oracles.models_file(replay.models)
        files[f"events_{mode.label}.csv"] = oracles.events_file(replay.outcomes, burn_in)
        files[f"scatter_{mode.label}.csv"] = oracles.scatter_file(replay.outcomes, burn_in)
        files[f"scatter_{mode.label}.json"] = _json(
            {"n": result.n_events, "trend": result.trend, "r_squared": result.r_squared}
        )
    files["results.csv"] = oracles.results_file(results)

    panel = oracles.build_panel_oracle(estimates, actuals, cfg, "analyst")
    ingest = panel.report
    report |= {
        "ingest": {"total": ingest.total, "kept": ingest.kept, "rejects": dict(ingest.rejects)},
        "parse_rejects": {name: len(rejects) for name, rejects in parse_rejects.items()},
        "parse_reject_sample": {
            name: [{"line": r.line, "reason": r.reason} for r in rejects[:REJECT_SAMPLE_SIZE]]
            for name, rejects in parse_rejects.items()
        },
        "descriptive": oracles.descriptive_stats(oracles.columnar_panel(panel)) if panel.events else None,
    }
    files["ingest_report.json"] = _json(report)
    return files, panel_rejects


def written_artifacts(out: str) -> dict:
    """The bytes of every file of a run directory but manifest.json, by relative path."""
    files = {}
    for directory, _, names in os.walk(out):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out).replace(os.sep, "/")] = fh.read()
    del files["manifest.json"]
    return files


@settings(max_examples=50, deadline=None, derandomize=True)
@given(pipeline_inputs())
def test_run_writes_the_oracle_artifacts(drawn):
    texts, run = drawn
    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for name, text in texts.items():
            paths[name] = os.path.join(work, f"{name}.csv")
            with open(paths[name], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        out = os.path.join(work, "run")
        argv = ["run", "--out", out, *(f"--{name.replace('_', '-')}={path}" for name, path in paths.items())]
        argv += [f"--{key.replace('_', '-')}={value}" for key, value in run.items()]
        panel_rejects = {}  # each panel's nonzero reject counts, by (identity, recency cutoff)

        def counting_build_panel(estimates, actuals, cfg, identity):
            panel = build_panel(estimates, actuals, cfg, identity=identity)
            panel_rejects[identity, cfg.min_lead_hours] = +Counter(panel.report.rejects)
            return panel

        with mock.patch.object(evaluate, "build_panel", counting_build_panel):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        got, (want, want_rejects) = written_artifacts(out), oracle_artifacts(paths, run)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name].encode(), name
    # a row both too close for a mode's cutoff and too old counts as too close
    assert panel_rejects == want_rejects
