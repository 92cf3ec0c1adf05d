"""A run directory's files: `run` writes each mode's models, events and
scatter files, the JSON files and results.csv with the writers here, and
the `report` command reads the events files back to re-render
results.csv, for the modes the manifest lists. `estagg.cli` imports this
module when `run` or `report` runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
import tempfile
from collections import namedtuple
from typing import Callable, Iterable

import numpy as np

from .aggregate import modes_by_label
from .evaluate import ModeResult, mode_result, surprises
from .ingest import Panel, read_lines
from .model import N_VARS, PeriodModel
from .replay import FALLBACK_NAMES, ReplayResult

# a panel's per-event fields that no mode changes, from _event_fields, each a list
EventFields = namedtuple(
    "EventFields",
    [
        "heads",  # firm, period, actual and simple consensus, as text
        "n_analysts",
        "evaluated",  # 1 past the burn-in, else 0
        "original",  # the original surprise of each evaluated event, as text: a scatter row's first field
    ],
)


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def _write_json(path: str, value) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_results_csv(path: str, results: list[ModeResult]) -> None:
    """One row per mode: its label, quoted description, event count, statistics and supplementary flag."""
    stats = (map(_fmt, (r.median, r.average, r.trend, r.r_squared)) for r in results)
    rows = ((r.label, r.description, r.n_events, *s, r.trend_supplementary) for r, s in zip(results, stats))
    header = "mode,description,n_events,median,average,trend,r_squared,trend_supplementary"
    _write_rows(path, header, '%s,"%s",%d,%s,%s,%s,%s,%d\n', rows)


def _write_rows(path: str, header: str, line: str, rows: Iterable[tuple]) -> None:
    """A CSV file of `header` and, per row, the %-format `line` filled with
    the row's fields, one C-level call per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(map(line.__mod__, rows))


def _event_fields(panel: Panel, burn_in: int) -> EventFields:
    """The fields of each event that no mode changes, formatted once per panel."""
    events, layout = panel.events, panel.layout
    # each distinct firm id once, quoted as csv.writer's default dialect quotes a comma, quote or line break
    quoted = ['"%s"' % f.replace('"', '""') if any(c in f for c in ',"\r\n') else f for f in events.firm_ids]
    firms = map(quoted.__getitem__, events.firm.tolist())
    columns = (events.year.tolist(), events.quarter.tolist(), events.value_cents.tolist(), layout.simple.tolist())
    heads = list(map("%s,%d,%d,%d,%r".__mod__, zip(firms, *columns)))
    evaluated = layout.offset >= burn_in
    original = list(map(repr, (layout.simple - events.value_cents)[evaluated].tolist()))  # as evaluate.surprises
    return EventFields(heads, np.diff(panel.bounds).tolist(), evaluated.astype(np.int64).tolist(), original)


def _write_events(path: str, result: ReplayResult, fields: EventFields) -> None:
    """One row per event of the result's panel, in announcement order;
    `fields` are the panel's _event_fields."""
    reasons = map(FALLBACK_NAMES.__getitem__, result.fallback_reason.tolist())
    rows = zip(fields.heads, result.improved.tolist(), fields.n_analysts, reasons, fields.evaluated)
    header = (
        "firm_id,period_year,period_quarter,actual_cents,simple_consensus,improved,"
        "n_analysts,fallback_reason,in_evaluation"
    )
    _write_rows(path, header, "%s,%r,%d,%s,%d\n", rows)


def _write_models(path: str, models: list[PeriodModel]) -> None:
    """One row per fitted quarter: its betas, observation count and residual sum of squares."""
    rows = ((*m.quarter, *m.beta.tolist(), m.n_obs, m.rss) for m in models)
    header = "period_year,period_quarter,b_age,b_freq,b_ncos,b_top10,b_exp,b_mae,n_obs,rss"
    _write_rows(path, header, "%d,%d," + "%r," * N_VARS + "%d,%r\n", rows)


def _write_mode(
    out: Callable[[str], str], label: str, replay: ReplayResult, result: ModeResult, fields: EventFields, burn_in: int
) -> None:
    """A mode's models, events and scatter files, at the paths `out` gives
    for their names; `fields` are its panel's _event_fields."""
    _write_models(out(os.path.join("models", f"{label}.csv")), replay.models)
    _write_events(out(f"events_{label}.csv"), replay, fields)
    _, improved = surprises(replay, burn_in)
    rows = zip(fields.original, improved.tolist())
    _write_rows(out(f"scatter_{label}.csv"), "original_surprise,improved_surprise", "%s,%r\n", rows)
    sidecar = {"n": result.n_events, "trend": result.trend, "r_squared": result.r_squared}
    _write_json(out(f"scatter_{label}.json"), sidecar)


def _read_surprises(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The original and improved surprises of a run's evaluated events. A row with fewer or more fields
    than the header, an in_evaluation other than 0 or 1 or a number that is not finite fails with its line."""
    original, improved = [], []
    reader = csv.DictReader(read_lines(path))
    columns = ("actual_cents", "simple_consensus", "improved", "in_evaluation")
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{path}:1: header missing columns {missing}")
    width = len(reader.fieldnames)
    for row in reader:
        try:
            if None in row or None in row.values():  # DictReader's key past the header's fields, value short of them
                raise ValueError(f"{'more' if None in row else 'fewer'} fields than the header's {width}")
            if row["in_evaluation"] not in ("0", "1"):
                raise ValueError(f"in_evaluation {row['in_evaluation']!r} is not 0 or 1")
            actual, simple, new = values = [float(row[c]) for c in columns[:3]]
            for column, value in zip(columns, values):
                if not math.isfinite(value):
                    raise ValueError(f"{column} {row[column]!r} is not a finite number")
            if row["in_evaluation"] == "1":
                original.append(simple - actual)
                improved.append(new - actual)
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return np.array(original, float), np.array(improved, float)


def _run_modes(run_dir: str) -> list[str]:
    """The distinct, known mode labels of a run, in its order, from its manifest."""
    path = os.path.join(run_dir, "manifest.json")
    try:
        labels = json.loads("".join(read_lines(path)))["config"]["modes"]
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except (KeyError, TypeError):
        labels = None
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
        raise ValueError(f"{path}: config.modes is not a list of mode labels")
    try:
        modes_by_label(labels)
    except ValueError as exc:
        raise ValueError(f"{path}: config.modes: {exc}") from None
    return labels


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = args.run_dir
    try:
        if not any(f.startswith("events_") and f.endswith(".csv") for f in os.listdir(run_dir)):
            raise ValueError(f"{run_dir}: no events_*.csv files")
        labels = _run_modes(run_dir)
        results = [
            mode_result(label, *_read_surprises(os.path.join(run_dir, f"events_{label}.csv"))) for label in labels
        ]
    except OSError as exc:
        print(f"report failed: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return 1
    path, stage = os.path.join(run_dir, "results.csv"), None
    try:  # into a stage, then into place, as run writes its files
        stage = tempfile.mkdtemp(prefix=".stage-", dir=run_dir)
        _write_results_csv(os.path.join(stage, "results.csv"), results)
        os.replace(os.path.join(stage, "results.csv"), path)
    except OSError as exc:
        print(f"report failed: {path}: {exc.strerror}", file=sys.stderr)
        return 1
    finally:  # an interrupt included
        if stage:
            shutil.rmtree(stage, ignore_errors=True)
    print(f"results.csv rebuilt from {len(labels)} event files")
    return 0
