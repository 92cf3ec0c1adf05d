"""The `report` command: re-render a run's results.csv from its events
files, for the modes its manifest lists. Only this command reads a run's
files back, so `estagg.cli` imports this module when the command runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .aggregate import modes_by_label
from .cli import _write_results_csv
from .evaluate import mode_result
from .ingest import read_lines


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
    _write_results_csv(os.path.join(run_dir, "results.csv"), results)
    print(f"results.csv rebuilt from {len(labels)} event files")
    return 0
