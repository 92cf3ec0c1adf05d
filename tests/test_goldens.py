"""Golden hashes of a 20-mode run on a small seeded panel, and an oracle
check of the hindsight closest-analyst modes on the same run.

The hashes pin results.csv and every events_*, scatter_* and models/* file
byte for byte. They hold only for the python and numpy versions they were
recorded with; under other versions the comparison is skipped. After a change
that is meant to alter the artifacts, rewrite them with

    PYTHONPATH=src python tests/test_goldens.py
"""

import csv
import hashlib
import json
import os
import platform
import tempfile

import numpy as np
import pytest

from estagg.bias import ErrorLedger
from estagg.cli import main
from estagg.ingest import FilterConfig, build_panel, parse_actuals, parse_estimates
from estagg.synth import SynthSpec, generate
from oracles import closest_analyst

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
# the panel of conftest.small_panel_inputs
SPEC = SynthSpec(
    n_firms=8,
    n_analysts=40,
    n_quarters=12,
    analysts_per_event=9,
    bias_scale=5.0,
    noise_scale=3.0,
    common_scale=2.0,
    seed=20240817,
)
BURN_IN = 4


def run_matrix(work: str) -> tuple[dict, str]:
    """Write the panel and run every mode on it; returns (input paths, run dir)."""
    paths = generate(SPEC, os.path.join(work, "panel"))
    out = os.path.join(work, "run")
    argv = ["run", "--estimates", paths["estimates"], "--actuals", paths["actuals"], "--out", out]
    assert main(argv + ["--burn-in", str(BURN_IN)]) == 0
    return paths, out


def pinned_hashes(out: str) -> dict[str, str]:
    hashes = {}
    for dirpath, _, files in os.walk(out):
        for name in files:
            rel = os.path.relpath(os.path.join(dirpath, name), out).replace(os.sep, "/")
            if rel == "results.csv" or rel.startswith(("events_", "scatter_", "models/")):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


@pytest.fixture(scope="module")
def matrix_run(tmp_path_factory):
    return run_matrix(str(tmp_path_factory.mktemp("goldens")))


def test_artifacts_match_goldens(matrix_run):
    with open(GOLDENS) as fh:
        golden = json.load(fh)
    versions = (platform.python_version(), np.__version__)
    if versions != (golden["python"], golden["numpy"]):
        pytest.skip(f"goldens recorded with python {golden['python']} / numpy {golden['numpy']}, running {versions}")
    _, out = matrix_run
    assert pinned_hashes(out) == golden["hashes"]


def _events(out: str, label: str) -> list[dict]:
    with open(os.path.join(out, f"events_{label}.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def test_closest_modes_match_closest_analyst_oracle(matrix_run):
    paths, out = matrix_run
    estimates, _ = parse_estimates(paths["estimates"])
    actuals, _ = parse_actuals(paths["actuals"])
    panel = build_panel(estimates, actuals, FilterConfig())
    by_key = {(ev.firm_id, ev.period): ev for ev in panel.events}

    raw_rows = _events(out, "closest_raw")
    assert len(raw_rows) == len(panel.events)
    for row in raw_rows:
        ev = by_key[(row["firm_id"], (int(row["period_year"]), int(row["period_quarter"])))]
        assert abs(float(row["improved"]) - ev.actual_cents) == closest_analyst(panel, ev)

    rows = _events(out, "closest")
    assert len(rows) == len(panel.events)
    for row in rows:
        ev = by_key[(row["firm_id"], (int(row["period_year"]), int(row["period_quarter"])))]
        ledger = ErrorLedger("identity_firm")
        for announce_ts, identity, firm_id, error_cents in panel.stream:
            if announce_ts < ev.announce_ts:
                ledger.record(identity, firm_id, error_cents)
        assert abs(float(row["improved"]) - ev.actual_cents) == closest_analyst(panel, ev, ledger.bias)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        _, out = run_matrix(work)
        record = {"python": platform.python_version(), "numpy": np.__version__, "hashes": pinned_hashes(out)}
    with open(GOLDENS, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(record['hashes'])} hashes written to {GOLDENS}")
