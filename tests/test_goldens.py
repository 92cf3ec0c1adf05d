"""Golden hashes of a 20-mode run on a small seeded panel, and an oracle
check of the hindsight closest-analyst modes on the same run.

The hashes pin results.csv, ingest_report.json and every events_*,
scatter_* and models/* file byte for byte, for the inputs as written and for
a quoted, CRLF-ended copy that csv.reader reads instead of the byte
tokenizer, and for an unquoted CRLF-ended copy that the byte tokenizer
reads. They hold only for the python and numpy versions they were
recorded with; under other versions the comparison is skipped. After a
change that is meant to alter the artifacts, rewrite them with

    PYTHONPATH=src python tests/test_goldens.py
"""

import csv
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import estagg
from conftest import stream_rows
from estagg.cli import main
from estagg.ingest import FilterConfig, build_panel, parse_actuals, parse_estimates
from estagg.synth import SynthSpec, generate
from oracles import ErrorLedger, closest_analyst, panel_events

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
            if rel in ("results.csv", "ingest_report.json") or rel.startswith(("events_", "scatter_", "models/")):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


@pytest.fixture(scope="module")
def matrix_run(tmp_path_factory):
    return run_matrix(str(tmp_path_factory.mktemp("goldens")))


def golden_hashes() -> dict[str, str]:
    """The pinned hashes; skips the test under other python or numpy versions."""
    with open(GOLDENS) as fh:
        golden = json.load(fh)
    versions = (platform.python_version(), np.__version__)
    if versions != (golden["python"], golden["numpy"]):
        pytest.skip(f"goldens recorded with python {golden['python']} / numpy {golden['numpy']}, running {versions}")
    return golden["hashes"]


def kernels() -> str:
    """The OpenBLAS core and numpy's highest enabled SIMD dispatch target
    (its baseline's with none enabled). The artifacts' last float bits
    follow these kernels, so a goldens failure names them: on a CPU that
    picks kernels other than the recording's, the hashes move with no code
    change. The core reads `unknown` where numpy's OpenBLAS lacks the symbol."""
    from numpy._core import _multiarray_umath as umath

    try:
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (AttributeError, OSError):
        core = "unknown"
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)] or umath.__cpu_baseline__
    return f"kernels: OpenBLAS core {core}, numpy dispatch {enabled[-1]}"


def test_kernels_name_the_running_core():
    # a child held to OpenBLAS's Haswell kernels and numpy's baseline names
    # both, so the kernels are read as the process runs
    from numpy._core import _multiarray_umath as umath

    core = "unknown" if "core unknown," in kernels() else "Haswell"
    src = os.path.dirname(os.path.dirname(os.path.abspath(estagg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(GOLDENS)]))
    env |= {"OPENBLAS_CORETYPE": "Haswell", "NPY_ENABLE_CPU_FEATURES": " ".join(umath.__cpu_baseline__)}
    code = "import test_goldens; print(test_goldens.kernels())"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == f"kernels: OpenBLAS core {core}, numpy dispatch {umath.__cpu_baseline__[-1]}\n"


def test_artifacts_match_goldens(matrix_run):
    _, out = matrix_run
    assert pinned_hashes(out) == golden_hashes(), kernels()


# manifest.json's version and config sections on the golden panel, the
# input paths masked; the filter block is FilterConfig's fields by name
MANIFEST_CONFIG = {
    "version": "0.1.0",
    "config": {
        "actuals": "<actuals>",
        "actuals_check": None,
        "burn_in": 4,
        "estimates": "<estimates>",
        "exponent": 1.2,
        "filter": {
            "horizon_codes": [6, 7, 8, 9],
            "max_age_days": 365,
            "min_analysts": 8,
            "min_lead_hours": 48,
            "surprise_cap_cents": 50,
        },
        "modes": [
            "full",
            "no_expertise",
            "no_bias",
            "no_age",
            "no_freq",
            "no_top10",
            "no_ncos",
            "no_exp",
            "no_mae",
            "no_scaling",
            "bias_global",
            "bias_firm",
            "bias_analyst",
            "bias_half",
            "institution",
            "exponent_2",
            "cutoff_30d",
            "cutoff_60d",
            "closest",
            "closest_raw",
        ],
    },
}


def test_manifest_config_is_pinned(matrix_run):
    # compared as JSON text, so 4 and 4.0 or true and 1 differ
    paths, out = matrix_run
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for name in ("estimates", "actuals"):
        assert manifest["config"][name] == paths[name]
        manifest["config"][name] = f"<{name}>"
    got = {key: manifest[key] for key in ("version", "config")}
    assert json.dumps(got, sort_keys=True) == json.dumps(MANIFEST_CONFIG, sort_keys=True)


def test_optimized_interpreter_matches_goldens(matrix_run, tmp_path):
    # under -O every assert is gone, so each check the run relies on must
    # be a raise; the artifacts must not move
    paths, _ = matrix_run
    out = str(tmp_path / "run")
    src = os.path.dirname(os.path.dirname(os.path.abspath(estagg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["run", "--estimates", paths["estimates"], "--actuals", paths["actuals"], "--out", out]
    child = subprocess.run(
        [sys.executable, "-O", "-m", "estagg.cli", *argv, "--burn-in", str(BURN_IN)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert pinned_hashes(out) == golden_hashes(), kernels()


def test_quoted_crlf_inputs_match_goldens(matrix_run, tmp_path):
    # every field quoted and every line CRLF-ended, so csv.reader reads
    # both files from their first block on; the artifacts must not move
    paths, _ = matrix_run
    argv = ["run"]
    for name in ("estimates", "actuals"):
        copy = str(tmp_path / f"{name}.csv")
        with open(paths[name], encoding="utf-8", newline="") as src:
            rows = list(csv.reader(src))
        with open(copy, "w", encoding="utf-8", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)
        argv += [f"--{name}", copy]
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out, "--burn-in", str(BURN_IN)]) == 0
    assert pinned_hashes(out) == golden_hashes(), kernels()


def test_crlf_inputs_stay_on_the_byte_path_and_match_goldens(matrix_run, tmp_path, monkeypatch):
    # CRLF-ended lines with no quote end at their CR as csv.reader reads
    # them, so neither file reaches csv.reader; the artifacts must not move
    def no_csv_rows(*args):
        raise AssertionError("a block reached csv.reader")

    monkeypatch.setattr("estagg.ingest._csv_rows", no_csv_rows)
    paths, _ = matrix_run
    argv = ["run"]
    for name in ("estimates", "actuals"):
        copy = tmp_path / f"{name}.csv"
        with open(paths[name], "rb") as src:
            copy.write_bytes(src.read().replace(b"\n", b"\r\n"))
        assert b'"' not in copy.read_bytes()
        argv += [f"--{name}", str(copy)]
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out, "--burn-in", str(BURN_IN)]) == 0
    assert pinned_hashes(out) == golden_hashes(), kernels()


def _events(out: str, label: str) -> list[dict]:
    with open(os.path.join(out, f"events_{label}.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def test_closest_modes_match_closest_analyst_oracle(matrix_run):
    paths, out = matrix_run
    estimates, _ = parse_estimates(paths["estimates"])
    actuals, _ = parse_actuals(paths["actuals"])
    panel = build_panel(estimates, actuals, FilterConfig())
    by_key = {(ev.firm_id, ev.period): ev for ev in panel_events(panel)}

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
        for announce_ts, identity, firm_id, error_cents in stream_rows(panel):
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
