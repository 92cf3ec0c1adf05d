import csv
import json
import os
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import oracles
from conftest import mixed_size_rows
from estagg import cli, evaluate, replay
from estagg.aggregate import default_mode_matrix
from estagg.cli import main
from estagg.evaluate import PanelSource, run_mode_matrix
from estagg.ingest import ACTUAL_COLUMNS, ESTIMATE_COLUMNS, FilterConfig, parse_actuals, parse_estimates


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(
        [
            "synth",
            "--out",
            str(out),
            "--n-firms",
            "6",
            "--n-analysts",
            "40",
            "--n-quarters",
            "10",
            "--analysts-per-event",
            "9",
            "--seed",
            "314",
        ]
    )
    assert rc == 0
    return out


class TestSynthCommand:
    def test_writes_expected_files(self, synth_dir):
        for name in ("estimates.csv", "actuals.csv", "ground_truth.json"):
            assert (synth_dir / name).is_file()

    def test_same_seed_same_bytes(self, synth_dir, tmp_path):
        rc = main(
            [
                "synth",
                "--out",
                str(tmp_path),
                "--n-firms",
                "6",
                "--n-analysts",
                "40",
                "--n-quarters",
                "10",
                "--analysts-per-event",
                "9",
                "--seed",
                "314",
            ]
        )
        assert rc == 0
        for name in ("estimates.csv", "actuals.csv"):
            assert (tmp_path / name).read_bytes() == (synth_dir / name).read_bytes()

    def test_infeasible_spec_fails(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path), "--n-analysts", "4", "--analysts-per-event", "9"])
        assert rc == 1
        assert "synth failed" in capsys.readouterr().err


def run_args(synth_dir, out_dir, extra=()):
    return [
        "run",
        "--estimates",
        str(synth_dir / "estimates.csv"),
        "--actuals",
        str(synth_dir / "actuals.csv"),
        "--out",
        str(out_dir),
        "--modes",
        "full,no_expertise,no_bias",
        "--burn-in",
        "4",
        *extra,
    ]


@pytest.fixture(scope="module")
def run_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(run_args(synth_dir, out)) == 0
    return out


class TestRunCommand:
    def test_artifacts_exist(self, run_dir):
        expected = [
            "results.csv",
            "ingest_report.json",
            "manifest.json",
            "events_full.csv",
            "scatter_full.csv",
            "scatter_full.json",
            os.path.join("models", "full.csv"),
        ]
        for name in expected:
            assert (run_dir / name).is_file()

    def test_results_rows_match_modes(self, run_dir):
        with open(run_dir / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["mode"] for r in rows] == ["full", "no_expertise", "no_bias"]
        for r in rows:
            assert int(r["n_events"]) > 0
            float(r["median"])  # parseable

    def test_manifest_hashes_inputs(self, run_dir, synth_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"estimates.csv", "actuals.csv"}
        assert manifest["config"]["burn_in"] == 4
        assert all(len(h) == 64 for h in manifest["inputs"].values())

    def test_rerun_byte_identical_results(self, synth_dir, run_dir, tmp_path):
        assert main(run_args(synth_dir, tmp_path)) == 0
        assert (tmp_path / "results.csv").read_bytes() == (run_dir / "results.csv").read_bytes()
        assert (tmp_path / "events_full.csv").read_bytes() == (run_dir / "events_full.csv").read_bytes()

    def test_events_flag_burn_in(self, run_dir):
        with open(run_dir / "events_full.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        flags = {r["in_evaluation"] for r in rows}
        assert flags == {"0", "1"}

    def test_missing_input_fails_cleanly(self, synth_dir, tmp_path, capsys):
        args = run_args(synth_dir, tmp_path)
        args[args.index("--estimates") + 1] = str(tmp_path / "nope.csv")
        assert main(args) == 1
        assert not (tmp_path / "results.csv").exists()
        assert "run failed" in capsys.readouterr().err

    def test_failed_write_removes_models_dir(self, synth_dir, tmp_path, capsys):
        # an existing directory where an events file goes makes the run fail
        # after models/ was created; the run removes what it made
        (tmp_path / "events_full.csv").mkdir()
        assert main(run_args(synth_dir, tmp_path, ["--modes", "full"])) == 1
        assert "run failed" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["events_full.csv"]

    def test_failed_run_keeps_existing_models_dir(self, synth_dir, tmp_path):
        (tmp_path / "models").mkdir()
        (tmp_path / "events_full.csv").mkdir()
        assert main(run_args(synth_dir, tmp_path, ["--modes", "full"])) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["events_full.csv", "models"]
        assert not any((tmp_path / "models").iterdir())

    def test_failed_run_removes_out_dir_it_made(self, synth_dir, tmp_path, monkeypatch, capsys):
        def fail(panel):
            raise RuntimeError("injected")

        # fails after every per-mode file is written into the new directory
        monkeypatch.setattr("estagg.evaluate.descriptive_stats", fail)
        out = tmp_path / "new"
        assert main(run_args(synth_dir, out, ["--modes", "full"])) == 1
        assert "injected" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("made_out_dir", [False, True], ids=["existing_out_dir", "new_out_dir"])
    def test_failure_in_a_late_group_removes_earlier_groups_files(
        self, synth_dir, tmp_path, monkeypatch, capsys, made_out_dir
    ):
        # cutoff_60d's panel is the third of four, so every group of the two
        # panels before it has written its files when the run fails
        written = []

        def recording_write_mode(out, label, *rest):
            if made_out_dir and label == "cutoff_60d":
                raise RuntimeError("injected")
            write_mode(out, label, *rest)
            written.append(label)

        write_mode = cli._write_mode
        monkeypatch.setattr(cli, "_write_mode", recording_write_mode)
        out = tmp_path / "out"
        if not made_out_dir:
            (out / "events_cutoff_60d.csv").mkdir(parents=True)
        assert main(run_args(synth_dir, out, ["--modes", "all"])) == 1
        assert "run failed" in capsys.readouterr().err
        assert len(written) == len(default_mode_matrix()) - 2  # all but cutoff_60d and institution
        if made_out_dir:
            assert not out.exists()
        else:
            assert sorted(p.name for p in out.iterdir()) == ["events_cutoff_60d.csv"]
            assert not any((out / "events_cutoff_60d.csv").iterdir())

    def test_each_panel_is_dropped_after_its_last_group(self, synth_dir, tmp_path, monkeypatch):
        built = []  # a weak reference to each panel, in build order
        live_at_build = []  # per build, how many panels built before it are alive

        def counting_build_panel(*args, **kwargs):
            live_at_build.append(sum(ref() is not None for ref in built))
            panel = build_panel(*args, **kwargs)
            built.append(weakref.ref(panel))
            return panel

        def watching_matrix(source, modes, burn_in):
            """The matrix, counting, as each mode is handed out, the panels
            alive whose last mode was written."""
            left = Counter(map(source.panel_key, modes))
            finished = []  # weak references to the panels whose last mode was written
            for i, replay, result in run_mode_matrix(source, modes, burn_in):
                outlived.append(sum(ref() is not None for ref in finished))
                key, panel = source.panel_key(modes[i]), weakref.ref(replay.panel)
                yield i, replay, result
                del replay
                left[key] -= 1
                if not left[key]:
                    finished.append(panel)
            # the source holds the panel it built last until the summary is taken
            assert [ref() is not None for ref in finished] == [False, False, False, True]

        def watching_write_json(path, value):
            if os.path.basename(path) == "ingest_report.json":  # written from the summary
                outlived.append(sum(ref() is not None for ref in built))
            write_json(path, value)

        outlived = []
        build_panel, write_json = evaluate.build_panel, cli._write_json
        monkeypatch.setattr(evaluate, "build_panel", counting_build_panel)
        monkeypatch.setattr(cli, "run_mode_matrix", watching_matrix)
        monkeypatch.setattr(cli, "_write_json", watching_write_json)
        assert main(run_args(synth_dir, tmp_path, ["--modes", "all"])) == 0
        # no panel, the default included, outlives its last mode, and the
        # summary of the default panel, built first for full, needs no build
        assert outlived == [0] * (len(default_mode_matrix()) + 1)
        assert len(built) == 4 and live_at_build == [0, 0, 0, 0]

    def test_ingest_report_needs_no_mode_on_the_default_panel(self, synth_dir, tmp_path, monkeypatch):
        built = []  # the (identity, recency cutoff) of each panel built

        def counting_build_panel(estimates, actuals, cfg, identity):
            built.append((identity, cfg.min_lead_hours))
            return build_panel(estimates, actuals, cfg, identity=identity)

        build_panel = evaluate.build_panel
        monkeypatch.setattr(evaluate, "build_panel", counting_build_panel)
        default = ("analyst", FilterConfig().min_lead_hours)
        # institution scores on the broker panel, so the default panel is
        # built after the matrix, for the ingest report alone
        assert main(run_args(synth_dir, tmp_path / "institution", ["--modes", "institution"])) == 0
        assert built == [("broker", default[1]), default]
        built.clear()
        assert main(run_args(synth_dir, tmp_path / "full", ["--modes", "full"])) == 0
        assert built == [default]
        report = (tmp_path / "full" / "ingest_report.json").read_bytes()
        assert (tmp_path / "institution" / "ingest_report.json").read_bytes() == report
        assert json.loads(report)["descriptive"]["n_reports"] > 0

    def test_mode_order_changes_only_results_order(self, synth_dir, run_dir, tmp_path):
        labels = [m.label for m in default_mode_matrix()]
        forward, backward = tmp_path / "forward", tmp_path / "backward"
        assert main(run_args(synth_dir, forward, ["--modes", ",".join(labels)])) == 0
        assert main(run_args(synth_dir, backward, ["--modes", ",".join(reversed(labels))])) == 0
        names = {
            os.path.relpath(os.path.join(d, f), forward)
            for d, _, files in os.walk(forward)
            for f in files
            if f not in ("results.csv", "manifest.json")
        }
        assert len(names) == 1 + 4 * len(labels)
        for name in names:
            assert (backward / name).read_bytes() == (forward / name).read_bytes(), name
        header, *rows = (forward / "results.csv").read_text().splitlines(keepends=True)
        assert (backward / "results.csv").read_text() == header + "".join(reversed(rows))
        assert [r.split(",")[0] for r in rows] == labels

    def test_ingest_report_lists_parse_rejects(self, synth_dir, tmp_path):
        lines = (synth_dir / "estimates.csv").read_text().splitlines(keepends=True)
        # physical line 5 is malformed; the blank line 4 before it counts
        lines[3:3] = ["\n", "A0001,B001,F000,2004,1,2004-03-01T00:00:00Z,6,12.5\n"]
        (tmp_path / "estimates.csv").write_text("".join(lines))
        args = run_args(synth_dir, tmp_path / "out", ["--modes", "full"])
        args[args.index("--estimates") + 1] = str(tmp_path / "estimates.csv")
        assert main(args) == 0
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert report["parse_rejects"] == {"estimates": 1, "actuals": 0}
        assert report["parse_reject_sample"] == {
            "estimates": [{"line": 5, "reason": "malformed: invalid literal for int() with base 10: '12.5'"}],
            "actuals": [],
        }

    def _with_bad_actual(self, synth_dir, path, field, value):
        """synth_dir's actuals with one field of physical line 4 replaced,
        written to `path`; returns the number of estimates of that line's
        firm-period."""
        lines = (synth_dir / "actuals.csv").read_text().splitlines(keepends=True)
        header = lines[0].strip().split(",")
        row = lines[3].strip().split(",")
        key = (row[header.index("firm_id")], row[header.index("period_year")], row[header.index("period_quarter")])
        row[header.index(field)] = value
        lines[3] = ",".join(row) + "\n"
        path.write_text("".join(lines))
        with open(synth_dir / "estimates.csv", newline="") as fh:
            return sum((r["firm_id"], r["period_year"], r["period_quarter"]) == key for r in csv.DictReader(fh))

    def test_actuals_check_parse_rejects_reported(self, synth_dir, run_dir, tmp_path):
        n_estimates = self._with_bad_actual(synth_dir, tmp_path / "check.csv", "announce_ts", "garbage")
        args = run_args(synth_dir, tmp_path / "out", ["--actuals-check", str(tmp_path / "check.csv")])
        assert main(args) == 0
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert report["parse_rejects"] == {"estimates": 0, "actuals": 0, "actuals_check": 1}
        assert report["parse_reject_sample"] == {
            "estimates": [],
            "actuals": [],
            "actuals_check": [{"line": 4, "reason": "malformed: Invalid isoformat string: 'garbage'"}],
        }
        # the unconfirmed actual is dropped, and its estimates with it
        base = json.loads((run_dir / "ingest_report.json").read_text())
        assert "no_matching_actual" not in base["ingest"]["rejects"]
        assert report["ingest"]["rejects"]["no_matching_actual"] == n_estimates > 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"estimates.csv", "actuals.csv", "check.csv"}

    def test_actuals_check_confirming_every_actual_changes_no_result(self, synth_dir, run_dir, tmp_path):
        args = run_args(synth_dir, tmp_path / "out", ["--actuals-check", str(synth_dir / "actuals.csv")])
        assert main(args) == 0
        for name in ("results.csv", "events_full.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (run_dir / name).read_bytes()
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert report["parse_rejects"] == {"estimates": 0, "actuals": 0, "actuals_check": 0}
        assert report["ingest"] == json.loads((run_dir / "ingest_report.json").read_text())["ingest"]

    def test_actual_outside_int64_range_rejected(self, synth_dir, tmp_path):
        n_estimates = self._with_bad_actual(synth_dir, tmp_path / "actuals.csv", "value_cents", str(10**20))
        args = run_args(synth_dir, tmp_path / "out", ["--modes", "full"])
        args[args.index("--actuals") + 1] = str(tmp_path / "actuals.csv")
        assert main(args) == 0
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert report["parse_rejects"] == {"estimates": 0, "actuals": 1}
        reason = f"malformed: value_cents {10**20} outside the int64 range"
        assert report["parse_reject_sample"]["actuals"] == [{"line": 4, "reason": reason}]
        assert report["ingest"]["rejects"]["no_matching_actual"] == n_estimates > 0
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            assert -1.0 < float(next(csv.DictReader(fh))["average"]) < 1.0

    def test_ledger_sums_past_2_53_fail(self, synth_dir, tmp_path, capsys):
        # an actual 2**62 cents off its estimates pushes the ledgers' error
        # sums past 2**53, beyond which their means would round
        self._with_bad_actual(synth_dir, tmp_path / "actuals.csv", "value_cents", str(2**62))
        args = run_args(synth_dir, tmp_path / "out", ["--modes", "full"])
        args[args.index("--actuals") + 1] = str(tmp_path / "actuals.csv")
        assert main(args) == 1
        firm, year, quarter = (synth_dir / "actuals.csv").read_text().splitlines()[3].split(",")[:3]
        assert f"ledger error sums reach 2**53 cents at firm {firm} period {year}Q{quarter}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicated_actual_names_both_lines(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "actuals.csv").read_text().splitlines(keepends=True)
        firm, year, quarter = lines[1].split(",")[:3]
        (tmp_path / "actuals.csv").write_text("".join(lines + [lines[1]]))
        args = run_args(synth_dir, tmp_path / "out", ["--modes", "full"])
        args[args.index("--actuals") + 1] = str(tmp_path / "actuals.csv")
        assert main(args) == 1
        err = capsys.readouterr().err
        key = (firm, (int(year), int(quarter)))
        assert f"actuals.csv: duplicate actual for {key} on lines 2 and {len(lines) + 1}" in err
        assert not (tmp_path / "out").exists()

    def test_undecodable_byte_names_file_and_line(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "estimates.csv").read_bytes().splitlines(keepends=True)
        lines[3] = b"\xff" + lines[3]
        bad = tmp_path / "estimates.csv"
        bad.write_bytes(b"".join(lines))
        args = run_args(synth_dir, tmp_path / "out", ["--modes", "full"])
        args[args.index("--estimates") + 1] = str(bad)
        assert main(args) == 1
        assert f"run failed: {bad}: line 4: undecodable byte 0xff; the input must be UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_field_past_the_limit_names_file_and_line(self, synth_dir, tmp_path, capsys):
        # csv.reader's field limit (131072 bytes by default) fails the run
        # with the file and the line, not with csv.Error's bare message
        lines = (synth_dir / "estimates.csv").read_text().splitlines(keepends=True)
        fields = lines[5].split(",")
        lines[5] = ",".join(fields[:-1] + ["1" * 140_000 + "\n"])
        bad = tmp_path / "estimates.csv"
        bad.write_text("".join(lines))
        args = run_args(synth_dir, tmp_path / "out", ["--modes", "full"])
        args[args.index("--estimates") + 1] = str(bad)
        assert main(args) == 1
        assert f"run failed: {bad}: line 6: field larger than field limit (131072)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_does_not_import_numpy_ma(self, synth_dir, tmp_path):
        # numpy.ma costs every run about 14 ms to import; a flagless
        # np.unique or an np.median would import it
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (
            "import sys; from estagg.cli import main; "
            "assert main(sys.argv[1:]) == 0; print('numpy.ma' in sys.modules)"
        )
        child = subprocess.run(
            [sys.executable, "-c", code, *run_args(synth_dir, tmp_path / "out", ["--modes", "full"])],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("order", [(0, 5), (5, 0)], ids=["confirming_first", "confirming_last"])
    def test_duplicated_check_row_names_both_lines(self, synth_dir, tmp_path, capsys, order):
        # the primary value and a conflicting one for the firm-period of
        # physical line 4, on lines 4 and 5 of the check file in either order
        lines = (synth_dir / "actuals.csv").read_text().splitlines(keepends=True)
        row = lines[3].rstrip("\n").split(",")
        copies = [",".join(row[:-1] + [str(int(row[-1]) + delta)]) + "\n" for delta in order]
        (tmp_path / "check.csv").write_text("".join(lines[:3] + copies + lines[4:]))
        args = run_args(synth_dir, tmp_path / "out", ["--actuals-check", str(tmp_path / "check.csv")])
        assert main(args) == 1
        key = (row[0], (int(row[1]), int(row[2])))
        assert f"check.csv: duplicate actual for {key} on lines 4 and 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_actuals_check_removals_reported(self, synth_dir, run_dir, tmp_path):
        n_actuals = len((synth_dir / "actuals.csv").read_text().splitlines()) - 1
        row = (synth_dir / "actuals.csv").read_text().splitlines()[3].split(",")
        self._with_bad_actual(synth_dir, tmp_path / "check.csv", "value_cents", str(int(row[-1]) + 1))
        assert main(run_args(synth_dir, tmp_path / "out", ["--actuals-check", str(tmp_path / "check.csv")])) == 0
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert report["actuals_check"] == {"confirmed": n_actuals - 1, "removed": 1}
        assert main(run_args(synth_dir, tmp_path / "all", ["--actuals-check", str(synth_dir / "actuals.csv")])) == 0
        report = json.loads((tmp_path / "all" / "ingest_report.json").read_text())
        assert report["actuals_check"] == {"confirmed": n_actuals, "removed": 0}
        # without a check file the report has no such section
        assert "actuals_check" not in json.loads((run_dir / "ingest_report.json").read_text())

    @pytest.mark.parametrize("missing", ["--estimates", "--actuals", "--out"])
    def test_run_without_an_input_or_out_dir_fails(self, synth_dir, tmp_path, capsys, missing):
        args = run_args(synth_dir, tmp_path / "out")
        del args[args.index(missing) : args.index(missing) + 2]
        assert main(args) == 2
        assert capsys.readouterr().err == "run requires --estimates, --actuals and --out (flags or config)\n"
        assert not (tmp_path / "out").exists()

    def test_bad_burn_in_rejected(self, synth_dir, tmp_path, capsys):
        assert main(run_args(synth_dir, tmp_path, ["--burn-in", "0"])) == 2
        assert "burn-in" in capsys.readouterr().err

    def test_unknown_mode_fails(self, synth_dir, tmp_path):
        assert main(run_args(synth_dir, tmp_path, ["--modes", "bogus"])) == 1

    @pytest.mark.parametrize(
        "modes, message",
        [("", "no mode selected"), (",", "no mode selected"), ("full,no_bias,full", "mode 'full' selected twice")],
    )
    def test_bad_mode_selection_fails(self, synth_dir, tmp_path, capsys, modes, message):
        out = tmp_path / "out"
        assert main(run_args(synth_dir, out, ["--modes", modes])) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exponent", ["nan", "inf", "-inf", "0"])
    def test_bad_exponent_fails(self, synth_dir, tmp_path, capsys, exponent):
        out = tmp_path / "out"
        assert main(run_args(synth_dir, out, [f"--exponent={exponent}"])) == 1
        assert "exponent must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_no_estimate_in_horizon_scores_empty_streams(self, synth_dir, tmp_path, monkeypatch):
        with open(synth_dir / "estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / "estimates.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(row | {"horizon_code": "1"} for row in rows)
        passes = []

        def ledger_state(panel, key):
            passes.append((key, len(panel.stream.announce_ts)))
            return replay.ledger_state(panel, key)

        monkeypatch.setattr(evaluate, "ledger_state", ledger_state)
        args = run_args(synth_dir, tmp_path / "out", ["--modes", "full,no_bias"])
        args[args.index("--estimates") + 1] = str(tmp_path / "estimates.csv")
        assert main(args) == 0
        assert len(passes) == 2 and set(passes) == {("identity_firm", 0), (None, 0)}
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            assert [(r["mode"], r["n_events"]) for r in csv.DictReader(fh)] == [("full", "0"), ("no_bias", "0")]
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert report["ingest"]["kept"] == 0
        assert report["ingest"]["rejects"]["horizon_excluded"] == len(rows)

    def test_config_file_equals_flags(self, synth_dir, run_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# run settings\n"
            f"estimates = {synth_dir / 'estimates.csv'}\n"
            f"actuals = {synth_dir / 'actuals.csv'}\n"
            f"out = {tmp_path / 'out'}\n"
            "modes = full,no_expertise,no_bias\n"
            "burn_in = 4\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == (run_dir / "results.csv").read_bytes()


@pytest.mark.parametrize(
    "command, text, error",
    [
        ("run", "min_analyst = 3\n", "{cfg}:1: unknown setting 'min_analyst'"),
        ("run", "# filter\nmin_analysts = three\n", "{cfg}:2: invalid literal for int() with base 10: 'three'"),
        ("run", "burn_in = 4\n\nmin_analysts 3\n", "{cfg}:3: expected key = value, got 'min_analysts 3'"),
        ("run", None, "[Errno 2] No such file or directory: '{cfg}'"),
        ("synth", "seed = 1\nn_firm = 3\n", "{cfg}:2: unknown setting 'n_firm'"),
        (
            "run",
            "min_analysts = 3\n# again\nmin_analysts = 9\n",
            "{cfg}:3: setting 'min_analysts' given again, first on {cfg}:1",
        ),
        ("synth", "seed = 1\nn_firms = 3\nseed=2\n", "{cfg}:3: setting 'seed' given again, first on {cfg}:1"),
        # each line end counts, a lone CR's too
        ("run", b"# filter\rburn_in = 4\r\nmin_analysts = \xff3\n", "{cfg}: line 3: undecodable byte 0xff;"),
    ],
    ids=[
        "unknown_key",
        "non_integer",
        "no_equals",
        "missing_file",
        "synth_unknown_key",
        "duplicate_key",
        "synth_duplicate_key",
        "undecodable_byte",
    ],
)
def test_bad_config_file_fails_naming_the_line(synth_dir, tmp_path, capsys, command, text, error):
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    if command == "run":
        argv = run_args(synth_dir, out, ["--config", str(cfg)])
    else:
        argv = ["synth", "--out", str(out), "--config", str(cfg)]
    assert main(argv) == 1
    assert f"{command} failed: {error.format(cfg=cfg)}" in capsys.readouterr().err
    assert not out.exists()


class TestMinLeadHours:
    """The filter's recency cutoff applies to every mode's scoring panel."""

    @pytest.fixture(scope="class")
    def cutoff_30d_events(self, synth_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("cutoff")
        assert main(run_args(synth_dir, out, ["--modes", "cutoff_30d"])) == 0
        events = (out / "events_cutoff_30d.csv").read_bytes()
        assert len(events.splitlines()) > 1
        return events

    def test_flag(self, synth_dir, run_dir, tmp_path, cutoff_30d_events):
        assert main(run_args(synth_dir, tmp_path, ["--modes", "full", "--min-lead-hours", "720"])) == 0
        events = (tmp_path / "events_full.csv").read_bytes()
        assert events == cutoff_30d_events
        assert events != (run_dir / "events_full.csv").read_bytes()

    def test_config_file(self, synth_dir, tmp_path, cutoff_30d_events):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_lead_hours = 720\n")
        assert main(run_args(synth_dir, tmp_path, ["--modes", "full", "--config", str(cfg)])) == 0
        assert (tmp_path / "events_full.csv").read_bytes() == cutoff_30d_events

    @pytest.mark.parametrize(
        "via, settings, error",
        [
            # every mode scores with a cutoff of at least 48 hours, so a
            # shorter one would describe a panel in ingest_report.json that
            # none scored
            pytest.param("flag", {"min_lead_hours": 47}, "min-lead-hours must be >= 48", id="flag"),
            pytest.param("config", {"min_lead_hours": 47}, "min-lead-hours must be >= 48", id="config"),
            # each of these used to reject every estimate, or act as 1
            pytest.param("flag", {"surprise_cap_cents": -1}, "surprise-cap-cents must be >= 0", id="cap_flag"),
            pytest.param("config", {"surprise_cap_cents": -1}, "surprise-cap-cents must be >= 0", id="cap_config"),
            pytest.param("flag", {"max_age_days": -1}, "max-age-days * 24 must be >= min-lead-hours", id="age_flag"),
            pytest.param(
                "config",
                {"max_age_days": 29, "min_lead_hours": 30 * 24 - 23},
                "max-age-days * 24 must be >= min-lead-hours",
                id="age_config",
            ),
            pytest.param("flag", {"min_analysts": 0}, "min-analysts must be >= 1", id="min_analysts_flag"),
            pytest.param("config", {"min_analysts": -3}, "min-analysts must be >= 1", id="min_analysts_config"),
        ],
    )
    def test_below_floor_rejected(self, synth_dir, tmp_path, capsys, via, settings, error):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
        out = tmp_path / "out"
        assert main(run_args(synth_dir, out, flags if via == "flag" else ["--config", str(cfg)])) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_window_of_one_instant_accepted(self, synth_dir, tmp_path):
        # max-age-days * 24 equal to min-lead-hours leaves one admissible
        # estimate time, so the run goes ahead
        assert main(run_args(synth_dir, tmp_path, ["--min-lead-hours", "48", "--max-age-days", "2"])) == 0


class TestReportCommand:
    def test_round_trip(self, synth_dir, tmp_path, capsys):
        # the run's mode order (full, no_expertise, no_bias) is not the
        # alphabetical order of its event files
        assert main(run_args(synth_dir, tmp_path)) == 0
        original = (tmp_path / "results.csv").read_bytes()
        os.remove(tmp_path / "results.csv")
        assert main(["report", "--run-dir", str(tmp_path)]) == 0
        assert (tmp_path / "results.csv").read_bytes() == original

    def test_round_trip_with_firm_ids_that_need_quoting(self, synth_dir, tmp_path, capsys):
        renamed = {"F000": 'F,"x', "F001": 'F"q', "F002": "F\nline", "F003": "F\rcr"}
        for name in ("estimates.csv", "actuals.csv"):
            with open(synth_dir / name, newline="") as fh:
                rows = list(csv.reader(fh))
            firm = rows[0].index("firm_id")
            for row in rows[1:]:
                row[firm] = renamed.get(row[firm], row[firm])
            with open(tmp_path / name, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)  # its "\r\n" line ends make it quote a lone "\r" too
        out = tmp_path / "run"
        assert main(run_args(tmp_path, out)) == 0
        with open(out / "events_full.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {9}
        assert set(renamed.values()) <= {row[0] for row in rows[1:]}
        original = (out / "results.csv").read_bytes()
        os.remove(out / "results.csv")
        assert main(["report", "--run-dir", str(out)]) == 0
        assert (out / "results.csv").read_bytes() == original

    def test_empty_dir_fails(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path)]) == 1
        assert "no events_" in capsys.readouterr().err

    @pytest.fixture
    def reported_run(self, synth_dir, tmp_path):
        """A run directory without its results.csv."""
        out = tmp_path / "run"
        assert main(run_args(synth_dir, out)) == 0
        os.remove(out / "results.csv")
        return out

    def test_missing_run_dir_fails(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["report", "--run-dir", str(missing)]) == 1
        assert capsys.readouterr().err == f"report failed: {missing}: No such file or directory\n"
        assert not missing.exists()

    @pytest.mark.parametrize(
        "modes, error",
        [
            ([], ": no mode selected"),
            (["full", "no_bias", "full"], ": mode 'full' selected twice"),
            (["full", "bogus"], ": unknown mode 'bogus'"),
            ("full", " is not a list of mode labels"),
            (None, " is not a list of mode labels"),
        ],
        ids=["empty", "repeated", "unknown", "string", "missing"],
    )
    def test_manifest_with_bad_modes_fails(self, reported_run, capsys, modes, error):
        path = reported_run / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["modes"] = modes
        if modes is None:
            del manifest["config"]["modes"]
        path.write_text(json.dumps(manifest))
        (reported_run / "events_bogus.csv").write_bytes((reported_run / "events_full.csv").read_bytes())
        assert main(["report", "--run-dir", str(reported_run)]) == 1
        assert capsys.readouterr().err.startswith(f"report failed: {path}: config.modes{error}")
        assert not (reported_run / "results.csv").exists()

    @pytest.mark.parametrize(
        "text, error",
        [
            (b'{"version": "0.1.0",\n "config": [}\n', ":2: Expecting value"),
            (b'{"version": "0.1.0",\r\n "config": {"modes": ["\xff"]}}\n', ": line 2: undecodable byte 0xff;"),
        ],
        ids=["not_json", "undecodable_byte"],
    )
    def test_unreadable_manifest_fails_naming_the_line(self, reported_run, capsys, text, error):
        path = reported_run / "manifest.json"
        path.write_bytes(text)
        assert main(["report", "--run-dir", str(reported_run)]) == 1
        assert capsys.readouterr().err.startswith(f"report failed: {path}{error}")
        assert not (reported_run / "results.csv").exists()

    def test_missing_manifest_fails(self, reported_run, capsys):
        os.remove(reported_run / "manifest.json")
        assert main(["report", "--run-dir", str(reported_run)]) == 1
        assert f"report failed: {reported_run / 'manifest.json'}: No such file or directory" in capsys.readouterr().err
        assert not (reported_run / "results.csv").exists()

    @pytest.mark.parametrize(
        "column, value, error",
        [
            ("in_evaluation", None, ":1: header missing columns ['in_evaluation']"),
            ("improved", "abc", ":3: could not convert string to float: 'abc'"),
            ("improved", "1\udcff", ": line 3: undecodable byte 0xff; the input must be UTF-8"),
        ],
        ids=["no_in_evaluation_column", "bad_value", "undecodable_byte"],
    )
    def test_bad_events_file_fails_naming_the_line(self, reported_run, capsys, column, value, error):
        path = reported_run / "events_no_bias.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row["in_evaluation"] = "1"  # every row is read
        if value is None:
            for row in rows:
                del row[column]
        else:
            rows[1][column] = value
        with open(path, "w", newline="", errors="surrogateescape") as fh:  # "\udcff" writes byte 0xff
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert main(["report", "--run-dir", str(reported_run)]) == 1
        assert capsys.readouterr().err == f"report failed: {path}{error}\n"
        assert not (reported_run / "results.csv").exists()

    def test_events_row_with_an_extra_field_fails_naming_the_line(self, reported_run, capsys):
        path = reported_run / "events_no_bias.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace(",", ",x,", 1)
        path.write_text("".join(lines))
        assert main(["report", "--run-dir", str(reported_run)]) == 1
        assert capsys.readouterr().err == f"report failed: {path}:3: more fields than the header's 9\n"
        assert not (reported_run / "results.csv").exists()


class TestColumnarWriters:
    """The events, scatter and results files against the per-event writers
    of the object-view oracle, on panels whose events mix sizes."""

    BURN_IN = 2

    @pytest.mark.parametrize("seed", [22, 5, 9])
    def test_files_match_object_view_oracle(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        est_rows, act_rows = mixed_size_rows(lambda lo, hi: int(rng.integers(lo, hi + 1)))
        inputs = {}
        for name, header, rows in (("estimates", ESTIMATE_COLUMNS, est_rows), ("actuals", ACTUAL_COLUMNS, act_rows)):
            inputs[name] = tmp_path / f"{name}.csv"
            with open(inputs[name], "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        out = tmp_path / "run"
        argv = ["run", "--estimates", str(inputs["estimates"]), "--actuals", str(inputs["actuals"]), "--out", str(out)]
        assert main(argv + ["--min-analysts", "2", "--burn-in", str(self.BURN_IN)]) == 0

        source = PanelSource(
            parse_estimates(str(inputs["estimates"]))[0],
            parse_actuals(str(inputs["actuals"]))[0],
            FilterConfig(min_analysts=2),
        )
        modes = default_mode_matrix()
        results = [None] * len(modes)
        for i, replay, _ in run_mode_matrix(source, modes, self.BURN_IN):
            label, views = modes[i].label, oracles.outcome_views(replay)
            assert (out / f"events_{label}.csv").read_text() == oracles.events_file(views, self.BURN_IN)
            assert (out / f"scatter_{label}.csv").read_text() == oracles.scatter_file(views, self.BURN_IN)
            assert (out / "models" / f"{label}.csv").read_text() == oracles.models_file(replay.models)
            results[i] = oracles.mode_result(label, oracles.pairs_from_outcomes(views, self.BURN_IN))
            if label == "full":
                full = views
        assert (out / "results.csv").read_bytes() == oracles.results_file(results).encode()

        assert len({o.n_analysts for o in full}) > 1
        assert {o.quarter_offset >= self.BURN_IN for o in full} == {False, True}
