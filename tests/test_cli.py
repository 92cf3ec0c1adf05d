import csv
import json
import os

import pytest

from estagg.cli import main


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

        # fails after results.csv is written into the new directory
        monkeypatch.setattr("estagg.cli.descriptive_stats", fail)
        out = tmp_path / "new"
        assert main(run_args(synth_dir, out, ["--modes", "full"])) == 1
        assert "injected" in capsys.readouterr().err
        assert not out.exists()

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

    def test_bad_burn_in_rejected(self, synth_dir, tmp_path, capsys):
        assert main(run_args(synth_dir, tmp_path, ["--burn-in", "0"])) == 2
        assert "burn-in" in capsys.readouterr().err

    def test_unknown_mode_fails(self, synth_dir, tmp_path):
        assert main(run_args(synth_dir, tmp_path, ["--modes", "bogus"])) == 1

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


class TestReportCommand:
    def test_round_trip(self, synth_dir, tmp_path, capsys):
        assert main(run_args(synth_dir, tmp_path)) == 0
        original = (tmp_path / "results.csv").read_text().splitlines()
        os.remove(tmp_path / "results.csv")
        assert main(["report", "--run-dir", str(tmp_path)]) == 0
        rebuilt = (tmp_path / "results.csv").read_text().splitlines()
        # report walks event files alphabetically, so compare rows as a set
        assert rebuilt[0] == original[0]
        assert sorted(rebuilt[1:]) == sorted(original[1:])

    def test_empty_dir_fails(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path)]) == 1
        assert "no events_" in capsys.readouterr().err
