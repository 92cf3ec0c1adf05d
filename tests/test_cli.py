import codecs
import csv
import errno
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize(
        "setting, value, error",
        [
            ("n_firms", "0", "must be >= 1"),
            ("n_analysts", "-1", "must be >= 1"),
            ("n_quarters", "-3", "must be >= 1"),
            ("analysts_per_event", "0", "must be >= 1"),
            ("seed", "-1", "must be >= 0"),
            ("bias_scale", "nan", "must be finite"),
            ("skill_spread", "nan", "must be finite"),
            ("noise_scale", "inf", "must be finite"),
            ("common_scale", "-0.5", "must be >= 0"),
            ("negative_surprise_target", "nan", "must be a fraction"),
        ],
    )
    def test_setting_it_cannot_honour_fails_naming_it(self, tmp_path, capsys, setting, value, error):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), f"--{setting.replace('_', '-')}", value]) == 1
        assert capsys.readouterr().err == f"synth failed: {setting} {error}\n"
        assert not out.exists()


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


def mode_files(run_dir, label):
    """The bytes of a mode's events, scatter and models files in a run directory."""
    names = (f"events_{label}.csv", f"scatter_{label}.csv", f"scatter_{label}.json", f"models/{label}.csv")
    return {name: pathlib.Path(run_dir, name).read_bytes() for name in names}


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
        assert set(manifest["inputs"]) == {"estimates", "actuals"}
        assert manifest["config"]["burn_in"] == 4
        assert all(len(h) == 64 for h in manifest["inputs"].values())

    def test_manifest_hashes_inputs_sharing_a_basename(self, synth_dir, run_dir, tmp_path):
        paths = {}
        for name in ("estimates", "actuals"):
            paths[name] = tmp_path / name / "data.csv"
            paths[name].parent.mkdir()
            paths[name].write_bytes((synth_dir / f"{name}.csv").read_bytes())
        args = run_args(synth_dir, tmp_path / "out", ["--estimates", str(paths["estimates"])])
        args += ["--actuals", str(paths["actuals"])]
        assert main(args) == 0
        inputs = json.loads((tmp_path / "out" / "manifest.json").read_text())["inputs"]
        assert inputs == json.loads((run_dir / "manifest.json").read_text())["inputs"]
        assert inputs["estimates"] != inputs["actuals"]

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

    @pytest.mark.parametrize("setting", ["estimates", "actuals", "actuals_check"])
    def test_missing_input_names_its_setting(self, synth_dir, tmp_path, capsys, setting):
        missing = tmp_path / "nope.csv"
        args = run_args(synth_dir, tmp_path / "out")
        if setting == "actuals_check":
            args += ["--actuals-check", str(missing)]
        else:
            args[args.index(f"--{setting}") + 1] = str(missing)
        assert main(args) == 1
        assert f"run failed: setting '{setting}': no such file '{missing}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        def fail(path, results):
            raise RuntimeError("injected")

        # fails after every per-mode file is written into the new directory
        monkeypatch.setattr(cli, "_write_results_csv", fail)
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
        # all but cutoff_60d and institution; the directory in the way of
        # cutoff_60d's events file fails the run after every mode is written
        assert len(written) == len(default_mode_matrix()) - (2 if made_out_dir else 0)
        if made_out_dir:
            assert not out.exists()
        else:
            assert sorted(p.name for p in out.iterdir()) == ["events_cutoff_60d.csv"]
            assert not any((out / "events_cutoff_60d.csv").iterdir())

    def test_failed_rerun_keeps_the_previous_run(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(run_args(synth_dir, out)) == 0
        blocked = out / "events_no_bias.csv"
        blocked.unlink()
        blocked.mkdir()  # the rerun cannot put its events file here
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(run_args(synth_dir, out)) == 1
        error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(blocked))
        assert capsys.readouterr().err == f"run failed: {error}\n"
        # every file of the first run is as it was, and the run's stage is gone
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        names = {p.relative_to(out).parts[0] for p in before}
        assert sorted(p.name for p in out.iterdir()) == sorted(names | {blocked.name})

    @pytest.mark.parametrize("made_out_dir", [False, True], ids=["existing_out_dir", "new_out_dir"])
    def test_interrupted_run_leaves_no_stage(self, synth_dir, tmp_path, monkeypatch, made_out_dir):
        out = tmp_path / "out"
        if not made_out_dir:
            assert main(run_args(synth_dir, out)) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} if out.exists() else {}
        assert bool(before) is not made_out_dir
        written = []

        def interrupted_write_mode(out, label, *rest):
            written.append(label)
            if len(written) == 3:
                raise KeyboardInterrupt
            write_mode(out, label, *rest)

        write_mode = cli._write_mode
        monkeypatch.setattr(cli, "_write_mode", interrupted_write_mode)
        with pytest.raises(KeyboardInterrupt):
            main(run_args(synth_dir, out, ["--modes", "all"]))
        assert len(written) == 3
        if made_out_dir:
            assert not out.exists()
        else:  # the previous run's files are as they were, and no stage is left
            assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
            assert {p.relative_to(out).parts[0] for p in before} == {p.name for p in out.iterdir()}

    def test_libcrypto_loads_only_for_the_manifest(self, synth_dir, tmp_path):
        # hashlib loads OpenSSL's libcrypto, which would stay resident
        # through every mode; only the manifest's input hashes need it
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (
            "import json, sys\n"
            "from estagg import cli\n"
            "cli.build_parser()\n"
            "seen = {'parser': ['_hashlib' in sys.modules], 'modes': [], 'manifest': []}\n"
            "write_mode, write_json = cli._write_mode, cli._write_json\n"
            "def watching_write_mode(*args):\n"
            "    seen['modes'].append('_hashlib' in sys.modules)\n"
            "    write_mode(*args)\n"
            "def watching_write_json(path, value):\n"
            "    write_json(path, value)\n"
            "    if path.endswith('manifest.json'):\n"
            "        seen['manifest'].append('_hashlib' in sys.modules)\n"
            "cli._write_mode, cli._write_json = watching_write_mode, watching_write_json\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps(seen))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", code, *run_args(synth_dir, tmp_path / "out", ["--modes", "all"])],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        seen = json.loads(child.stdout.splitlines()[-1])
        assert seen == {"parser": [False], "modes": [False] * len(default_mode_matrix()), "manifest": [True]}

    @pytest.fixture(scope="class")
    def single_mode_files(self, synth_dir, tmp_path_factory):
        """Each mode's events, scatter and models files from a run of that mode alone."""
        out = {}
        for label in (m.label for m in default_mode_matrix()):
            run = tmp_path_factory.mktemp(label)
            assert main(run_args(synth_dir, run, ["--modes", label])) == 0
            out[label] = mode_files(run, label)
        return out

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(labels=st.lists(st.sampled_from([m.label for m in default_mode_matrix()]), min_size=2, unique=True))
    @example(labels=["no_scaling", "full"])
    @example(labels=["no_scaling", "closest", "no_bias", "exponent_2", "no_mae"])
    @example(labels=["no_scaling", *(m.label for m in default_mode_matrix()[::-1] if m.label != "no_scaling")])
    def test_each_modes_files_are_those_of_its_run_alone(self, synth_dir, single_mode_files, labels):
        # within a ledger pass the modes score one scaling after another,
        # whatever order they are given in; no mode's files may depend on that
        with tempfile.TemporaryDirectory() as run:
            assert main(run_args(synth_dir, run, ["--modes", ",".join(labels)])) == 0
            for label in labels:
                assert mode_files(run, label) == single_mode_files[label], label

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
        described = []  # the panel of each descriptive_stats call, as its index in `built`

        def counting_build_panel(estimates, actuals, cfg, identity):
            built.append((identity, cfg.min_lead_hours))
            panels.append(build_panel(estimates, actuals, cfg, identity=identity))
            return panels[-1]

        def counting_descriptive_stats(panel):
            described.append(next(i for i, p in enumerate(panels) if p is panel))
            return descriptive_stats(panel)

        build_panel, descriptive_stats, panels = evaluate.build_panel, evaluate.descriptive_stats, []
        monkeypatch.setattr(evaluate, "build_panel", counting_build_panel)
        monkeypatch.setattr(evaluate, "descriptive_stats", counting_descriptive_stats)
        default = ("analyst", FilterConfig().min_lead_hours)
        # institution scores on the broker panel, so the default panel is
        # built after the matrix, for the ingest report alone
        assert main(run_args(synth_dir, tmp_path / "institution", ["--modes", "institution"])) == 0
        assert built == [("broker", default[1]), default] and described == [1]
        # full scores on the default panel, built first: the summary is taken as it is built
        for modes, keys in (("full", [default]), ("full,institution", [default, ("broker", default[1])])):
            for calls in (built, described, panels):
                calls.clear()
            assert main(run_args(synth_dir, tmp_path / modes, ["--modes", modes])) == 0
            assert built == keys and described == [0]
        report = (tmp_path / "full" / "ingest_report.json").read_bytes()
        for modes in ("institution", "full,institution"):
            assert (tmp_path / modes / "ingest_report.json").read_bytes() == report
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
        assert set(manifest["inputs"]) == {"estimates", "actuals", "actuals_check"}

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

    @pytest.mark.parametrize("value, level", [("BASIC_FORMAT", "30"), ("nonsense", "30"), ("debug", "10")])
    def test_log_level_from_environment(self, tmp_path, value, level):
        # in a child: under pytest's own handlers basicConfig sets no level
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = "import logging, sys; from estagg.cli import main; print(main(sys.argv[1:]), logging.getLogger().level)"
        child = subprocess.run(
            [sys.executable, "-c", code, "report", "--run-dir", str(tmp_path / "missing")],
            env=dict(os.environ, PYTHONPATH=src, ESTAGG_LOG=value),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["1", level]
        assert child.stderr.startswith("report failed: ")

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

    def test_byte_order_mark_is_read_off(self, synth_dir, run_dir, tmp_path):
        # inputs and a config that open with a UTF-8 byte-order mark give the
        # run of the unmarked files, byte for byte but for the inputs' hashes
        marked, out = tmp_path / "marked", tmp_path / "out"
        marked.mkdir()
        for name in ("estimates.csv", "actuals.csv"):
            (marked / name).write_bytes(codecs.BOM_UTF8 + (synth_dir / name).read_bytes())
        cfg = tmp_path / "run.cfg"
        settings = [f"estimates = {marked / 'estimates.csv'}", f"actuals = {marked / 'actuals.csv'}", f"out = {out}"]
        settings += ["modes = full,no_expertise,no_bias", "burn_in = 4"]
        cfg.write_bytes(codecs.BOM_UTF8 + "\n".join(settings + [""]).encode())
        assert main(["run", "--config", str(cfg)]) == 0

        def files(run):
            return sorted(str(p.relative_to(run)) for p in run.rglob("*") if p.is_file())

        assert files(out) == files(run_dir)
        for name in files(run_dir):
            if name != "manifest.json":
                assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_config_value_may_hold_a_hash(self, synth_dir, run_dir, tmp_path):
        # a '#' starts a comment only at a line's start or after whitespace
        inputs = tmp_path / "hash" / "p#1"
        inputs.mkdir(parents=True)
        for name in ("estimates.csv", "actuals.csv"):
            (inputs / name).write_bytes((synth_dir / name).read_bytes())
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "#settings\n"
            f"estimates = {inputs / 'estimates.csv'}  # the #-holding path\n"
            f"actuals = {inputs / 'actuals.csv'}\n"
            f"out = {tmp_path / 'out'}\t#tab\n"
            "modes = full,no_expertise,no_bias # three\n"
            "burn_in = 4\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == (run_dir / "results.csv").read_bytes()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["estimates"] == str(inputs / "estimates.csv")

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


COMMAND_NUMBERS = [
    ("run", key) for key, cast in (cli.RUN_SETTINGS | cli.FILTER_SETTINGS).items() if cast is not str
] + [("synth", key) for key in cli.SYNTH_SETTINGS]  # each int and float setting, with its command


def outcome_of(argv, capsys):
    """main's exit code, or argparse's, and what it wrote to stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


# argparse reads a separate value that does not look like a plain negative
# number (-inf, -nan, -1e3, -1_000) as an option
@pytest.mark.parametrize("value", ["-inf", "-nan", "-1e3", "-1_000"])
@pytest.mark.parametrize("command, setting", COMMAND_NUMBERS, ids=[f"{c}-{k}" for c, k in COMMAND_NUMBERS])
def test_a_separate_negative_value_reaches_the_settings_check(synth_dir, tmp_path, capsys, command, setting, value):
    out, flag = tmp_path / "out", "--" + setting.replace("_", "-")

    def argv(*setting_args):
        if command == "run":
            return run_args(synth_dir, out, setting_args)
        return ["synth", "--out", str(out), *setting_args]

    separate = outcome_of(argv(flag, value), capsys)
    assert separate == outcome_of(argv(f"{flag}={value}"), capsys)
    assert separate[0] in (1, 2) and "expected one argument" not in separate[1]
    assert not out.exists()


def test_a_numeric_flag_followed_by_a_flag_still_lacks_its_value(synth_dir, tmp_path, capsys):
    code, err = outcome_of(run_args(synth_dir, tmp_path / "out", ["--exponent", "--burn-in", "3"]), capsys)
    assert code == 2 and "argument --exponent: expected one argument" in err


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

    def test_max_age_past_int64_seconds_admits_every_estimate(self, synth_dir, tmp_path):
        # 10**15 days is past int64 in seconds: it scores what 100,000 days does
        files = []
        for days in (10**5, 10**15):
            out = tmp_path / str(days)
            assert main(run_args(synth_dir, out, ["--max-age-days", str(days)])) == 0
            written = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")
            files.append({p.relative_to(out): p.read_bytes() for p in written})
        assert files[0] == files[1] and len(files[0]) > 3

    def test_min_lead_past_int64_seconds_rejects_every_estimate(self, synth_dir, tmp_path):
        flags = ["--min-lead-hours", str(10**16), "--max-age-days", str(10**16)]
        assert main(run_args(synth_dir, tmp_path, flags)) == 0
        ingest = json.loads((tmp_path / "ingest_report.json").read_text())["ingest"]
        assert ingest["total"] > 0 and ingest["kept"] == 0
        assert Counter(ingest["rejects"]) == Counter(too_close_to_announcement=ingest["total"])  # zero counts aside


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
            (None, 5, ":3: fewer fields than the header's 9"),
            ("in_evaluation", "2", ":3: in_evaluation '2' is not 0 or 1"),
            ("in_evaluation", "", ":3: in_evaluation '' is not 0 or 1"),
            ("improved", "nan", ":3: improved 'nan' is not a finite number"),
            ("improved", "1e999", ":3: improved '1e999' is not a finite number"),
            ("actual_cents", "-inf", ":3: actual_cents '-inf' is not a finite number"),
        ],
        ids=[
            "no_in_evaluation_column",
            "bad_value",
            "undecodable_byte",
            "short_row",
            "in_evaluation_2",
            "in_evaluation_empty",
            "nan",
            "overflow",
            "minus_inf",
        ],
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
        elif column is not None:
            rows[1][column] = value
        with open(path, "w", newline="", errors="surrogateescape") as fh:  # "\udcff" writes byte 0xff
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        if column is None:  # line 3 cut to its first `value` fields
            lines = path.read_text().splitlines(keepends=True)
            lines[2] = ",".join(lines[2].split(",")[:value]) + "\n"
            path.write_text("".join(lines))
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
