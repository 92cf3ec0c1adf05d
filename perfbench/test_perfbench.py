"""Smoke-size tests of the benchmark's own code: the revision generator, the
run check, and the tracer (span nesting, self time, removal, and that tracing
leaves the artifacts unchanged)."""

import dataclasses
import filecmp
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import REVISIONS_PER_ESTIMATE, Workload, write_inputs  # noqa: E402

TINY = Workload(
    name="tiny",
    n_firms=6,
    n_analysts=40,
    analysts_per_event=8,
    modes="full,no_bias,institution",
    revisions=True,
    n_quarters=12,
)


def _targets():
    out = {}
    for name, modname, path, *_ in tracing.TIMED + tracing.COUNTED:
        owner, attr = tracing._owner_and_attr(modname, path)
        out[name] = getattr(owner, attr)
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Tiny revision panel, run once untraced in a child and once traced here."""
    base = tmp_path_factory.mktemp("perfbench")
    inputs = write_inputs(TINY, 3, str(base / "input"))
    before = _targets()
    untraced = base / "untraced"
    child = harness.spawn(
        [sys.executable, "-m", "estagg.cli"] + harness.run_argv(TINY, inputs, str(untraced)), timeout_s=120
    )
    after_child = _targets()
    traced = base / "traced"
    run = tracing.traced_run(harness.run_argv(TINY, inputs, str(traced)))
    return dict(
        base=base, inputs=inputs, child=child, untraced=untraced, traced=traced, run=run,
        before=before, after_child=after_child, after_trace=_targets(),
    )


def test_revision_layer_is_deterministic_per_seed(tmp_path, runs):
    again = write_inputs(TINY, 3, str(tmp_path / "again"))
    other = write_inputs(TINY, 4, str(tmp_path / "other"))
    assert filecmp.cmp(again.estimates, runs["inputs"].estimates, shallow=False)
    assert again.expected_rejects == runs["inputs"].expected_rejects
    assert not filecmp.cmp(other.estimates, runs["inputs"].estimates, shallow=False)

    injected = again.expected_rejects
    finals = TINY.n_firms * TINY.analysts_per_event * TINY.n_quarters
    assert injected["superseded"] == REVISIONS_PER_ESTIMATE * finals
    assert injected["horizon_excluded"] > 0 and injected["too_old"] > 0
    assert again.n_estimates == finals + injected["superseded"] + injected["horizon_excluded"] + injected["too_old"]


def test_run_check_compares_ingest_report_with_injected_counts(runs):
    labels = harness.mode_labels(TINY)
    out = str(runs["untraced"])
    assert runs["child"].exit_code == 0
    assert harness.check_run_dir(out, labels, runs["inputs"]) == []

    wrong = dict(runs["inputs"].expected_rejects, superseded=runs["inputs"].expected_rejects["superseded"] + 1)
    errors = harness.check_run_dir(out, labels, dataclasses.replace(runs["inputs"], expected_rejects=wrong))
    assert any("superseded" in e for e in errors)
    assert harness.check_run_dir(out, labels + ["closest"], runs["inputs"])


def test_traced_spans_nest_and_have_nonnegative_self_time(runs):
    run = runs["run"]
    assert run.exit_code == 0 and not run.missing
    spans = run.spans
    roots = [s for s in spans if s[1] == -1]
    assert [s[2] for s in roots] == ["cli.cmd_run"]
    for sid, parent, _, start, end in spans:
        assert start <= end
        if parent >= 0:
            assert parent < sid
            assert spans[parent][3] <= start and end <= spans[parent][4]
    assert min(tracing.self_times_ns(spans)) >= 0

    m = tracing.layer_metrics(run)
    assert m["replay.run_mode_calls"] == 3
    assert m["ingest.build_panel_calls"] == 2  # analyst and broker identity
    assert m["evaluate.panel_cache_hit_ratio"] == pytest.approx(1 / 3)
    assert m["replay.events_scored"] == m["features.normalize_event_calls"] > 0
    assert m["bias.lookups"] > 0 and m["bias.history_reads"] > 0


def test_tracing_off_installs_no_wrapper(runs):
    assert runs["after_child"] == runs["before"]
    assert runs["after_trace"] == runs["before"]
    assert tracing.installed_wrappers() == []


def test_traced_and_untraced_artifacts_hash_equal(runs):
    untraced = harness.hash_tree(str(runs["untraced"]))
    assert len(untraced) == len(harness.artifact_names(harness.mode_labels(TINY)))
    assert harness.hash_tree(str(runs["traced"])) == untraced
