"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the real stdout so the whole gate
can be read at a glance even under pytest capture.
"""

import math
import statistics
import sys
import time

import numpy as np
import pytest

from conftest import actuals_from_rows, estimate_rows, estimates_from_rows, load_synth
from estagg.aggregate import ModeConfig, default_mode_matrix, modes_by_label
from estagg.evaluate import (
    PanelSource,
    SurprisePair,
    average_stat,
    evaluate_mode,
    median_stat,
    run_mode_matrix,
    surprise_improvement,
    trend_stat,
)
from estagg.ingest import FilterConfig, build_panel
from estagg.model import FULL_MASK, fit_period
from estagg.periods import format_ts, parse_ts, quarter_index
from estagg.replay import run_mode
from estagg.synth import SynthSpec


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_around_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(num: int, name: str, ok: bool) -> None:
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.stdout, flush=True)
    assert ok, line


def stats_for(result, mode, burn_in):
    r = evaluate_mode(result, mode, burn_in)
    return r.median, r.average, r.trend, r.n_events


def test_criterion_01_regression_matches_independent_oracle():
    rng = np.random.default_rng(20240818)
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        n = int(rng.integers(8, 301))
        X = rng.normal(size=(n, 6))
        y = rng.normal(size=n)
        model = fit_period(X, y, (2011, 1), FULL_MASK)
        oracle, *_ = np.linalg.lstsq(X, y, rcond=None)
        ok &= bool(np.all(np.abs(model.beta - oracle) < 1e-8))
        resid = y - X @ model.beta
        scale = np.linalg.norm(X) * np.linalg.norm(y)
        ok &= bool(np.all(np.abs(X.T @ resid) < 1e-8 * max(scale, 1.0)))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(1, f"per-period regression matches lstsq oracle ({elapsed:.2f}s)", ok)


def test_criterion_02_truncation_leaves_past_outputs_bit_exact():
    spec = SynthSpec(
        n_firms=8,
        n_analysts=50,
        n_quarters=14,
        analysts_per_event=9,
        bias_scale=5.0,
        noise_scale=3.0,
        common_scale=2.0,
        seed=7001,
    )
    ests, acts, _ = load_synth(spec)

    def outcomes_by_key(panel):
        """Each event's outcome, its weights keyed by identity."""
        result = run_mode(panel, ModeConfig())
        return {
            (o.firm_id, o.period): (
                o.improved,
                o.simple_consensus,
                dict(zip(panel.idents[ev.rows], o.weights.tolist())),
                o.weights.tobytes(),
                o.fallback_reason,
            )
            for ev, o in zip(panel.events, result.outcomes)
        }

    full = outcomes_by_key(build_panel(ests, acts, FilterConfig()))
    q_all = sorted({quarter_index(a.period) for a in acts})
    rng = np.random.default_rng(7002)
    cuts = rng.choice(q_all[2:-1], size=10, replace=True)
    ok = True
    for cut in cuts:
        acts_cut = [a for a in acts if quarter_index(a.period) <= cut]
        keep = {(a.firm_id, a.period) for a in acts_cut}
        ests_cut = estimates_from_rows([r for r in estimate_rows(ests) if (r[2], (r[3], r[4])) in keep])
        trunc = outcomes_by_key(build_panel(ests_cut, acts_cut, FilterConfig()))
        for key, outcome in full.items():
            if quarter_index(key[1]) <= cut:
                ok &= trunc.get(key) == outcome
    report(2, "truncating the panel never changes earlier outputs", ok)


def test_criterion_03_recovers_injected_biases():
    from estagg.bias import ErrorLedger, HistoryLedger

    t0 = time.perf_counter()
    spec = SynthSpec(
        n_firms=50,
        n_analysts=200,
        n_quarters=40,
        analysts_per_event=8,
        bias_scale=5.0,
        noise_scale=3.0,
        common_scale=2.0,
        seed=8101,
    )
    ests, acts, gt = load_synth(spec)
    panel = build_panel(ests, acts, FilterConfig())
    ledger = ErrorLedger("identity_firm")
    history = HistoryLedger()
    for _, identity, firm_id, error_cents in panel.stream:
        ledger.record(identity, firm_id, error_cents)
        history.record(identity, firm_id, 0.0)
    est_b, true_b = [], []
    for firm, per_analyst in gt["biases"].items():
        for analyst, b in per_analyst.items():
            if history.experience(analyst, firm) > 0:
                est_b.append(ledger.bias(analyst, firm))
                true_b.append(b)
    rho = float(np.corrcoef(est_b, true_b)[0, 1])
    elapsed = time.perf_counter() - t0
    ok = rho > 0.9 and elapsed < 60.0
    report(3, f"analyst-firm bias recovery rho={rho:.3f} ({elapsed:.1f}s)", ok)


def test_criterion_04_component_and_keying_orderings():
    spec = SynthSpec(
        n_firms=60,
        n_analysts=300,
        n_quarters=36,
        analysts_per_event=16,
        bias_scale=8.0,
        skill_spread=5.0,
        noise_scale=3.0,
        common_scale=1.0,
        negative_surprise_target=0.3,
        seed=777,
    )
    ests, acts, _ = load_synth(spec)
    source = PanelSource(ests, acts, FilterConfig())
    labels = ["full", "no_expertise", "no_bias", "bias_global", "bias_firm", "bias_analyst"]
    results, _ = run_mode_matrix(source, modes_by_label(labels), burn_in=12)
    med = {r.label: r.median for r in results}
    sep = 0.02
    ok = med["full"] >= med["no_expertise"] + sep
    ok &= med["no_expertise"] >= med["no_bias"] + sep
    for alt in ("bias_global", "bias_firm", "bias_analyst"):
        ok &= med["full"] >= med[alt] + sep
    detail = " ".join(f"{k}={med[k]:.3f}" for k in labels)
    report(4, f"ablation orderings hold with >=2pp separation ({detail})", ok)


def test_criterion_05_no_signal_panel_reports_no_improvement():
    spec = SynthSpec(
        n_firms=100,
        n_analysts=400,
        n_quarters=60,
        analysts_per_event=20,
        bias_scale=0.0,
        skill_spread=1.0,
        noise_scale=2.0,
        common_scale=10.0,
        negative_surprise_target=0.5,
        seed=4242,
    )
    ests, acts, _ = load_synth(spec)
    panel = build_panel(ests, acts, FilterConfig())
    mode = ModeConfig()
    med, avg, _, n = stats_for(run_mode(panel, mode), mode, burn_in=40)
    ok = n >= 2000 and abs(med) < 0.02 and abs(avg) < 0.02
    report(5, f"null panel: median={med:+.4f} average={avg:+.4f} n={n}", ok)


def test_criterion_06_reduction_identities(small_panel_inputs):
    ests, acts, _ = small_panel_inputs
    panel = build_panel(ests, acts, FilterConfig())
    plain = ModeConfig(label="plain", use_bias=False, use_expertise=False)
    med, avg, trend, n = stats_for(run_mode(panel, plain), plain, burn_in=2)
    ok = n > 0 and med == 0.0 and avg == 0.0 and abs(trend) < 1e-12

    # identical predictions (every estimate equals the actual) must come out
    # flat in every mode
    degen = SynthSpec(
        n_firms=4,
        n_analysts=120,
        n_quarters=8,
        analysts_per_event=20,
        bias_scale=0.0,
        skill_spread=1.0,
        noise_scale=0.0,
        common_scale=0.0,
        seed=606,
    )
    dests, dacts, _ = load_synth(degen)
    source = PanelSource(dests, dacts, FilterConfig())
    # identity and window variants may keep too few analysts per event on
    # this small panel to score anything; zero there must mean "no events",
    # never a nonzero statistic
    may_be_empty = {"institution", "cutoff_30d", "cutoff_60d"}
    for mode in default_mode_matrix():
        rr = run_mode(source.panel_for(mode), mode)
        if mode.label not in may_be_empty:
            ok &= bool(rr.outcomes)
        ok &= all(o.improved == o.actual_cents for o in rr.outcomes)
        mr = evaluate_mode(rr, mode, burn_in=2)
        ok &= mr.median == 0.0 if mr.n_events else mr.median is None
    report(6, "switched-off and degenerate panels score exactly zero", ok)


def test_criterion_07_statistics_match_brute_force_oracles():
    rng = np.random.default_rng(70707)
    o = rng.normal(scale=5.0, size=500)
    o[np.abs(o) < 1e-3] = 1.0  # keep originals away from the sentinel case
    i = 0.6 * o + rng.normal(scale=1.0, size=500)
    pairs = [SurprisePair(a, b) for a, b in zip(o, i)]

    impr = [surprise_improvement(a, b) for a, b in zip(o, i)]
    med_oracle = statistics.median(sorted(impr))
    ok = abs(median_stat(impr) - med_oracle) < 1e-10

    avg_oracle = 1.0 - math.fsum(abs(x) for x in i) / math.fsum(abs(x) for x in o)
    ok &= abs(average_stat(pairs) - avg_oracle) < 1e-10

    slope = float(np.cov(o, i, bias=True)[0, 1] / np.var(o))
    r2 = float(np.corrcoef(o, i)[0, 1] ** 2)
    t, tr2 = trend_stat(pairs)
    ok &= abs(t - (1.0 - slope)) < 1e-10 and abs(tr2 - r2) < 1e-10
    report(7, "median/average/trend match brute-force oracles to 1e-10", ok)


def test_criterion_08_statistics_invariant_to_money_rescaling(small_panel_inputs):
    from dataclasses import replace

    ests, acts, _ = small_panel_inputs
    c = 7
    ests_s = replace(ests, value_cents=ests.value_cents * c)
    acts_s = [replace(a, value_cents=a.value_cents * c) for a in acts]
    mode = ModeConfig()
    base = stats_for(run_mode(build_panel(ests, acts, FilterConfig()), mode), mode, burn_in=4)
    scaled = stats_for(
        run_mode(build_panel(ests_s, acts_s, FilterConfig(surprise_cap_cents=50 * c)), mode),
        mode,
        burn_in=4,
    )
    ok = base[3] == scaled[3] and base[3] > 0
    for a, b in zip(base[:3], scaled[:3]):
        ok &= abs(a - b) < 1e-12
    report(8, "x7 money rescale leaves all three statistics unchanged to 1e-12", ok)


def test_criterion_09_every_rejection_rule_with_exact_outcomes():
    q1_announce = "2011-03-01T00:00:00Z"
    q2_announce = "2011-06-01T00:00:00Z"

    def ts_before(announce, hours):
        return format_ts(parse_ts(announce) - hours * 3600)

    act_rows = [
        ("F1", 2011, 1, q1_announce, 100),
        ("F2", 2011, 1, q1_announce, 100),
        ("F3", 2011, 1, q1_announce, 100),
        ("F1", 2011, 2, q2_announce, 100),
        ("F2", 2011, 2, q2_announce, 100),
        ("F3", 2011, 2, q2_announce, 100),
    ]
    # seeding quarter: first-ever estimates, all dropped for lack of a prior
    # record but still feeding the history ledgers
    est_rows = [(f"A{i}", "B1", "F1", 2011, 1, ts_before(q1_announce, 500), 6, 100) for i in range(1, 9)]
    est_rows += [
        ("A2", "B1", "F2", 2011, 1, ts_before(q1_announce, 500), 6, 100),
        ("A3", "B1", "F3", 2011, 1, ts_before(q1_announce, 500), 6, 100),
    ]
    # target quarter, 12 rows exercising one rule each:
    est_rows += [
        # last-estimate-wins: A1's early value is superseded by the later one
        ("A1", "B1", "F1", 2011, 2, ts_before(q2_announce, 40 * 24), 6, 95),
        ("A1", "B1", "F1", 2011, 2, ts_before(q2_announce, 20 * 24), 6, 101),
        # seven straightforward keeps, consensus close to the actual
        ("A2", "B1", "F1", 2011, 2, ts_before(q2_announce, 20 * 24), 6, 99),
        ("A3", "B1", "F1", 2011, 2, ts_before(q2_announce, 20 * 24), 6, 98),
        ("A4", "B1", "F1", 2011, 2, ts_before(q2_announce, 20 * 24), 6, 102),
        ("A5", "B1", "F1", 2011, 2, ts_before(q2_announce, 20 * 24), 6, 103),
        ("A6", "B1", "F1", 2011, 2, ts_before(q2_announce, 20 * 24), 6, 97),
        ("A7", "B1", "F1", 2011, 2, ts_before(q2_announce, 20 * 24), 6, 101),
        ("A8", "B1", "F1", 2011, 2, ts_before(q2_announce, 20 * 24), 6, 100),
        # inside the 48-hour lead window
        ("A9", "B1", "F1", 2011, 2, ts_before(q2_announce, 26), 6, 100),
        # consensus 100 cents off the actual: the 50-cent cap drops the event
        ("A2", "B1", "F2", 2011, 2, ts_before(q2_announce, 20 * 24), 6, 200),
        # lone analyst, below the 8-analyst minimum
        ("A3", "B1", "F3", 2011, 2, ts_before(q2_announce, 20 * 24), 6, 100),
    ]
    panel = build_panel(estimates_from_rows(est_rows), actuals_from_rows(act_rows), FilterConfig())

    rejects = dict(panel.report.rejects)
    ok = rejects == {
        "no_prior_record": 10,
        "superseded": 1,
        "too_close_to_announcement": 1,
        "surprise_cap": 1,
        "below_min_analysts": 1,
    }
    ok &= len(panel.events) == 1
    ev = panel.events[0]
    analysts = panel.analysts[ev.rows]
    ok &= ev.firm_id == "F1" and ev.period == (2011, 2) and len(analysts) == 8
    kept = dict(zip(analysts, panel.value_cents[ev.rows].tolist()))
    ok &= kept == {"A1": 101, "A2": 99, "A3": 98, "A4": 102, "A5": 103, "A6": 97, "A7": 101, "A8": 100}
    freq = dict(zip(analysts, panel.features[ev.rows, 1].tolist()))
    ok &= freq["A1"] == 2
    report(9, "hand fixture hits every rejection rule with exact outcomes", ok)


def test_criterion_10_repeated_runs_are_byte_identical(tmp_path):
    from estagg.cli import main

    synth = tmp_path / "panel"
    rc = main(
        [
            "synth",
            "--out",
            str(synth),
            "--n-firms",
            "6",
            "--n-analysts",
            "40",
            "--n-quarters",
            "10",
            "--analysts-per-event",
            "9",
            "--seed",
            "1234",
        ]
    )
    ok = rc == 0
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = main(
            [
                "run",
                "--estimates",
                str(synth / "estimates.csv"),
                "--actuals",
                str(synth / "actuals.csv"),
                "--out",
                str(out),
                "--modes",
                "full,no_bias,closest",
                "--burn-in",
                "4",
            ]
        )
        ok &= rc == 0
        outs.append(out)
    ok &= (outs[0] / "results.csv").read_bytes() == (outs[1] / "results.csv").read_bytes()
    report(10, "two runs from one configuration are byte-identical", ok)
