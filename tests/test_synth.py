import json
from pathlib import Path

import numpy as np
import pytest

from conftest import load_synth, stream_rows
from estagg.synth import SynthSpec, generate, generate_rows


class TestSpecValidation:
    def test_infeasible_coverage(self):
        with pytest.raises(ValueError):
            SynthSpec(n_analysts=5, analysts_per_event=9).validate()

    def test_negative_scale(self):
        with pytest.raises(ValueError):
            SynthSpec(bias_scale=-1.0).validate()

    def test_bad_target(self):
        with pytest.raises(ValueError):
            SynthSpec(negative_surprise_target=0.0).validate()


class TestGenerate:
    def test_noiseless_estimates_equal_actual(self):
        spec = SynthSpec(
            n_firms=3,
            n_analysts=20,
            n_quarters=4,
            analysts_per_event=8,
            bias_scale=0.0,
            skill_spread=1.0,
            noise_scale=0.0,
            common_scale=0.0,
            seed=5,
        )
        est_rows, act_rows, _ = generate_rows(spec)
        actual_by = {(r[0], r[1], r[2]): r[4] for r in act_rows}
        for r in est_rows:
            assert r[7] == actual_by[(r[2], r[3], r[4])]

    def test_same_seed_byte_identical_files(self, tmp_path):
        spec = SynthSpec(n_firms=4, n_analysts=20, n_quarters=4, analysts_per_event=8, seed=42)
        p1 = generate(spec, str(tmp_path / "a"))
        p2 = generate(spec, str(tmp_path / "b"))
        for key in p1:
            assert Path(p1[key]).read_bytes() == Path(p2[key]).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        s1 = SynthSpec(n_firms=4, n_analysts=20, n_quarters=4, analysts_per_event=8, seed=1)
        s2 = SynthSpec(n_firms=4, n_analysts=20, n_quarters=4, analysts_per_event=8, seed=2)
        p1 = generate(s1, str(tmp_path / "a"))
        p2 = generate(s2, str(tmp_path / "b"))
        assert Path(p1["estimates"]).read_bytes() != Path(p2["estimates"]).read_bytes()

    def test_ground_truth_records_latents(self, tmp_path):
        spec = SynthSpec(n_firms=3, n_analysts=20, n_quarters=4, analysts_per_event=8, seed=9)
        paths = generate(spec, str(tmp_path))
        gt = json.loads(Path(paths["ground_truth"]).read_text())
        assert set(gt) >= {"spec", "skills", "brokers", "biases", "coverage"}
        assert len(gt["coverage"]) == 3
        for firm, cov in gt["coverage"].items():
            assert len(cov) == 8
            assert set(gt["biases"][firm]) == set(cov)

    def test_surprise_calibration_against_monte_carlo_oracle(self):
        # the mean absolute consensus surprise should match a direct draw
        # from the same latent model to within 20%
        spec = SynthSpec(
            n_firms=40,
            n_analysts=150,
            n_quarters=20,
            analysts_per_event=10,
            bias_scale=5.0,
            noise_scale=3.0,
            common_scale=3.0,
            seed=31,
        )
        ests, acts, gt = load_synth(spec)
        from estagg.evaluate import descriptive_stats
        from estagg.ingest import FilterConfig, build_panel

        panel = build_panel(ests, acts, FilterConfig())
        observed = descriptive_stats(panel)["mean_abs_surprise_cents"]

        rng = np.random.default_rng(999)
        n, k = 40000, spec.analysts_per_event
        mu = spec.common_scale * (-0.524400512708)  # Phi^-1(0.3)
        shift = rng.normal(mu, spec.common_scale, size=n)
        bias_mean = rng.normal(0, spec.bias_scale / np.sqrt(k), size=n)
        noise_mean = rng.normal(0, spec.noise_scale / np.sqrt(k), size=n)
        oracle = np.mean(np.abs(shift + bias_mean + noise_mean))
        assert abs(observed - oracle) / oracle < 0.20


class TestBiasRecoveryTrend:
    def test_recovered_bias_correlates_with_truth(self):
        # modest panel; the full-size recovery check lives in the
        # acceptance suite
        spec = SynthSpec(
            n_firms=20,
            n_analysts=80,
            n_quarters=24,
            analysts_per_event=8,
            bias_scale=5.0,
            noise_scale=3.0,
            common_scale=2.0,
            seed=61,
        )
        ests, acts, gt = load_synth(spec)
        from estagg.ingest import FilterConfig, build_panel
        from oracles import ErrorLedger, HistoryLedger

        panel = build_panel(ests, acts, FilterConfig())
        ledger = ErrorLedger("identity_firm")
        history = HistoryLedger()
        for _, identity, firm_id, error_cents in stream_rows(panel):
            ledger.record(identity, firm_id, error_cents)
            history.record(identity, firm_id, 0.0)
        est_b, true_b = [], []
        for firm, per_analyst in gt["biases"].items():
            for analyst, b in per_analyst.items():
                if history.experience(analyst, firm) > 0:
                    est_b.append(ledger.bias(analyst, firm))
                    true_b.append(b)
        rho = np.corrcoef(est_b, true_b)[0, 1]
        assert rho > 0.85
