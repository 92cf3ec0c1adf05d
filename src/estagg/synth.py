"""Deterministic synthetic panels with known ground truth.

Each (analyst, firm) pair carries a fixed additive bias, each analyst a
fixed noise multiplier (the differential-expertise knob), and each
firm-quarter a common shift that calibrates the negative-surprise share.
The latent parameters are emitted alongside the data so tests never
re-derive them from generator internals.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .ingest import ACTUAL_COLUMNS, ESTIMATE_COLUMNS
from .periods import format_ts

ESTIMATE_HEADER = ",".join(ESTIMATE_COLUMNS)
ACTUAL_HEADER = ",".join(ACTUAL_COLUMNS)

START_YEAR = 2004
BASE_EPS_CENTS = 100.0
EPS_SCALE = 30.0  # sd of the realized outcome around the base, cents


@dataclass(frozen=True)
class SynthSpec:
    n_firms: int = 50
    n_analysts: int = 200
    n_quarters: int = 40
    analysts_per_event: int = 8
    bias_scale: float = 5.0  # sd of per-(analyst, firm) true bias, cents
    skill_spread: float = 1.0  # analyst noise multipliers drawn from [1, spread]
    noise_scale: float = 3.0  # base idiosyncratic noise sd, cents
    common_scale: float = 5.0  # sd of the per-event common shift, cents
    negative_surprise_target: float = 0.3
    seed: int = 12345

    def validate(self) -> None:
        """Fails naming the first setting the generator cannot honour."""
        least = dict.fromkeys(("n_firms", "n_analysts", "n_quarters", "analysts_per_event"), 1)
        least |= {"seed": 0, "bias_scale": 0, "noise_scale": 0, "common_scale": 0, "skill_spread": 1}
        for name, low in least.items():
            value = getattr(self, name)
            if not low <= value < math.inf:  # nan fails too
                raise ValueError(f"{name} must be >= {low}" if value < math.inf else f"{name} must be finite")
        if self.analysts_per_event > self.n_analysts:
            raise ValueError("analysts_per_event exceeds n_analysts")
        if not 0.0 < self.negative_surprise_target < 1.0:
            raise ValueError("negative_surprise_target must be a fraction")


def _quarter_end(year: int, quarter: int) -> datetime:
    if quarter == 4:
        nxt = datetime(year + 1, 1, 1, tzinfo=timezone.utc)
    else:
        nxt = datetime(year, 3 * quarter + 1, 1, tzinfo=timezone.utc)
    return nxt - timedelta(days=1)


def generate_rows(spec: SynthSpec):
    """Produce (estimate_rows, actual_rows, ground_truth) deterministically."""
    spec.validate()
    root = np.random.SeedSequence(spec.seed)
    global_rng = np.random.default_rng(root.spawn(1)[0])
    firm_seeds = root.spawn(spec.n_firms + 1)[1:]

    analyst_ids = [f"A{i:04d}" for i in range(spec.n_analysts)]
    n_brokers = max(3, spec.n_analysts // 6)
    broker_weights = np.arange(1, n_brokers + 1, dtype=float)
    broker_weights /= broker_weights.sum()
    broker_of = {
        a: f"B{int(k):03d}"
        for a, k in zip(analyst_ids, global_rng.choice(n_brokers, size=spec.n_analysts, p=broker_weights))
    }
    skills = {a: float(s) for a, s in zip(analyst_ids, global_rng.uniform(1.0, spec.skill_spread, spec.n_analysts))}

    if spec.common_scale > 0:
        from statistics import NormalDist  # here, so that no run pays for the import of statistics
        shift_mu = spec.common_scale * NormalDist().inv_cdf(spec.negative_surprise_target)
    else:
        shift_mu = 0.0

    estimate_rows = []
    actual_rows = []
    biases: dict[str, dict[str, float]] = {}
    coverage: dict[str, list[str]] = {}

    for f in range(spec.n_firms):
        firm = f"F{f:03d}"
        rng = np.random.default_rng(firm_seeds[f])
        covering = sorted(rng.choice(spec.n_analysts, size=spec.analysts_per_event, replace=False).tolist())
        cov_ids = [analyst_ids[i] for i in covering]
        coverage[firm] = cov_ids
        biases[firm] = {a: float(rng.normal(0.0, spec.bias_scale)) if spec.bias_scale > 0 else 0.0 for a in cov_ids}
        offset_h = int(rng.integers(0, 120))

        for q in range(spec.n_quarters):
            year = START_YEAR + q // 4
            quarter = q % 4 + 1
            announce_dt = _quarter_end(year, quarter) + timedelta(days=30, hours=offset_h)
            announce_ts = int(announce_dt.timestamp())
            actual = int(round(BASE_EPS_CENTS + rng.normal(0.0, EPS_SCALE)))
            actual_rows.append((firm, year, quarter, format_ts(announce_ts), actual))
            shift = rng.normal(shift_mu, spec.common_scale) if spec.common_scale > 0 else 0.0
            for a in cov_ids:
                age_days = float(rng.uniform(3.0, 120.0))
                est_ts = announce_ts - int(round(age_days * 86400))
                sd = skills[a] * spec.noise_scale
                value = int(round(actual + shift + biases[firm][a] + sd * rng.standard_normal()))
                estimate_rows.append((a, broker_of[a], firm, year, quarter, format_ts(est_ts), 6, value))

    ground_truth = {
        "spec": asdict(spec),
        "skills": skills,
        "brokers": broker_of,
        "biases": biases,
        "coverage": coverage,
        "common_shift_mu": shift_mu,
    }
    return estimate_rows, actual_rows, ground_truth


def generate(spec: SynthSpec, out_dir: str) -> dict[str, str]:
    """Write estimates.csv, actuals.csv and ground_truth.json."""
    estimate_rows, actual_rows, ground_truth = generate_rows(spec)
    os.makedirs(out_dir, exist_ok=True)
    names = {"estimates": "estimates.csv", "actuals": "actuals.csv", "ground_truth": "ground_truth.json"}
    paths = {key: os.path.join(out_dir, name) for key, name in names.items()}
    for name, header, rows in (("estimates", ESTIMATE_HEADER, estimate_rows), ("actuals", ACTUAL_HEADER, actual_rows)):
        with open(paths[name], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
    with open(paths["ground_truth"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ground_truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
