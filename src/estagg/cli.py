"""Command-line entry points: run, synth, report.

`run` drives ingest -> replay -> evaluate and writes all artifacts plus a
manifest (config echo and input hashes) so a run is reproducible from its
output directory alone. `synth` writes a synthetic panel. `report`
re-renders results.csv from previously written per-event files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict

from . import __version__
from .aggregate import ModeConfig, default_mode_matrix, modes_by_label
from .evaluate import (
    ModeResult,
    PanelSource,
    SurprisePair,
    descriptive_stats,
    mode_result,
    pairs_from_outcomes,
    run_mode_matrix,
)
from .ingest import FilterConfig, cross_check_actuals, parse_actuals, parse_estimates
from .synth import SynthSpec, generate

logger = logging.getLogger(__name__)

# parse rejects listed per source in ingest_report.json, beside the counts
REJECT_SAMPLE_SIZE = 20

# settings a flag or the config file may give, each with its config-file
# cast; the filter and synth defaults live on FilterConfig and SynthSpec
RUN_SETTINGS = {
    "estimates": str,
    "actuals": str,
    "actuals_check": str,
    "out": str,
    "burn_in": int,
    "modes": str,
    "exponent": float,
}
FILTER_SETTINGS = {"min_analysts": int, "surprise_cap_cents": int, "min_lead_hours": int, "max_age_days": int}
SYNTH_SETTINGS = {
    "seed": int,
    "n_firms": int,
    "n_analysts": int,
    "n_quarters": int,
    "analysts_per_event": int,
    "bias_scale": float,
    "skill_spread": float,
    "noise_scale": float,
    "common_scale": float,
    "negative_surprise_target": float,
}


def _setup_logging() -> None:
    level = os.environ.get("ESTAGG_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _read_config_file(path: str) -> dict[str, str]:
    """Simple key=value config; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _settings(args: argparse.Namespace, cfg_file: dict[str, str], casts: dict) -> dict:
    """Each named setting from its flag, else from the config file; settings
    given in neither are left out, so the caller's defaults apply."""
    out = {}
    for key, cast in casts.items():
        value = getattr(args, key)
        if value is None and key in cfg_file:
            value = cast(cfg_file[key])
        if value is not None:
            out[key] = value
    return out


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _write_results_csv(path: str, results: list[ModeResult]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("mode,description,n_events,median,average,trend,r_squared,trend_supplementary\n")
        for r in results:
            fh.write(
                ",".join(
                    [
                        r.label,
                        '"%s"' % r.description,
                        str(r.n_events),
                        _fmt(r.median),
                        _fmt(r.average),
                        _fmt(r.trend),
                        _fmt(r.r_squared),
                        "1" if r.trend_supplementary else "0",
                    ]
                )
                + "\n"
            )


def cmd_run(args: argparse.Namespace) -> int:
    cfg_file = _read_config_file(args.config) if args.config else {}
    settings = _settings(args, cfg_file, RUN_SETTINGS)
    estimates_path = settings.get("estimates")
    actuals_path = settings.get("actuals")
    check_path = settings.get("actuals_check")
    out_dir = settings.get("out")
    burn_in = settings.get("burn_in", 24)
    mode_sel = settings.get("modes", "all")
    exponent = settings.get("exponent", ModeConfig.exponent)
    fcfg = FilterConfig(**_settings(args, cfg_file, FILTER_SETTINGS))

    if not estimates_path or not actuals_path or not out_dir:
        print("run requires --estimates, --actuals and --out (flags or config)", file=sys.stderr)
        return 2
    if burn_in < 1:
        print("burn-in must be >= 1 (a previous-period model is required)", file=sys.stderr)
        return 2

    written: list[str] = []
    models_dir = os.path.join(out_dir, "models")
    made_out_dir = made_models_dir = False
    try:
        for p in [estimates_path, actuals_path] + ([check_path] if check_path else []):
            if not os.path.isfile(p):
                raise FileNotFoundError(p)

        estimates, est_rejects = parse_estimates(estimates_path)
        actuals, act_rejects = parse_actuals(actuals_path)
        parse_rejects = {"estimates": est_rejects, "actuals": act_rejects}
        if check_path:
            check, parse_rejects["actuals_check"] = parse_actuals(check_path)
            confirmed = cross_check_actuals(actuals, check)
            check_report = {"confirmed": len(confirmed), "removed": len(actuals) - len(confirmed)}
            actuals = confirmed

        if mode_sel == "all":
            modes = default_mode_matrix(exponent)
        else:
            modes = modes_by_label([m.strip() for m in mode_sel.split(",") if m.strip()], exponent)

        source = PanelSource(estimates, actuals, fcfg)
        results, details = run_mode_matrix(source, modes, burn_in)

        made_out_dir = not os.path.isdir(out_dir)
        os.makedirs(out_dir, exist_ok=True)

        def out(name: str) -> str:
            p = os.path.join(out_dir, name)
            written.append(p)
            return p

        _write_results_csv(out("results.csv"), results)

        panel = source.default_panel()
        report = {
            "ingest": {"total": panel.report.total, "kept": panel.report.kept, "rejects": dict(panel.report.rejects)},
            "parse_rejects": {name: len(rejects) for name, rejects in parse_rejects.items()},
            "parse_reject_sample": {
                name: [{"line": r.line, "reason": r.reason} for r in rejects[:REJECT_SAMPLE_SIZE]]
                for name, rejects in parse_rejects.items()
            },
            "descriptive": descriptive_stats(panel) if panel.events else None,
        }
        if check_path:
            report["actuals_check"] = check_report
        with open(out("ingest_report.json"), "w", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

        made_models_dir = not os.path.isdir(models_dir)
        os.makedirs(models_dir, exist_ok=True)
        for mode, result in zip(modes, results):
            rr = details[mode.label]
            p = os.path.join(models_dir, f"{mode.label}.csv")
            written.append(p)
            with open(p, "w", newline="\n") as fh:
                fh.write("period_year,period_quarter,b_age,b_freq,b_ncos,b_top10,b_exp,b_mae,n_obs,rss\n")
                for m in rr.models:
                    betas = ",".join(repr(float(b)) for b in m.beta)
                    fh.write(f"{m.quarter[0]},{m.quarter[1]},{betas},{m.n_obs},{repr(m.rss)}\n")

            with open(out(f"events_{mode.label}.csv"), "w", newline="\n") as fh:
                fh.write(
                    "firm_id,period_year,period_quarter,actual_cents,simple_consensus,improved,"
                    "n_analysts,fallback_reason,in_evaluation\n"
                )
                for o in rr.outcomes:
                    fh.write(
                        f"{o.firm_id},{o.period[0]},{o.period[1]},{o.actual_cents},"
                        f"{repr(o.simple_consensus)},{repr(o.improved)},{o.n_analysts},"
                        f"{o.fallback_reason or ''},{1 if o.quarter_offset >= burn_in else 0}\n"
                    )

            with open(out(f"scatter_{mode.label}.csv"), "w", newline="\n") as fh:
                fh.write("original_surprise,improved_surprise\n")
                for p_ in pairs_from_outcomes(rr, burn_in):
                    fh.write(f"{repr(p_.original)},{repr(p_.improved)}\n")
            sidecar = {"n": result.n_events, "trend": result.trend, "r_squared": result.r_squared}
            with open(out(f"scatter_{mode.label}.json"), "w", newline="\n") as fh:
                json.dump(sidecar, fh, indent=2, sort_keys=True)
                fh.write("\n")

        manifest = {
            "version": __version__,
            "config": {
                "estimates": estimates_path,
                "actuals": actuals_path,
                "actuals_check": check_path,
                "burn_in": burn_in,
                "modes": [m.label for m in modes],
                "exponent": exponent,
                "filter": asdict(fcfg) | {"horizon_codes": sorted(fcfg.horizon_codes)},
            },
            "inputs": {
                os.path.basename(p): _sha256(p)
                for p in [estimates_path, actuals_path] + ([check_path] if check_path else [])
            },
        }
        with open(out("manifest.json"), "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except Exception as exc:  # remove partial outputs before failing
        for p in written:
            try:
                os.remove(p)
            except OSError:
                pass
        for made, path in ((made_models_dir, models_dir), (made_out_dir, out_dir)):
            if made:
                try:
                    os.rmdir(path)
                except OSError:
                    pass
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    for r in results:
        med = f"{100 * r.median:.1f}%" if r.median is not None else "n/a"
        avg = f"{100 * r.average:.1f}%" if r.average is not None else "n/a"
        print(f"{r.label:<14} median={med:>8} average={avg:>8} n={r.n_events}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg_file = _read_config_file(args.config) if args.config else {}
    try:
        spec = SynthSpec(**_settings(args, cfg_file, SYNTH_SETTINGS))
        paths = generate(spec, args.out)
    except ValueError as exc:
        print(f"synth failed: {exc}", file=sys.stderr)
        return 1
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = args.run_dir
    results: list[ModeResult] = []
    event_files = sorted(f for f in os.listdir(run_dir) if f.startswith("events_") and f.endswith(".csv"))
    if not event_files:
        print(f"no events_*.csv files in {run_dir}", file=sys.stderr)
        return 1
    for fname in event_files:
        label = fname[len("events_") : -len(".csv")]
        pairs = []
        with open(os.path.join(run_dir, fname), newline="") as fh:
            for row in csv.DictReader(fh):
                if row["in_evaluation"] != "1":
                    continue
                actual = float(row["actual_cents"])
                pairs.append(
                    SurprisePair(
                        float(row["simple_consensus"]) - actual,
                        float(row["improved"]) - actual,
                    )
                )
        results.append(mode_result(label, pairs))
    _write_results_csv(os.path.join(run_dir, "results.csv"), results)
    print(f"results.csv rebuilt from {len(event_files)} event files")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="estagg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="ingest, replay and evaluate a panel")
    run.add_argument("--estimates")
    run.add_argument("--actuals")
    run.add_argument("--actuals-check", dest="actuals_check")
    run.add_argument("--out")
    run.add_argument("--modes", help='"all" or comma-separated mode labels')
    run.add_argument("--burn-in", dest="burn_in", type=int)
    run.add_argument("--min-analysts", dest="min_analysts", type=int)
    run.add_argument("--surprise-cap-cents", dest="surprise_cap_cents", type=int)
    run.add_argument("--min-lead-hours", dest="min_lead_hours", type=int)
    run.add_argument("--max-age-days", dest="max_age_days", type=int)
    run.add_argument("--exponent", type=float)
    run.add_argument("--config")
    run.set_defaults(func=cmd_run)

    synth = sub.add_parser("synth", help="generate a synthetic panel")
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--n-firms", dest="n_firms", type=int)
    synth.add_argument("--n-analysts", dest="n_analysts", type=int)
    synth.add_argument("--n-quarters", dest="n_quarters", type=int)
    synth.add_argument("--analysts-per-event", dest="analysts_per_event", type=int)
    synth.add_argument("--bias-scale", dest="bias_scale", type=float)
    synth.add_argument("--skill-spread", dest="skill_spread", type=float)
    synth.add_argument("--noise-scale", dest="noise_scale", type=float)
    synth.add_argument("--common-scale", dest="common_scale", type=float)
    synth.add_argument("--negative-surprise-target", dest="negative_surprise_target", type=float)
    synth.add_argument("--config")
    synth.set_defaults(func=cmd_synth)

    report = sub.add_parser("report", help="re-render results.csv from per-event files")
    report.add_argument("--run-dir", dest="run_dir", required=True)
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
