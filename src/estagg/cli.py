"""Command-line entry points: run, synth, report.

`run` drives ingest -> replay -> evaluate and writes all artifacts plus a
manifest (config echo and input hashes) so a run is reproducible from its
output directory alone. `synth` writes a synthetic panel. `report`
re-renders results.csv from previously written per-event files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from collections import namedtuple
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .aggregate import DEFAULT_EXPONENT, default_mode_matrix, modes_by_label
from .evaluate import ModeResult, PanelSource, run_mode_matrix, surprises
from .ingest import HORIZON_CODES, MIN_LEAD_HOURS, FilterConfig, Panel, cross_check_actuals, parse_actuals
from .ingest import parse_estimates, read_lines
from .model import N_VARS, PeriodModel
from .replay import FALLBACK_NAMES, ReplayResult

# parse rejects listed per source in ingest_report.json, beside the counts
REJECT_SAMPLE_SIZE = 20

# settings a flag or the config file may give, each with its config-file
# cast, in the order of the flags; the filter settings are FilterConfig's
# fields, cast by their defaults' types, and the synth defaults live on SynthSpec
RUN_SETTINGS = dict.fromkeys(("estimates", "actuals", "actuals_check", "out", "modes"), str)
RUN_SETTINGS |= {"burn_in": int, "exponent": float}
FILTER_SETTINGS = {key: type(default) for key, default in FilterConfig._field_defaults.items()}
SYNTH_SETTINGS = dict.fromkeys(("seed", "n_firms", "n_analysts", "n_quarters", "analysts_per_event"), int)
SYNTH_SETTINGS |= dict.fromkeys(("bias_scale", "skill_spread", "noise_scale", "common_scale"), float)
SYNTH_SETTINGS |= {"negative_surprise_target": float}
# the flags of the int and float settings, which main joins to a value that argparse would read as an option
NUMERIC_FLAGS = [
    "--" + key.replace("_", "-")
    for key, cast in (RUN_SETTINGS | FILTER_SETTINGS | SYNTH_SETTINGS).items()
    if cast is not str
]


# a panel's per-event fields that no mode changes, from _event_fields, each a list
EventFields = namedtuple(
    "EventFields",
    [
        "heads",  # firm, period, actual and simple consensus, as text
        "n_analysts",
        "evaluated",  # 1 past the burn-in, else 0
        "original",  # the original surprise of each evaluated event, as text: a scatter row's first field
    ],
)


def _setup_logging() -> None:
    """Log to stderr at the level ESTAGG_LOG names, WARNING for other text.
    Called only when ESTAGG_LOG is set: a run that logs nothing visible
    does not import logging (ingest.log_info)."""
    import logging

    # getLevelName maps a level's name to its number and other text, such as BASIC_FORMAT, to text
    level = logging.getLevelName(os.environ["ESTAGG_LOG"].upper())
    level = level if isinstance(level, int) else logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _settings(args: argparse.Namespace, casts: dict) -> dict:
    """Each setting of `casts` from its flag, else from the key=value config
    file, where a '#' at a line's start or after whitespace starts a comment,
    so a value may hold one; settings given in neither are left
    out, so the caller's defaults apply. A config line that is not such a
    setting with a value that casts fails with the path and line number, and
    a setting given twice fails naming both lines."""
    out = {}
    first: dict[str, int] = {}  # the line each key is first given on
    if args.config:
        for number, raw in enumerate(read_lines(args.config), 1):
            key, eq, value = (part.strip() for part in re.split(r"(?<!\S)#", raw, maxsplit=1)[0].partition("="))
            try:
                if eq and first.setdefault(key, number) != number:
                    raise ValueError(f"setting {key!r} given again, first on {args.config}:{first[key]}")
                if eq and key in casts:
                    out[key] = casts[key](value)
                elif key or eq:
                    raise ValueError(f"unknown setting {key!r}" if eq else f"expected key = value, got {key!r}")
            except ValueError as exc:
                raise ValueError(f"{args.config}:{number}: {exc}") from None
    return out | {key: getattr(args, key) for key in casts if getattr(args, key) is not None}


def _sha256(path: str) -> str:
    # hashlib loads OpenSSL's libcrypto, about 3.5 MiB resident; imported
    # here, it loads as the manifest hashes the inputs, after every panel is
    # gone, instead of at start-up, where it would add to the run's peak
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def _write_json(path: str, value) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_results_csv(path: str, results: list[ModeResult]) -> None:
    """One row per mode: its label, quoted description, event count, statistics and supplementary flag."""
    stats = (map(_fmt, (r.median, r.average, r.trend, r.r_squared)) for r in results)
    rows = ((r.label, r.description, r.n_events, *s, r.trend_supplementary) for r, s in zip(results, stats))
    header = "mode,description,n_events,median,average,trend,r_squared,trend_supplementary"
    _write_rows(path, header, '%s,"%s",%d,%s,%s,%s,%s,%d\n', rows)


def _write_rows(path: str, header: str, line: str, rows: Iterable[tuple]) -> None:
    """A CSV file of `header` and, per row, the %-format `line` filled with
    the row's fields, one C-level call per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(map(line.__mod__, rows))


def _event_fields(panel: Panel, burn_in: int) -> EventFields:
    """The fields of each event that no mode changes, formatted once per panel."""
    events, layout = panel.events, panel.layout
    # each distinct firm id once, quoted as csv.writer's default dialect quotes a comma, quote or line break
    quoted = ['"%s"' % f.replace('"', '""') if any(c in f for c in ',"\r\n') else f for f in events.firm_ids]
    firms = map(quoted.__getitem__, events.firm.tolist())
    columns = (events.year.tolist(), events.quarter.tolist(), events.value_cents.tolist(), layout.simple.tolist())
    heads = list(map("%s,%d,%d,%d,%r".__mod__, zip(firms, *columns)))
    evaluated = layout.offset >= burn_in
    original = list(map(repr, (layout.simple - events.value_cents)[evaluated].tolist()))  # as evaluate.surprises
    return EventFields(heads, np.diff(panel.bounds).tolist(), evaluated.astype(np.int64).tolist(), original)


def _write_events(path: str, result: ReplayResult, fields: EventFields) -> None:
    """One row per event of the result's panel, in announcement order;
    `fields` are the panel's _event_fields."""
    reasons = map(FALLBACK_NAMES.__getitem__, result.fallback_reason.tolist())
    rows = zip(fields.heads, result.improved.tolist(), fields.n_analysts, reasons, fields.evaluated)
    header = (
        "firm_id,period_year,period_quarter,actual_cents,simple_consensus,improved,"
        "n_analysts,fallback_reason,in_evaluation"
    )
    _write_rows(path, header, "%s,%r,%d,%s,%d\n", rows)


def _write_models(path: str, models: list[PeriodModel]) -> None:
    """One row per fitted quarter: its betas, observation count and residual sum of squares."""
    rows = ((*m.quarter, *m.beta.tolist(), m.n_obs, m.rss) for m in models)
    header = "period_year,period_quarter,b_age,b_freq,b_ncos,b_top10,b_exp,b_mae,n_obs,rss"
    _write_rows(path, header, "%d,%d," + "%r," * N_VARS + "%d,%r\n", rows)


def _write_mode(
    out: Callable[[str], str], label: str, replay: ReplayResult, result: ModeResult, fields: EventFields, burn_in: int
) -> None:
    """A mode's models, events and scatter files, at the paths `out` gives
    for their names; `fields` are its panel's _event_fields."""
    _write_models(out(os.path.join("models", f"{label}.csv")), replay.models)
    _write_events(out(f"events_{label}.csv"), replay, fields)
    _, improved = surprises(replay, burn_in)
    rows = zip(fields.original, improved.tolist())
    _write_rows(out(f"scatter_{label}.csv"), "original_surprise,improved_surprise", "%s,%r\n", rows)
    sidecar = {"n": result.n_events, "trend": result.trend, "r_squared": result.r_squared}
    _write_json(out(f"scatter_{label}.json"), sidecar)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        settings = _settings(args, RUN_SETTINGS | FILTER_SETTINGS)
    except (OSError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    estimates_path, actuals_path = settings.get("estimates"), settings.get("actuals")
    check_path, out_dir = settings.get("actuals_check"), settings.get("out")
    burn_in = settings.get("burn_in", 24)
    mode_sel = settings.get("modes", "all")
    exponent = settings.get("exponent", DEFAULT_EXPONENT)
    fcfg = FilterConfig(**{key: settings[key] for key in FILTER_SETTINGS if key in settings})

    if not estimates_path or not actuals_path or not out_dir:
        print("run requires --estimates, --actuals and --out (flags or config)", file=sys.stderr)
        return 2
    # each of these settings would leave nothing to score, or score a
    # panel other than the one ingest_report.json describes
    for failed, message in (
        (burn_in < 1, "burn-in must be >= 1 (a previous-period model is required)"),
        (fcfg.min_lead_hours < MIN_LEAD_HOURS, f"min-lead-hours must be >= {MIN_LEAD_HOURS} (the modes' floor)"),
        (fcfg.surprise_cap_cents < 0, "surprise-cap-cents must be >= 0 (a negative cap rejects every event)"),
        (fcfg.max_age_days * 24 < fcfg.min_lead_hours, "max-age-days * 24 must be >= min-lead-hours"),
        (fcfg.min_analysts < 1, "min-analysts must be >= 1 (every event has an analyst)"),
    ):
        if failed:
            print(message, file=sys.stderr)
            return 2

    import errno
    import shutil
    import tempfile

    inputs = {"estimates": estimates_path, "actuals": actuals_path, "actuals_check": check_path}
    written: list[str] = []  # each file's path relative to out_dir and to the stage, in the order written
    made_out_dir, stage = False, None
    try:
        for name, p in inputs.items():
            if p and not os.path.isfile(p):
                raise FileNotFoundError(f"setting {name!r}: no such file {p!r}")

        estimates, est_rejects = parse_estimates(estimates_path)
        actuals, act_rejects = parse_actuals(actuals_path)
        parse_rejects = {"estimates": est_rejects, "actuals": act_rejects}
        if check_path:
            check, parse_rejects["actuals_check"] = parse_actuals(check_path)
            confirmed = cross_check_actuals(actuals, check)
            check_report = {"confirmed": len(confirmed), "removed": len(actuals) - len(confirmed)}
            actuals = confirmed

        labels = [m.strip() for m in mode_sel.split(",") if m.strip()]
        modes = default_mode_matrix(exponent) if mode_sel == "all" else modes_by_label(labels, exponent)

        made_out_dir = not os.path.isdir(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        # every file is written into a stage, then moved into place, so a
        # failed run leaves the files of the run before it as they were
        stage = tempfile.mkdtemp(prefix=".stage-", dir=out_dir)
        os.mkdir(os.path.join(stage, "models"))

        def out(name: str) -> str:
            written.append(name)
            return os.path.join(stage, name)

        # each mode's files are written as soon as it is scored; only its
        # statistics are kept, for results.csv
        source = PanelSource(estimates, actuals, fcfg)
        results = [None] * len(modes)  # each mode's ModeResult, in the order of modes
        key = fields = None  # the panel key of the last mode written, and that panel's _event_fields
        for i, replay, result in run_mode_matrix(source, modes, burn_in):
            if source.panel_key(modes[i]) != key:  # run_mode_matrix hands out each panel's modes back to back
                key, fields = source.panel_key(modes[i]), None  # the last panel's fields go before these are built
                fields = _event_fields(replay.panel, burn_in)
            _write_mode(out, modes[i].label, replay, result, fields, burn_in)
            results[i] = result
            del replay  # hold no panel while the next group's is built

        ingest, descriptive = source.ingest_summary()
        report = {
            "ingest": {"total": ingest.total, "kept": ingest.kept, "rejects": dict(ingest.rejects)},
            "parse_rejects": {name: len(rejects) for name, rejects in parse_rejects.items()},
            "parse_reject_sample": {
                name: [{"line": r.line, "reason": r.reason} for r in rejects[:REJECT_SAMPLE_SIZE]]
                for name, rejects in parse_rejects.items()
            },
            "descriptive": descriptive,
        }
        if check_path:
            report["actuals_check"] = check_report
        _write_json(out("ingest_report.json"), report)
        _write_results_csv(out("results.csv"), results)

        manifest = {
            "version": __version__,
            "config": {
                "estimates": estimates_path,
                "actuals": actuals_path,
                "actuals_check": check_path,
                "burn_in": burn_in,
                "modes": [m.label for m in modes],
                "exponent": exponent,
                "filter": fcfg._asdict() | {"horizon_codes": sorted(HORIZON_CODES)},
            },
            "inputs": {name: _sha256(p) for name, p in inputs.items() if p},  # by setting, as basenames may repeat
        }
        _write_json(out("manifest.json"), manifest)
        for target in (os.path.join(out_dir, name) for name in written):
            if os.path.isdir(target):  # found before any file moves
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        os.makedirs(os.path.join(out_dir, "models"), exist_ok=True)
        for name in written:
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
        shutil.rmtree(stage)
    except BaseException as exc:  # remove the output directory if the run made it, else the stage within it
        if made_out_dir or stage:
            shutil.rmtree(out_dir if made_out_dir else stage, ignore_errors=True)
        if not isinstance(exc, Exception):  # an interrupt or exit still ends the process, with nothing left behind
            raise
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    for r in results:
        med = f"{100 * r.median:.1f}%" if r.median is not None else "n/a"
        avg = f"{100 * r.average:.1f}%" if r.average is not None else "n/a"
        print(f"{r.label:<14} median={med:>8} average={avg:>8} n={r.n_events}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SynthSpec, generate  # only this command needs synth and the dataclass it builds

    try:
        spec = SynthSpec(**_settings(args, SYNTH_SETTINGS))
        paths = generate(spec, args.out)
    except (OSError, ValueError) as exc:
        print(f"synth failed: {exc}", file=sys.stderr)
        return 1
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from . import report  # only this command reads a run's files back

    return report.cmd_report(args)


def _add_settings(parser: argparse.ArgumentParser, casts: dict, **helps: str) -> None:
    """A flag for each setting of `casts`, its name with dashes for
    underscores, then --config."""
    for key, cast in casts.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=cast, help=helps.get(key))
    parser.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="estagg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="ingest, replay and evaluate a panel")
    _add_settings(run, RUN_SETTINGS | FILTER_SETTINGS, modes='"all" or comma-separated mode labels')
    run.set_defaults(func=cmd_run)

    synth = sub.add_parser("synth", help="generate a synthetic panel")
    synth.add_argument("--out", required=True)
    _add_settings(synth, SYNTH_SETTINGS)
    synth.set_defaults(func=cmd_synth)

    report = sub.add_parser("report", help="re-render results.csv from per-event files")
    report.add_argument("--run-dir", dest="run_dir", required=True)
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    if "ESTAGG_LOG" in os.environ:
        _setup_logging()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate -inf or -1e3 as an option: join it to its flag, or to a prefix
    # of one, which argparse then resolves or reports as ambiguous
    for i in reversed(range(1, len(argv))):
        if len(argv[i - 1]) > 2 and any(flag.startswith(argv[i - 1]) for flag in NUMERIC_FLAGS):
            with contextlib.suppress(ValueError):  # a value that does not parse as a float stays separate
                float(argv[i])
                argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
