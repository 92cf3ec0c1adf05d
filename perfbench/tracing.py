"""Spans and counters around estagg's public functions, installed from outside.

A `Tracer` replaces the functions named in TIMED and COUNTED with wrappers
for the length of one traced run and puts the originals back afterwards, so
the program carries no tracing code and an untraced run executes none.

A timed wrapper records one span per call: id, parent id (-1 for a root),
name, start and end in integer nanoseconds. Spans of one run share the
tracer's run id. A counted wrapper only bumps a counter: the ledger methods
run 0.5-1.4 M times per matrix run, and a span each would dominate their
cost. Both kinds count calls under the span name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import sys
import time
import uuid
from collections import Counter, defaultdict
from dataclasses import dataclass

from estagg import cli


def _parse_rows(counts: Counter, result, args) -> None:
    counts["ingest.parse_rows"] += len(result[0])


def _fit_rows(counts: Counter, result, args) -> None:
    counts["model.rows_fit"] += len(args[0])
    if result is None:
        counts["model.fits_skipped"] += 1


def _fallback(counts: Counter, result, args) -> None:
    if result[0].fallback_reason is not None:
        counts["aggregate.fallbacks"] += 1


# (span name, module, attribute path, observer of the call's result); the
# first part of a span name is the layer its self time is booked to
TIMED = (
    ("cli.cmd_run", "estagg.cli", "cmd_run", None),
    ("ingest.parse_estimates", "estagg.ingest", "parse_estimates", _parse_rows),
    ("ingest.parse_actuals", "estagg.ingest", "parse_actuals", _parse_rows),
    ("ingest.build_panel", "estagg.ingest", "build_panel", None),
    ("evaluate.panel_for", "estagg.evaluate", "PanelSource.panel_for", None),
    ("evaluate.default_panel", "estagg.evaluate", "PanelSource.default_panel", None),
    ("evaluate.evaluate_mode", "estagg.evaluate", "evaluate_mode", None),
    ("replay.run_mode", "estagg.replay", "run_mode", None),
    ("replay.improved_consensus", "estagg.replay", "improved_consensus", _fallback),
    ("features.normalize_event", "estagg.features", "normalize_event", None),
    ("features.top10_brokers", "estagg.features", "top10_brokers", None),
    ("model.fit_period", "estagg.model", "fit_period", _fit_rows),
    ("aggregate.weight_vector", "estagg.aggregate", "weight_vector", None),
)
COUNTED = (
    ("bias.lookups", "estagg.bias", "BiasTracker.bias"),
    ("bias.records", "estagg.bias", "BiasTracker.record"),
    ("bias.experience", "estagg.bias", "HistoryLedger.experience"),
    ("bias.mean_abs_error", "estagg.bias", "HistoryLedger.mean_abs_error"),
    ("bias.history_records", "estagg.bias", "HistoryLedger.record"),
)

_MARK = "_perfbench_name"


def _owner_and_attr(modname: str, path: str):
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def installed_wrappers() -> list[str]:
    """Names of the targets that currently carry a tracing wrapper."""
    names = []
    for name, modname, path, *_ in TIMED + COUNTED:
        owner, attr = _owner_and_attr(modname, path)
        if hasattr(getattr(owner, attr, None), _MARK):
            names.append(name)
    return names


class Tracer:
    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # targets the program no longer has
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, name: str, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
                counts[name] += 1
            if observe is not None:
                observe(counts, result, args)
            return result

        return wrapper

    def _counted(self, name: str, fn, _observe):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, name: str, modname: str, path: str, make, observe=None) -> None:
        owner, attr = _owner_and_attr(modname, path)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{modname}.{path}")
            return
        wrapper = make(name, original, observe)
        setattr(wrapper, _MARK, name)
        # a module-level function is also bound by name in every module that
        # imported it with `from ... import`
        owners = [owner]
        if owner is sys.modules[modname]:
            owners = [
                m
                for key, m in sorted(sys.modules.items())
                if (key == "estagg" or key.startswith("estagg.")) and getattr(m, attr, None) is original
            ]
        for o in owners:
            self._patches.append((o, attr, original))
            setattr(o, attr, wrapper)

    def install(self) -> None:
        if self._patches or installed_wrappers():
            raise RuntimeError("tracing wrappers are already installed")
        try:
            for name, modname, path, observe in TIMED:
                self._patch(name, modname, path, self._timed, observe)
            for name, modname, path in COUNTED:
                self._patch(name, modname, path, self._counted)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


@dataclass
class TraceRun:
    run_id: str
    exit_code: int
    wall_s: float
    cpu_s: float
    spans: list
    counts: Counter
    missing: list


def traced_run(argv: list[str]) -> TraceRun:
    """Run `estagg.cli.main(argv)` in this process with the wrappers installed."""
    tracer = Tracer()
    tracer.install()
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        tracer.uninstall()
    return TraceRun(tracer.run_id, code, wall, cpu, tracer.spans, tracer.counts, tracer.missing)


def self_times_ns(spans: list) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so the children of a span never overlap and
    their summed durations are the part of the span they cover.
    """
    covered = [0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[sid] for sid, _, _, start, end in spans]


def self_time_by_layer(run: TraceRun) -> dict[str, float]:
    """Summed self time in seconds per layer (the first part of a span name)."""
    out = defaultdict(int)
    for (_, _, name, _, _), self_ns in zip(run.spans, self_times_ns(run.spans)):
        out[name.split(".", 1)[0]] += self_ns
    return {layer: ns / 1e9 for layer, ns in sorted(out.items())}


def layer_metrics(run: TraceRun) -> dict[str, float]:
    """Per-module metrics of one traced run, from its spans and counters."""
    total = defaultdict(int)
    for _, _, name, start, end in run.spans:
        total[name] += end - start
    self_s = self_time_by_layer(run)
    panel_builders = {parent for _, parent, name, _, _ in run.spans if name == "ingest.build_panel"}
    panel_for_ids = [sid for sid, _, name, _, _ in run.spans if name == "evaluate.panel_for"]
    hits = sum(1 for sid in panel_for_ids if sid not in panel_builders)
    c = run.counts

    def s(name: str) -> float:
        return total[name] / 1e9

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "ingest.parse_s": s("ingest.parse_estimates") + s("ingest.parse_actuals"),
        "ingest.parse_rows": c["ingest.parse_rows"],
        "ingest.build_panel_s": s("ingest.build_panel"),
        "ingest.build_panel_calls": c["ingest.build_panel"],
        "evaluate.panel_for_calls": len(panel_for_ids),
        "evaluate.panel_cache_hit_ratio": ratio(hits, len(panel_for_ids)),
        "evaluate.evaluate_mode_s": s("evaluate.evaluate_mode"),
        "replay.run_mode_calls": c["replay.run_mode"],
        "replay.run_mode_s": s("replay.run_mode"),
        "replay.self_s": self_s.get("replay", 0.0),
        "replay.improved_consensus_s": s("replay.improved_consensus"),
        "replay.events_scored": c["replay.improved_consensus"],
        "features.normalize_event_s": s("features.normalize_event"),
        "features.normalize_event_calls": c["features.normalize_event"],
        "features.top10_brokers_s": s("features.top10_brokers"),
        "features.top10_brokers_calls": c["features.top10_brokers"],
        "bias.lookups": c["bias.lookups"],
        "bias.records": c["bias.records"],
        "bias.history_reads": c["bias.experience"] + c["bias.mean_abs_error"],
        "bias.history_records": c["bias.history_records"],
        "model.fit_period_s": s("model.fit_period"),
        "model.fits": c["model.fit_period"],
        "model.fits_skipped": c["model.fits_skipped"],
        "model.rows_fit": c["model.rows_fit"],
        "aggregate.weight_vector_s": s("aggregate.weight_vector"),
        "aggregate.weight_vector_calls": c["aggregate.weight_vector"],
        "aggregate.fallback_share": ratio(c["aggregate.fallbacks"], c["replay.improved_consensus"]),
        "cli.self_s": self_s.get("cli", 0.0),
        "process.cpu_s": run.cpu_s,
        "process.cpu_util": ratio(run.cpu_s, run.wall_s),
    }


def write_spans(path: str, run: TraceRun) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
        for sid, parent, name, start, end in run.spans:
            fh.write(f"{run.run_id},{sid},{parent},{name},{start},{end}\n")
