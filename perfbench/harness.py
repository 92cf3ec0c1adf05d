"""Closed-loop benchmark of `estagg run`, end to end and per module.

One client runs one `estagg run` child at a time: each repetition spawns the
child, waits for it to exit and only then starts the next, so a slower
program receives less load. Inputs are generated once per invocation from the
seed (see workloads.py), and every repetition's artifacts are checked.

With `--trace 0` the benchmark reports the end-to-end metrics declared in
BENCHMARK.json, as medians over the repetitions. With `--trace 1` it
alternates an untraced child with a traced run of the same inputs inside this
process (see tracing.py) and reports the per-module metrics; the two runs'
artifacts must be byte-identical.

Speed adjustment. The 2-core shared machine this benchmark was built on
changes speed by up to 1.7x in phases lasting from seconds to minutes, and a
child's CPU time changes with it, so the median spawn-to-exit time over a
20 s run moved by 25-36% between runs. While a child runs, this process
therefore times a short fixed probe every PROBE_PERIOD_S on the other core,
and `wall_s` is the median over the children of each one's spawn-to-exit
time multiplied by PROBE_REF_S / (median probe time during that child):
seconds on a machine where the probe takes PROBE_REF_S. `setup_s` is the
median ratio of a set-up spawn to a reference spawn made just before it
(interpreter start-up plus the numpy import), times SETUP_REF_S. The probe
and the reference are the benchmark's own, so a change to estagg moves the
adjusted times as much as the raw ones; the raw median wall time is printed
alongside, and every sample is kept in the results file.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import hashlib
import json
import os
import platform
import shutil
import select
import statistics
import subprocess
import sys
import time

import numpy as np

from estagg.aggregate import default_mode_matrix
from tracing import installed_wrappers, layer_metrics, self_time_by_layer, traced_run, write_spans
from workloads import WORKLOADS, Inputs, Workload, write_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = ".perfbench_work"  # relative to ROOT, which is the working directory
GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
DEFAULT_SEED = 1
# the speed probe: about 0.5 ms of work on an idle core of the 2-core
# machine the benchmark was built on, repeated every 25 ms (a 2% duty cycle)
PROBE_LOOPS = 6_000
PROBE_NUMPY_CALLS = 40
_PROBE_ARRAY = np.arange(8.0)
PROBE_PERIOD_S = 0.025
PROBE_REF_S = 0.5e-3
SETUP_ARGV = [sys.executable, "-c", "from estagg.cli import build_parser; build_parser()"]
# interpreter start-up and the numpy import, which no change to estagg can
# speed up, take about 0.2 s of the 0.26 s set-up on an idle core; they spend
# their time in page faults and file reads, which the probe does not track
SETUP_REF_ARGV = [sys.executable, "-c", "import numpy"]
SETUP_REF_S = 0.2
# every invocation must end within 180 s; leave room for the report
DEADLINE_S = 165.0


@dataclasses.dataclass(frozen=True)
class Spawned:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    probes: tuple  # durations of the speed probes taken while the child ran

    @property
    def adjusted_s(self) -> float:
        """Wall time rescaled to a machine on which one probe takes PROBE_REF_S."""
        return self.wall_s * PROBE_REF_S / statistics.median(self.probes)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ESTAGG_LOG"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe() -> float:
    """Time a fixed mix of interpreter-bound and small-numpy work, the two
    kinds `estagg run` spends its time on: a sample of the machine's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    for _ in range(PROBE_NUMPY_CALLS):
        _PROBE_ARRAY.mean()
    return time.perf_counter() - t0


def spawn(argv: list[str], timeout_s: float, stderr_path: str = os.devnull) -> Spawned:
    """Run one child from spawn to exit; kill it once `timeout_s` has passed.

    While the child runs, this process probes the machine's speed every
    PROBE_PERIOD_S on the other core. The peak RSS is the child's own
    `ru_maxrss`, read from `os.wait4` on its pid, not the maximum over all
    children so far.
    """
    probes = []
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        exited = os.pidfd_open(proc.pid)
        try:
            while True:
                probes.append(probe())
                if select.select([exited], [], [], PROBE_PERIOD_S)[0]:
                    break
                if time.perf_counter() - t0 > timeout_s:
                    proc.kill()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(exited)
        wall = time.perf_counter() - t0
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, wall, usage.ru_maxrss / 1024.0, tuple(probes))


def mode_labels(workload: Workload) -> list[str]:
    if workload.modes == "all":
        return [m.label for m in default_mode_matrix()]
    return workload.modes.split(",")


def run_argv(workload: Workload, inputs: Inputs, out_dir: str) -> list[str]:
    return ["run", "--estimates", inputs.estimates, "--actuals", inputs.actuals, "--out", out_dir, "--modes", workload.modes]


def artifact_names(labels: list[str]) -> list[str]:
    names = ["results.csv", "ingest_report.json", "manifest.json"]
    for m in labels:
        names += [f"events_{m}.csv", f"scatter_{m}.csv", f"scatter_{m}.json", f"models/{m}.csv"]
    return names


def hash_tree(out_dir: str) -> dict[str, str]:
    """SHA-256 of every file under `out_dir`, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, out_dir).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def golden_subset(hashes: dict[str, str]) -> dict[str, str]:
    """The artifacts pinned by goldens: results, events, scatter and models."""
    return {
        k: v
        for k, v in hashes.items()
        if k == "results.csv" or k.startswith(("events_", "scatter_", "models/"))
    }


def check_run_dir(out_dir: str, labels: list[str], inputs: Inputs) -> list[str]:
    """Invariants every seed must satisfy; returns the violations found."""
    missing = [n for n in artifact_names(labels) if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return [f"missing {len(missing)} artifacts, first {missing[0]}"]
    errors = []
    with open(os.path.join(out_dir, "results.csv"), newline="") as fh:
        got = [row["mode"] for row in csv.DictReader(fh)]
    if got != labels:
        errors.append(f"results.csv rows {got} differ from the requested modes {labels}")
    with open(os.path.join(out_dir, "ingest_report.json")) as fh:
        report = json.load(fh)["ingest"]
    rejects = report["rejects"]
    if report["kept"] + sum(rejects.values()) != report["total"]:
        errors.append(f"kept {report['kept']} + rejects {sum(rejects.values())} != total {report['total']}")
    if report["total"] != inputs.n_estimates:
        errors.append(f"ingest total {report['total']} != {inputs.n_estimates} input rows")
    for reason, n in inputs.expected_rejects.items():
        if rejects.get(reason, 0) != n:
            errors.append(f"{rejects.get(reason, 0)} {reason} rejects, {n} injected")
    return errors


def load_goldens(workload: str, seed: int) -> tuple[dict | None, str]:
    """Golden hashes for this workload and seed, or None with the reason."""
    if not os.path.isfile(GOLDENS):
        return None, "no goldens file"
    with open(GOLDENS) as fh:
        g = json.load(fh)
    if seed != g["seed"]:
        return None, f"goldens cover seed {g['seed']} only"
    here = (platform.python_version(), np.__version__)
    if here != (g["python"], g["numpy"]):
        return None, f"goldens recorded with python {g['python']}, numpy {g['numpy']}; running {here[0]}, {here[1]}"
    if workload not in g["workloads"]:
        return None, "no goldens for this workload"
    return g["workloads"][workload], "checked"


class OutputCheck:
    """Checks every run of one invocation: invariants, goldens, and that all
    runs (traced or not) wrote byte-identical artifacts."""

    def __init__(self, labels: list[str], inputs: Inputs, golden: dict | None):
        self.labels = labels
        self.inputs = inputs
        self.golden = golden
        self.reference: dict | None = None

    def __call__(self, exit_code: int, out_dir: str) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        errors = check_run_dir(out_dir, self.labels, self.inputs)
        hashes = hash_tree(out_dir)
        if self.golden is not None and golden_subset(hashes) != self.golden:
            errors.append("artifacts differ from the goldens")
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            errors.append("artifacts differ from the first run's")
        return errors


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc.__class__.__name__})"
    return out.stdout.strip() or "unknown"


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def dir_stats(out_dir: str) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


class Bench:
    """One benchmark invocation: a workload, its inputs and its run log."""

    def __init__(self, workload: Workload, seed: int, work_dir: str, deadline: float):
        self.workload = workload
        self.work_dir = work_dir
        self.deadline = deadline
        self.inputs = write_inputs(workload, seed, os.path.join(work_dir, "input"))
        self.labels = mode_labels(workload)
        golden, self.golden_status = load_goldens(workload.name, seed)
        self.check = OutputCheck(self.labels, self.inputs, golden)
        self.attempted = 0
        self.failed = 0

    def record(self, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"run {self.attempted} failed: {'; '.join(errors)}", file=sys.stderr)
        return not errors

    def timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def child(self) -> tuple[Spawned, bool]:
        """One untraced `estagg run` child, checked; its outputs are removed."""
        out_dir = os.path.join(self.work_dir, "out")
        stderr_path = os.path.join(self.work_dir, "child.err")
        argv = [sys.executable, "-m", "estagg.cli"] + run_argv(self.workload, self.inputs, out_dir)
        result = spawn(argv, self.timeout(), stderr_path)
        errors = self.check(result.exit_code, out_dir)
        if result.exit_code != 0:
            with open(stderr_path, errors="replace") as fh:
                errors.append(fh.read().strip()[-500:])
        ok = self.record(errors)
        shutil.rmtree(out_dir, ignore_errors=True)
        return result, ok

    def setup_ratio(self) -> float:
        """Set-up spawn time over that of a reference spawn made just before."""
        ref = spawn(SETUP_REF_ARGV, self.timeout()).wall_s
        return spawn(SETUP_ARGV, self.timeout()).wall_s / ref


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Closed loop of untraced children for `seconds`, with a pair of set-up
    spawns before each so that all of them sample the same stretch of time."""
    bench.setup_ratio()  # compiles the byte code the children import
    setup: list[float] = []
    runs: list[Spawned] = []
    failed: list[Spawned] = []
    t0 = time.perf_counter()
    while bench.attempted == 0 or time.perf_counter() - t0 < seconds:
        setup.append(bench.setup_ratio())
        result, ok = bench.child()
        (runs if ok else failed).append(result)
    # with no run passing its check the figures are still reported, from
    # the failed runs, and the result says `correct: false`
    runs = runs or failed
    walls = [r.adjusted_s for r in runs]
    rss = [r.peak_rss_mb for r in runs]
    metrics = {
        "wall_s": median(walls),
        "rows_per_s": bench.inputs.n_estimates / median(walls),
        "peak_rss_mb": median(rss),
        "setup_s": median(setup) * SETUP_REF_S,
    }
    samples = {"wall_s": walls, "raw_wall_s": [r.wall_s for r in runs], "peak_rss_mb": rss, "setup_ratio": setup}
    return metrics, samples


def measure_per_layer(bench: Bench, seconds: float, spans_path: str) -> tuple[dict, dict]:
    """Alternate untraced children with traced in-process runs for `seconds`.

    `trace.overhead_ratio` divides the median traced wall time, which has no
    interpreter start-up, by the median raw wall time of the children.
    """
    untraced: list[float] = []
    traced: list[dict] = []
    traced_walls: list[float] = []
    out_dir = os.path.join(bench.work_dir, "traced")
    t0 = time.perf_counter()
    while bench.attempted == 0 or time.perf_counter() - t0 < seconds:
        result, ok = bench.child()
        if ok:
            untraced.append(result.wall_s)
        gc.collect()
        run = traced_run(run_argv(bench.workload, bench.inputs, out_dir))
        if bench.record(bench.check(run.exit_code, out_dir) + [f"no target {m}" for m in run.missing]):
            with open(os.path.join(out_dir, "ingest_report.json")) as fh:
                report = json.load(fh)["ingest"]
            files, size = dir_stats(out_dir)
            m = layer_metrics(run)
            m["ingest.kept_ratio"] = report["kept"] / report["total"]
            m["ingest.superseded"] = report["rejects"].get("superseded", 0)
            m["cli.files_written"] = files
            m["cli.bytes_written"] = size
            traced.append(m)
            write_spans(spans_path, run)
            layers = self_time_by_layer(run)
        traced_walls.append(run.wall_s)
        shutil.rmtree(out_dir, ignore_errors=True)
        del run
    metrics = {name: median([m[name] for m in traced]) for name in traced[0]} if traced else {}
    if untraced and traced:
        metrics["trace.overhead_ratio"] = median(traced_walls) / median(untraced)
    samples = {"traced_wall_s": traced_walls, "untraced_wall_s": untraced}
    if traced:
        samples["last_self_s_by_layer"] = layers
    return metrics, samples


def notes(samples: dict, metrics: dict) -> list[str]:
    """Sample counts, raw times and the traced run's time shares."""
    if "raw_wall_s" in samples:
        n, m = len(samples["setup_ratio"]), len(samples["raw_wall_s"])
        return [
            f"wall_s, rows_per_s and peak_rss_mb: medians of {m} runs; setup_s: median of {n} spawn pairs",
            f"raw spawn-to-exit median wall, not speed-adjusted: {median(samples['raw_wall_s'])!r} s",
        ]
    traced = samples["traced_wall_s"]
    lines = [f"per-module metrics: medians of {len(traced)} traced runs against {len(samples['untraced_wall_s'])} untraced"]
    if "last_self_s_by_layer" in samples:
        lines.append("self time by layer in the last traced run, s: " + json.dumps(samples["last_self_s_by_layer"]))
    if metrics:
        wall = median(traced)
        lines.append(
            "share of traced wall: ingest (parse + build_panel) "
            f"{(metrics['ingest.parse_s'] + metrics['ingest.build_panel_s']) / wall:.3f}, "
            f"replay.run_mode {metrics['replay.run_mode_s'] / wall:.3f}; "
            f"normalize_event share of run_mode {metrics['features.normalize_event_s'] / metrics['replay.run_mode_s']:.3f}"
        )
    return lines


def env_stamp() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0, help="how long the run loop measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    os.chdir(ROOT)
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    env = env_stamp()
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-s{args.seed}-trace{args.trace}"
    work_dir = os.path.join(WORK_ROOT, tag)
    results_dir = os.path.join(WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        bench = Bench(workload, args.seed, work_dir, deadline)
        if args.trace:
            metrics, samples = measure_per_layer(bench, args.seconds, os.path.join(results_dir, f"{tag}.spans.csv"))
        else:
            metrics, samples = measure_end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env["loadavg_end"] = loadavg()
    if installed_wrappers():
        raise RuntimeError(f"tracing wrappers left installed: {installed_wrappers()}")

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    correct = bench.failed == 0 and not missing
    out = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    error_rate = bench.failed / bench.attempted
    print(f"perfbench {tag}: {bench.inputs.n_estimates} estimate rows, modes={workload.modes}, run_seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"goldens: {bench.golden_status}")
    for name, m in out["metrics"].items():
        print(f"{name:<34} {m['value']!r:>24} {m['unit']}")
    for line in notes(samples, metrics):
        print(line)
    print(f"{'error_rate':<34} {error_rate!r:>24} ratio ({bench.failed} failed of {bench.attempted} runs)")
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump(dict(out, env=env, samples=samples, error_rate=error_rate), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(out))
    return 0
