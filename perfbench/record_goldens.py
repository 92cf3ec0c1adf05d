"""Record the SHA-256 goldens of every workload at the default seed.

    python3 perfbench/record_goldens.py

Run it from the root of an estagg checkout after a change that is meant to
alter the artifacts, and commit the resulting goldens.json. The goldens pin
the artifacts only for the python and numpy versions they were recorded
with; the benchmark skips the golden check under other versions.
"""

import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import harness  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    work = os.path.join(harness.WORK_ROOT, "goldens")
    shutil.rmtree(work, ignore_errors=True)
    goldens = {}
    try:
        for name, workload in WORKLOADS.items():
            inputs = write_inputs(workload, harness.DEFAULT_SEED, os.path.join(work, name, "input"))
            out_dir = os.path.join(work, name, "out")
            argv = [sys.executable, "-m", "estagg.cli"] + harness.run_argv(workload, inputs, out_dir)
            child = harness.spawn(argv, timeout_s=600)
            errors = [f"exit code {child.exit_code}"] if child.exit_code else harness.check_run_dir(
                out_dir, harness.mode_labels(workload), inputs
            )
            if errors:
                print(f"{name}: {'; '.join(errors)}", file=sys.stderr)
                return 1
            goldens[name] = harness.golden_subset(harness.hash_tree(out_dir))
            print(f"{name}: {len(goldens[name])} files")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "seed": harness.DEFAULT_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": goldens,
    }
    with open(harness.GOLDENS, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
