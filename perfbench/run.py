"""Benchmark entry point; run it from the root of an estagg checkout.

    python3 perfbench/run.py --workload narrow_matrix --seed 1 --seconds 20 --trace 0

The program under test is imported from the checkout's `src/`; without it
the benchmark exits with status 2 and prints no result. See harness.py for
what is measured and BENCHMARK.json for the workloads and metrics.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "estagg", "cli.py")):
        print(f"perfbench: no estagg sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import harness

    sys.exit(harness.main())
