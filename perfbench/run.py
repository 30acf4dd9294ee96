"""Benchmark entry point.

    python3 perfbench/run.py --workload ckl-scan --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Prints notes, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Inputs and the
traced run's spans are written under ``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "choilike" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no choilike sources under {SRC}\n")
        return 1
    for var in BLAS_THREAD_VARS:  # before numpy is imported: one single-threaded client
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; one of {known}\n")
        return 1
    trace = bool(args.trace)
    report = bench.run_workload(args.workload, args.seed, args.seconds, trace, WORK_DIR, SRC)
    for line in report.notes:
        print(line)
    print(json.dumps(report.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
