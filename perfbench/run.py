"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload skyline-midas --seed 1 \\
        --seconds 25 --trace 0

Runs one workload in this fresh process and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones of a traced run.  Logs go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bootstrap() -> bool:
    """Pin BLAS / OpenMP pools to one thread before NumPy loads, so a run
    measures one core whatever the machine offers, and put the checkout's
    ``src`` on the import path.  False when there is no ``repro`` source."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ[name] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the repro package is missing under {ROOT}/src; "
              "run from a checkout of the repository", file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        return 2

    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
