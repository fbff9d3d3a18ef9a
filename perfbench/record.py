"""Record the behaviour digests the benchmark checks runs against.

Usage, from the repository root::

    python3 -m perfbench.record --workload skyline-midas --seeds 0-15

For each seed, builds the workload's world and runs the units its digest
covers, then writes the digest into ``perfbench/digests.json``.  Record
again only when a change is meant to alter answers or ``QueryStats``.
A run's ``--seed`` selects variant ``seed % 100``
(:data:`perfbench.harness.VARIANTS`), so record all of 0-99.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.run import bootstrap


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="a seed or an inclusive range such as 0-15")
    args = parser.parse_args(argv)
    if not bootstrap():
        return 2

    from perfbench.digest import RECORD_PATH, load_record
    from perfbench.harness import run_pass
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    for seed in args.seeds:
        result = run_pass(workload, seed, workload.digest_units)
        if result.failed:
            print(f"seed {seed}: {result.failed} failed queries; not "
                  "recorded", file=sys.stderr)
            return 1
        # Written per seed, so a long recording keeps what it finished.
        record = load_record()
        entry = record.setdefault(workload.name, {})
        if entry.get("units") != workload.digest_units:
            entry["units"] = workload.digest_units
            entry["seeds"] = {}
        entry["seeds"][str(seed)] = result.digest
        entry["seeds"] = dict(sorted(entry["seeds"].items(),
                                     key=lambda item: int(item[0])))
        RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                               + "\n")
        print(f"{workload.name} seed {seed}: {result.digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
