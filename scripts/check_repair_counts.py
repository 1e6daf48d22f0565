#!/usr/bin/env python3
"""Blocking repair-count gate over micro_ops' membership cells.

Reads a google-benchmark JSON run (micro_ops --json) of the
store_event_k1, store_repair_k3 and store_repair_k3_rack families and
checks, for every scheme, the four exact counters one iteration leaves
behind against the checked-in baseline (bench/micro_ops_counts.json):
  * keys_moved_total and keys_rereplicated measure what moved, not
    what finding it cost, so they must match the baseline exactly: a
    change either way means placement or the repair pass moved
    different keys;
  * repair_shards_visited and replica_walks measure the cost, so they
    must not rise above it - a looser dirty report or a wider repair
    plan shows up as more shards touched, and a repair pass that walks
    more often per placement segment as more replica walks. A cost
    below the baseline passes with a notice to update the file.

A cell or counter missing from the run or the baseline fails the gate.

Usage:
  check_repair_counts.py <fresh.json> --schemes="local global ..."
      [--baseline=bench/micro_ops_counts.json]
"""

import json
import sys

from check_bench_regression import cell_rows

FAMILIES = ("store_event_k1", "store_repair_k3", "store_repair_k3_rack")
EXACT = ("keys_moved_total", "keys_rereplicated")
COSTS = ("repair_shards_visited", "replica_walks")


def main(argv):
    fresh_path = None
    baseline_path = "bench/micro_ops_counts.json"
    schemes = []
    for arg in argv[1:]:
        if arg.startswith("--baseline="):
            baseline_path = arg.split("=", 1)[1]
        elif arg.startswith("--schemes="):
            schemes = arg.split("=", 1)[1].split()
        elif arg.startswith("--"):
            sys.exit(f"unknown option: {arg}")
        else:
            fresh_path = arg
    if fresh_path is None or not schemes:
        sys.exit(__doc__)

    with open(fresh_path) as f:
        cells = cell_rows(json.load(f).get("benchmarks", []))
    with open(baseline_path) as f:
        baseline = json.load(f)["cells"]

    bad = []
    for family in FAMILIES:
        for scheme in schemes:
            cell = f"{family}/{scheme}"
            fresh = cells.get(cell, {})
            recorded = baseline.get(cell, {})
            for c in EXACT + COSTS:
                if c not in fresh:
                    bad.append(f"{cell} {c}: missing from the run")
                elif c not in recorded:
                    bad.append(f"{cell} {c}: missing from {baseline_path}")
                elif c in EXACT and fresh[c] != recorded[c]:
                    bad.append(f"{cell} {c}: {fresh[c]:.0f} differs from "
                               f"the recorded {recorded[c]}")
                elif fresh[c] > recorded[c]:
                    bad.append(f"{cell} {c}: {fresh[c]:.0f} rose above "
                               f"the recorded {recorded[c]}")
                elif fresh[c] < recorded[c]:
                    print(f"::notice::{cell} {c}: {fresh[c]:.0f} is below "
                          f"the recorded {recorded[c]} - update "
                          f"{baseline_path}")
    if bad:
        print("repair-count gate failed: " + ", ".join(bad))
        return 1
    print("repair-count gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
