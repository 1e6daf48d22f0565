#!/usr/bin/env python3
"""Advisory store hot-path regression gate (the nightly-bench step).

Compares a fresh google-benchmark JSON run of the store hot-path
family (micro_ops --json output: {"benchmarks": [{"name", "real_time",
...}]}) against the checked-in baseline BENCH_store_hotpath.json
("after" map: bench/scheme[/...] -> ns). A benchmark slower than
--threshold x its baseline (default 1.3) prints a warning (GitHub
annotation format when running in Actions).

The membership cells run a fixed iteration count with repetitions and
report aggregates only; their _median row stands for the cell, under
the name without the /iterations:N/repeats:R suffixes (cell_rows).

Advisory by design: nightly runners are shared and noisy, and the
baseline was recorded on the 1-core CI container - the gate surfaces
trends, it does not fail the build. Pass --strict to exit nonzero on
regressions instead (for local use on a quiet machine).

Regenerating the baseline after an intentional perf change is
documented in docs/BENCHMARKS.md (reduced scale, --checks=off
harnesses are unrelated - micro_ops has no checks; just re-run the
recorded command and splice the fresh real_time values into "after").

Usage:
  check_bench_regression.py <fresh.json> [--baseline=BENCH_store_hotpath.json]
      [--threshold=1.3] [--strict]
"""

import json
import re
import sys

_SHAPE_RE = re.compile(r"/(iterations|repeats):\d+")


def cell_rows(benchmarks):
    """-> {cell name: row}, one row per cell: a plain run's row, or the
    _median aggregate of a repeated one, keyed without its
    /iterations:N/repeats:R suffixes."""
    cells = {}
    for row in benchmarks:
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") != "median":
                continue
            name = row["run_name"]
        else:
            name = row["name"]
        cells[_SHAPE_RE.sub("", name)] = row
    return cells


def main(argv):
    fresh_path = None
    baseline_path = "BENCH_store_hotpath.json"
    threshold = 1.3
    strict = False
    for arg in argv[1:]:
        if arg.startswith("--baseline="):
            baseline_path = arg.split("=", 1)[1]
        elif arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg == "--strict":
            strict = True
        elif arg.startswith("--"):
            sys.exit(f"unknown option: {arg}")
        else:
            fresh_path = arg
    if fresh_path is None:
        sys.exit(__doc__)

    with open(fresh_path) as f:
        fresh = {
            name: row["real_time"]
            for name, row in cell_rows(json.load(f).get("benchmarks", [])).items()
        }
    with open(baseline_path) as f:
        baseline = json.load(f)["after"]

    if not fresh:
        # The gate's own total-failure mode (filter drift, renamed
        # family) must be at least as loud as a single regression.
        print(f"::warning::bench regression gate: no benchmarks parsed "
              f"from {fresh_path} - the store hot-path family is not "
              f"being tracked")
        return 1 if strict else 0

    regressions = []
    missing = []
    for name, base_ns in sorted(baseline.items()):
        ns = fresh.get(name)
        if ns is None:
            missing.append(name)
            continue
        ratio = ns / base_ns
        marker = " <-- REGRESSION" if ratio > threshold else ""
        print(f"{name}: {ns:.1f} ns vs baseline {base_ns:.1f} ns "
              f"({ratio:.2f}x){marker}")
        if ratio > threshold:
            regressions.append((name, ratio))

    for name in missing:
        print(f"::warning::bench regression gate: {name} missing from "
              f"the fresh run")
    for name, ratio in regressions:
        print(f"::warning::store hot path regression (advisory): {name} "
              f"is {ratio:.2f}x its checked-in baseline "
              f"(threshold {threshold}x)")

    if regressions:
        print(f"check_bench_regression: {len(regressions)} advisory "
              f"regression(s) above {threshold}x")
        return 1 if strict else 0
    print("check_bench_regression: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
