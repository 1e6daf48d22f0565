#!/usr/bin/env python3
"""cobalt-e2e runner: builds the driver from source, runs workloads,
summarises and compares results. Standard library only.

One run, the command BENCHMARK.json names (the last line of stdout is
one JSON object with correct / attempted / failed / metrics):

    python3 bench/e2e/run.py --workload kv_point_1m --seed 1 \
        --seconds 40 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
runs the driver with span tracing and reports the per-layer metrics
trace_summary.py derives from the trace.

A suite (sets of runs, alternating workload order between sets, one
traced run per workload and set; prints medians and quartiles, each
set's spread, set agreement, digest stability and tracing overhead)
of the workloads BENCHMARK.json lists, or of --workloads:

    python3 bench/e2e/run.py --suite --sets 2 --runs 10 [--out FILE]
    python3 bench/e2e/run.py --suite --workloads serve_flash_k3,protocol_lossy
    python3 bench/e2e/run.py --suite --scale smoke \
        --workloads kv_point_1m,churn_rack_k3,serve_flash_k3,protocol_lossy

Comparing two suites (a parent commit and a change), one row per
workload and metric, labelled improved / unchanged / worse /
unresolved:

    python3 bench/e2e/run.py --compare parent.json change.json

Everything is built and written under build-bench/ at the repository
root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import trace_summary  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
BINARY = BUILD / "cobalt_e2e"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ["kv_point_1m", "churn_rack_k3", "serve_flash_k3",
             "protocol_lossy"]
# A single run may take this long before it is killed (set-up included).
RUN_CAP_S = 170.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "Makefile").exists() and not (BUILD / "build.ninja").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "cobalt_e2e",
                  "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT, text=True)
        except OSError as error:
            log(f"build: {error}")
            return False
        if result.returncode != 0:
            log(result.stdout[-4000:])
            return False
    return BINARY.exists()


def benchmark_spec():
    """BENCHMARK.json, or None when it is not there."""
    try:
        with open(BENCHMARK) as f:
            return json.load(f)
    except OSError:
        return None


def run_driver(workload, seed, seconds, scale, trace_path=None,
               timeout=RUN_CAP_S):
    """Runs the driver once; returns its parsed output, or None when it
    crashed or ran past `timeout` (the process is killed and reaped)."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--scale={scale}"]
    if trace_path is not None:
        cmd.append(f"--trace={trace_path}")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: killed after {timeout:.0f} s")
        return None
    out = {"workload": workload, "seed": seed, "exit": proc.returncode,
           "wall_s": time.monotonic() - start, "metrics": {}, "units": {},
           "info": {}, "checks": [], "attempted": 0, "failed": 0,
           "digest": None}
    for line in proc.stdout.splitlines():
        parts = line.split(" ", 3)
        if parts[0] in ("metric", "info") and len(parts) == 4:
            target = out["metrics"] if parts[0] == "metric" else out["info"]
            target[parts[1]] = float(parts[2])
            if parts[0] == "metric":
                out["units"][parts[1]] = parts[3]
        elif parts[0] == "check":
            out["checks"].append(line)
        elif parts[0] in ("attempted", "failed"):
            out[parts[0]] = int(parts[1])
        elif parts[0] == "digest":
            out["digest"] = parts[1]
    if proc.stderr.strip():
        log(proc.stderr.strip())
    if proc.returncode not in (0, 1) or out["digest"] is None:
        log(f"{workload} seed {seed}: driver exited {proc.returncode}")
        return None
    out["correct"] = proc.returncode == 0 and all(
        " ok " in c for c in out["checks"])
    return out


def traced(workload, seed, seconds, scale):
    """One traced run; adds its per-layer metrics and layer self times."""
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{workload}-{seed}.jsonl"
    out = run_driver(workload, seed, seconds, scale, trace_path=path)
    if out is None:
        return None
    out["per_layer"], out["layers"], _ = trace_summary.summarize(path)
    path.unlink()
    return out


def single_run(args):
    """One run of one workload, reported as one JSON line."""
    if not build():
        log("build failed")
        return 1
    spec = benchmark_spec()
    if args.trace:
        out = traced(args.workload, args.seed, args.seconds, args.scale)
    else:
        out = run_driver(args.workload, args.seed, args.seconds, args.scale)
    if out is None:
        return 1
    correct = out["correct"]
    if args.trace:
        units = trace_summary.catalog()
        values = out["per_layer"]
        wanted = [m["name"] for m in spec["per_layer"]] if spec else sorted(values)
    else:
        units = out["units"]
        values = out["metrics"]
        wanted = [m["name"] for m in spec["end_to_end"]] if spec else sorted(values)
    missing = [name for name in wanted if name not in values]
    if missing:
        log("metrics not produced: " + ", ".join(missing))
        return 1
    for check in out["checks"]:
        log(check)
    result = {
        "correct": correct,
        "attempted": max(1, out["attempted"]),
        "failed": out["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


# --- suites ----------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(values):
    """The quartile spread of `values` as a share of their median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def e2e_bounds(spec):
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def suite(args):
    if not build():
        log("build failed")
        return 1
    spec = benchmark_spec()
    bounds = e2e_bounds(spec) if spec else {}
    if args.workloads:
        workloads = args.workloads.split(",")
    elif spec:
        workloads = [w["name"] for w in spec["workloads"]]
    else:
        workloads = WORKLOADS
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        log("unknown workloads: " + ", ".join(unknown))
        return 1
    baseline_wall = {}
    if args.baseline:
        with open(args.baseline) as f:
            for run in json.load(f)["runs"]:
                if not run.get("traced"):
                    baseline_wall.setdefault(run["workload"], []).append(
                        run["wall_s"])
    runs = []
    for s in range(args.sets):
        order = workloads if s % 2 == 0 else list(reversed(workloads))
        for workload in order:
            for r in range(args.runs):
                seed = args.seed + r
                walls = baseline_wall.get(workload) or [
                    run["wall_s"] for run in runs
                    if run["workload"] == workload and not run["traced"]
                    and run["ok"]]
                timeout = (min(RUN_CAP_S, 3 * statistics.median(walls))
                           if walls else RUN_CAP_S)
                out = run_driver(workload, seed, args.seconds, args.scale,
                                 timeout=timeout)
                runs.append(record(out, workload, seed, s, False))
                log(f"set {s} {workload} seed {seed}: " +
                    ("ok" if runs[-1]["ok"] else "FAILED"))
            out = traced(workload, args.seed, args.seconds, args.scale)
            runs.append(record(out, workload, args.seed, s, True))
    result = {
        "cpu": cpu_model(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "scale": args.scale,
        "seconds": args.seconds,
        "sets": args.sets,
        "runs_per_set": args.runs,
        "bounds": bounds,
        "runs": runs,
        "summary": summarize_suite(runs, workloads, bounds, args.sets),
    }
    out_path = Path(args.out) if args.out else BUILD / "suite.json"
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1)
    print_summary(result["summary"])
    log(f"wrote {out_path}")
    return 0 if all(run["ok"] for run in runs) else 1


def cpu_model():
    """The processor the suite ran on, as the kernel names it."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def record(out, workload, seed, set_index, is_traced):
    """One suite entry; a killed or crashed run counts as failed."""
    if out is None:
        return {"workload": workload, "seed": seed, "set": set_index,
                "traced": is_traced, "ok": False, "wall_s": None}
    entry = {k: out[k] for k in ("wall_s", "metrics", "info", "attempted",
                                 "failed", "digest", "correct")}
    entry.update({"workload": workload, "seed": seed, "set": set_index,
                  "traced": is_traced, "ok": out["correct"]})
    if is_traced:
        entry["per_layer"] = out["per_layer"]
        entry["layers"] = out["layers"]
    return entry


def per_op_wall(run):
    """Whole-process wall seconds per op: the base of the tracing
    overhead, since tracing also slows set-up and verification."""
    ops = run["info"].get("ops", 0)
    return run["wall_s"] / ops if ops else None


def summarize_suite(runs, workloads, bounds, sets):
    summary = {}
    for workload in workloads:
        plain = [r for r in runs if r["workload"] == workload
                 and not r["traced"] and r["ok"]]
        tracedruns = [r for r in runs if r["workload"] == workload
                      and r["traced"] and r["ok"]]
        entry = {"failed_runs": sum(1 for r in runs if r["workload"] == workload
                                    and not r["ok"]),
                 "metrics": {}}
        for name in (plain[0]["metrics"] if plain else {}):
            values = [r["metrics"][name] for r in plain]
            q1, med, q3 = quartiles(values)
            by_set = [[r["metrics"][name] for r in plain if r["set"] == s]
                      for s in range(sets)]
            by_set = [v for v in by_set if v]
            per_set = [statistics.median(v) for v in by_set]
            bound, better = bounds.get(name, (None, None))
            row = {"median": med, "q1": q1, "q3": q3,
                   "spread": spread(values),
                   "set_medians": per_set,
                   "set_spreads": [spread(v) for v in by_set]}
            if bound is not None and len(per_set) >= 2:
                row["sets_agree"] = apart(min(per_set), max(per_set)) <= bound
            entry["metrics"][name] = row
        digests = {}
        for r in plain + tracedruns:
            digests.setdefault(r["seed"], set()).add(r["digest"])
        entry["digests_stable"] = all(len(d) == 1 for d in digests.values())
        overheads = []
        for t in tracedruns:
            base = [per_op_wall(r) for r in plain
                    if r["set"] == t["set"] and r["seed"] == t["seed"]]
            if base and base[0] and per_op_wall(t):
                overheads.append(per_op_wall(t) / base[0] - 1.0)
        entry["trace_overhead"] = statistics.median(overheads) if overheads else None
        if tracedruns:
            entry["per_layer"] = tracedruns[0]["per_layer"]
            entry["layers"] = tracedruns[0]["layers"]
        summary[workload] = entry
    return summary


def print_summary(summary):
    for workload, entry in summary.items():
        overhead = entry["trace_overhead"]
        print(f"== {workload}: failed runs {entry['failed_runs']}, digests "
              f"{'stable' if entry['digests_stable'] else 'DIFFER'}, "
              f"trace_overhead "
              f"{'n/a' if overhead is None else f'{overhead:+.1%}'}")
        print(f"  {'metric':16s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s}  {'per set':>17s}  sets")
        for name, row in entry["metrics"].items():
            agree = row.get("sets_agree")
            per_set = " ".join(f"{s:.1%}" for s in row["set_spreads"])
            print(f"  {name:16s} {row['median']:14.6g} {row['q1']:14.6g} "
                  f"{row['q3']:14.6g} {row['spread']:8.2%}  {per_set:>17s}  "
                  f"{'' if agree is None else ('agree' if agree else 'DISAGREE')}")


# --- comparing two suites ----------------------------------------------


def apart(a, b):
    """How far apart two values are, as a share of the smaller one (in
    either direction, so a set that reads better also disagrees)."""
    low = min(abs(a), abs(b))
    return abs(a - b) / low if low else 0.0


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of parent."""
    if not parent:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(parent, change, bound, better):
    """improved / unchanged / worse / unresolved, by the benchmark's
    rules: a gain needs nine tenths of the pairs and a median gap wider
    than the parent's own quartile spread; a parent spread wider than
    the bound leaves the metric unresolved unless every change run beats
    every parent run."""
    def beats(a, b):
        return a < b if better == "lower" else a > b

    q1, med, q3 = quartiles(parent)
    change_med = statistics.median(change)
    if all(beats(c, p) for c in change for p in parent):
        return "improved"
    if med and (q3 - q1) / abs(med) > bound:
        return "unresolved"
    if worse_by(med, change_med, better) > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    if pairs and wins >= 0.9 * len(pairs) and abs(change_med - med) > q3 - q1:
        return "improved"
    return "unchanged"


def compare(parent_path, change_path):
    with open(parent_path) as f:
        parent = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    bounds = parent["bounds"] or e2e_bounds(benchmark_spec())

    def values(suite_result, workload, name):
        runs = sorted((r for r in suite_result["runs"]
                       if r["workload"] == workload and not r["traced"]
                       and r["ok"]), key=lambda r: (r["set"], r["seed"]))
        return [r["metrics"][name] for r in runs if name in r["metrics"]]

    worst = 0
    print(f"{'workload':16s} {'metric':16s} {'parent':>14s} {'change':>14s} "
          f"{'delta':>8s}  verdict")
    for workload in sorted({r["workload"] for r in parent["runs"]}):
        for name, (bound, better) in bounds.items():
            p = values(parent, workload, name)
            c = values(change, workload, name)
            if not p or not c:
                print(f"{workload:16s} {name:16s} {'':>14s} {'':>14s} "
                      f"{'':>8s}  missing")
                worst = 1
                continue
            label = verdict(p, c, bound, better)
            pm, cm = statistics.median(p), statistics.median(c)
            print(f"{workload:16s} {name:16s} {pm:14.6g} {cm:14.6g} "
                  f"{(cm - pm) / pm if pm else 0:+8.2%}  {label}")
            if label == "worse":
                worst = 1
    return worst


def main():
    parser = argparse.ArgumentParser(
        description="cobalt-e2e benchmark runner (see the module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--workloads", help="comma-separated workloads of "
                        "a suite (default: those BENCHMARK.json lists)")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--baseline", help="suite JSON whose median wall "
                        "times set the 3x kill limit")
    parser.add_argument("--out", help="where the suite JSON goes")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    if args.seconds is None:
        spec = benchmark_spec()
        args.seconds = 0.25 if args.scale == "smoke" else (
            spec["run_seconds"] if spec else 10)
    if args.compare:
        return compare(*args.compare)
    if args.suite:
        if args.scale == "smoke":
            args.sets, args.runs = min(args.sets, 1), min(args.runs, 1)
        return suite(args)
    if args.workload is None:
        parser.error("--workload, --suite or --compare is required")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
