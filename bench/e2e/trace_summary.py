#!/usr/bin/env python3
"""Summarise a cobalt-e2e trace: self time per layer, and the per-layer
metrics of BENCHMARK.json.

The trace is the JSON-lines file `cobalt_e2e --trace=PATH` writes: a
header line, then one span per line with id, name, start/end (ns),
parent, req, w (sampling weight) and est (1 for a side-timed estimate),
plus an optional scheme tag and numeric attributes.

Self time. A span's self time is its duration minus the time its
children account for. A real child accounts for its duration times its
sampling weight (a 1-in-64 sample of point ops stands for 64 ops). An
estimate child (the hash inside a get, a membership event's backend
mutation replayed on a mirror) was timed beside its parent, not inside
it, so it is subtracted from its parent by duration and from the
enclosing span that actually contains its interval. The layer of a span
is the part of its name before the first dot; "e2e" is the benchmark's
own loop.

    python3 trace_summary.py TRACE [--benchmark BENCHMARK.json] [--json]

With --benchmark, exits nonzero unless every per-layer metric named
there was produced.
"""

import argparse
import json
import sys
from collections import defaultdict

SCHEMES = ["local", "global", "ch", "hrw", "jump", "maglev", "bounded-ch"]

# Universal metrics: every workload produces them from its own spans.
POINT_OPS_NS = {
    "hashing.xxh64_ns": "hashing.xxh64",
    "kv.get_ns": "kv.get",
    "kv.read_node_of_ns": "kv.read_node_of",
    "kv.put_update_ns": "kv.put_update",
    "kv.put_insert_ns": "kv.put_insert",
    "kv.erase_ns": "kv.erase",
    "kv.preload_put_ns": "kv.preload_put",
    "placement.replica_set_ns": "placement.replica_set",
}
EVENT_PHASES_MS = {
    "kv.place_ms": "kv.place",
    "kv.flush_ms": "kv.flush",
    "kv.repair_ms": "kv.repair",
    "placement.mutate_ms": "placement.mutate",
    "placement.dirty_ms": "placement.dirty",
}
SCHEME_SHARES = {
    "kv.{s}.place_share": "kv.place",
    "kv.{s}.flush_share": "kv.flush",
    "kv.{s}.repair_share": "kv.repair",
    "placement.{s}.mutate_share": "placement.mutate",
    "placement.{s}.dirty_share": "placement.dirty",
}
SHARES = {
    "sim.route_read_share": "sim.route_read",
    "sim.route_write_share": "sim.route_write",
    "sim.join_share": "sim.join",
    "cluster.distributed_run_share": "cluster.distributed_run",
    "cluster.audit_share": "cluster.audit",
    "cluster.record_share": "cluster.record",
    "cluster.fault_rounds_share": "cluster.fault_rounds",
    "cluster.execute_share": "cluster.execute",
}


def catalog():
    """Every per-layer metric this script produces, name -> unit."""
    units = {name: "ns" for name in POINT_OPS_NS}
    units["kv.get_self_ns"] = "ns"
    units.update({name: "ms" for name in EVENT_PHASES_MS})
    units.update({
        "placement.dirty_fraction": "frac",
        "placement.probe_depth": "count",
        "kv.visit_ratio": "ratio",
        "kv.copies_per_event": "count",
    })
    for s in SCHEMES:
        units[f"kv.{s}.event_share"] = "frac"
        for pattern in SCHEME_SHARES:
            units[pattern.format(s=s)] = "frac"
        units[f"placement.{s}.dirty_fraction"] = "frac"
        units[f"placement.{s}.probe_depth"] = "count"
        units[f"kv.{s}.visit_ratio"] = "ratio"
        units[f"kv.{s}.copies_per_event"] = "count"
    units.update({name: "frac" for name in SHARES})
    units["sim.des_self_share"] = "frac"
    units["sim.probe_calls_per_read"] = "count"
    units.update({
        "cluster.retry_ratio": "frac",
        "cluster.inflation": "ratio",
        "cluster.useful_frac": "frac",
    })
    return units


def load(path):
    """The spans of a trace by id (the header line is skipped)."""
    with open(path) as f:
        f.readline()
        spans = [json.loads(line) for line in f if line.strip()]
    return {s["id"]: s for s in spans}


def duration(span):
    return span["end"] - span["start"]


class Trace:
    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for s in spans.values():
            self.children[s["parent"]].append(s)
        self.weight = {}
        for sid in sorted(spans):  # parents precede children
            s = spans[sid]
            self.weight[sid] = s["w"] * self.weight.get(s["parent"], 1.0)

    def named(self, name, tag=None):
        return [s for s in self.spans.values()
                if s["name"] == name and (tag is None or s.get("tag") == tag)]

    def under(self, span, name):
        """Whether a span named `name` encloses `span` in the tree."""
        pid = span["parent"]
        while pid:
            if self.spans[pid]["name"] == name:
                return True
            pid = self.spans[pid]["parent"]
        return False

    def weighted_ns(self, spans):
        return sum(duration(s) * self.weight[s["id"]] for s in spans)

    def enclosing(self, span):
        """The nearest ancestor whose interval contains an estimate."""
        pid = span["parent"]
        while pid:
            p = self.spans[pid]
            if p["start"] <= span["start"] and span["end"] <= p["end"]:
                return pid
            pid = p["parent"]
        return 0

    def self_ns(self):
        """Self time of every span, in weighted nanoseconds."""
        taken = defaultdict(float)
        for s in self.spans.values():
            w = self.weight[s["id"]]
            taken[s["parent"]] += duration(s) * w
            if s["est"]:
                taken[self.enclosing(s)] += duration(s) * w
        return {sid: max(0.0, duration(s) * self.weight[sid] - taken[sid])
                for sid, s in self.spans.items()}

    def layer_self_s(self):
        own = self.self_ns()
        layers = defaultdict(float)
        for sid, s in self.spans.items():
            layers[s["name"].split(".", 1)[0]] += own[sid] * 1e-9
        return dict(layers)


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def metrics(trace):
    """The per-layer metrics of one traced run (0 where the workload
    does not exercise that layer)."""
    out = {}
    runs = trace.named("e2e.run")
    wall = sum(duration(s) for s in runs)
    for name, span_name in POINT_OPS_NS.items():
        out[name] = mean(duration(s) for s in trace.named(span_name))
    gets = trace.named("kv.get")
    out["kv.get_self_ns"] = mean(
        duration(g) - sum(duration(c) for c in trace.children[g["id"]]
                          if c["est"])
        for g in gets)

    # Membership events of the measured work: set-up joins are left out.
    events = [e for e in trace.named("kv.membership")
              if not trace.under(e, "e2e.setup")]

    def phase_total(event, phase):
        """Time of `phase` inside one event: place/flush/repair are
        direct children, the mirror spans are children of place."""
        kids = trace.children[event["id"]]
        if phase.startswith("kv."):
            return sum(duration(c) for c in kids if c["name"] == phase)
        return sum(duration(m) for c in kids if c["name"] == "kv.place"
                   for m in trace.children[c["id"]] if m["name"] == phase)

    for name, phase in EVENT_PHASES_MS.items():
        out[name] = mean(phase_total(e, phase) for e in events) * 1e-6

    def event_counts(group):
        return {
            "dirty_fraction": mean(e.get("dirty_fraction", 0.0) for e in group),
            "probe_depth": mean(e.get("probe_depth", 0.0) for e in group),
            "visit_ratio": ratio(sum(e.get("shards_visited", 0.0) for e in group),
                                 sum(e.get("shards_total", 0.0) for e in group)),
            "copies_per_event": ratio(sum(e.get("copies", 0.0) for e in group),
                                      len(group)),
        }

    counts = event_counts(events)
    out["placement.dirty_fraction"] = counts["dirty_fraction"]
    out["placement.probe_depth"] = counts["probe_depth"]
    out["kv.visit_ratio"] = counts["visit_ratio"]
    out["kv.copies_per_event"] = counts["copies_per_event"]

    for s in SCHEMES:
        group = [e for e in events if e.get("tag") == s]
        out[f"kv.{s}.event_share"] = ratio(trace.weighted_ns(group), wall)
        for pattern, phase in SCHEME_SHARES.items():
            out[pattern.format(s=s)] = ratio(
                sum(phase_total(e, phase) * trace.weight[e["id"]]
                    for e in group), wall)
        counts = event_counts(group)
        out[f"placement.{s}.dirty_fraction"] = counts["dirty_fraction"]
        out[f"placement.{s}.probe_depth"] = counts["probe_depth"]
        out[f"kv.{s}.visit_ratio"] = counts["visit_ratio"]
        out[f"kv.{s}.copies_per_event"] = counts["copies_per_event"]

    for name, span_name in SHARES.items():
        out[name] = ratio(trace.weighted_ns(trace.named(span_name)), wall)
    own = trace.self_ns()
    sim_runs = trace.named("sim.run")
    out["sim.des_self_share"] = ratio(sum(own[r["id"]] for r in sim_runs), wall)
    out["sim.probe_calls_per_read"] = ratio(
        sum(r.get("probe_calls", 0.0) for r in sim_runs),
        sum(r.get("reads", 0.0) for r in sim_runs))

    executions = trace.named("cluster.execute")
    sent = sum(e.get("sent", 0.0) for e in executions)
    out["cluster.retry_ratio"] = ratio(
        sum(e.get("retries", 0.0) for e in executions), sent)
    out["cluster.inflation"] = ratio(
        sent, sum(e.get("clean", 0.0) for e in executions))
    out["cluster.useful_frac"] = ratio(
        sum(e.get("completed", 0.0) for e in executions),
        sum(e.get("rounds", 0.0) for e in executions))
    assert set(out) == set(catalog()), "metric catalog out of sync"
    return out


def summarize(path):
    """(per-layer metrics, layer self seconds, wall seconds) of a trace."""
    trace = Trace(load(path))
    wall = sum(duration(s) for s in trace.named("e2e.run")) * 1e-9
    return metrics(trace), trace.layer_self_s(), wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace")
    parser.add_argument("--benchmark", help="BENCHMARK.json to check against")
    parser.add_argument("--json", action="store_true",
                        help="print the metrics as one JSON object")
    args = parser.parse_args()
    values, layers, wall = summarize(args.trace)
    units = catalog()
    if args.json:
        print(json.dumps(values, sort_keys=True))
    else:
        print(f"{'layer':10s} {'self s':>10s} {'share':>7s}")
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"{layer:10s} {seconds:10.4f} {seconds / wall:7.1%}")
        print(f"{'wall':10s} {wall:10.4f}")
        for name in sorted(values):
            print(f"{name:36s} {values[name]:.6g} {units[name]}")
    if args.benchmark:
        with open(args.benchmark) as f:
            wanted = [m["name"] for m in json.load(f)["per_layer"]]
        missing = [name for name in wanted if name not in values]
        if missing:
            print("missing per-layer metrics: " + ", ".join(missing),
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
