#!/usr/bin/env python3
"""Compares two benchmark records written by the driver's --out option.

    python3 perfbench/run.py --workload scale-seq --seed 1 --seconds 10 --trace 0 --out a.json
    ... change the code ...
    python3 perfbench/run.py --workload scale-seq --seed 1 --seconds 10 --trace 0 --out b.json
    python3 perfbench/compare.py a.json b.json

Simulated metrics and per-point fingerprints compare between any two
records, with one exception: a workload with Poisson arrivals draws them
through libm, which may round differently under another compiler, so its
simulated metrics and fingerprints are skipped, with a warning, when the
compilers differ. Host-time metrics compare only when both records carry
the same machine id (core count, CPU model, compiler, build type): a
baseline taken on another machine says nothing about this one. When the
ids differ the host-time metrics are refused and the exit code is 2. A
record whose run failed a correctness check is refused as well.

Exit codes: 0 when nothing got worse than its bound in BENCHMARK.json,
1 when an end-to-end metric did or a fingerprint changed, 2 on a refusal
or unusable input.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Metrics measured in host time or host memory; everything else is a
# simulated quantity or a count that repeats exactly for a given seed.
HOST_METRICS = {
    "rank_ops_per_s", "setup_s", "peak_rss_mb",
    "run.build_s", "run.make_s", "run.loop_s", "run.teardown_s",
    "run.sweep_wall_s", "run.sweep_busy_s", "sim.host_ns_per_event",
    "sim.pdes_speedup", "trace.overhead_pct",
}


def load(path):
    try:
        with open(path) as f:
            rec = json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if rec.get("schema") != "qmb-perfbench/1":
        print(f"compare: {path} is not a qmb-perfbench/1 record", file=sys.stderr)
        sys.exit(2)
    return rec


def bounds():
    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("compare: records are from different workloads or trace modes", file=sys.stderr)
        return 2
    for path, rec in zip(argv, (a, b)):
        if not rec.get("correct", False):
            print(f"compare: {path} is from a run that failed a correctness check",
                  file=sys.stderr)
            return 2
    same_machine = a["machine"] == b["machine"]
    # Without the same libm, Poisson arrival draws need not repeat.
    sim_comparable = a["machine"].get("compiler") == b["machine"].get("compiler") or not (
        a.get("poisson_arrivals") or b.get("poisson_arrivals"))
    if not sim_comparable:
        print("compare: warning: compilers differ and the workload draws Poisson arrivals "
              "through libm; simulated metrics and fingerprints are not compared",
              file=sys.stderr)
    spec = bounds()
    status = 0
    refused = []
    print(f"{'metric':30s} {'before':>14s} {'after':>14s} {'change':>9s}")
    for name, mb in b["metrics"].items():
        ma = a["metrics"].get(name)
        if ma is None:
            continue
        if name in HOST_METRICS and not same_machine:
            refused.append(name)
            continue
        if name not in HOST_METRICS and not sim_comparable:
            continue
        va, vb = ma["value"], mb["value"]
        change = (vb - va) / va if va else 0.0
        note = ""
        m = spec.get(name)
        if m is not None and "bound" in m:
            worse = -change if m["better"] == "higher" else change
            if worse > m["bound"]:
                note = f"  WORSE than bound {m['bound']}"
                status = 1
        print(f"{name:30s} {va:14.6g} {vb:14.6g} {change:+9.2%}{note}")
    for point, fp in (b.get("fingerprints", {}) if sim_comparable else {}).items():
        old = a.get("fingerprints", {}).get(point)
        if old is not None and old != fp and a["seed"] == b["seed"]:
            print(f"fingerprint changed: {point} {old} -> {fp}")
            status = 1
    if refused:
        print("refused: host-time metrics compare only on the same machine id", file=sys.stderr)
        print(f"  before: {json.dumps(a['machine'], sort_keys=True)}", file=sys.stderr)
        print(f"  after:  {json.dumps(b['machine'], sort_keys=True)}", file=sys.stderr)
        print(f"  not compared: {', '.join(refused)}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
