#!/usr/bin/env python3
"""Smoke self-test of the benchmark at a tiny view size.

Run from the repository root:

    python3 xvubench/selftest.py

For every workload named in BENCHMARK.json it runs xvubench once
untraced and once traced at |C| = 400, and checks that the correctness gate
passed, that every end-to-end (untraced) or per-layer (traced) metric is
printed with the unit BENCHMARK.json gives it (end-to-end values above
zero), and that the traced run's
trace file parses as Chrome trace-event JSON. Exits non-zero on the first
failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROWS = "400"


def run(workload, trace, trace_out):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--rows", ROWS, "--trace-out", trace_out]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}\n{proc.stdout}")
    return json.loads(lines[-1])


def check_metrics(label, result, wanted, positive):
    if result.get("correct") is not True:
        raise AssertionError(f"{label}: correctness gate failed")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: unexpected keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] != 0:
        raise AssertionError(f"{label}: attempted/failed {result}")
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        raise AssertionError(f"{label}: metric names differ: "
                             f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        value = got[m["name"]]
        if value["unit"] != m["unit"]:
            raise AssertionError(f"{label}: {m['name']} unit {value['unit']}")
        v = value["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v) or \
                (positive and v <= 0):
            raise AssertionError(f"{label}: {m['name']} value {value}")


def check_trace(label, path):
    with open(path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    if not events:
        raise AssertionError(f"{label}: empty trace")
    ids = {e["args"]["span"] for e in events}
    for e in events:
        if e["ph"] != "X" or e["dur"] < 0:
            raise AssertionError(f"{label}: bad event {e}")
        parent = e["args"]["parent"]
        if parent != 0 and parent not in ids:
            raise AssertionError(f"{label}: dangling parent in {e}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(out_dir, exist_ok=True)
    for w in spec["workloads"]:
        name = w["name"]
        trace_out = os.path.join(out_dir, name + ".json")
        check_metrics(name + " untraced", run(name, 0, trace_out),
                      spec["end_to_end"], positive=True)
        check_metrics(name + " traced", run(name, 1, trace_out),
                      spec["per_layer"], positive=False)
        check_trace(name, trace_out)
        print(f"ok {name}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
