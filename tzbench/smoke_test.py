#!/usr/bin/env python3
"""Smoke test for the benchmark, on its reduced workloads.

Usage, from the repository root:

    python3 tzbench/smoke_test.py

Runs `smoke` (the campaign preset of that name, through run_campaign) and
`smoke-flow` (cold flows on c17 and c432), untraced and traced. Each run must
exit 0 with correct=true and no failures, print every metric BENCHMARK.json
names for that mode with the same unit as a finite number, and a traced run
must leave a Chrome trace-event file with one complete event per span.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: correct is false"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{label}: metrics {sorted(set(metrics) ^ set(expected))} "
        "differ from BENCHMARK.json")
    for name, unit in expected.items():
        m = metrics[name]
        assert m["unit"] == unit, f"{label}: {name} unit {m['unit']} != {unit}"
        v = m["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v), (
            f"{label}: {name} = {v!r}")


def check_trace_file(workload):
    path = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                        or ".bench_build", "tzbench",
                        f"trace-{workload}-seed1.json")
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans, f"{path}: no spans"
    for e in spans:
        assert e["dur"] >= 0 and {"job", "parent", "span"} <= set(e["args"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in ("smoke", "smoke-flow"):
        for trace, expected in modes.items():
            check(run(workload, trace), expected, f"{workload} trace={trace}")
        check_trace_file(workload)
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
