#!/usr/bin/env python3
"""The benchmark's own test.

    python3 pipebench/test_pipebench.py

Runs every workload at a tiny size, traced and untraced, and checks that each
metric BENCHMARK.json names is printed with its unit and a sample count, and
that the result line is well formed. Then runs each workload with one
prediction flipped and with one row dropped from an observed result, and
checks that the correctness oracles catch both (non-zero exit, "correct":
false). Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.05", "--seconds", "1"]
METRIC_LINE = re.compile(
    r"^metric (\S+) = (\S+) (\S+) \(samples (\d+)\)$")

# Per-layer metrics a workload does not reach; they read 0 with 0 samples.
# README.md lists the same sets.
UNREACHED = {
    "predict_batch": {
        "provider.write_p99_ms",
        "mining_model.train_us_per_case.nb",
        "mining_model.train_us_per_case.dt", "store.fsyncs_per_write_stmt",
        "store.fsync_us_p50", "store.fsync_us_p99",
        "store.written_bytes_per_user_byte",
    },
    "train_durable": {
        "server.rtt_overhead_us", "server.bytes_per_stmt",
        "server.frames_per_stmt", "server.chunk_encode_us_per_row",
        "server.chunk_decode_us_per_row",
        "prediction_join.projection_us_per_case",
        "prediction_join.projection_allocs_per_case",
    },
}


def run(workload, seed, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)] + TINY
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    return proc


def fail(message, proc=None):
    print("FAIL:", message)
    if proc is not None:
        print(proc.stdout[-3000:])
        print(proc.stderr[-3000:])
    sys.exit(1)


def check_run(spec, workload, trace):
    proc = run(workload, 7, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}", proc)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload}: correct={result['correct']} "
             f"failed={result['failed']}", proc)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload}: attempted={result['attempted']}")
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3),
                                   int(m.group(4)))
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [d["name"] for d in declared]
    if sorted(result["metrics"]) != sorted(names):
        fail(f"{workload} trace={trace}: result metrics "
             f"{sorted(result['metrics'])} != declared {sorted(names)}")
    for d in declared:
        name = d["name"]
        if name not in printed:
            fail(f"{workload}: metric {name} not printed with unit and "
                 "sample count", proc)
        value, unit, samples = printed[name]
        if unit != d["unit"] or result["metrics"][name]["unit"] != d["unit"]:
            fail(f"{workload}: metric {name} unit {unit}, declared "
                 f"{d['unit']}")
        unreached = trace and name in UNREACHED[workload]
        if unreached and (samples != 0 or value != 0):
            fail(f"{workload}: {name} is documented as unreached but has "
                 f"{samples} samples")
        if not unreached and samples < 1:
            fail(f"{workload}: metric {name} has no samples", proc)
        if not trace and value <= 0:
            fail(f"{workload}: end-to-end metric {name} reads {value}")
    if not any(line.startswith("context {") for line in lines):
        fail(f"{workload}: no context line", proc)
    context = json.loads(
        next(l for l in lines if l.startswith("context "))[len("context "):])
    for key in ("commit", "nproc", "build_type", "compiler", "seed",
                "store_fs"):
        if key not in context:
            fail(f"{workload}: context lacks {key}")


def check_corruption(workload, how):
    proc = run(workload, 7, 0, ["--corrupt", how])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode == 0 or result["correct"] is not False:
        fail(f"{workload}: --corrupt {how} was not caught", proc)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = [w["name"] for w in spec["workloads"]]
    assert set(listed) == set(UNREACHED), listed
    for workload in UNREACHED:
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print(f"ok  {workload} trace={trace}: every metric reported")
        for how in ("flip", "drop"):
            check_corruption(workload, how)
            print(f"ok  {workload}: --corrupt {how} fails the oracle")
    print("all pipebench checks passed")


if __name__ == "__main__":
    main()
