#!/usr/bin/env python3
"""The repository benchmark: builds perfbench and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run builds the SystemDS library from src/ and the perfbench
binary into .bench_build/perfbench (CMake, Ninja when available). The run
prints a report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.

Generated inputs, spill files and scratch data live in a per-run directory
under .bench_build that is removed at exit. A traced run leaves its spans in
.bench_build/traces/ and every run its full result (with metadata) in
.bench_build/results/.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
RUN_TIMEOUT_S = 170

# Per-workload metric names, read off each workload's result (README.md,
# "End-to-end metrics"): scoring's open-loop figures are reported, not
# gated, so they come from the metadata.
WORKLOAD_NAMES = {
    "batch": [
        ("script_s.p50", "latency_s.p50", "s"),
        ("script_s.p90", "latency_s.tail", "s"),  # lifecycle only
        ("scripts_per_s", "throughput_per_s", "1/s"),
    ],
    "scoring": [
        ("latency_us.p50.lo", "meta:latency_us.p50.lo", "us"),
        ("latency_us.p90.lo", "meta:latency_us.p90.lo", "us"),
        ("latency_us.p99.lo", "meta:latency_us.p99.lo", "us"),
        ("latency_us.p50.hi", "meta:latency_us.p50.hi", "us"),
        ("latency_us.p90.hi", "meta:latency_us.p90.hi", "us"),
        ("latency_us.p99.hi", "meta:latency_us.p99.hi", "us"),
        ("max_rate_rps", "meta:max_rate_rps", "1/s"),
        ("capacity_rps", "meta:capacity_rps", "1/s"),
    ],
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at src/ next to perfbench/; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed, see " + log_path)
        cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("build failed, see " + log_path)
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kind = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[kind]]


def report(result):
    """Human-readable lines: metadata, every metric, per-workload names."""
    meta = result.get("meta", {})
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, m in sorted(result["metrics"].items()):
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    if meta.get("traced"):
        return
    kind = "scoring" if meta.get("workload") == "scoring" else "batch"
    for name, source, unit in WORKLOAD_NAMES[kind]:
        if name == "script_s.p90" and meta.get("workload") != "lifecycle":
            continue
        if source.startswith("meta:"):
            value = meta.get(source[5:])
        else:
            value = result["metrics"][source]["value"]
            if unit == "us":
                value *= 1e6
        print(f"{name:34s} {value:.6g} {unit}")
    print(f"{'failed_frac':34s} {meta.get('failed_frac', 0):.6g} share")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    expected = expected_metrics(args.trace)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    traces = os.path.join(OUT, "traces")
    results = os.path.join(OUT, "results")
    for d in (tmp, traces, results):
        os.makedirs(d, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scripts", os.path.join(HERE, "scripts"), "--work-dir", work,
           "--trace-out", os.path.join(traces, tag + ".json")]
    # The program's buffer pool spills under TMPDIR: keep it in the run's
    # own directory.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"workload failed (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(result, f, indent=1)

    metrics = {}
    for name in expected:
        m = result["metrics"].get(name)
        if m is None or not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            fail(f"metric {name} missing or not a number")
        metrics[name] = m
    report(result)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
