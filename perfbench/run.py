#!/usr/bin/env python3
"""Run one workload of the KnapsackLB repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR (default .bench_build), runs the workload in its own
process, prints the workload's figures by name with units, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. Untraced runs
report the end-to-end metrics of BENCHMARK.json, traced runs its per-layer
metrics; per-layer metrics a workload never touches read 0. A failed output
check exits non-zero and prints no result line. `--workload all` runs every
workload in turn, each in its own process.

Everything the run leaves behind goes to the build directory and to
.bench_out/ (the full record of each run, and the spans of traced runs).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["dp_stream", "dp_churn", "ctl_fleet", "testbed_churn"]
RUN_TIMEOUT_S = 170
OUT_DIR = os.path.join(ROOT, ".bench_out")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)


def build():
    """Configure (once) and build the workload driver; returns its path."""
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                # A half-configured tree must not stick: configure again next time.
                if cmd[1] == "-S":
                    try:
                        os.remove(os.path.join(build_dir, "CMakeCache.txt"))
                    except OSError:
                        pass
                fail(f"build failed (see {log_path})", 3)
    return os.path.join(build_dir, "perfbench")


def check_metrics(metrics, spec, trace):
    """The run must report exactly the metrics BENCHMARK.json declares."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {', '.join(unknown)}")
    out = {}
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                fail(f"end-to-end metric {name} missing from the run")
            out[name] = {"value": 0.0, "unit": unit}  # layer not exercised
            continue
        m = metrics[name]
        if m["unit"] != unit:
            fail(f"metric {name} reported in {m['unit']}, declared {unit}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"metric {name} is not a finite number: {m['value']!r}")
        out[name] = {"value": m["value"], "unit": unit}
    return out


def run_one(binary, spec, workload, seed, seconds, trace):
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{tag}.tsv")]
    load_start = os.getloadavg()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    wall = time.monotonic() - t0
    marker = "PERFBENCH-RESULT\n"
    if marker not in proc.stdout:
        sys.stderr.write(proc.stdout[-2000:])
        fail(f"{workload} exited {proc.returncode} without a result")
    head, body = proc.stdout.split(marker, 1)
    sys.stdout.write(head)
    result = json.loads(body)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "wall_s": wall, "build": result["build"], "info": result["info"],
        "correct": result["correct"], "errors": result["errors"],
        "attempted": result["attempted"], "failed": result["failed"],
        "detail": result["detail"], "metrics": result["metrics"],
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=2)

    print(f"== {workload}  seed {seed}  {seconds:g} s  trace {int(trace)}  "
          f"nproc {record['nproc']}  load {load_start[0]:.2f} -> "
          f"{record['loadavg_end'][0]:.2f}")
    b = result["build"]
    print(f"   build: {b.get('compiler')} {b.get('compiler_banner', '')} "
          f"[{b.get('cxx_flags', '')}]")
    for key, value in sorted(result["info"].items()):
        print(f"   {key}: {value}")
    print(f"   attempted {result['attempted']}  failed {result['failed']}")
    for d in result["detail"]:
        print(f"   {d['name']:<24} {d['value']:>16.6g} {d['unit']}")
    if not result["correct"] or proc.returncode != 0:
        for e in result["errors"]:
            print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)
        fail(f"{workload} failed its output checks (exit {proc.returncode})")
    metrics = check_metrics(result["metrics"], spec, trace)
    if trace:
        with open(os.path.join(HERE, "layers.json")) as f:
            layer_map = json.load(f)["per_layer"]
        idle = []
        for name, m in sorted(metrics.items()):
            entry = layer_map[name]
            if workload not in entry["on"]:
                idle.append(name)
                continue
            print(f"   {name:<28} {m['value']:>16.6g} {m['unit']:<10} "
                  f"moves {', '.join(entry['moves'])}")
        print(f"   not exercised here (reported as 0): {', '.join(idle)}")
    return {"correct": True, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    spec = load_spec()
    binary = build()
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        line = run_one(binary, spec, workload, args.seed, args.seconds,
                       bool(args.trace))
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
