#!/usr/bin/env python3
"""BRICS benchmark: build, run one workload, print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the library from src/, brics_serve, and the
harness) into $CARGO_TARGET_DIR, default .bench_build; later runs rebuild
incrementally. The harness writes its logs, trace spans and bench
artifacts under <build dir>/perfbench-out.

The last stdout line is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1), each as {"value": ..., "unit": ...}. A
per-layer metric of a layer the workload does not run reads 0. The exit
code is 0 when every output check passed, 1 otherwise; a failed build or
a crashed harness prints no result line.

--inject-delay and --inject-extra-bfs are passed to the harness for
selftest.py only.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the harness; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "brics_serve", "-j", str(os.cpu_count() or 4)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def run_harness(cmd):
    """Run the harness in its own process group, so a timeout also stops
    the daemon it spawned. Returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: harness timed out after %d s" % HARNESS_TIMEOUT_S)
        return None, []
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-delay", type=float, default=0.0)
    ap.add_argument("--inject-extra-bfs", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload " + args.workload)
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    if not build(build_dir):
        return 1
    # Relative, so the daemon's AF_UNIX socket path stays short.
    out_dir = os.path.relpath(os.path.join(build_dir, "perfbench-out"), ROOT)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.inject_delay:
        cmd += ["--inject-delay", str(args.inject_delay)]
    if args.inject_extra_bfs:
        cmd.append("--inject-extra-bfs")

    code, lines = run_harness(cmd)
    result = None
    for line in lines:
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            log(line)
    if code != 0 or result is None:
        log("perfbench: harness failed (exit %s)" % code)
        return 1

    correct = bool(result["correct"])
    for problem in result["problems"]:
        log("perfbench: check failed: " + problem)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                log("perfbench: missing metric " + m["name"])
                correct = False
            value = 0.0
        if not math.isfinite(value):
            log("perfbench: non-finite metric " + m["name"])
            correct, value = False, 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
