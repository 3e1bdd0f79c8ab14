#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root, after at least one perfbench/run.py call has
built the harness (run.py builds it anyway).

1. Delay canary. The harness sleeps, inside every timed pass of
   farness-spine-compact, for 20 % of that pass's own time. The run's
   estimate_s must then read worse than the undelayed run of the same seed
   by more than the metric's bound in BENCHMARK.json: a 20 % slowdown of
   one workload cannot pass as noise.
2. Counter canary. traverse.edges_relaxed from two traced runs with the
   same seed must be equal, and one extra BFS made by the harness inside
   the counted pass (from node 0 of the workload's first graph) must raise
   it by exactly 2m, m being that graph's edge count: a BFS over a
   connected graph relaxes every directed edge once.

Exit code 0 when both hold, 1 otherwise.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = "farness-spine-compact"
SECONDS = 10
PAIRS = 3


def run(*extra, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           WORKLOAD, "--seed", "1", "--seconds", str(SECONDS), "--trace",
           str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("selftest: run failed: " + " ".join(cmd))
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def first_graph_edges():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    out = subprocess.run([os.path.join(build_dir, "perfbench"), "--describe"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    for line in out.splitlines():
        if line.startswith(WORKLOAD + " "):
            fields = dict(kv.split("=", 1) for kv in line.split()[1:])
            return int(fields["m"])
    sys.exit("selftest: no graph listed for " + WORKLOAD)


def delay_canary(bound):
    base, delayed = [], []
    for _ in range(PAIRS):
        base.append(run()["estimate_s"]["value"])
        delayed.append(run("--inject-delay", "0.2")["estimate_s"]["value"])
    worse = statistics.median(delayed) / statistics.median(base) - 1.0
    print("delay canary: estimate_s %.4f -> %.4f s (%+.1f %%), bound %.0f %%"
          % (statistics.median(base), statistics.median(delayed),
             100 * worse, 100 * bound))
    return worse > bound


def counter_canary():
    a = run(trace=1)["traverse.edges_relaxed"]["value"]
    b = run(trace=1)["traverse.edges_relaxed"]["value"]
    c = run("--inject-extra-bfs", trace=1)["traverse.edges_relaxed"]["value"]
    want = 2 * first_graph_edges()
    print("counter canary: edges_relaxed %d, repeat %d, with extra BFS %d "
          "(+%d, want +%d)" % (a, b, c, c - a, want))
    return a == b and c - a == want


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "estimate_s")
    ok_delay = delay_canary(bound)
    ok_counter = counter_canary()
    print("selftest: delay canary %s, counter canary %s"
          % ("ok" if ok_delay else "FAILED", "ok" if ok_counter else "FAILED"))
    return 0 if ok_delay and ok_counter else 1


if __name__ == "__main__":
    sys.exit(main())
